"""Monte Carlo of the joint measurement, against its exact Born table.

One run samples i.i.d. joint outcomes (slit bit, detector block) from the
exact distribution of the commuting observable pair and keeps their
counts, drawn as one multinomial from a seeded PCG64DXSM generator: a
run is reproducible for a fixed seed, costs the same for any sample
count, and gives the same tally for any shard count.

Run:  python3 demos/sampling_experiment.py
"""

import numpy as np

from twoslit import fixtures, simulate

fx = fixtures.fixture("spin32")
table = simulate.exact_joint(fx.psi, fx.space)
print("exact joint table p(slit bit e, block i):")
print("          block1   block2   block3   block4")
for e in (1, 0):
    cells = "  ".join(f"{v:7.4f}" for v in table[e])
    print(f"  e = {e}:  {cells}")
print("(2/9 = 0.2222, 5/18 = 0.2778; half the mass sits on each slit bit)")

spec = simulate.ExperimentSpec(fx.psi, fx.space, samples=100_000, seed=42)
tally = simulate.run(spec)
print(f"\n{tally.samples} samples, seed {tally.seed}:")
print("counts:")
print(tally.counts)
print(f"worst |empirical - exact| = {np.max(np.abs(tally.empirical - tally.exact)):.5f}")
print(f"p(T fired)          = {tally.p_detector('T'):.5f}   (exact 0.5)")
print(f"p(slit 1 | T fired) = {tally.p_slit_given_detector('T'):.5f}   "
      "(exactly 1: zero-probability cells are never drawn)")

again = simulate.run(spec)
print(f"\nsame seed, same tally: {np.array_equal(again.counts, tally.counts)}")
for shards in (2, 8):
    sharded = simulate.run(spec, shards=shards)
    print(f"split into {shards} shards, same tally: "
          f"{np.array_equal(sharded.counts, tally.counts)}")

fx4 = fixtures.fixture("dim10")
tally4 = simulate.run(simulate.ExperimentSpec(fx4.psi, fx4.space,
                                              samples=50_000, seed=7))
print(f"\nthree-detector family, 50000 samples: p(T) = {tally4.p_detector('T'):.4f}, "
      f"p(Y) = {tally4.p_detector('Y'):.4f}, p(W) = {tally4.p_detector('W'):.4f}")
print(f"p(slit 1 | T fired) = {tally4.p_slit_given_detector('T'):.4f}")
