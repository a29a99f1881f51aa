"""Walk through the two-detector family at its reference point.

Builds the 6x6 core projector G_I, lifts everything to the 24-dimensional
product space, and checks the defining conditions: the slit projector E and
G are incompatible, yet the right-factor detectors T and Y read them both
off the entangled state simultaneously.  The report is the one
``twoslit verify`` prints: ``verify_bundle`` checked on the factors.

Run:  python3 demos/two_property_family.py
"""

import numpy as np

from twoslit import family3, fixtures
from twoslit.verify import verify_bundle

fx = fixtures.fixture("spin32")
params = fx.params
print("parameter point:")
print(f"  p = {params.p:.6f}   (admissible open interval {params.p_interval})")
print(f"  mu2 = {params.mu2:.4f}  mu3 = {params.mu3:.4f}")
print(f"  lambda2 = {params.lambda2:.4f}  lambda3 = {params.lambda3:.4f}")

bundle = family3.build(params)
print(f"\nderived off-diagonal scale u = {bundle.derived['u']:.12f}")
print(f"derived diagonal anchor  q = {bundle.derived['q']:.12f}  (= 8/15)")

with np.printoptions(precision=4, suppress=True, linewidth=120):
    print("\ncore projector G_I (6x6, Hermitian idempotent, trace 3):")
    print(bundle.G_I.real)
print(f"\nmax |G_I^2 - G_I| = {np.max(np.abs(bundle.G_I @ bundle.G_I - bundle.G_I)):.3e}")
print(f"matches stored reference to {np.max(np.abs(bundle.G_I - fx.cores['G_I'])):.3e}")

report = verify_bundle(bundle)
print("\ncondition report:")
for e in report.entries:
    print(f"  {e.name:13s} [{e.kind:10s}] residual {e.residual:.3e}  "
          f"{'pass' if e.passed else 'FAIL'}")
print(f"all passed: {report.passed}")

print(f"\ndetector correlations found: {len(report.correlation_findings)} "
      "(independent detections on this family)")

# the same construction works at any admissible parameter point
rng = np.random.default_rng(0)
print("\nfive more points of the family:")
for _ in range(5):
    mu2, mu3 = rng.uniform(0, 2), rng.uniform(0, 2)
    lam2, lam3 = rng.uniform(0, 2), rng.uniform(0, 2)
    k = abs(mu3) ** 2 / (1 + abs(mu3) ** 2)
    s = 1 + abs(mu2) ** 2 + abs(mu3) ** 2
    p = k + rng.uniform(0.1, 0.9) / s
    b = family3.build(family3.Family3Params(p=p, mu2=mu2, mu3=mu3,
                                            lambda2=lam2, lambda3=lam3))
    print(f"  p={p:.4f}  q={b.derived['q']:.4f}  "
          f"all conditions pass: {verify_bundle(b).passed}")
