"""The three-detector family: two 10x10 cores and an 80-dimensional state.

Three pairwise-incompatible properties (the slit projector E and the two
lifted cores G, L) are read off one entangled state by three commuting
detectors T, Y, W.  This family is the smallest known point of the
construction with three properties; it also exhibits detector
correlations, unlike the two-detector family.  The report is the one
``twoslit verify`` prints: ``verify_bundle`` checked on the factors.

Run:  python3 demos/three_property_family.py
"""

import numpy as np

from twoslit import family4, fixtures
from twoslit.linalg import frobenius_norm, commutator
from twoslit.verify import verify_bundle

fx = fixtures.fixture("dim10")
co = family4.derive_coefficients(fx.params)

print("derived coefficients at the reference point (p = 11/72, m = 67/456):")
print(f"  l4 = {co.l4:.6f}   lambda4 = {co.lambda4:.6f}   (both -2/3)")
print(f"  C = {co.C:.4f}  Gamma = {co.Gamma:.4f}  D = {co.D:.6f}  Delta = {co.Delta:.6f}")
print(f"  u = {co.u:.12f}  (= sqrt(2)/9)")
print(f"  z = {co.z:.12f}  (= 4/(19 sqrt(3)))")
print(f"  q = {co.q:.12f}  (= 19/72)      n = {co.n:.12f}  (= 3/8)")

bundle = family4.build(fx.params)
print(f"\ncore sizes: G_I {bundle.G_I.shape}, L_I {bundle.L_I.shape}; "
      f"traces {np.trace(bundle.G_I).real:.1f} and {np.trace(bundle.L_I).real:.1f}")
print(f"G_I matches stored reference to {np.max(np.abs(bundle.G_I - fx.cores['G_I'])):.3e}")
print(f"L_I matches stored reference to {np.max(np.abs(bundle.L_I - fx.cores['L_I'])):.3e}")
print(f"state lives on the product space: dim {bundle.space.dim}, "
      f"partition {bundle.space.partition}")

print("\npairwise incompatibility of the three properties:")
for name, a, b in (("[E,G]", bundle.E, bundle.G),
                   ("[E,L]", bundle.E, bundle.L),
                   ("[G,L]", bundle.G, bundle.L)):
    print(f"  ||{name}|| = {frobenius_norm(commutator(a, b)):.4f}")

report = verify_bundle(bundle)
print("\ncondition report:")
for e in report.entries:
    print(f"  {e.name:13s} [{e.kind:7s}] residual {e.residual:.3e}  "
          f"{'pass' if e.passed else 'FAIL'}")
print(f"all passed: {report.passed}")

print("\ndetector correlations on this state:")
for f in report.correlation_findings:
    print(f"  {f.identity}   (residual {f.residual:.3e})")
print("here a null W outcome forces the Y outcome: the three detections")
print("fire simultaneously but are not informationally independent.")
