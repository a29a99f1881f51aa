"""Recover the core projectors from the state alone, without the formulas.

Given only the entangled state and the slit projector, the detector
identity "Y psi = (G x 1) psi" says G R_Y = R_Y and G R_N = 0, where R_Y
and R_N are the columns of the state's rows inside and outside the
detector's blocks.  A solution exists exactly when their column spaces A
and B are orthogonal, and the solutions are then P_A + V X V^dagger, with
V a basis of the complement F of A + B and X any Hermitian block.  The
solver finds A, B and V from two thin SVDs and one QR, then searches the
set for actual projectors.  The closed-form cores must lie in the set:
this is an independent cross-check of every formula in the family modules.

Run:  python3 demos/constraint_solver.py
"""

import numpy as np

from twoslit import fixtures, solver
from twoslit.space import slit_projector

for name in ("spin32", "dim10"):
    fx = fixtures.fixture(name)
    print(f"=== {name}: dim_i = {fx.space.dim_i}, "
          f"product dim = {fx.space.dim} ===")
    cs = solver.assemble(slit_projector(fx.space), fx.psi, fx.space)
    print(f"mode {cs.mode}, degenerate: {cs.degenerate}, "
          f"{len(cs.masks)} unknown core(s)")

    for sol in solver.solve(cs):
        core = fx.cores[f"{sol.name}_I"]
        lo, hi = sol.rank_range
        print(f"\n  unknown {sol.name}: solution exists: {sol.exists} "
              f"(largest cosine between A and B {sol.orthogonality_residual:.3e})")
        print(f"  dim A = {sol.dim_a}, dim B = {sol.dim_b}, free block {sol.free_dim} x "
              f"{sol.free_dim} (set dimension {sol.nullity}), projector ranks {lo}..{hi}")
        print(f"  tracking residual of P_A {sol.residual:.3e}, "
              f"of the stored closed-form core {cs.tracking_residual(sol.name, core):.3e}")

        # the set contains a continuum of projectors; purifying the free
        # block of random members finds some, and purifying the closed-form
        # core's own block recovers it exactly
        members = solver.filter_projectors(sol, fx.space, draws=500, seed=1,
                                           candidates=[core])
        dist = min(np.max(np.abs(m - core)) for m in members)
        traces = sorted({round(float(np.trace(m).real), 6) for m in members})
        print(f"  projector search: {len(members)} found "
              f"(traces {traces}), closest to stored core at {dist:.3e}")
    print()
