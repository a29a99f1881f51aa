"""Recover the core projectors from the state alone, without the formulas.

Given only the entangled state and the slit projector, the detector
identities "Y psi = (G x 1) psi" are linear in the unknown Hermitian
matrix G.  The solver assembles that linear system, solves it exactly,
and then searches the affine solution set for actual projectors.  The
closed-form cores must lie in the solution set — this is an independent
cross-check of every formula in the family modules.

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
          f"{len(cs.rhs)} unknown core(s)")

    for sol in solver.solve(cs):
        core = fx.cores[f"{sol.name}_I"]
        print(f"\n  unknown {sol.name}: least-squares residual {sol.residual:.3e}, "
          f"solution set has dimension {sol.nullity}")
        print(f"  stored closed-form core satisfies the system to "
              f"{cs.residual_of(sol.name, core):.3e}")

        # the affine set contains a continuum of projectors; purifying the
        # free block of random members finds some, and purifying the
        # closed-form core's own block recovers it exactly
        members = solver.filter_projectors(sol, fx.space, draws=500, seed=1,
                                           candidates=[core])
        dist = min(np.max(np.abs(m - core)) for m in members)
        traces = sorted({round(float(np.trace(m).real), 6) for m in members})
        print(f"  projector search: {len(members)} found "
              f"(traces {traces}), closest to stored core at {dist:.3e}")
    print()
