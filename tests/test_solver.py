import numpy as np
import pytest

from twoslit import fixtures, solver
from twoslit.errors import StateShapeError
from twoslit.linalg import is_hermitian, is_idempotent
from twoslit.space import detector_flags, slit_projector


@pytest.fixture(scope="module")
def sys3():
    fx = fixtures.fixture("spin32")
    cs = solver.assemble(slit_projector(fx.space), fx.psi, fx.space)
    return fx, cs, solver.solve(cs)


@pytest.fixture(scope="module")
def sys4():
    fx = fixtures.fixture("dim10")
    cs = solver.assemble(slit_projector(fx.space), fx.psi, fx.space)
    return fx, cs, solver.solve(cs)


def test_hermitian_basis_spans_and_is_orthogonal():
    basis = solver.from_coords(np.eye(9), 3)
    assert len(basis) == 9
    flat = np.array([b.reshape(-1) for b in basis])
    gram = (flat @ flat.conj().T).real
    assert np.max(np.abs(gram - np.diag([1, 1, 1, 2, 2, 2, 2, 2, 2]))) < 1e-14
    for b in basis:
        assert is_hermitian(b, 1e-15)


def _loop_basis(n):
    mats = []
    for i in range(n):
        b = np.zeros((n, n), dtype=complex)
        b[i, i] = 1
        mats.append(b)
    for i in range(n):
        for j in range(i + 1, n):
            b = np.zeros((n, n), dtype=complex)
            b[i, j] = 1
            b[j, i] = 1
            mats.append(b)
            b = np.zeros((n, n), dtype=complex)
            b[i, j] = 1j
            b[j, i] = -1j
            mats.append(b)
    return mats


def _loop_coords(m):
    n = m.shape[0]
    c = [m[i, i].real for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c.append(m[i, j].real)
            c.append(m[i, j].imag)
    return np.array(c)


def _loop_from_coords(c, n):
    m = np.zeros((n, n), dtype=complex)
    for i in range(n):
        m[i, i] = c[i]
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = c[k] + 1j * c[k + 1]
            m[j, i] = c[k] - 1j * c[k + 1]
            k += 2
    return m


@pytest.mark.parametrize("n", range(1, 7))
def test_coordinate_map_matches_loop_reference(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((2, 3, n * n))
    mats = solver.from_coords(stack, n)
    assert mats.shape == (2, 3, n, n)
    for idx in np.ndindex(2, 3):
        ref = _loop_from_coords(stack[idx], n)
        assert np.array_equal(mats[idx], ref)
        assert np.array_equal(solver.from_coords(stack[idx], n), ref)
        assert np.array_equal(solver.coords(ref), _loop_coords(ref))
    basis, ref = solver.from_coords(np.eye(n * n), n), _loop_basis(n)
    assert len(basis) == len(ref) == n * n
    assert all(np.array_equal(b, r) for b, r in zip(basis, ref))


def test_coords_roundtrip():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h + h.conj().T
    assert np.max(np.abs(solver.from_coords(solver.coords(h), 4) - h)) < 1e-14


def test_reference_system_solution(sys3):
    fx, cs, sols = sys3
    assert cs.mode == 3 and not cs.degenerate
    (sol,) = sols
    assert sol.name == "G"
    assert sol.residual < 1e-12
    assert sol.nullity == 4
    assert cs.residual_of("G", fx.cores["G_I"]) < 1e-12


def test_members_satisfy_system(sys3):
    fx, cs, (sol,) = sys3
    rng = np.random.default_rng(8)
    for _ in range(5):
        m = sol.member(rng.uniform(-2, 2, sol.nullity))
        assert is_hermitian(m, 1e-12)
        assert cs.residual_of("G", m) < 1e-10


def test_projection_fixes_members(sys3):
    fx, cs, (sol,) = sys3
    proj = sol.project(fx.cores["G_I"])
    assert np.max(np.abs(proj - fx.cores["G_I"])) < 1e-12


def test_filter_recovers_stored_core_from_candidate(sys3):
    fx, cs, (sol,) = sys3
    found = solver.filter_projectors(sol, fx.space, draws=0,
                                     candidates=[fx.cores["G_I"]])
    assert len(found) == 1
    assert np.max(np.abs(found[0] - fx.cores["G_I"])) < 1e-9


def test_blind_filter_finds_projectors(sys3):
    fx, cs, (sol,) = sys3
    found = solver.filter_projectors(sol, fx.space, draws=800, seed=1)
    assert len(found) >= 1
    for m in found:
        assert is_hermitian(m, 1e-9) and is_idempotent(m, 1e-9)
        assert cs.residual_of("G", m) < 1e-8
    again = solver.filter_projectors(sol, fx.space, draws=800, seed=1)
    assert len(again) == len(found)
    assert all(np.array_equal(a, b) for a, b in zip(found, again))


def test_blind_filter_survivors_and_their_order(sys3):
    fx, cs, (sol,) = sys3
    found = solver.filter_projectors(sol, fx.space, draws=800, seed=1)
    assert [round(float(np.trace(m).real), 9) for m in found] == [4, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3]


def test_filter_with_nothing_to_do(sys3):
    fx, cs, (sol,) = sys3
    assert solver.filter_projectors(sol, fx.space, draws=0) == []


def test_degenerate_flag_for_slit_eigenstate():
    fx = fixtures.fixture("spin32")
    psi = np.zeros(fx.space.dim, dtype=complex)
    psi[0] = 1.0
    cs = solver.assemble(slit_projector(fx.space), psi, fx.space)
    assert cs.degenerate


def test_zero_state_gives_unconstrained_system():
    fx = fixtures.fixture("spin32")
    cs = solver.assemble(slit_projector(fx.space), np.zeros(fx.space.dim), fx.space)
    (sol,) = solver.solve(cs)
    assert cs.degenerate
    assert sol.nullity == 36
    assert sol.residual < 1e-14


def test_pattern_violation_rejected():
    fx = fixtures.fixture("spin32")
    psi = fx.psi.copy()
    psi[5 * 4 + 0] = 0.5  # weight in a first-detector block over a non-slit row
    with pytest.raises(StateShapeError):
        solver.assemble(slit_projector(fx.space), psi / np.linalg.norm(psi), fx.space)


@pytest.mark.parametrize("name", ["spin32", "dim10"])
def test_pattern_checked_on_every_row_and_block(name):
    fx = fixtures.fixture(name)
    sp = fx.space
    t = detector_flags(sp, "T")
    starts = np.cumsum((0,) + sp.partition[:-1])
    forbidden = []
    for j in range(sp.dim_i):
        for k, start in enumerate(starts):
            rows = fx.psi.reshape(sp.dim_i, sp.dim_ii).copy()
            rows[j, start] += 0.5
            psi = rows.reshape(-1) / np.linalg.norm(rows)
            if t[k] == (0 if j < sp.rank_e else 1):
                forbidden.append((j, start))
                with pytest.raises(StateShapeError, match=f"block {k + 1} over H_I row {j + 1},"):
                    solver.assemble(slit_projector(sp), psi, sp)
            else:
                solver.assemble(slit_projector(sp), psi, sp)
    # with every forbidden cell filled, the first in row-major order is named
    rows = fx.psi.reshape(sp.dim_i, sp.dim_ii).copy()
    for j, start in forbidden:
        rows[j, start] += 0.5
    j, start = forbidden[0]
    k = list(starts).index(start)
    with pytest.raises(StateShapeError, match=f"block {k + 1} over H_I row {j + 1},"):
        solver.assemble(slit_projector(sp), rows.reshape(-1), sp)


def test_shape_and_mode_errors():
    fx = fixtures.fixture("spin32")
    with pytest.raises(StateShapeError):
        solver.assemble(np.eye(5), fx.psi, fx.space)
    with pytest.raises(StateShapeError):
        solver.assemble(slit_projector(fx.space), fx.psi[:23], fx.space)


def test_three_detector_system_solution(sys4):
    fx, cs, sols = sys4
    assert cs.mode == 4
    by_name = {s.name: s for s in sols}
    assert set(by_name) == {"G", "L"}
    for name, core in (("G", fx.cores["G_I"]), ("L", fx.cores["L_I"])):
        sol = by_name[name]
        assert sol.residual < 1e-10
        assert sol.nullity == 16
        assert cs.residual_of(name, core) < 1e-12
        found = solver.filter_projectors(sol, fx.space, draws=0, candidates=[core])
        assert len(found) == 1
        assert np.max(np.abs(found[0] - core)) < 1e-9


def test_one_factorisation_matches_per_target_solves(sys4):
    _, cs, sols = sys4
    a = cs.targets[0].matrix
    _, sv, vt = np.linalg.svd(a)
    for tgt, sol in zip(cs.targets, sols):
        x0, *_ = np.linalg.lstsq(a, tgt.rhs, rcond=None)
        assert np.max(np.abs(sol.particular - x0)) < 1e-12
        ref = vt[vt.shape[0] - sol.nullity:]
        assert np.max(np.abs(sol.nullspace.T @ sol.nullspace - ref.T @ ref)) < 1e-12


def test_solve_rejects_targets_with_separate_matrices(sys4):
    _, cs, _ = sys4
    g, el = cs.targets
    split = solver.ConstraintSystem(
        space=cs.space, mode=cs.mode, degenerate=cs.degenerate, psi=cs.psi,
        targets=[g, solver.LinearTarget(el.name, el.n, el.matrix.copy(), el.rhs)])
    with pytest.raises(ValueError):
        solver.solve(split)


def _loop_purify(m, max_iter=200, stop=1e-13):
    """The one-matrix purification, kept as the reference for the stacked one."""
    for _ in range(max_iter):
        m2 = m @ m
        if np.max(np.abs(m2 - m)) < stop:
            return m
        m = 3 * m2 - 2 * m2 @ m
        if not np.isfinite(m).all() or np.max(np.abs(m)) > 1e6:
            return None
    return None


def _loop_filter(sol, tol=1e-9, draws=10000, box=2.0, seed=0, candidates=()):
    """filter_projectors one starting point at a time, on _loop_purify."""
    found = []

    def consider(m):
        m = _loop_purify(m)
        if m is None or not (is_hermitian(m, tol) and is_idempotent(m, tol)):
            return
        delta = solver.coords(m) - sol.particular
        if np.linalg.norm(delta - sol.nullspace.T @ (sol.nullspace @ delta)) > max(tol, 1e-8):
            return
        if all(np.max(np.abs(prev - m)) > 1e-8 for prev in found):
            found.append(m)

    for cand in candidates:
        consider(sol.project(cand))
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        consider(sol.member(rng.uniform(-box, box, size=sol.nullity)))
    return found


def _mixed_starts(n, rng):
    """Starts that converge, diverge past 1e6, turn non-finite or run out of steps."""
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(h)
    eye = np.eye(n, dtype=complex)
    starts = []
    for spread in (0.1, 0.3, 0.45):  # eigenvalues near 0 and 1: converge
        lam = np.where(np.arange(n) % 2, 1.0, 0.0) + rng.uniform(-spread, spread, n)
        starts.append((q * lam) @ q.conj().T)
    starts.append(np.diag(np.arange(n) % 2).astype(complex))  # a projector already
    starts.append(10 * eye)                                   # grows past 1e6
    starts.append(1e200 * eye)                                # overflows to inf/nan
    starts.append(np.full((n, n), np.nan, dtype=complex))     # non-finite from the start
    starts.append(0.5 * eye)                                  # fixed point 1/2: 200 steps
    starts.append(0.5 * eye + (q * 1e-15) @ q.conj().T)       # leaves 1/2 slowly
    return np.array(starts)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2, 6, 10])
def test_stacked_purification_matches_one_matrix_loop(n):
    rng = np.random.default_rng(40 + n)
    stack = _mixed_starts(n, rng)
    stack = stack[rng.permutation(len(stack))]
    want = [_loop_purify(m) for m in stack]
    assert any(w is None for w in want) and any(w is not None for w in want)
    for part in (stack, stack[:1], stack[3:], stack[::-1]):
        got = solver._purify(part)
        ref = [_loop_purify(m) for m in part]
        assert len(got) == len(part)
        for g, r in zip(got, ref):
            assert (g is None) == (r is None)
            if r is not None:
                assert g.tobytes() == r.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
def test_stacked_purification_retires_by_each_test():
    eye = np.eye(3, dtype=complex)
    stack = np.array([10 * eye, 1e200 * eye, 0.5 * eye, np.diag([1.0, 0, 1]).astype(complex)])
    got = solver._purify(stack)
    assert got[:3] == [None, None, None]
    assert got[3].tobytes() == stack[3].tobytes()
    # the 1/2 fixed point is still finite and bounded: only the step limit drops it
    assert solver._purify(stack[2:3], max_iter=1000)[0] is None
    assert solver._purify(np.empty((0, 3, 3), dtype=complex)) == []
    # a start first found converged after k - 1 steps is dropped with one step fewer
    slow = np.array([np.diag([0.5 + 1e-12, 0.5 - 1e-12, 1.0]).astype(complex)])
    k = next(k for k in range(1, 400) if _loop_purify(slow[0], max_iter=k) is not None)
    assert k > 50
    assert solver._purify(slow, max_iter=k - 1) == [None]
    assert solver._purify(slow, max_iter=k)[0].tobytes() == _loop_purify(slow[0], k).tobytes()


@pytest.mark.parametrize("with_core", [False, True], ids=["blind", "candidate"])
def test_batched_filter_matches_one_at_a_time_across_batch_edges(sys3, with_core):
    fx, _, (sol,) = sys3
    cands = [fx.cores["G_I"]] if with_core else []
    b = solver._BATCH
    for draws in (0, 1, b - 1, b, b + 1, 800):
        got = solver.filter_projectors(sol, fx.space, draws=draws, seed=1, candidates=cands)
        want = _loop_filter(sol, draws=draws, seed=1, candidates=cands)
        assert [m.tobytes() for m in got] == [m.tobytes() for m in want], draws
