import tracemalloc

import numpy as np
import pytest

import linear_system as ls
from test_family3 import _random_params as random_family3
from test_family4 import _random_params as random_family4
from twoslit import family3, family4, fixtures, solver
from twoslit.errors import DimensionError, StateShapeError
from twoslit.linalg import is_hermitian, is_idempotent
from twoslit.space import ProductSpace, detector_flags, slit_projector


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
        assert np.array_equal(ls.coords(ref), _loop_coords(ref))
    basis, ref = solver.from_coords(np.eye(n * n), n), _loop_basis(n)
    assert len(basis) == len(ref) == n * n
    assert all(np.array_equal(b, r) for b, r in zip(basis, ref))


def test_coords_roundtrip():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h + h.conj().T
    assert np.max(np.abs(solver.from_coords(ls.coords(h), 4) - h)) < 1e-14


def test_reference_system_solution(sys3):
    fx, cs, sols = sys3
    assert cs.mode == 3 and not cs.degenerate
    (sol,) = sols
    assert sol.name == "G" and sol.exists
    assert sol.residual < 1e-12 and sol.orthogonality_residual < 1e-12
    assert (sol.dim_a, sol.dim_b, sol.free_dim, sol.nullity) == (2, 2, 2, 4)
    assert sol.rank_range == (2, 4)
    assert cs.tracking_residual("G", fx.cores["G_I"]) < 1e-12
    assert ls.LinearSystem(cs).residual_of("G", fx.cores["G_I"]) < 1e-12


def _member(sol, t):
    """The member p_a + v X v^dagger with X = from_coords(t)."""
    return sol.p_a + sol.v @ solver.from_coords(t, sol.free_dim) @ sol.v.conj().T


def test_members_satisfy_system(sys3):
    fx, cs, (sol,) = sys3
    oracle = ls.LinearSystem(cs)
    rng = np.random.default_rng(8)
    for _ in range(5):
        m = _member(sol, rng.uniform(-2, 2, sol.nullity))
        assert is_hermitian(m, 1e-12)
        assert cs.tracking_residual("G", m) < 1e-10
        assert oracle.residual_of("G", m) < 1e-10


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
        assert cs.tracking_residual("G", m) < 1e-8
    again = solver.filter_projectors(sol, fx.space, draws=800, seed=1)
    assert len(again) == len(found)
    assert all(np.array_equal(a, b) for a, b in zip(found, again))


def test_blind_filter_survivors_and_their_order(sys3):
    fx, cs, (sol,) = sys3
    found = solver.filter_projectors(sol, fx.space, draws=800, seed=1)
    assert [round(float(np.trace(m).real), 9) for m in found] == [3, 2, 3, 3, 3, 3, 4, 3, 3, 3, 3]


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
    assert sol.exists and sol.free_dim == 6 and sol.nullity == 36
    assert sol.rank_range == (0, 6)
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
        assert sol.exists and sol.residual < 1e-10
        assert sol.free_dim == 4 and sol.nullity == 16
        assert cs.tracking_residual(name, core) < 1e-12
        assert ls.LinearSystem(cs).residual_of(name, core) < 1e-12
        found = solver.filter_projectors(sol, fx.space, draws=0, candidates=[core])
        assert len(found) == 1
        assert np.max(np.abs(found[0] - core)) < 1e-9


def test_one_factorisation_matches_per_target_solves(sys4):
    _, cs, sols = sys4
    oracle = ls.LinearSystem(cs)
    assert list(cs.masks) == list(oracle.rhs) == [sol.name for sol in sols] == ["G", "L"]
    _, sv, vt = np.linalg.svd(oracle.matrix)
    for rhs, sol in zip(oracle.rhs.values(), oracle.solve()):
        x0, *_ = np.linalg.lstsq(oracle.matrix, rhs, rcond=None)
        assert np.max(np.abs(sol.particular - x0)) < 1e-12
        ref = vt[vt.shape[0] - sol.nullity:]
        assert np.max(np.abs(sol.nullspace.T @ sol.nullspace - ref.T @ ref)) < 1e-12


def _basis_product_matrix(rows):
    """The system matrix from the n^2 basis matrices, the reference for
    the index-array construction."""
    n = rows.shape[0]
    cols = (solver.from_coords(np.eye(n * n), n) @ rows).reshape(n * n, -1)
    return np.concatenate([cols.real, cols.imag], axis=1).T


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_system_matrix_equals_the_basis_product(n):
    rng = np.random.default_rng(n)
    for m in (1, 3, 7):
        rows = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        assert np.array_equal(ls.system_matrix(rows), _basis_product_matrix(rows))


@pytest.mark.parametrize("name", ["spin32", "dim10"])
def test_assembled_matrix_equals_the_basis_product_on_fixtures(name):
    fx = fixtures.fixture(name)
    cs = solver.assemble(slit_projector(fx.space), fx.psi, fx.space)
    rows = fx.psi.reshape(fx.space.dim_i, fx.space.dim_ii)
    assert np.array_equal(cs.rows, rows)
    assert np.array_equal(ls.LinearSystem(cs).matrix, _basis_product_matrix(rows))


def test_assemble_memory_stays_near_the_state_size():
    sp = ProductSpace(200, (50, 50, 50, 50))
    psi = np.zeros(sp.dim, dtype=complex)
    tracemalloc.start()
    try:
        cs = solver.assemble(slit_projector(sp), psi, sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the state is 640 kB; the n^2-unknown system matrix would be 26 GB
    assert cs.rows.size == psi.size
    assert peak < 3 * psi.nbytes


def _loop_purify(m, max_iter=200, stop=1e-13):
    """The one-matrix purification, kept as the reference for the spectral one."""
    for _ in range(max_iter):
        m2 = m @ m
        if np.max(np.abs(m2 - m)) < stop:
            return m
        m = 3 * m2 - 2 * m2 @ m
        if not np.isfinite(m).all() or np.max(np.abs(m)) > 1e6:
            return None
    return None


def _by_start(stack, **kw):
    """_purify's result with one entry per start of the stack: its projector, or None."""
    out = [None] * len(stack)
    for k, y in zip(*solver._purify(stack, **kw)):
        out[k] = y
    return out


def _assert_same_outcomes(got, want):
    """The same None pattern, and survivors within 1e-12 of the loop's."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert np.max(np.abs(g - w)) <= 1e-12


def _loop_filter(cs, sol, tol=1e-9, draws=10000, box=2.0, seed=0, candidates=(), sizes=None):
    """filter_projectors one whole member at a time, on _loop_purify, keeping
    the projectors that meet the detector identity to 1e-8.

    A list passed as ``sizes`` receives the survivor count after the
    candidates and after each draw: the search with k draws returns the
    first ``sizes[k]`` survivors.
    """
    found = []
    sizes = [] if sizes is None else sizes
    v, vh = sol.v, sol.v.conj().T

    def consider(m):
        m = _loop_purify(m)
        if m is None or not (is_hermitian(m, tol) and is_idempotent(m, tol)):
            return
        if cs.tracking_residual(sol.name, m) > max(tol, 1e-8):
            return
        if all(np.max(np.abs(prev - m)) > 1e-8 for prev in found):
            found.append(m)

    for cand in candidates:  # the closest member
        consider(sol.p_a + v @ (vh @ ((cand + cand.conj().T) / 2) @ v) @ vh)
    sizes.append(len(found))
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        consider(_member(sol, rng.uniform(-box, box, size=sol.nullity)))
        sizes.append(len(found))
    return found


def _mixed_starts(n, rng):
    """Starts that converge, diverge past 1e6, turn non-finite, run out of
    steps or are screened out before the first product."""
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(h)
    eye = np.eye(n, dtype=complex)
    starts = []
    for spread in (0.1, 0.3, 0.45):  # eigenvalues near 0 and 1: converge
        lam = np.where(np.arange(n) % 2, 1.0, 0.0) + rng.uniform(-spread, spread, n)
        starts.append((q * lam) @ q.conj().T)
    starts.append(np.diag(np.arange(n) % 2).astype(complex))  # a projector already
    lam = np.where(np.arange(n) % 2, 1.0, 0.0)
    lam[0] = 1.6                                              # within sqrt(5)/2 of 1/2: kept,
    starts.append((q * lam) @ q.conj().T)                     # converges
    lam[0] = 0.5 + 1.25                                       # a column of m - I/2 of length
    starts.append(np.diag(lam).astype(complex))               # 1.25: screened
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
        _assert_same_outcomes(_by_start(part), [_loop_purify(m) for m in part])


@pytest.mark.parametrize("f", [1, 2, 4, 6])
def test_screened_starts_all_diverge(f):
    """Hermitian starts with spectra across 1/2 +- sqrt(5)/2: each one with a
    column of m - I/2 longer than _ESCAPE fails in the unscreened loop too."""
    rng = np.random.default_rng(60 + f)
    starts = []
    for _ in range(200):
        q, _ = np.linalg.qr(rng.standard_normal((f, f)) + 1j * rng.standard_normal((f, f)))
        starts.append((q * rng.uniform(-1.5, 2.5, f)) @ q.conj().T)
    starts = np.array(starts)
    screened = np.linalg.norm(starts - np.eye(f) / 2, axis=-2).max(axis=-1) > solver._ESCAPE
    want = [_loop_purify(m) for m in starts]
    kept_and_failed = [w is None for w, s in zip(want, screened) if not s]
    assert screened.sum() >= 50 and any(kept_and_failed) and not all(kept_and_failed)
    assert all(w is None for w, s in zip(want, screened) if s)
    _assert_same_outcomes(_by_start(starts), want)


def test_screen_needs_a_hermitian_start():
    # a long column, yet nilpotent: the loop purifies it to 0 in two steps
    m = np.array([[0, 100], [0, 0]], dtype=complex)
    assert np.array_equal(_loop_purify(m), np.zeros((2, 2)))
    assert _by_start(m[None]) == [None]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
def test_stacked_purification_retires_by_each_test():
    eye = np.eye(3, dtype=complex)
    # 10 I, 1e200 I and NaN are screened out; 1.65 I passes the screen (a column
    # of length 1.15) and exceeds 1e6 at its fifth step
    stack = np.array([10 * eye, 1e200 * eye, np.full((3, 3), np.nan), 1.65 * eye,
                      0.5 * eye, np.diag([1.0, 0, 1]).astype(complex)])
    got = _by_start(stack)
    assert got[:5] == [None] * 5
    assert np.max(np.abs(got[5] - stack[5])) <= 1e-12
    # the 1/2 fixed point is still finite and bounded: only the step limit drops it
    assert _by_start(stack[4:5], max_iter=1000) == [None]
    assert _by_start(np.empty((0, 3, 3), dtype=complex)) == []
    # a start first found converged after k - 1 steps is dropped with one step fewer
    slow = np.array([np.diag([0.5 + 1e-12, 0.5 - 1e-12, 1.0]).astype(complex)])
    k = next(k for k in range(1, 400) if _loop_purify(slow[0], max_iter=k) is not None)
    assert k > 50
    assert _by_start(slow, max_iter=k - 1) == [None]
    _assert_same_outcomes(_by_start(slow, max_iter=k), [_loop_purify(slow[0], k)])


@pytest.mark.parametrize("f", [1, 2, 4, 6])
def test_spectral_purification_matches_the_loop_on_seeded_starts(f):
    """Spectra across the basin (-0.618, 1.618) of bounded orbits, so that
    some starts of every size converge and some diverge."""
    rng = np.random.default_rng(80 + f)
    starts = []
    for _ in range(800):
        q, _ = np.linalg.qr(rng.standard_normal((f, f)) + 1j * rng.standard_normal((f, f)))
        starts.append((q * rng.uniform(-0.7, 1.7, f)) @ q.conj().T)
    starts = np.array(starts)
    want = [_loop_purify(m) for m in starts]
    assert any(w is None for w in want) and any(w is not None for w in want)
    got = _by_start(starts)
    _assert_same_outcomes(got, want)
    ok, ys = solver._spectral(starts)  # unscreened, as the draws that pass reach it
    assert ok.tolist() == [w is not None for w in want]
    assert all(np.array_equal(g, y) for g, y in zip((g for g in got if g is not None), ys))
    for y in ys:
        assert np.max(np.abs(y - y.conj().T)) <= 1e-14
        assert np.max(np.abs(y @ y - y)) <= 1e-14


@pytest.mark.parametrize("f", [0, 1, 2, 4, 6])
def test_coordinate_screen_keeps_the_rows_of_the_column_screen(f):
    rng = np.random.default_rng(90 + f)
    t = np.concatenate([rng.uniform(-2, 2, (400, f * f)), rng.uniform(-0.6, 1.6, (400, f * f))])
    if f:  # columns of length exactly 1.2, and one float past it
        edge = np.zeros((6, f * f))
        edge[:, :f] = 0.5
        edge[0, 0], edge[1, f - 1] = 1.7, -0.7
        edge[2, 0], edge[3, f - 1] = np.nextafter(1.7, 2), np.nextafter(-0.7, -1)
        if f > 1:
            edge[4, f], edge[5, f + 1] = 1.2, np.nextafter(-1.2, -2)
        t = np.concatenate([t, edge])
    d = solver.from_coords(t, f) - np.eye(f) / 2
    kept = solver._short_coords(t, f)
    assert np.array_equal(kept, solver._short(d.real ** 2 + d.imag ** 2))
    assert kept.any() and (f == 0 or not kept.all())
    if f:
        assert kept[-6:].tolist() == [True, True, False, False] + ([True, False] if f > 1 else
                                                                   [True, True])


def _state(name, seed=None):
    """(space, psi, cores by target) of a fixture or of a family point drawn
    with ``seed`` (by default 3 for family3, 4 for family4)."""
    if name == "family3":
        p = random_family3(np.random.default_rng(3 if seed is None else seed))
        return p.space(), family3.state(p), {"G": family3.core_projector(p)[0]}
    if name == "family4":
        p = random_family4(np.random.default_rng(4 if seed is None else seed))
        g, el, co = family4.core_projectors(p)
        return p.space(), family4.state(p, co), {"G": g, "L": el}
    fx = fixtures.fixture(name)
    return fx.space, fx.psi, {n[0]: c for n, c in fx.cores.items()}


def _sets(name, seed=None):
    sp, psi, cores = _state(name, seed)
    cs = solver.assemble(slit_projector(sp), psi, sp)
    return sp, cs, [(sol, cores[sol.name]) for sol in solver.solve(cs)]


@pytest.mark.parametrize("name", ["spin32", "dim10", "family3", "family4"])
def test_free_block_splits_the_solution_set(name):
    sp, cs, sets = _sets(name)
    oracle = {o.name: o for o in ls.LinearSystem(cs).solve()}
    rng = np.random.default_rng(9)
    for sol, core in sets:
        p_a, v, f = sol.p_a, sol.v, sol.free_dim
        assert f == (2 if sp.mode == 3 else 4) and sol.nullity == f * f
        vh = v.conj().T
        assert np.max(np.abs(vh @ v - np.eye(f))) < 1e-12
        assert is_hermitian(p_a, 1e-12) and is_idempotent(p_a, 1e-12)
        assert np.max(np.abs(p_a @ v)) < 1e-12
        # the linear system's set splits the same way, through the eigh of sum_k H_k^2
        o = oracle[sol.name]
        h = solver.from_coords(o.nullspace, o.n)
        assert np.max(np.abs(v @ (vh @ h @ v) @ vh - h)) < 1e-12
        p_old, v_old, x0, c = ls.free_block(o)
        assert np.max(np.abs(p_a - p_old)) < 1e-12
        assert np.max(np.abs(v @ vh - v_old @ v_old.conj().T)) < 1e-12
        assert c.shape == (o.nullity, f, f)
        for t in rng.uniform(-2, 2, size=(3, o.nullity)):
            m = o.member(t)
            assert np.max(np.abs(p_a + v @ (vh @ m @ v) @ vh - m)) < 1e-12
        assert np.max(np.abs(p_a + v @ (vh @ core @ v) @ vh - core)) < 1e-12


@pytest.mark.parametrize("name, seed", [("spin32", None), ("dim10", None)]
                         + [(f, s) for f in ("family3", "family4") for s in (None, 20, 21)])
def test_closed_form_agrees_with_the_linear_system(name, seed):
    sp, cs, sets = _sets(name, seed)
    oracle = ls.LinearSystem(cs)
    by_name = {o.name: o for o in oracle.solve()}
    for sol, core in sets:
        o, v, vh = by_name[sol.name], sol.v, sol.v.conj().T
        assert sol.exists and sol.orthogonality_residual <= 1e-12 and o.residual <= 1e-12
        assert o.nullity == sol.free_dim ** 2 == sol.nullity
        for m in (sol.p_a, sol.p_a + v @ vh):  # the least and the largest member
            assert oracle.residual_of(sol.name, m) <= 1e-12
        assert np.max(np.abs(sol.p_a + v @ (vh @ core @ v) @ vh - core)) <= 1e-12
        lo, hi = sol.rank_range
        assert lo == round(np.trace(sol.p_a).real) <= round(np.trace(core).real) <= hi


def _generic_state(sp, seed):
    """A random unit state with the detector support pattern T psi = E psi."""
    rng = np.random.default_rng(seed)
    shape = (sp.dim_i, sp.dim_ii)
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    t = np.repeat(np.array(detector_flags(sp, "T"), dtype=bool), sp.partition)
    rows[:sp.rank_e, ~t] = 0
    rows[sp.rank_e:, t] = 0
    return rows.reshape(-1) / np.linalg.norm(rows)


@pytest.mark.parametrize("partition", [(2, 2, 2, 2), (1,) * 8], ids=["4-block", "8-block"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generic_state_has_no_solution(partition, seed):
    sp = ProductSpace(10, partition)
    cs = solver.assemble(slit_projector(sp), _generic_state(sp, seed), sp)
    for sol, o in zip(solver.solve(cs), ls.LinearSystem(cs).solve()):
        assert not sol.exists and sol.orthogonality_residual > 1e-3
        # no Hermitian matrix meets the identity: the least-squares residual is far from 0
        assert o.residual > 1e-3 and sol.residual >= o.residual - 1e-12
        assert solver.filter_projectors(sol, sp, draws=50, candidates=[sol.p_a]) == []


def test_search_needs_the_space_it_was_solved_on(sys3):
    fx, _, (sol,) = sys3
    for other in (ProductSpace(6, (2, 1, 1, 1)), ProductSpace(8, (1, 1, 1, 1)),
                  fixtures.fixture("dim10").space):
        with pytest.raises(DimensionError, match="solved on"):
            solver.filter_projectors(sol, other, draws=10)
    same = ProductSpace(6, (1, 1, 1, 1))
    assert len(solver.filter_projectors(sol, same, draws=0, candidates=[fx.cores["G_I"]])) == 1


@pytest.mark.parametrize("with_core", [False, True], ids=["blind", "candidate"])
def test_batched_filter_matches_one_at_a_time_across_batch_edges(with_core):
    for name in ("spin32", "dim10", "family3"):
        sp, cs, sets = _sets(name)
        for sol, core in sets:
            cands = [core] if with_core else []
            b = solver._stack_size(sol.free_dim)
            sizes = []
            every = _loop_filter(cs, sol, draws=b + 1, seed=1, candidates=cands, sizes=sizes)
            for draws in (0, 1, 800, b - 1, b, b + 1):
                got = solver.filter_projectors(sol, sp, draws=draws, seed=1, candidates=cands)
                want = every[:sizes[draws]]
                assert len(got) == len(want), (name, sol.name, draws)
                for g, w in zip(got, want):
                    assert np.max(np.abs(g - w)) <= 1e-12, (name, sol.name, draws)


@pytest.mark.parametrize("name, seed", [("spin32", None), ("dim10", None)]
                         + [(f, s) for f in ("family3", "family4") for s in (None, 20, 21)])
def test_screen_leaves_the_survivors_unchanged(name, seed, monkeypatch):
    sp, _, sets = _sets(name, seed)
    for sol, core in sets:
        for search_seed, cands in ((0, []), (1, [core]), (7, [core])):
            search = dict(draws=600, seed=search_seed, candidates=cands)
            screened = solver.filter_projectors(sol, sp, **search)
            with monkeypatch.context() as mp:
                mp.setattr(solver, "_ESCAPE", np.inf)
                plain = solver.filter_projectors(sol, sp, **search)
            assert [m.tobytes() for m in screened] == [m.tobytes() for m in plain]


def test_oblique_candidate_gives_a_hermitian_survivor(sys3):
    fx, cs, (sol,) = sys3
    p_a, v = sol.p_a, sol.v
    vh = v.conj().T
    _, u = np.linalg.eigh(vh @ fx.cores["G_I"] @ v)
    y = u @ np.array([[0, 0.8], [0, 1]]) @ u.conj().T  # idempotent, not Hermitian
    (m,) = solver.filter_projectors(sol, fx.space, draws=0, candidates=[p_a + v @ y @ vh])
    assert is_hermitian(m, 1e-12) and is_idempotent(m, 1e-12)
    assert cs.tracking_residual("G", m) < 1e-10


# states on 2 x (1, 1, 1, 1) whose solution set is a single point, or empty
# (A and B overlap), and the zero state, which constrains nothing
SMALL = ProductSpace(2, (1, 1, 1, 1))
SINGLE_POINT = np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2)
INCONSISTENT = np.array([0.5, 0.5, 0, 0, 0, 0, 0.5, 0.5])


@pytest.mark.parametrize("psi, want", [
    (SINGLE_POINT, [np.diag([1.0, 0.0])]),
    (INCONSISTENT, []),
], ids=["single-point", "inconsistent"])
def test_filter_on_a_single_point_set(psi, want):
    sp = SMALL
    cs = solver.assemble(slit_projector(sp), psi, sp)
    (sol,) = solver.solve(cs)
    assert sol.nullity == 0 and sol.exists == bool(want)
    for draws in (1, 100):
        for found in (solver.filter_projectors(sol, sp, draws=draws),
                      _loop_filter(cs, sol, draws=draws)):
            assert [m.tolist() for m in found] == [m.tolist() for m in want]
    assert solver.filter_projectors(sol, sp, draws=0) == []


@pytest.mark.parametrize("sp, psi", [(SMALL, SINGLE_POINT),
                                     (ProductSpace(4, (1, 1, 1, 1)), np.eye(4).reshape(-1) / 2)],
                         ids=["dim_i-2", "dim_i-4"])
def test_a_point_set_search_keeps_one_member_in_bounded_memory(sp, psi):
    # 10000 draws, every one a survivor: 2.56 MB of members at dim_i 4 if built at once
    (sol,) = solver.solve(solver.assemble(slit_projector(sp), psi, sp))
    assert sol.free_dim == 0
    solver.filter_projectors(sol, sp, draws=1)  # imports and first-call caches
    tracemalloc.start()
    try:
        found = solver.filter_projectors(sol, sp, draws=10000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 1 and np.array_equal(found[0], sol.p_a)
    assert peak < 1 << 20


@pytest.mark.parametrize("name", ["spin32", "dim10", "family3", "family4",
                                  "single-point", "inconsistent", "zero-state"])
def test_particular_point_lies_in_the_row_space(name):
    # the particular point is the minimum-norm one: no part along the nullspace
    small = {"single-point": SINGLE_POINT, "inconsistent": INCONSISTENT,
             "zero-state": np.zeros(SMALL.dim)}
    if name in small:
        states = [(SMALL, small[name])]
    elif name in ("spin32", "dim10"):
        states = [_state(name)[:2]]
    else:
        family, draw = ((family3, random_family3) if name == "family3"
                        else (family4, random_family4))
        states = [(p.space(), family.state(p))
                  for p in (draw(np.random.default_rng(seed)) for seed in range(10, 15))]
    for sp, psi in states:
        for o in ls.LinearSystem(solver.assemble(slit_projector(sp), psi, sp)).solve():
            assert np.linalg.norm(o.nullspace @ o.particular) <= 1e-12, (name, o.name)


def test_negative_draw_count_rejected(sys3):
    fx, _, (sol,) = sys3
    with pytest.raises(DimensionError, match="draws"):
        solver.filter_projectors(sol, fx.space, draws=-1)


@pytest.mark.parametrize("seed", [1.7, True, -1, "0", None],
                         ids=["fraction", "bool", "negative", "string", "none"])
def test_search_seed_is_a_non_negative_integer(sys3, seed):
    fx, _, (sol,) = sys3
    with pytest.raises(DimensionError, match="seed"):
        solver.filter_projectors(sol, fx.space, draws=10, seed=seed)


def test_search_reads_integral_draws_and_seed(sys3):
    fx, _, (sol,) = sys3
    got = solver.filter_projectors(sol, fx.space, draws=20.0, seed=np.int64(3))
    want = solver.filter_projectors(sol, fx.space, draws=20, seed=3)
    assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))
    assert solver.filter_projectors(sol, fx.space, draws=0, seed=0) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)],
                         ids=["nan", "inf", "nan-imag"])
def test_non_finite_state_rejected(bad):
    fx = fixtures.fixture("spin32")
    psi = fx.psi.copy()
    psi[0] = bad
    with pytest.raises(StateShapeError, match="state must be finite"):
        solver.assemble(slit_projector(fx.space), psi, fx.space)


def _rotated_slit_projector(sp):
    q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(sp.dim_i, sp.dim_i)))
    return q @ slit_projector(sp) @ q.T


@pytest.mark.parametrize("name", ["spin32", "dim10"])
@pytest.mark.parametrize("e_i", [
    _rotated_slit_projector, lambda sp: 0.5 * np.eye(sp.dim_i), lambda sp: np.eye(sp.dim_i),
    lambda sp: np.eye(sp.dim_i) - slit_projector(sp),
    lambda sp: slit_projector(sp) + 1e-12 * np.eye(sp.dim_i),
], ids=["rotated", "half-identity", "identity", "complement", "perturbed"])
def test_e_i_must_be_the_slit_projector(name, e_i):
    """A wrong E_I is reported as E_I, never as the state breaking the pattern."""
    fx = fixtures.fixture(name)
    with pytest.raises(StateShapeError, match=f"E_I must be the slit projector of "
                                              f"dim_i={fx.space.dim_i}"):
        solver.assemble(e_i(fx.space), fx.psi, fx.space)
