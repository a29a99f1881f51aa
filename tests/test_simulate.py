import numpy as np
import pytest

from twoslit import fixtures, simulate
from twoslit.errors import DimensionError, StateShapeError, TwoSlitError
from twoslit.space import ProductSpace

SP3 = ProductSpace(6, (1, 1, 1, 1))


@pytest.fixture(scope="module")
def ref3():
    return fixtures.fixture("spin32")


def test_exact_table_on_reference_state(ref3):
    table = simulate.exact_joint(ref3.psi, ref3.space)
    expected = np.array([
        [0.0, 0.0, 2 / 9, 5 / 18],
        [2 / 9, 5 / 18, 0.0, 0.0],
    ])
    assert np.max(np.abs(table - expected)) < 1e-14


def test_exact_table_sums_to_one():
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    psi /= np.linalg.norm(psi)
    table = simulate.exact_joint(psi, SP3)
    assert table.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(table >= 0)


def test_exact_table_on_basis_state():
    psi = np.zeros(24, dtype=complex)
    psi[0] = 1.0  # slit support, first block
    table = simulate.exact_joint(psi, SP3)
    assert table[1, 0] == 1.0 and table.sum() == 1.0


def test_run_is_deterministic(ref3):
    spec = simulate.ExperimentSpec(ref3.psi, ref3.space, samples=20000, seed=7)
    t1, t2 = simulate.run(spec), simulate.run(spec)
    assert np.array_equal(t1.counts, t2.counts)
    assert t1.counts.sum() == 20000


def test_sharding_never_changes_the_tally(ref3):
    spec = simulate.ExperimentSpec(ref3.psi, ref3.space, samples=10001, seed=3)
    base = simulate.run(spec, shards=1).counts
    for shards in (2, 3, 5, 8):
        assert np.array_equal(simulate.run(spec, shards=shards).counts, base)


def test_chunked_draws_match_one_unchunked_stream(ref3):
    samples = 3 * simulate._CHUNK + 5
    table = simulate.exact_joint(ref3.psi, ref3.space)
    cum = np.cumsum(table.reshape(-1) / table.sum())
    cum[-1] = 1.0
    u = np.random.Generator(np.random.Philox(23)).random(samples)
    expected = np.bincount(np.searchsorted(cum, u, side="right"), minlength=cum.size)
    spec = simulate.ExperimentSpec(ref3.psi, ref3.space, samples=samples, seed=23)
    for shards in (1, 3):
        assert np.array_equal(simulate.run(spec, shards=shards).counts, expected.reshape(2, 4))


def _searchsorted_counts(cum, u):
    return np.bincount(np.searchsorted(cum, u, side="right"), minlength=cum.size)


@pytest.mark.parametrize("probs", [
    [0.25, 0.25, 0.25, 0.25],
    [0.0, 0.0, 2 / 9, 5 / 18, 2 / 9, 5 / 18, 0.0, 0.0],   # zero cells at both ends
    [0.0, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0],
    [0.1, 0.0, 0.2, 0.0, 0.3, 0.0, 0.4, 0.0] + [0.0] * 8,  # 16 cells
], ids=["uniform", "spin32", "two-cells", "sixteen"])
def test_count_kernel_matches_searchsorted_at_cdf_boundaries(probs):
    cum = simulate._cumulative(np.array(probs))
    # every boundary, its neighbours one ulp away, both ends of [0, 1) and fill-ins
    u = np.concatenate([cum, np.nextafter(cum, 0), np.nextafter(cum, 1), [0.0],
                        np.linspace(0, 1, 101, endpoint=False)])
    u = u[u < 1.0]
    want = _searchsorted_counts(cum, u)
    assert want.size == cum.size and want.sum() == u.size
    assert np.array_equal(simulate._tally(cum, [u]), want)
    assert np.array_equal(simulate._tally(cum, np.array_split(u, 5)), want)
    assert np.array_equal(simulate._tally(cum, []), np.zeros(cum.size, dtype=np.int64))


def test_zero_probability_cells_are_never_drawn(ref3):
    spec = simulate.ExperimentSpec(ref3.psi, ref3.space, samples=50000, seed=11)
    tally = simulate.run(spec)
    assert tally.counts[0, 0] == 0 and tally.counts[0, 1] == 0
    assert tally.counts[1, 2] == 0 and tally.counts[1, 3] == 0


def test_empirical_frequencies_converge():
    psi = np.full(24, 1 / np.sqrt(24), dtype=complex)
    spec = simulate.ExperimentSpec(psi, SP3, samples=40000, seed=19)
    tally = simulate.run(spec)
    assert np.all(tally.stderr > 0)
    assert np.all(np.abs(tally.empirical - tally.exact) <= 5 * tally.stderr)


def test_detector_probabilities(ref3):
    spec = simulate.ExperimentSpec(ref3.psi, ref3.space, samples=100000, seed=42)
    tally = simulate.run(spec)
    assert abs(tally.p_detector("T") - 0.5) < 0.01
    # T tracks the slit projector on this state, so conditioning on T
    # determines the slit bit with certainty; Y does not constrain it.
    assert tally.p_slit_given_detector("T") == 1.0
    assert abs(tally.p_slit_given_detector("Y") - 0.5) < 0.01


def test_eight_block_run():
    fx = fixtures.fixture("dim10")
    spec = simulate.ExperimentSpec(fx.psi, fx.space, samples=30000, seed=1)
    tally = simulate.run(spec)
    assert tally.counts.shape == (2, 8)
    assert tally.counts.sum() == 30000
    assert abs(tally.p_detector("W") - np.sum(tally.exact[:, [0, 2, 3, 6]])) < 0.02


def test_spec_validation(ref3):
    with pytest.raises(StateShapeError):
        simulate.ExperimentSpec(ref3.psi * 2, ref3.space, samples=10, seed=0)
    with pytest.raises(DimensionError):
        simulate.ExperimentSpec(ref3.psi[:23], ref3.space, samples=10, seed=0)
    with pytest.raises(DimensionError):
        simulate.ExperimentSpec(ref3.psi, ref3.space, samples=0, seed=0)


def test_tally_to_dict_roundtrips_counts(ref3):
    spec = simulate.ExperimentSpec(ref3.psi, ref3.space, samples=128, seed=5)
    d = simulate.run(spec).to_dict()
    assert d["samples"] == 128 and d["seed"] == 5
    assert sum(map(sum, d["counts"])) == 128
    assert len(d["exact"]) == 2 and len(d["exact"][0]) == 4


def test_conditioning_on_a_silent_detector_raises_typed_error():
    psi = np.zeros(24, dtype=complex)
    psi[2] = 1.0  # slit support, block 3: outside detector T = A1 + A2
    tally = simulate.run(simulate.ExperimentSpec(psi=psi, space=SP3, samples=100, seed=1))
    assert tally.p_detector("T") == 0.0
    with pytest.raises(TwoSlitError, match="never fired"):
        tally.p_slit_given_detector("T")
