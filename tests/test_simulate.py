import collections
import itertools
import math
import time

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
    # 73 divides 10001; the others split it at uneven sample indices, 10007 into single draws
    for shards in (2, 3, 5, 7, 8, 73, 9999, 10001, 10007):
        assert np.array_equal(simulate.run(spec, shards=shards).counts, base), shards


def _reference_counts(table, samples, seed):
    """The module docstring's draw, written out cell by cell: conditional
    binomials over the positive cells in C order, each against the sum of
    the positive cells from it to the last; the last positive cell takes
    what is left."""
    gen = np.random.Generator(np.random.PCG64DXSM(seed))
    probs = table.reshape(-1).tolist()
    positive = [j for j, p in enumerate(probs) if p > 0]
    tails, tail = {}, 0.0
    for j in reversed(positive):
        tail = probs[j] + tail
        tails[j] = tail
    counts, left = [0] * len(probs), samples
    for j in positive[:-1]:
        counts[j] = int(gen.binomial(left, min(1.0, probs[j] / tails[j])))
        left -= counts[j]
    counts[positive[-1]] = left
    return np.array(counts).reshape(table.shape)


def test_more_shards_than_samples(ref3):
    expected = _reference_counts(simulate.exact_joint(ref3.psi, ref3.space), 3, 5)
    spec = simulate.ExperimentSpec(ref3.psi, ref3.space, samples=3, seed=5)
    for shards in (1, 2, 3, 4, 8):
        assert np.array_equal(simulate.run(spec, shards=shards).counts, expected), shards


# Literal tallies at 100 000 samples and seed 42 (the simulate defaults on
# spin32), with numpy 2.4: a change of the random stream, of the cell order
# or of the binomial chain fails here.  numpy may change Generator.binomial
# between releases (NEP 19), which would fail here too.
GOLDEN = {
    "spin32": [[0, 0, 22472, 27833], [22106, 27589, 0, 0]],
    "dim10": [[0, 0, 0, 8327, 0, 0, 6535, 35301], [8079, 0, 6510, 0, 35248, 0, 0, 0]],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_counts(name):
    fx = fixtures.fixture(name)
    spec = simulate.ExperimentSpec(fx.psi, fx.space, samples=100000, seed=42)
    for shards in (1, 3, 4):
        assert simulate.run(spec, shards=shards).counts.tolist() == GOLDEN[name], shards
    assert np.array_equal(_reference_counts(simulate.exact_joint(fx.psi, fx.space), 100000, 42),
                          GOLDEN[name])


@pytest.mark.parametrize("probs", [
    [0.25, 0.25, 0.25, 0.25],
    [0.0, 0.0, 2 / 9, 5 / 18, 2 / 9, 5 / 18, 0.0, 0.0],   # zero cells at both ends
    [0.0, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0],
    [0.1, 0.0, 0.2, 0.0, 0.3, 0.0, 0.4, 0.0] + [0.0] * 8,  # 16 cells
    [0.0, 0.0, 1.0, 0.0, 0.0],                          # one nonzero cell: no binomial
    [0.3, 0.7, 0.0, 0.0],                               # the last cell has probability 0
    [0.0, 0.0, 0.3, 0.7],                               # the first cells have probability 0
    [0.25, 0.0, 0.0, 0.75],                             # zero cells between two positive ones
    [0.5, 2.0 ** -53, 0.5 - 2.0 ** -53],                # a binomial of probability 2**-52
], ids=["uniform", "spin32", "two-cells", "sixteen", "one-cell", "trailing-zeros",
        "leading-zeros", "repeated-bound", "one-ulp-apart"])
def test_edge_tables_keep_zero_cells_empty(probs):
    probs = np.array(probs)
    for samples in (1, 3, 1000, 10**15):
        for seed in range(5):
            gen = np.random.Generator(np.random.PCG64DXSM(seed))
            counts = simulate._multinomial(probs, samples, gen)
            assert counts.shape == probs.shape and counts.sum() == samples
            assert np.all(counts[probs == 0] == 0) and np.all(counts >= 0)
            assert np.array_equal(counts, _reference_counts(probs, samples, seed))


def _pmf(probs, counts):
    """Multinomial probability of the count vector ``counts``."""
    ways = math.factorial(sum(counts)) / math.prod(math.factorial(c) for c in counts)
    return ways * math.prod(p ** c for p, c in zip(probs, counts))


# Chi-square 0.999 quantiles for the degrees of freedom below.
_CHI2_999 = {19: 43.820, 46: 81.400}


@pytest.mark.parametrize("name, dof", [("spin32", 19), ("dim10", 46)])
def test_count_vectors_follow_the_multinomial_pmf(name, dof):
    """At 3 samples a run is one of few count vectors; over 4000 fixed seeds
    their frequencies match the exact multinomial pmf.  Vectors expected
    fewer than 5 times are pooled into one bin."""
    fx = fixtures.fixture(name)
    table = simulate.exact_joint(fx.psi, fx.space).reshape(-1)
    cells = np.flatnonzero(table > 0)
    runs = 4000
    seen = collections.Counter(
        tuple(simulate.run(simulate.ExperimentSpec(fx.psi, fx.space, samples=3, seed=seed))
              .counts.reshape(-1)[cells].tolist())
        for seed in range(runs))
    vectors = [v for v in itertools.product(range(4), repeat=cells.size) if sum(v) == 3]
    assert set(seen) <= set(vectors)
    expected = {v: runs * _pmf(table[cells], v) for v in vectors}
    rare = [v for v in vectors if expected[v] < 5]
    bins = [(seen[v], expected[v]) for v in vectors if expected[v] >= 5]
    if rare:
        bins.append((sum(seen[v] for v in rare), sum(expected[v] for v in rare)))
    assert len(bins) - 1 == dof
    chi2 = sum((o - e) ** 2 / e for o, e in bins)
    assert chi2 < _CHI2_999[dof]


def test_huge_sample_counts_take_one_draw_per_cell(ref3):
    fx = fixtures.fixture("dim10")
    for psi, sp in ((ref3.psi, ref3.space), (fx.psi, fx.space)):
        for samples in (10**15, 2**63 - 1):
            start = time.perf_counter()
            counts = simulate.run(simulate.ExperimentSpec(psi, sp, samples=samples, seed=3)).counts
            assert time.perf_counter() - start < 1.0
            assert int(counts.sum()) == samples
            assert np.all(counts[simulate.exact_joint(psi, sp) == 0] == 0)
    with pytest.raises(DimensionError, match="samples"):
        simulate.ExperimentSpec(ref3.psi, ref3.space, samples=2**63, seed=0)


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


@pytest.mark.parametrize("field, samples, seed", [
    ("samples", 2.5, 1), ("seed", 10, 1.9), ("samples", True, 1), ("seed", 10, "1"),
    ("seed", 10, -1), ("samples", -3, 1),
])
def test_sample_count_and_seed_must_be_integers_in_range(ref3, field, samples, seed):
    with pytest.raises(DimensionError, match=field):
        simulate.ExperimentSpec(ref3.psi, ref3.space, samples=samples, seed=seed)


def test_integral_floats_are_read_as_ints(ref3):
    spec = simulate.ExperimentSpec(ref3.psi, ref3.space, samples=10.0, seed=np.int64(4))
    assert (spec.samples, spec.seed) == (10, 4)
    assert type(spec.samples) is int and type(spec.seed) is int


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_state_rejected(ref3, bad):
    psi = ref3.psi.copy()
    psi[0] = bad
    with pytest.raises(StateShapeError, match="finite"):
        simulate.ExperimentSpec(psi, ref3.space, samples=10, seed=0)


@pytest.mark.parametrize("shards", [0, -5, 2.5, True])
def test_shard_count_below_one_or_not_an_integer_rejected(ref3, shards):
    spec = simulate.ExperimentSpec(ref3.psi, ref3.space, samples=10, seed=0)
    with pytest.raises(DimensionError, match="shards"):
        simulate.run(spec, shards=shards)


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
