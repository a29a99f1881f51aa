import numpy as np
import pytest

from twoslit import fixtures
from twoslit.errors import DimensionError, FormatError, ModeError, StateShapeError
from twoslit.space import (
    ProductSpace,
    as_int,
    as_state,
    assemble,
    block_projector,
    detector_flags,
    lift_left,
    lift_right,
    slit_projector,
)


def test_space_properties():
    sp = ProductSpace(6, (1, 1, 1, 1))
    assert sp.rank_e == 3 and sp.dim_ii == 4 and sp.dim == 24 and sp.mode == 3
    sp8 = ProductSpace(10, (1,) * 8)
    assert sp8.rank_e == 5 and sp8.dim == 80 and sp8.mode == 4


def test_space_validation():
    with pytest.raises(DimensionError):
        ProductSpace(5, (1, 1, 1, 1))
    with pytest.raises(DimensionError):
        ProductSpace(0, (1, 1, 1, 1))
    with pytest.raises(ModeError):
        ProductSpace(6, (1, 1, 1))
    with pytest.raises(DimensionError):
        ProductSpace(6, (1, 0, 1, 1))


@pytest.mark.parametrize("dim_i, partition", [
    (6, (1.5, 1, 1, True)), (6, (1, 1, 1, True)), (6, (1, 1, 1, np.float64(2.5))),
    (6.5, (1, 1, 1, 1)), (True, (1, 1, 1, 1)), (6, (1, 1, 1, "2")), (float("nan"), (1,) * 4),
], ids=["half-and-bool", "bool-block", "numpy-half", "half-dim", "bool-dim", "string-block",
        "nan-dim"])
def test_space_rejects_non_integer_sizes(dim_i, partition):
    with pytest.raises(DimensionError):
        ProductSpace(dim_i, partition)


def test_space_reads_integral_sizes_as_python_ints():
    sp = ProductSpace(6.0, (np.int64(2), 1.0, np.float64(1), np.uint8(1)))
    assert sp == ProductSpace(6, (2, 1, 1, 1))
    assert type(sp.dim_i) is int and all(type(b) is int for b in sp.partition)
    assert type(sp.dim) is int and sp.dim == 30


def test_slit_projector_diagonal():
    sp = ProductSpace(6, (1, 1, 1, 1))
    assert np.array_equal(np.diag(slit_projector(sp)), [1, 1, 1, 0, 0, 0])


def test_pairs_table():
    assert ProductSpace(6, (1,) * 4).pairs == (
        ("E", "T", (1, 1, 0, 0)),  # T = A1 + A2
        ("G", "Y", (1, 0, 1, 0)),  # Y = A1 + A3
    )
    assert ProductSpace(10, (1,) * 8).pairs == (
        ("E", "T", (1, 1, 1, 0, 1, 0, 0, 0)),
        ("G", "Y", (1, 1, 0, 1, 0, 1, 0, 0)),
        ("L", "W", (1, 0, 1, 1, 0, 0, 1, 0)),
    )
    assert ProductSpace(6, (2, 1, 1, 2)).pairs == ProductSpace(6, (1,) * 4).pairs
    for sp in (ProductSpace(6, (1,) * 4), ProductSpace(10, (1,) * 8)):
        assert [detector_flags(sp, d) for _, d, _ in sp.pairs] == [f for _, _, f in sp.pairs]


def test_detector_diagonals_four_blocks():
    sp = ProductSpace(6, (1, 1, 1, 1))
    t, y = (block_projector(sp, flags) for _, _, flags in sp.pairs)
    assert np.array_equal(np.diag(t), [1, 1, 0, 0])
    assert np.array_equal(np.diag(y), [1, 0, 1, 0])
    sp_wide = ProductSpace(6, (2, 1, 1, 2))
    t, y = (block_projector(sp_wide, flags) for _, _, flags in sp_wide.pairs)
    assert np.array_equal(np.diag(t), [1, 1, 1, 0, 0, 0])
    assert np.array_equal(np.diag(y), [1, 1, 0, 1, 0, 0])


def test_detector_diagonals_eight_blocks():
    sp = ProductSpace(10, (1,) * 8)
    t, y, w = (block_projector(sp, flags) for _, _, flags in sp.pairs)
    assert np.array_equal(np.diag(t), [1, 1, 1, 0, 1, 0, 0, 0])
    assert np.array_equal(np.diag(y), [1, 1, 0, 1, 0, 1, 0, 0])
    assert np.array_equal(np.diag(w), [1, 0, 1, 1, 0, 0, 1, 0])


def test_detector_flags_errors():
    sp = ProductSpace(6, (1, 1, 1, 1))
    with pytest.raises(ModeError):
        detector_flags(sp, "W")
    with pytest.raises(ModeError):
        detector_flags(sp, "bogus")


def test_block_projectors_resolve_identity():
    sp = ProductSpace(6, (2, 1, 3, 2))
    total = sum(
        block_projector(sp, tuple(int(i == k) for i in range(4))) for k in range(4)
    )
    assert np.array_equal(total, np.eye(sp.dim_ii))


def test_lift_is_multiplicative_and_sides_commute():
    sp = ProductSpace(4, (1, 2, 1, 1))
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    c = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.max(np.abs(lift_left(a, sp) @ lift_left(b, sp) - lift_left(a @ b, sp))) < 1e-13
    comm = lift_left(a, sp) @ lift_right(c, sp) - lift_right(c, sp) @ lift_left(a, sp)
    assert np.max(np.abs(comm)) < 1e-13


def test_lift_matches_kron_on_stored_core():
    fx = fixtures.fixture("spin32")
    lifted = lift_left(fx.cores["G_I"], fx.space)
    assert lifted.shape == (24, 24)
    assert np.array_equal(lifted, np.kron(fx.cores["G_I"], np.eye(4)))


def test_lift_shape_checked():
    sp = ProductSpace(6, (1, 1, 1, 1))
    with pytest.raises(DimensionError):
        lift_left(np.eye(5), sp)
    with pytest.raises(DimensionError):
        lift_right(np.eye(5), sp)


def test_assemble_requires_l_core_exactly_in_three_detector_mode():
    fx3, fx4 = fixtures.fixture("spin32"), fixtures.fixture("dim10")
    with pytest.raises(ModeError):
        assemble(fx3.space, fx3.psi, fx3.cores["G_I"], fx3.cores["G_I"])
    with pytest.raises(ModeError):
        assemble(fx4.space, fx4.psi, fx4.cores["G_I"])


@pytest.mark.parametrize("dim_i", [2, 6, 10])
@pytest.mark.parametrize("partition", [(2, 1, 3, 1), (1, 2, 1, 3, 1, 1, 2, 1)],
                         ids=["4-blocks", "8-blocks"])
def test_lifts_copy_the_core_bit_for_bit_and_equal_kron(dim_i, partition):
    sp = ProductSpace(dim_i, partition)
    n, m = sp.dim_i, sp.dim_ii
    rng = np.random.default_rng(dim_i + len(partition))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    a[0, 0], b[0, 0] = complex(-0.0, -1.0), complex(2.0, -0.0)  # signed zeros on the stripes
    cases = [(lift_left(a, sp), np.kron(a, np.eye(m)), np.kron(np.ones((n, n)), np.eye(m))),
             (lift_right(b, sp), np.kron(np.eye(n), b), np.kron(np.eye(n), np.ones((m, m))))]
    for lifted, kron, stripes in cases:
        assert lifted.shape == (sp.dim, sp.dim) and lifted.dtype == complex
        assert np.array_equal(lifted, kron)
        off = lifted[stripes == 0]
        assert not np.signbit(off.real).any() and not np.signbit(off.imag).any()
    blocks = cases[0][0].reshape(n, m, n, m), cases[1][0].reshape(n, m, n, m)
    assert all(blocks[0][:, k, :, k].tobytes() == a.tobytes() for k in range(m))
    assert all(blocks[1][i, :, i, :].tobytes() == b.tobytes() for i in range(n))
    with pytest.raises(DimensionError):
        lift_left(np.eye(n + 1), sp)
    with pytest.raises(DimensionError):
        lift_right(np.eye(m + 1), sp)
    with pytest.raises(DimensionError):
        lift_left(np.ones((n, n + 1)), sp)


@pytest.mark.parametrize("x, lo, hi", [
    (1, 1, None), (2**63 - 1, 1, 2**63 - 1), (0, 0, None), (5, None, 5), (-7, None, None),
    (3.0, 3, 3), (np.int64(0), 0, None),
], ids=["lo", "samples-max", "seed-0", "hi", "open", "integral-float", "numpy"])
def test_as_int_accepts_each_range_edge(x, lo, hi):
    n = as_int(x, "n", lo=lo, hi=hi)
    assert n == x and type(n) is int


@pytest.mark.parametrize("x, what, lo, hi, message", [
    (2**63, "samples", 1, 2**63 - 1, f"samples must be at most {2**63 - 1}, got {2**63}"),
    (0, "samples", 1, 2**63 - 1, "samples must be at least 1, got 0"),
    (-1, "seed", 0, None, "seed must be at least 0, got -1"),
    (0, "shards", 1, None, "shards must be at least 1, got 0"),
    (-1, "draws", 0, None, "draws must be at least 0, got -1"),
    (6, "n", None, 5, "n must be at most 5, got 6"),
], ids=["samples-2**63", "samples-0", "seed--1", "shards-0", "draws--1", "above-hi"])
def test_as_int_rejects_one_past_each_edge(x, what, lo, hi, message):
    with pytest.raises(DimensionError) as err:
        as_int(x, what, lo=lo, hi=hi)
    assert str(err.value) == message


def test_as_int_raises_the_given_error_type():
    with pytest.raises(FormatError, match="the value must be an integer"):
        as_int(1.5, "the value", FormatError, lo=0)
    with pytest.raises(FormatError, match="at least 0"):
        as_int(-1, "the value", FormatError, lo=0)


@pytest.mark.parametrize("dim_i, partition, message", [
    (0, (1, 1, 1, 1), "dim_i must be at least 2, got 0"),
    (7, (1, 1, 1, 1), "dim_i must be even, got 7"),
    (6, (1, 0, 1, 1), "a block size must be at least 1, got 0"),
    (6, (1, 1, 1, -2), "a block size must be at least 1, got -2"),
])
def test_space_sizes_are_read_by_as_int(dim_i, partition, message):
    with pytest.raises(DimensionError) as err:
        ProductSpace(dim_i, partition)
    assert str(err.value) == message


def test_as_state_checks_length_then_finiteness():
    sp = ProductSpace(2, (1, 1, 1, 1))
    assert as_state([1, 0, 0, 0, 0, 0, 0, 0], sp).dtype == complex
    with pytest.raises(DimensionError, match="state length 7"):
        as_state(np.zeros(7), sp)
    with pytest.raises(StateShapeError, match="state length 7"):
        as_state(np.zeros(7), sp, StateShapeError)
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        psi = np.zeros(8, dtype=complex)
        psi[3] = bad
        with pytest.raises(StateShapeError, match="state must be finite"):
            as_state(psi, sp)
