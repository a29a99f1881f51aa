import numpy as np
import pytest

from twoslit import fixtures
from twoslit.errors import DimensionError, ModeError
from twoslit.space import (
    ProductSpace,
    assemble,
    block_projector,
    detector_flags,
    detector_projectors,
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


def test_slit_projector_diagonal():
    sp = ProductSpace(6, (1, 1, 1, 1))
    assert np.array_equal(np.diag(slit_projector(sp)), [1, 1, 1, 0, 0, 0])


def test_detector_diagonals_four_blocks():
    sp = ProductSpace(6, (1, 1, 1, 1))
    t, y = detector_projectors(sp)
    assert np.array_equal(np.diag(t), [1, 1, 0, 0])
    assert np.array_equal(np.diag(y), [1, 0, 1, 0])
    sp_wide = ProductSpace(6, (2, 1, 1, 2))
    t, y = detector_projectors(sp_wide)
    assert np.array_equal(np.diag(t), [1, 1, 1, 0, 0, 0])
    assert np.array_equal(np.diag(y), [1, 1, 0, 1, 0, 0])


def test_detector_diagonals_eight_blocks():
    sp = ProductSpace(10, (1,) * 8)
    t, y, w = detector_projectors(sp)
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
