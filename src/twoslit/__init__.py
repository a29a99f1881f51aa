"""Commuting-detector constructions for incompatible projections.

The package builds parametrized families of projector solutions in which
commuting "detector" observables on an auxiliary factor reproduce, on a
single entangled state, the outcomes of mutually incompatible projections
— verifies all their defining conditions, cross-checks the closed forms
against a closed-form constraint solver, and samples the joint outcome
statistics.
"""

from .errors import (DimensionError, FormatError, ModeError, NonCommutingError,
                     ParamRangeError, SeedError, StateShapeError, TwoSlitError,
                     ZeroConditioningError, ZeroDivisorError)
from .family3 import Family3Params
from .family4 import Family4Params
from .fixtures import fixture, fixture_bundle, fixture_names
from .space import ProductSpace, SolutionBundle
from .verify import VerificationReport, verify_bundle

__version__ = "0.1.0"

__all__ = [
    "DimensionError", "Family3Params", "Family4Params", "FormatError",
    "ModeError", "NonCommutingError", "ParamRangeError", "ProductSpace",
    "SeedError", "SolutionBundle", "StateShapeError",
    "TwoSlitError", "VerificationReport", "ZeroConditioningError", "ZeroDivisorError",
    "fixture", "fixture_bundle", "fixture_names", "verify_bundle",
]
