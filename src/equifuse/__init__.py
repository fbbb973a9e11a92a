"""Fusion rules and modular data for quantum sl2 at a root of unity and for
the extended Verlinde algebra of its type-D quotient."""

from .arith import EPS, gauss_sum, gauss_sum_reciprocal, quantum_integer, twist
from .errors import ConstructionError, InconsistencyError, UnsupportedCaseError
from .extended import ExtData, ExtVector, GradedLabel, alam, exceptional_cross
from .extended import exceptional_diag, exceptional_diag_via_gauss
from .extended import exceptional_diag_via_twists, lam
from .formulas import (
    Check,
    VerificationReport,
    ee_verlinde_coeff,
    ext_coeff_a,
    ext_coeff_e,
    verify_all,
)
from .ring import MINUS, PLUS, TypeDRing
from .sl2 import Sl2Data

__version__ = "0.1.0"

__all__ = [
    "EPS",
    "Check",
    "ConstructionError",
    "ExtData",
    "ExtVector",
    "GradedLabel",
    "InconsistencyError",
    "MINUS",
    "PLUS",
    "Sl2Data",
    "TypeDRing",
    "UnsupportedCaseError",
    "VerificationReport",
    "alam",
    "ee_verlinde_coeff",
    "exceptional_cross",
    "exceptional_diag",
    "exceptional_diag_via_gauss",
    "exceptional_diag_via_twists",
    "ext_coeff_a",
    "ext_coeff_e",
    "gauss_sum",
    "gauss_sum_reciprocal",
    "lam",
    "quantum_integer",
    "twist",
    "verify_all",
]
