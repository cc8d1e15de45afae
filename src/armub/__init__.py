"""Exact construction and certification of epsilon-Hadamard matrices and
approximate real mutually unbiased bases for dimensions d = (4n - t) * s.

All certification arithmetic is exact: every value is an integer key
(p, q, L) for (p + q*sqrt(c))/L in a real quadratic field, and every
decision is an integer sign test on keys; floating point appears only in
rendered reports.
"""

from .algebra import GfField, gf_make
from .bases import BasisSet, assemble
from .epsh import (
    BlockSplit,
    EpsHadamard,
    ExactEps,
    UClass,
    best_reduction,
    classify_u,
    corner_split,
)
from .errors import (
    ArmubError,
    CertificationError,
    DomainError,
    ExactArithmeticError,
    NotConstructibleError,
    ParseError,
    ResourceLimitError,
    StructuralError,
)
from .hadamard import SignMatrix, find_hadamard, is_hadamard, kronecker, normalize_signs, paley, sylvester
from .rbd import Rbd, RbdCertificate, build_affine_rbd, verify_rbd
from .verify import (
    ExactBeta,
    UnbiasednessReport,
    check_theorem_bounds,
    cross_stats,
    ledger_ok,
)

__version__ = "0.1.0"
