import types

import armub

PUBLIC_API = {
    "ArmubError", "BasisSet", "BlockSplit", "CertificationError", "DomainError",
    "EpsHadamard", "ExactArithmeticError", "ExactBeta", "ExactEps", "GfField",
    "NotConstructibleError", "ParseError", "QuadNum", "Rbd", "RbdCertificate",
    "ResourceLimitError", "SignMatrix", "StructuralError", "UClass",
    "UnbiasednessReport", "assemble", "best_reduction", "build_affine_rbd",
    "check_theorem_bounds", "classify_u", "corner_split", "cross_stats",
    "exact_sqrt", "find_hadamard", "gf_make", "is_hadamard", "kronecker",
    "ledger_ok", "normalize_signs", "paley", "quad_to_float", "sylvester",
    "verify_rbd",
}


def test_public_api_is_pinned():
    """The public, non-module names of the package, so that any change to
    the API shows in the diff of this set."""
    names = {name for name in dir(armub)
             if not name.startswith("_")
             and not isinstance(getattr(armub, name), types.ModuleType)}
    assert names == PUBLIC_API
    assert len(PUBLIC_API) == 38
