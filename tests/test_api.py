import os
import subprocess
import sys
import types
from pathlib import Path

import armub

PUBLIC_API = {
    "ArmubError", "BasisSet", "BlockSplit", "CertificationError", "DomainError",
    "EpsHadamard", "ExactArithmeticError", "ExactBeta", "ExactEps", "GfField",
    "NotConstructibleError", "ParseError", "Rbd", "RbdCertificate",
    "ResourceLimitError", "SignMatrix", "StructuralError", "UClass",
    "UnbiasednessReport", "assemble", "best_reduction", "build_affine_rbd",
    "check_theorem_bounds", "classify_u", "corner_split", "cross_stats",
    "find_hadamard", "gf_make", "is_hadamard", "kronecker",
    "ledger_ok", "normalize_signs", "paley", "sylvester",
    "verify_rbd",
}


def test_public_api_is_pinned():
    """The public, non-module names of the package, so that any change to
    the API shows in the diff of this set."""
    names = {name for name in dir(armub)
             if not name.startswith("_")
             and not isinstance(getattr(armub, name), types.ModuleType)}
    assert names == PUBLIC_API
    assert len(PUBLIC_API) == 35


def test_cli_imports_no_second_exact_medium():
    """Integer keys are the library's one exact medium: a fresh
    ``import armub.cli`` loads neither ``fractions`` nor ``decimal``."""
    code = ("import sys, armub.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(armub.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout == "[]\n"
