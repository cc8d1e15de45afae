"""Command-line interface: construct, reduce, assemble, and re-verify.

Subcommands: hadamard, epsh, rbd, armub, verify, ledger.

Exit codes (stable contract; CI treats any nonzero as red):
  0  success, all checks pass
  2  domain/validation error (inputs outside the mathematical domain), or
     an --out path that cannot be written ("cannot write")
  3  requested Hadamard order not reachable from the generator set
  4  artifact parse error: unreadable or non-object JSON, an input of an
     artifact's derivation that is missing, of the wrong JSON type or
     outside its domain, a field of an earlier artifact form (see verify
     below), structurally incompatible values (StructuralError, e.g. mixed
     radicands), or a derived field that the stored artifact lacks or
     holds as another JSON type; for a certificate, also a bad config, and
     a "bases.epsh" reference whose "file" is not a plain file name in the
     certificate's directory, or names a missing or unreadable file
  5  a certification or bound check failed, including a vanishing
     denominator met during exact arithmetic (ExactArithmeticError), a
     referenced file whose bytes do not match its recorded sha256, a stored
     artifact that differs from the one derived again, and a certificate
     that says "ok": false
  6  resource/enumeration cap exceeded; `epsh --cap` still writes the best
     split found within the cap, marked "partial": true; for verify, a
     hadamard label whose matrix is past the size budget

`verify` checks every file it is given and exits with the worst code among
them.  Each file is read once per invocation, and each artifact content
(keyed by the SHA-256 of its bytes) is parsed and certified once, so a
certificate and the epsh file it refers to cost one certification each.
Every artifact is verified by one rule: verify reads the inputs of its
derivation, derives the artifact again with the writer's own code and
requires the stored JSON to equal the derived JSON.  The first difference
in sorted key order decides: a missing field or another JSON type exits 4,
any other difference exits 5 and names its JSON path.  The inputs are:

  hadamard     the recipe: label and order, and H is built again from the
               label; or, for an H that its label does not build, also the
               packed rows, and H must be Hadamard
  eps-hadamard the source H (a hadamard object, as above) and the split
               of "provenance" (method, row_select, col_select,
               row_negate, col_negate, variant), from which Y is derived
               and certified exactly as construction does, and "partial"
  rbd          the recipe of the affine design (k, s), certified by
               verify_rbd; verify says that the design's mu = 1 was
               certified by the line theorem
  certificate  "config" (t, scope) and "bases": the recipe of the affine
               design (k, s), certified as for rbd, and the reference
               "epsh" (file name and sha256) to the eps-hadamard file

A reduction names method "closed-form"; the elimination method that
earlier versions named for some t = 3 splits exits 5.  config.scope is the
one input that is validated (a search scope) but cannot be derived again.
The earlier forms exit 4: an epsh file with Y's explicit "entries", an rbd
file with an explicit "classes" array, any basis-set file, and a
certificate with an "artifacts" map of file names, a "bases" that is a
file reference or a "config" that holds k, s or d; their message says
"write it again with armub armub".

`armub armub` writes two files, epsh.json and certificate.json; `armub rbd`
and `armub hadamard` write the design and the Hadamard matrix alone.
It exits 5 when a ledger line that "ok" counts fails.  The beta-lt-2 line
records an exact observation and is not counted (verify.OBSERVED); its
printed line says so.
`ledger` takes a certificate only, verifies it as above and prints the
derived ledger; a report alone is an unknown artifact kind.

Artifacts are written atomically (temp file + rename) in canonical JSON.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import jsonio
from .bases import assemble
from .epsh import SEARCH_SCOPES, EpsHadamard, best_reduction
from .errors import (
    CertificationError,
    DomainError,
    ExactArithmeticError,
    NotConstructibleError,
    ParseError,
    ResourceLimitError,
    StructuralError,
)
from .hadamard import find_hadamard
from .rbd import build_affine_rbd
from .verify import OBSERVED

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NOT_CONSTRUCTIBLE = 3
EXIT_PARSE = 4
EXIT_CHECK_FAILED = 5
EXIT_RESOURCE = 6


def _emit(obj, out: str | None):
    text = jsonio.dumps_canonical(obj)
    if out:
        jsonio.write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _say(message: str, out: str | None):
    # keep stdout parseable when the artifact itself goes to stdout
    stream = sys.stdout if out else sys.stderr
    stream.write(message + "\n")


def cmd_hadamard(args) -> int:
    h = find_hadamard(args.order)
    _emit(jsonio.sign_matrix_obj(h), args.out)
    _say(f"order={h.order} source={h.label} verified=true", args.out)
    return EXIT_OK


def cmd_epsh(args) -> int:
    h = find_hadamard(args.order)
    capped = None
    try:
        y = best_reduction(h, args.t, search_scope=args.scope, cap=args.cap)
    except ResourceLimitError as exc:
        if exc.partial_best is None:
            raise
        capped, y = exc, exc.partial_best
    _emit(jsonio.eps_hadamard_obj(y, partial=capped is not None), args.out)
    uc = y.provenance.uclass
    _say(
        f"k={y.order} eps={float(y.epsilon):.6f} (exact {y.epsilon.expr()}) "
        f"eps_upper={float(y.epsilon_upper):.6f} variant={y.variant} "
        f"u-class=({uc.kappa},{uc.gamma},{uc.vartheta}) method={y.provenance.method}"
        + (" partial=true" if capped is not None else ""),
        args.out,
    )
    if capped is not None:
        sys.stderr.write(
            f"resource limit: {capped}; wrote the best of the first {args.cap} "
            "splits, marked partial\n"
        )
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_rbd(args) -> int:
    r = build_affine_rbd(args.k, args.s)
    _emit(jsonio.rbd_obj(r), args.out)
    _say(f"d={r.d} k={r.k} s={r.s} mu={r.mu} classes={r.s}", args.out)
    return EXIT_OK


def _provide_y(k: int, t: int, scope: str, cap: int) -> EpsHadamard:
    """Orthogonal matrix of order k: exact H_k/sqrt(k) when such an order
    admits a real Hadamard matrix, else reduction of H_{k+t}."""
    if k in (1, 2) or k % 4 == 0:
        return EpsHadamard.from_sign_hadamard(find_hadamard(k))
    return best_reduction(find_hadamard(k + t), t, search_scope=scope, cap=cap)


def cmd_armub(args) -> int:
    k, s, t = args.k, args.s, args.t
    if t not in (1, 2, 3):
        raise DomainError("t must be 1, 2 or 3")
    if (k + t) % 4 != 0 and not (k in (1, 2) or k % 4 == 0):
        raise DomainError(f"k + t = {k + t} must be divisible by 4")
    y = _provide_y(k, t, args.scope, args.cap)
    bs = assemble(build_affine_rbd(k, s), y)
    epsh = jsonio.dumps_canonical(jsonio.eps_hadamard_obj(y))
    certificate = jsonio.certificate_obj(bs, t, args.scope, jsonio.file_ref("epsh.json", epsh))
    os.makedirs(args.out, exist_ok=True)
    jsonio.write_atomic(os.path.join(args.out, "epsh.json"), epsh)
    jsonio.write_atomic(os.path.join(args.out, "certificate.json"),
                        jsonio.dumps_canonical(certificate))

    report = certificate["report"]
    print(
        f"d={report['d']} s={report['s']} k={report['k']} t={report['t']} "
        f"classification={report['classification']} "
        f"beta={report['beta']['float']:.6f} eps={report['epsilon']['float']:.6f} "
        f"certificate={os.path.join(args.out, 'certificate.json')}"
    )
    for line in certificate["ledger"]:
        print(f"  [{line['verdict']:4s}] {line['check']}: "
              f"lhs={line['lhs']:.6g} rhs={line['rhs']:.6g}"
              + (" (observed; not counted in ok)" if line["check"] in OBSERVED else ""))
    return EXIT_OK if certificate["ok"] else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    artifacts = jsonio.ArtifactCache()
    worst = EXIT_OK
    for path in args.files:
        try:
            _, obj = artifacts.load(path)
            kind = jsonio.detect_kind(obj)
            note = ""
            if kind == "hadamard":
                artifacts.parse(path, jsonio.parse_sign_matrix)
            elif kind == "eps-hadamard":
                artifacts.parse(path, jsonio.parse_eps_hadamard)
                if obj.get("partial"):
                    note = " (partial: best split within the search cap)"
            elif kind == "rbd":
                artifacts.parse(path, jsonio.parse_rbd)
                note = " (affine design: mu = 1 by the line theorem)"
            elif kind == "basis-set":
                raise ParseError("a basis-set file is an earlier form: the certificate holds "
                                 "its bases; write it again with armub armub")
            elif kind == "certificate":
                certificate = artifacts.parse(path, jsonio.parse_certificate, resolving=True)
                if not certificate["ok"]:
                    raise CertificationError("certificate contains failing checks")
            else:
                raise ParseError(f"unknown artifact kind {kind!r}")
            print(f"{path}: {kind}: ok{note}")
        except (CertificationError, ExactArithmeticError) as exc:
            print(f"{path}: {kind}: CHECK FAILED: {exc}")
            worst = max(worst, EXIT_CHECK_FAILED)
        except (ParseError, StructuralError, DomainError) as exc:
            print(f"{path}: parse error: {exc}")
            worst = max(worst, EXIT_PARSE)
        except ResourceLimitError as exc:
            print(f"{path}: resource limit: {exc}")
            worst = max(worst, EXIT_RESOURCE)
    return worst


def cmd_ledger(args) -> int:
    artifacts = jsonio.ArtifactCache()
    _, obj = artifacts.load(args.file)
    kind = jsonio.detect_kind(obj)
    if kind != "certificate":
        raise ParseError(f"ledger needs a certificate, got {kind!r}")
    certificate = artifacts.parse(args.file, jsonio.parse_certificate, resolving=True)
    sys.stdout.write(jsonio.dumps_canonical(certificate["ledger"]))
    return EXIT_OK if certificate["ok"] else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Subcommands carry no
    function; ``main`` looks up cmd_<command> when it runs."""
    parser = argparse.ArgumentParser(
        prog="armub",
        description="Exact epsilon-Hadamard matrices and approximate real MUBs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hadamard", help="construct a verified Hadamard matrix")
    p.add_argument("order", type=int)
    p.add_argument("--out")

    p = sub.add_parser("epsh", help="best reduction to an eps-Hadamard matrix")
    p.add_argument("order", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--scope", default="corner-only",
                   choices=SEARCH_SCOPES)
    p.add_argument("--cap", type=int, default=100_000)
    p.add_argument("--out")

    p = sub.add_parser("rbd", help="build and certify an affine block design")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("armub", help="full pipeline with certificate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--scope", default="corner-only",
                   choices=SEARCH_SCOPES)
    p.add_argument("--cap", type=int, default=100_000)
    p.add_argument("--out", default="armub-out")

    p = sub.add_parser("verify", help="re-run certifications on artifacts")
    p.add_argument("files", nargs="+")

    p = sub.add_parser("ledger", help="print the bound ledger of a certificate, derived again")
    p.add_argument("file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except NotConstructibleError as exc:
        sys.stderr.write(f"not constructible: {exc}\n")
        return EXIT_NOT_CONSTRUCTIBLE
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except StructuralError as exc:
        sys.stderr.write(f"parse error: structurally incompatible values: {exc}\n")
        return EXIT_PARSE
    except CertificationError as exc:
        sys.stderr.write(f"certification failed: {exc}\n")
        return EXIT_CHECK_FAILED
    except ExactArithmeticError as exc:
        sys.stderr.write(f"certification failed: {exc}\n")
        return EXIT_CHECK_FAILED
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except OSError as exc:  # reads fail as ParseError; this is a write
        sys.stderr.write(f"cannot write: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
