"""Command-line interface: construct, reduce, assemble, and re-verify.

Subcommands: hadamard, epsh, rbd, armub, verify, ledger.

Exit codes (stable contract; CI treats any nonzero as red):
  0  success, all checks pass
  2  domain/validation error (inputs outside the mathematical domain), or
     an --out path that cannot be written ("cannot write")
  3  requested Hadamard order not reachable from the generator set
  4  artifact parse error: unreadable or non-object JSON, a missing or
     malformed field, a field of an earlier artifact form (see verify
     below), values outside the artifact's domain, or structurally
     incompatible values (StructuralError, e.g. mixed radicands); for a
     basis-set, also a reference whose "file" is not a plain file name in
     the basis-set's directory, or names a missing or unreadable file
  5  a certification or bound check failed, including a vanishing
     denominator met during exact arithmetic (ExactArithmeticError) and a
     referenced file whose bytes do not match its recorded sha256
  6  resource/enumeration cap exceeded; `epsh --cap` still writes the best
     split found within the cap, marked "partial": true

`verify` checks every file it is given and exits with the worst code among
them.  Each file is read once per invocation, and each artifact content
(keyed by the SHA-256 of its bytes) is parsed and certified once, so a
basis-set and the rbd and epsh files it refers to cost one certification
each.  An epsh file holds Y as its derivation: verify checks the stored
Hadamard matrix H, derives Y again from H and the stored split, certifies
it exactly as construction does, and fails (exit 5) unless k, m, the
provenance, epsilon and epsilon_upper equal the derived ones (a reduction
names method "closed-form"; the elimination method that earlier versions
named for some t = 3 splits exits 5).  An rbd file holds the recipe of the
affine design, and for an rbd or basis-set file verify says that the
design's mu = 1 was certified by the line theorem.  The earlier forms exit
4: an epsh file with Y's explicit "entries", an rbd file with an explicit
"classes" array, and a basis-set file with "vectors" or an inline "design"
or "y".

`armub armub` writes four files: epsh, rbd, bases and the certificate,
which embeds the report.  `verify` and `ledger` also take a report alone.

Artifacts are written atomically (temp file + rename) in canonical JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .verify import check_theorem_bounds, cross_stats, ledger_ok

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
    design = build_affine_rbd(k, s)
    bs = assemble(design, y)
    report = cross_stats(bs)
    # the report reflects the pipeline configuration even when Y came from
    # an exact Hadamard matrix rather than a reduction
    n = (k + t) // 4 if (k + t) % 4 == 0 else None
    report = dataclasses.replace(report, t=t, n=n)
    ledger = check_theorem_bounds(report)

    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    paths, texts = {}, {}

    def write(name, obj):
        paths[name] = os.path.join(outdir, f"{name}.json")
        texts[name] = jsonio.dumps_canonical(obj)
        jsonio.write_atomic(paths[name], texts[name])

    write("epsh", jsonio.eps_hadamard_obj(y))
    write("rbd", jsonio.rbd_obj(design))
    write("bases", jsonio.basis_set_obj(
        bs, *(jsonio.file_ref(paths[n], texts[n]) for n in ("rbd", "epsh"))))
    certificate = {
        "kind": "certificate",
        "config": {"k": k, "s": s, "t": t, "d": k * s, "scope": args.scope},
        "artifacts": {name: os.path.basename(p) for name, p in paths.items()},
        "report": jsonio.report_obj(report),
        "ledger": jsonio.ledger_obj(ledger),
        "ok": ledger_ok(ledger),
    }
    cert_path = os.path.join(outdir, "certificate.json")
    jsonio.write_atomic(cert_path, jsonio.dumps_canonical(certificate))

    print(
        f"d={report.d} s={report.s} k={report.k} t={t} "
        f"classification={report.classification} evidence={report.evidence} "
        f"beta={float(report.beta):.6f} eps={float(report.epsilon):.6f} "
        f"certificate={cert_path}"
    )
    for line in ledger:
        print(f"  [{line.verdict:4s}] {line.check}: lhs={line.lhs:.6g} rhs={line.rhs:.6g}")
    return EXIT_OK if ledger_ok(ledger) else EXIT_CHECK_FAILED


def _certificate_parts(obj):
    """(report, stored ledger) of a certificate artifact."""
    try:
        report, stored = obj["report"], obj["ledger"]
        verdicts = [line["verdict"] for line in stored]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad certificate artifact: {type(exc).__name__} {exc}") from exc
    return jsonio.parse_report(report), verdicts


_MU_NOTE = " (affine design: mu = 1 by the line theorem)"


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
                note = _MU_NOTE
            elif kind == "basis-set":
                jsonio.parse_basis_set(obj, os.path.dirname(path), artifacts)
                note = _MU_NOTE
            elif kind == "report":
                jsonio.parse_report(obj)
            elif kind == "certificate":
                report, stored = _certificate_parts(obj)
                lines = check_theorem_bounds(report)
                recomputed = jsonio.ledger_obj(lines)
                if stored != [l["verdict"] for l in recomputed]:
                    raise CertificationError("ledger verdicts do not reproduce")
                if not ledger_ok(lines):
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
    return worst


def cmd_ledger(args) -> int:
    obj = jsonio.load_json(args.file)
    kind = jsonio.detect_kind(obj)
    if kind == "certificate":
        report, _ = _certificate_parts(obj)
    elif kind == "report":
        report = jsonio.parse_report(obj)
    else:
        raise ParseError(f"ledger needs a report or certificate, got {kind!r}")
    lines = check_theorem_bounds(report)
    sys.stdout.write(jsonio.dumps_canonical(jsonio.ledger_obj(lines)))
    return EXIT_OK if ledger_ok(lines) else EXIT_CHECK_FAILED


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

    p = sub.add_parser("ledger", help="print the bound ledger of a report")
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
