"""Canonical JSON wire formats and atomic file I/O for every artifact.

Rationals travel as pairs of decimal strings (no integer-width or float
ambiguity); quadratic values carry "a" and "b" with b relative to
sqrt(radicand) as declared by the artifact, so a value parses back to the
identical canonical scalar.  Serialization is canonical (sorted keys,
fixed separators, trailing newline): serialize -> parse -> serialize is
byte-identical.  Floats appear only in report-rendering fields.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .algebra import Scalar, QuadNum, cmp_values, square_free_split
from .bases import BasisSet, assemble
from .epsh import EpsHadamard, ExactEps, Provenance
from .errors import CertificationError, ParseError
from .hadamard import SignMatrix, is_hadamard
from .rbd import Rbd, verify_rbd


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_atomic(path: str, text: str):
    """Write through a temp file in the same directory and a rename.  The
    temp file is created with mode 0666 less the umask, the mode a plain
    open() gives, so the artifact is not left owner-only."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

def frac_wire(x) -> list[str]:
    f = Fraction(x)
    return [str(f.numerator), str(f.denominator)]


def frac_parse(obj) -> Fraction:
    try:
        num, den = obj
        return Fraction(int(num), int(den))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {obj!r}") from exc


def scalar_wire(v: Scalar, radicand: int) -> dict:
    """{"a": rational, "b": rational} with value = a + b*sqrt(radicand)."""
    if isinstance(v, QuadNum):
        f, core = square_free_split(radicand)
        if core != v.m:
            raise ParseError(
                f"value over sqrt({v.m}) not representable over sqrt({radicand})"
            )
        return {"a": frac_wire(v.a), "b": frac_wire(v.b / f)}
    return {"a": frac_wire(v), "b": frac_wire(0)}


def scalar_parse(obj, radicand: int) -> Scalar:
    try:
        a = frac_parse(obj["a"])
        b = frac_parse(obj["b"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad scalar {obj!r}") from exc
    if b == 0:
        return a
    f, core = square_free_split(radicand)
    if core == 1:
        return a + b * f
    return QuadNum(a, b, radicand)


def eps_wire(e: ExactEps, radicand: int) -> dict:
    return {
        "ksq": scalar_wire(e.q, radicand),
        "side": e.side,
        "float": float(e),
    }


def eps_parse(obj, radicand: int) -> ExactEps:
    try:
        return ExactEps(scalar_parse(obj["ksq"], radicand))
    except KeyError as exc:
        raise ParseError(f"bad epsilon {obj!r}") from exc


# ---------------------------------------------------------------------------
# SignMatrix
# ---------------------------------------------------------------------------

def sign_matrix_obj(m: SignMatrix) -> dict:
    return {
        "kind": "hadamard",
        "order": m.order,
        "label": m.label,
        "rows": m.rows.astype(int).tolist(),
    }


def parse_sign_matrix(obj, require_verified: bool = True) -> SignMatrix:
    try:
        rows = obj["rows"]
        order = int(obj["order"])
        m = SignMatrix(rows, label=str(obj.get("label", "")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad hadamard artifact: {exc}") from exc
    if m.order != order:
        raise ParseError(f"declared order {order} != actual {m.order}")
    check = is_hadamard(m)
    if require_verified and not check.ok:
        raise CertificationError(
            f"hadamard re-check failed at {check.first_violation}"
        )
    return SignMatrix(m.rows, label=m.label, verified=check.ok)


# ---------------------------------------------------------------------------
# EpsHadamard
# ---------------------------------------------------------------------------

def provenance_obj(p: Provenance) -> dict:
    out = {
        "source_label": p.source_label,
        "source_order": p.source_order,
        "t": p.t,
        "row_select": list(p.row_select),
        "col_select": list(p.col_select),
        "row_negate": [int(b) for b in p.row_negate],
        "col_negate": [int(b) for b in p.col_negate],
        "variant": p.variant,
        "method": p.method,
    }
    if p.uclass is not None:
        out["u_relation"] = {
            "kappa": p.uclass.kappa,
            "gamma": p.uclass.gamma,
            "vartheta": p.uclass.vartheta,
            "paper_listed": p.uclass.paper_listed,
            "preferred_variant": p.uclass.preferred_variant,
        }
    return out


def parse_provenance(obj) -> Provenance:
    from .epsh import UClass

    if not isinstance(obj, dict):
        raise ParseError(f"bad provenance {obj!r}")
    uclass = None
    if obj.get("u_relation"):
        u = obj["u_relation"]
        uclass = UClass(
            t=int(obj["t"]),
            kappa=int(u["kappa"]),
            gamma=int(u["gamma"]),
            vartheta=None if u["vartheta"] is None else int(u["vartheta"]),
            paper_listed=bool(u["paper_listed"]),
            preferred_variant=u["preferred_variant"],
            closed_form_available=int(obj["t"]) <= 2 or bool(u["paper_listed"]),
        )
    return Provenance(
        source_label=str(obj["source_label"]),
        source_order=int(obj["source_order"]),
        t=int(obj["t"]),
        row_select=tuple(int(i) for i in obj["row_select"]),
        col_select=tuple(int(i) for i in obj["col_select"]),
        row_negate=tuple(bool(b) for b in obj["row_negate"]),
        col_negate=tuple(bool(b) for b in obj["col_negate"]),
        variant=obj["variant"],
        method=str(obj["method"]),
        uclass=uclass,
    )


def eps_hadamard_obj(y: EpsHadamard, partial: bool = False) -> dict:
    """The artifact of y; ``partial`` marks the best split of a search that
    stopped at its cap (the field is omitted otherwise)."""
    m = y.radicand
    out = {
        "kind": "eps-hadamard",
        "k": y.order,
        "m": m,
        "entries": [
            [scalar_wire(y.entry(i, j), m) for j in range(y.order)]
            for i in range(y.order)
        ],
        "epsilon": eps_wire(y.epsilon, m),
        "epsilon_upper": eps_wire(y.epsilon_upper, m),
        "provenance": provenance_obj(y.provenance),
    }
    if partial:
        out["partial"] = True
    return out


def parse_eps_hadamard(obj) -> EpsHadamard:
    if isinstance(obj, dict) and not isinstance(obj.get("partial", False), bool):
        raise ParseError(f"bad eps-hadamard artifact: partial={obj['partial']!r}")
    try:
        k = int(obj["k"])
        m = int(obj["m"])
        rows = [
            [scalar_parse(cell, m) for cell in row] for row in obj["entries"]
        ]
        prov = parse_provenance(obj["provenance"])
        stored_eps = eps_parse(obj["epsilon"], m)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"bad eps-hadamard artifact: {exc}") from exc
    if k < 1 or len(rows) != k:
        raise ParseError(f"declared k={k}, {len(rows)} entry rows")
    y = EpsHadamard.from_scalar_rows(rows, m, prov)  # re-certifies exactly
    if y.epsilon.cmp(stored_eps) != 0:
        raise CertificationError(
            f"stored epsilon {float(stored_eps)} != recomputed {float(y.epsilon)}"
        )
    return y


# ---------------------------------------------------------------------------
# Rbd
# ---------------------------------------------------------------------------

def rbd_obj(r: Rbd) -> dict:
    return {
        "kind": "rbd",
        "d": r.d,
        "k": r.k,
        "s": r.s,
        "r": r.r,
        "mu": r.mu,
        "provenance": r.provenance,
        "classes": r.classes.astype(int).tolist(),
    }


def parse_rbd(obj) -> Rbd:
    try:
        r = Rbd(
            int(obj["d"]), int(obj["k"]), int(obj["s"]), obj["classes"],
            provenance=str(obj.get("provenance", "")),
        )
        declared_mu = None if obj["mu"] is None else int(obj["mu"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"bad rbd artifact: {exc}") from exc
    cert = verify_rbd(r)
    if not cert.valid:
        raise CertificationError(f"design re-check failed: {cert.violations}")
    if declared_mu is not None and cert.mu != declared_mu:
        raise CertificationError(
            f"declared mu={declared_mu} but verified mu={cert.mu}"
        )
    r.mu = cert.mu
    return r


# ---------------------------------------------------------------------------
# BasisSet
# ---------------------------------------------------------------------------

def basis_set_obj(bs: BasisSet) -> dict:
    return {
        "kind": "basis-set",
        "d": bs.d,
        "k": bs.k,
        "s": bs.s,
        "design": rbd_obj(bs.rbd),
        "y": eps_hadamard_obj(bs.y),
    }


def parse_basis_set(obj) -> BasisSet:
    if isinstance(obj, dict) and "vectors" in obj:
        raise ParseError(
            "bad basis-set artifact: unknown field 'vectors' "
            "(the bases are assembled from 'design' and 'y')"
        )
    try:
        r = parse_rbd(obj["design"])
        y = parse_eps_hadamard(obj["y"])
    except KeyError as exc:
        raise ParseError(f"bad basis-set artifact: {exc}") from exc
    return assemble(r, y)


# ---------------------------------------------------------------------------
# Reports and certificates
# ---------------------------------------------------------------------------

def report_obj(report) -> dict:
    m = report.radicand
    return {
        "kind": "report",
        "d": report.d,
        "s": report.s,
        "k": report.k,
        "num_bases": report.num_bases,
        "t": report.t,
        "n": report.n,
        "radicand": m,
        "epsilon": eps_wire(report.epsilon, m),
        "epsilon_upper": eps_wire(report.epsilon_upper, m),
        "delta": [
            {"value": scalar_wire(dv.value, m), "count": dv.count}
            for dv in report.delta
        ],
        "beta": {
            "max_ip": scalar_wire(report.beta.max_ip, m),
            "float": float(report.beta),
        },
        "bound_beta_float": report.bound_beta_float(),
        "max_abs_y_sq": scalar_wire(report.max_abs_y_sq, m),
        "pairs_checked": report.pairs_checked,
        "coverage": report.coverage,
        "classification": report.classification,
        "evidence": report.evidence,
        "window_ok": report.window_ok,
        "beta_le_eps_chain": report.beta_le_eps_chain,
    }


def parse_report(obj):
    from .verify import DeltaValue, ExactBeta, UnbiasednessReport, classify_delta

    try:
        m = int(obj["radicand"])
        delta = [
            DeltaValue(scalar_parse(dv["value"], m), int(dv["count"]))
            for dv in obj["delta"]
        ]
        beta = ExactBeta(scalar_parse(obj["beta"]["max_ip"], m), int(obj["d"]))
        report = UnbiasednessReport(
            d=int(obj["d"]),
            s=int(obj["s"]),
            k=int(obj["k"]),
            num_bases=int(obj["num_bases"]),
            t=int(obj["t"]),
            n=None if obj["n"] is None else int(obj["n"]),
            epsilon=eps_parse(obj["epsilon"], m),
            epsilon_upper=eps_parse(obj["epsilon_upper"], m),
            delta=delta,
            beta=beta,
            pairs_checked=int(obj["pairs_checked"]),
            coverage=dict(obj["coverage"]),
            classification=str(obj["classification"]),
            evidence=str(obj["evidence"]),
            window_ok=bool(obj["window_ok"]),
            beta_le_eps_chain=bool(obj["beta_le_eps_chain"]),
            max_abs_y_sq=scalar_parse(obj["max_abs_y_sq"], m),
            radicand=m,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"bad report artifact: {exc}") from exc
    # internal consistency: beta equals the largest delta value; the stored
    # classification must match the rules applied to the parsed values
    if delta:
        if cmp_values(delta[-1].value, beta.max_ip) != 0:
            raise CertificationError("beta does not equal max delta value")
        for a, b in zip(delta, delta[1:]):
            if cmp_values(a.value, b.value) >= 0:
                raise CertificationError("delta values not strictly ascending")
    label = classify_delta(delta, beta, report.d)
    if label != report.classification:
        raise CertificationError(
            f"stored classification {report.classification} != recomputed {label}"
        )
    return report


def ledger_obj(lines) -> list[dict]:
    return [line.as_dict() for line in lines]


def detect_kind(obj) -> str:
    if not isinstance(obj, dict):
        raise ParseError(f"artifact is a JSON {type(obj).__name__}, not an object")
    if "kind" in obj:
        return str(obj["kind"])
    raise ParseError("artifact has no 'kind' field")
