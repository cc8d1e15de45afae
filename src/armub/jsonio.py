"""Canonical JSON wire formats and atomic file I/O for every artifact.

Rationals travel as pairs of decimal strings (no integer-width or float
ambiguity); quadratic values carry "a" and "b" with b relative to
sqrt(radicand) as declared by the artifact, so a value parses back to the
identical canonical scalar.  Every field declared an integer must be a JSON
integer: a float or a bool there is a parse error, never truncated; a
declared boolean must be a JSON boolean.
Serialization is canonical (sorted keys, fixed separators, trailing
newline): serialize -> parse -> serialize is byte-identical.  Floats appear
only in report-rendering fields.

Y, designs and bases travel as derivations, recipes and references, not
arrays:

* ``hadamard`` holds ``order``, ``label`` and ``rows``, one lowercase hex
  string of 2*ceil(order/8) digits per row: its bits (set where an entry
  is -1) packed MSB first, the padding bits zero.
* ``eps-hadamard`` holds Y as its derivation: the source H (``hadamard``)
  and the split, route and U relation (``provenance``), with k, m and
  both epsilons.  A parse derives and certifies Y again from H and the
  split, and every stored field must equal the derived one.
* ``rbd`` holds d, k, s, r, mu and ``"field": {"p", "e", "modulus"}``,
  the recipe of the affine design over GF(p^e) (modulus little-endian,
  monic), certified again on parse.  An rbd of the earlier form, with an
  explicit ``"classes"`` array, is a parse error.
* ``basis-set`` holds d, k, s and two references, ``"rbd"`` and
  ``"epsh"``, each ``{"file", "sha256"}``: the plain file name of a
  sibling artifact in the same directory and the SHA-256 of its bytes.
  A parse reads the referenced files, requires their digests to match,
  and certifies them (through an ``ArtifactCache``, once per batch).
* ``certificate`` holds ``config`` (k, s, t, d, scope), a reference
  ``"bases": {"file", "sha256"}`` to a basis-set as above, and the claims
  derived from them: the ``report``, the ``ledger`` and ``ok``.  A parse
  derives the certificate again, which the stored one must equal in
  canonical text; ``config.scope`` is validated but not derived.  A
  certificate with an ``"artifacts"`` map (the earlier form) is a parse
  error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
from fractions import Fraction

import numpy as np

from .algebra import Scalar, QuadNum, cmp_values, square_free_split
from .bases import BasisSet, assemble
from .epsh import SEARCH_SCOPES, BlockSplit, EpsHadamard, ExactEps, Provenance, reduce_split
from .errors import CertificationError, DomainError, ParseError
from .hadamard import SignMatrix, is_hadamard
from .rbd import Rbd, verify_rbd
from .verify import check_theorem_bounds, cross_stats, ledger_ok


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


def load_json(path: str, digest: bool = False):
    """The JSON value in the file at path; with ``digest``, the pair (SHA-256
    hex digest of the file's bytes, value), from one read."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        obj = json.loads(data)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or encoding
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return (hashlib.sha256(data).hexdigest(), obj) if digest else obj


class ArtifactCache:
    """The artifacts of one verify batch.  Each file is read once, and each
    parser runs once per distinct file content, keyed by the SHA-256 of the
    file's bytes, so an artifact that several files refer to is parsed and
    certified once.  Failures are not kept: a bad file fails each time."""

    def __init__(self):
        self._files: dict[str, tuple[str, object]] = {}
        self._parsed: dict[tuple, object] = {}

    def load(self, path: str) -> tuple[str, object]:
        """(SHA-256 hex digest of the file's bytes, JSON value)."""
        key = os.path.abspath(path)
        if key not in self._files:
            self._files[key] = load_json(path, digest=True)
        return self._files[key]

    def parse(self, path: str, parser):
        """parser applied to the JSON value of the file at path, once per
        file content."""
        digest, obj = self.load(path)
        key = (digest, parser)
        if key not in self._parsed:
            self._parsed[key] = parser(obj)
        return self._parsed[key]


# ---------------------------------------------------------------------------
# Integers and scalars
# ---------------------------------------------------------------------------

def int_parse(value, name: str) -> int:
    """A JSON integer; a bool, a float or a string is a parse error."""
    if type(value) is not int:
        raise ParseError(f"{name} must be a JSON integer, got {value!r}")
    return value


def bool_parse(value, name: str) -> bool:
    """A JSON true or false; any other value is a parse error."""
    if not isinstance(value, bool):
        raise ParseError(f"{name} must be a JSON boolean, got {value!r}")
    return value


def frac_wire(x) -> list[str]:
    f = Fraction(x)
    return [str(f.numerator), str(f.denominator)]


def frac_parse(obj) -> Fraction:
    """A rational from its wire form, a list of two decimal strings."""
    if not (isinstance(obj, list) and len(obj) == 2
            and all(type(x) is str for x in obj)):
        raise ParseError(f"bad rational {obj!r}: not a pair of decimal strings")
    try:
        return Fraction(int(obj[0]), int(obj[1]))
    except (ValueError, ZeroDivisionError) as exc:
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
    """An epsilon from its wire form; the stored ``side`` must be the JSON
    integer that ksq implies (the rendered ``float`` is not read)."""
    try:
        eps = ExactEps(scalar_parse(obj["ksq"], radicand))
        side = int_parse(obj["side"], "side")
    except KeyError as exc:
        raise ParseError(f"bad epsilon {obj!r}") from exc
    if side != eps.side:
        raise CertificationError(f"stored side {side} != {eps.side} implied by ksq")
    return eps


# ---------------------------------------------------------------------------
# SignMatrix
# ---------------------------------------------------------------------------

def sign_matrix_obj(m: SignMatrix) -> dict:
    packed = np.packbits(m.rows < 0, axis=1)
    return {
        "kind": "hadamard",
        "order": m.order,
        "label": m.label,
        "rows": [row.tobytes().hex() for row in packed],
    }


def _packed_rows_parse(rows, order: int) -> np.ndarray:
    """The +-1 rows of a packed sign matrix of the given order."""
    if order < 1 or not isinstance(rows, list) or len(rows) != order:
        raise ParseError(f"rows must be a list of {order} packed rows (order >= 1)")
    width = -(-order // 8)
    row_form = re.compile(f"[0-9a-f]{{{2 * width}}}")
    for i, row in enumerate(rows):
        if type(row) is not str or not row_form.fullmatch(row):
            raise ParseError(f"rows[{i}] must be {2 * width} lowercase hex digits, got {row!r}")
    packed = np.frombuffer(bytes.fromhex("".join(rows)), dtype=np.uint8)
    bits = np.unpackbits(packed.reshape(order, width), axis=1)
    padded = bits[:, order:].any(axis=1)
    if padded.any():
        raise ParseError(f"rows[{int(np.argmax(padded))}] has nonzero padding bits")
    return 1 - 2 * bits[:, :order].astype(np.int8)


def parse_sign_matrix(obj) -> SignMatrix:
    """A sign matrix from its packed form, required to be Hadamard."""
    try:
        order = int_parse(obj["order"], "order")
        m = SignMatrix(_packed_rows_parse(obj["rows"], order),
                       label=str(obj.get("label", "")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad hadamard artifact: {exc}") from exc
    check = is_hadamard(m)
    if not check.ok:
        raise CertificationError(
            f"hadamard re-check failed at {check.first_violation}"
        )
    return SignMatrix(m.rows, label=m.label, verified=True)


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
    t = int_parse(obj["t"], "t")
    uclass = None
    if obj.get("u_relation"):
        u = obj["u_relation"]
        uclass = UClass(
            t=t,
            kappa=int_parse(u["kappa"], "kappa"),
            gamma=int_parse(u["gamma"], "gamma"),
            vartheta=None if u["vartheta"] is None else int_parse(u["vartheta"], "vartheta"),
            paper_listed=bool_parse(u["paper_listed"], "paper_listed"),
            preferred_variant=u["preferred_variant"],
        )
    return Provenance(
        source_label=str(obj["source_label"]),
        source_order=int_parse(obj["source_order"], "source_order"),
        t=t,
        row_select=tuple(int_parse(i, "row_select") for i in obj["row_select"]),
        col_select=tuple(int_parse(i, "col_select") for i in obj["col_select"]),
        row_negate=tuple(_flag_parse(b, "row_negate") for b in obj["row_negate"]),
        col_negate=tuple(_flag_parse(b, "col_negate") for b in obj["col_negate"]),
        variant=obj["variant"],
        method=str(obj["method"]),
        uclass=uclass,
    )


def _flag_parse(value, name: str) -> bool:
    """A negation flag, written as the JSON integer 0 or 1."""
    if int_parse(value, name) not in (0, 1):
        raise ParseError(f"{name} entries must be 0 or 1, got {value!r}")
    return bool(value)


def eps_hadamard_obj(y: EpsHadamard, partial: bool = False) -> dict:
    """The artifact of y: its source H and split, from which a parse derives
    y again; ``partial`` marks the best split of a search that stopped at
    its cap (the field is omitted otherwise)."""
    if y.source is None:
        raise DomainError("only a Y derived from a Hadamard matrix has an artifact")
    m = y.radicand
    out = {
        "kind": "eps-hadamard",
        "hadamard": sign_matrix_obj(y.source),
        "k": y.order,
        "m": m,
        "epsilon": eps_wire(y.epsilon, m),
        "epsilon_upper": eps_wire(y.epsilon_upper, m),
        "provenance": provenance_obj(y.provenance),
    }
    if partial:
        out["partial"] = True
    return out


def parse_eps_hadamard(obj) -> EpsHadamard:
    """Y derived again from the stored H and split and certified; k, m, the
    provenance, epsilon and epsilon_upper must equal the derived ones."""
    if isinstance(obj, dict) and "entries" in obj:  # the form written before
        raise ParseError(
            "bad eps-hadamard artifact: unknown field 'entries' (an eps-hadamard "
            "holds its source 'hadamard' and the split in 'provenance', from "
            "which Y is derived; write it again with armub epsh or armub armub)"
        )
    if isinstance(obj, dict) and not isinstance(obj.get("partial", False), bool):
        raise ParseError(f"bad eps-hadamard artifact: partial={obj['partial']!r}")
    try:
        h = parse_sign_matrix(obj["hadamard"])
        k = int_parse(obj["k"], "k")
        m = int_parse(obj["m"], "m")
        prov = parse_provenance(obj["provenance"])
        stored = {name: eps_parse(obj[name], m) for name in ("epsilon", "epsilon_upper")}
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"bad eps-hadamard artifact: {exc}") from exc
    if prov.method == "exact-hadamard":
        y = EpsHadamard.from_sign_hadamard(h)
    else:
        y = reduce_split(BlockSplit(h, prov.row_select, prov.col_select,
                                    prov.row_negate, prov.col_negate), prov.variant)
    if (k, m) != (y.order, y.radicand):
        raise CertificationError(
            f"stored (k, m) = {(k, m)} != derived {(y.order, y.radicand)}"
        )
    if prov != y.provenance:
        differ = [{"uclass": "u_relation"}.get(f.name, f.name)
                  for f in dataclasses.fields(prov)
                  if getattr(prov, f.name) != getattr(y.provenance, f.name)]
        raise CertificationError(
            f"stored provenance differs from the derived one in {', '.join(differ)}"
        )
    for name, derived in (("epsilon", y.epsilon), ("epsilon_upper", y.epsilon_upper)):
        if cmp_values(stored[name].q, derived.q) != 0:
            raise CertificationError(
                f"stored {name} ksq {stored[name].q} != derived {derived.q}"
            )
    return y


# ---------------------------------------------------------------------------
# Rbd
# ---------------------------------------------------------------------------

def rbd_obj(r: Rbd) -> dict:
    p, e, modulus = r.field
    return {
        "kind": "rbd",
        "d": r.d,
        "k": r.k,
        "s": r.s,
        "r": r.r,
        "mu": r.mu,
        "provenance": r.provenance,
        "field": {"p": p, "e": e, "modulus": list(modulus)},
    }


def _field_parse(obj) -> tuple[int, int, tuple[int, ...]]:
    """(p, e, modulus) of an affine recipe's "field"."""
    modulus = obj["modulus"]
    if not isinstance(modulus, list):
        raise ParseError(f"field.modulus must be a list of JSON integers, got {modulus!r}")
    return (int_parse(obj["p"], "field.p"), int_parse(obj["e"], "field.e"),
            tuple(int_parse(c, "field.modulus entry") for c in modulus))


def parse_rbd(obj) -> Rbd:
    if isinstance(obj, dict) and "classes" in obj:  # the form written before
        raise ParseError(
            "bad rbd artifact: unknown field 'classes' (an rbd holds the affine "
            "recipe 'field'; write it again with armub rbd or armub armub)"
        )
    try:
        d, k, s = (int_parse(obj[name], name) for name in ("d", "k", "s"))
        r = Rbd(k, s, _field_parse(obj["field"]), d=d, r=int_parse(obj["r"], "r"),
                provenance=str(obj.get("provenance", "")))
        declared_mu = None if obj["mu"] is None else int_parse(obj["mu"], "mu")
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

def file_ref(path: str, text: str) -> dict:
    """The reference to an artifact written as text at path: its file name
    and the SHA-256 of its bytes."""
    return {"file": os.path.basename(path),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def basis_set_obj(bs: BasisSet, rbd_ref: dict, epsh_ref: dict) -> dict:
    """The basis-set artifact of bs, given the ``file_ref`` of the files
    that hold its design and its Y."""
    return {
        "kind": "basis-set",
        "d": bs.d,
        "k": bs.k,
        "s": bs.s,
        "rbd": rbd_ref,
        "epsh": epsh_ref,
    }


def _referenced(obj, name: str, directory: str, artifacts: ArtifactCache) -> str:
    """The path of the artifact that obj[name] refers to: a file named by a
    plain file name in directory whose bytes have the recorded SHA-256.  A
    malformed or unreadable reference is a parse error, a digest mismatch a
    certification failure."""
    kind, ref = obj.get("kind"), obj.get(name)
    if not (isinstance(ref, dict) and "file" in ref and "sha256" in ref):
        raise ParseError(
            f"bad {kind} artifact: {name!r} must be an object with 'file' "
            f"and 'sha256', got {ref!r}"
        )
    file, recorded = ref["file"], ref["sha256"]
    if not (isinstance(file, str) and file not in ("", ".", "..")
            and os.path.basename(file) == file):
        raise ParseError(
            f"bad {kind} artifact: {name}.file must be a plain file name in "
            f"the directory of the {kind}, got {file!r}"
        )
    if not (isinstance(recorded, str) and re.fullmatch("[0-9a-f]{64}", recorded)):
        raise ParseError(
            f"bad {kind} artifact: {name}.sha256 must be 64 lowercase hex "
            f"digits, got {recorded!r}"
        )
    path = os.path.join(directory, file)
    try:
        digest, _ = artifacts.load(path)
    except ParseError as exc:
        raise ParseError(f"bad {kind} artifact: {name}.file: {exc}") from exc
    if digest != recorded:
        raise CertificationError(f"referenced {file} does not match its recorded sha256")
    return path


def parse_basis_set(obj, directory: str, artifacts: ArtifactCache) -> BasisSet:
    """The bases of a basis-set artifact read from directory: its referenced
    rbd and eps-hadamard artifacts are read from the same directory,
    matched against their digests and certified (once per ``artifacts``
    cache), and d, k, s must be those of the assembled set."""
    for old in ("vectors", "design", "y"):  # fields of earlier forms
        if isinstance(obj, dict) and old in obj:
            raise ParseError(
                f"bad basis-set artifact: unknown field {old!r} (a basis-set holds "
                "d, k, s and the references 'rbd' and 'epsh'; write it again "
                "with armub armub)"
            )
    try:
        declared = tuple(int_parse(obj[name], name) for name in ("d", "k", "s"))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad basis-set artifact: {exc!r}") from exc
    r = artifacts.parse(_referenced(obj, "rbd", directory, artifacts), parse_rbd)
    y = artifacts.parse(_referenced(obj, "epsh", directory, artifacts), parse_eps_hadamard)
    bs = assemble(r, y)
    if declared != (bs.d, bs.k, bs.s):
        raise CertificationError(
            f"declared (d, k, s) = {declared} but the referenced artifacts give "
            f"{(bs.d, bs.k, bs.s)}"
        )
    return bs


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
        "window_ok": report.window_ok,
        "beta_le_eps_chain": report.beta_le_eps_chain,
    }


def ledger_obj(lines) -> list[dict]:
    return [line.as_dict() for line in lines]


def certificate_obj(bs: BasisSet, t: int, scope: str, bases_ref: dict) -> dict:
    """The certificate of the basis set bs, which the ``file_ref`` bases_ref
    names, built by ``armub armub`` with t and the search scope: its cross
    statistics, the bound ledger and the verdict.  t is Y's own for a
    reduction; for Y = H/sqrt(k), which no reduction made, the report and
    the ledger read the configured t."""
    t = bs.y.provenance.t or t
    n = (bs.k + t) // 4 if (bs.k + t) % 4 == 0 else None
    report = dataclasses.replace(cross_stats(bs), t=t, n=n)
    ledger = check_theorem_bounds(report)
    return {
        "kind": "certificate",
        "config": {"k": bs.k, "s": bs.s, "t": t, "d": bs.d, "scope": scope},
        "bases": bases_ref,
        "report": report_obj(report),
        "ledger": ledger_obj(ledger),
        "ok": ledger_ok(ledger),
    }


_CONFIG_FIELDS = ("d", "k", "s", "scope", "t")


def _config_parse(obj) -> tuple[int, str]:
    """(t, scope) of a certificate's config, which holds exactly k, s, t, d
    and scope: k, s, t and d JSON integers in the pipeline's domain and
    scope a search scope."""
    if not (isinstance(obj, dict) and sorted(obj) == list(_CONFIG_FIELDS)):
        raise ParseError(f"bad certificate artifact: config must be an object with the "
                         f"fields {', '.join(_CONFIG_FIELDS)}, got {obj!r}")
    k, s, t, d = (int_parse(obj[name], f"config.{name}") for name in ("k", "s", "t", "d"))
    if min(k, s) < 1 or d != k * s or t not in (1, 2, 3) or obj["scope"] not in SEARCH_SCOPES:
        raise ParseError(f"bad certificate artifact: config needs k, s >= 1, d = k*s, "
                         f"t in {{1, 2, 3}} and a scope in {SEARCH_SCOPES}, got {obj!r}")
    return t, obj["scope"]


def _first_difference(derived: dict, stored: dict) -> str:
    """The first key, in sorted order, that only one of two objects holds or
    whose values differ in canonical text."""
    return next(name for name in sorted(set(derived) | set(stored))
                if name not in derived or name not in stored
                or dumps_canonical(derived[name]) != dumps_canonical(stored[name]))


def parse_certificate(obj, directory: str, artifacts: ArtifactCache) -> dict:
    """The certificate derived again, by ``certificate_obj``, from the
    config and the basis-set that obj refers to in directory (read and
    certified through ``artifacts``).  obj must equal it in canonical
    text; a difference is a certification failure naming the first
    top-level key, or report key, that differs."""
    if "artifacts" in obj:  # the form written before
        raise ParseError(
            "bad certificate artifact: unknown field 'artifacts' (a certificate "
            "refers to its basis-set as 'bases' with 'file' and 'sha256'; write "
            "it again with armub armub)"
        )
    for name in ("config", "bases", "report", "ledger", "ok"):
        if name not in obj:
            raise ParseError(f"bad certificate artifact: missing field {name!r}")
    t, scope = _config_parse(obj["config"])
    _, bases = artifacts.load(_referenced(obj, "bases", directory, artifacts))
    bs = parse_basis_set(bases, directory, artifacts)
    ref = {"file": obj["bases"]["file"], "sha256": obj["bases"]["sha256"]}
    derived = certificate_obj(bs, t, scope, ref)
    if dumps_canonical(derived) != dumps_canonical(obj):
        key = _first_difference(derived, obj)
        if key == "report" and isinstance(obj["report"], dict):
            key += "." + _first_difference(derived["report"], obj["report"])
        raise CertificationError(f"stored {key} differs from the derived one")
    return derived


def detect_kind(obj) -> str:
    if not isinstance(obj, dict):
        raise ParseError(f"artifact is a JSON {type(obj).__name__}, not an object")
    if "kind" in obj:
        return str(obj["kind"])
    raise ParseError("artifact has no 'kind' field")
