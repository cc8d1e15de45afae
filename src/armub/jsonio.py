"""Canonical JSON wire formats and atomic file I/O for every artifact.

Rationals travel as pairs of decimal strings (no integer-width or float
ambiguity); quadratic values carry "a" and "b" with b relative to
sqrt(radicand) as declared by the artifact, written from their integer keys
(``key_wire``).  Serialization is canonical (sorted keys, fixed separators,
trailing newline): serialize -> parse -> serialize is byte-identical.
Floats appear only in report-rendering fields.

Every parser follows one rule.  It reads only the inputs of the artifact's
derivation, derives the artifact again with the writer's own ``*_obj``
builder, and requires the stored JSON to equal the derived JSON
(``require_derived``).  An input of the wrong JSON type is a parse error;
so is a field the stored JSON lacks, or a value of another JSON type than
the derived one.  Any other difference is a certification failure.

Y, designs and bases travel as derivations, recipes and references, not
arrays.  The inputs of each kind:

* ``hadamard`` has two forms, and the matrix decides which one is
  written.  A matrix that is exactly the one its label builds
  (``hadamard.from_label``: ``sylvester(m)``, ``paley1(q)``, ``paley2(q)``
  and ``kron(A,B)``, nested) is its recipe, ``label`` and ``order``; it is
  built again from the label and certified by its construction.  Any
  other matrix, a row-permuted one for example, also holds ``rows``, one
  lowercase hex string of 2*ceil(order/8) digits per row: its bits (set
  where an entry is -1) packed MSB first, the padding bits zero.  That
  matrix must pass the Gram check.  Stored rows of a matrix that its label
  builds differ from the derived recipe, a certification failure.
* ``eps-hadamard`` holds Y as its derivation: the source H
  (``hadamard``); ``method``, ``row_select``, ``col_select``,
  ``row_negate``, ``col_negate`` and ``variant`` of ``provenance``; and
  ``partial``.  Y is derived and certified again from them; k, m, both
  epsilons and the rest of the provenance are derived.
* ``rbd``: k and s, the recipe of the affine design over GF(s),
  certified by ``verify_rbd``; d, r, ``"field": {"p", "e", "modulus"}``
  (modulus little-endian, monic), mu and the provenance are derived.
* ``certificate``: ``config``, which holds ``t`` and the search
  ``scope``, and ``bases``, which holds the design recipe ``k`` and ``s``
  and the reference ``"epsh": {"file", "sha256"}``: the plain file name of
  the eps-hadamard artifact in the certificate's directory and the SHA-256
  of its bytes.  A parse certifies the design of the recipe
  (``verify_rbd``), reads the referenced file, requires its digest to
  match and certifies it (through an ``ArtifactCache``, once per batch);
  d, r, the field and mu of the design are derived.  The ``report``, the
  ``ledger`` and ``ok`` are derived; ``config.scope`` is validated but not
  derived.

The earlier forms are parse errors: an eps-hadamard with ``"entries"``, an
rbd with ``"classes"``, and a certificate with an ``"artifacts"`` map, a
``bases`` that is a file reference, or a ``config`` that holds k, s or d.
A basis-set file, which the certificate's ``bases`` replaces, is an
earlier form too (``armub verify`` refuses it).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re

import numpy as np

from .algebra import square_free_split
from .bases import BasisSet, assemble
from .epsh import SEARCH_SCOPES, BlockSplit, EpsHadamard, ExactEps, Provenance, reduce_split
from .errors import CertificationError, DomainError, ParseError, ResourceLimitError
from .hadamard import SignMatrix, from_label, is_hadamard
from .rbd import Rbd, verify_rbd
from .verify import check_theorem_bounds, cross_stats, ledger_ok


# artifacts are trees, so the encoder keeps no record of the containers it is in
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def dumps_canonical(obj) -> str:
    return _CANONICAL.encode(obj) + "\n"


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


def load_json(path: str) -> tuple[str, object]:
    """(SHA-256 hex digest of the file's bytes, JSON value) of the file at
    path, from one read."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        obj = json.loads(data)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or encoding
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest(), obj


class ArtifactCache:
    """The artifacts of one verify batch.  Each file is read once, and each
    parser runs once per distinct file content, keyed by the SHA-256 of the
    file's bytes (and by the file's directory for a parser that resolves
    references), so an artifact that several files refer to is parsed and
    certified once.  Failures are not kept: a bad file fails each time."""

    def __init__(self):
        self._files: dict[str, tuple[str, object]] = {}
        self._parsed: dict[tuple, object] = {}

    def load(self, path: str) -> tuple[str, object]:
        """(SHA-256 hex digest of the file's bytes, JSON value)."""
        key = os.path.abspath(path)
        if key not in self._files:
            self._files[key] = load_json(path)
        return self._files[key]

    def parse(self, path: str, parser, resolving: bool = False):
        """parser applied to the JSON value of the file at path, once per
        file content.  A ``resolving`` parser reads the files its artifact
        refers to: it is called as parser(obj, directory, cache) and runs
        once per file content and directory."""
        digest, obj = self.load(path)
        directory = os.path.dirname(path)
        key = (digest, parser, os.path.abspath(directory) if resolving else None)
        if key not in self._parsed:
            self._parsed[key] = parser(obj, directory, self) if resolving else parser(obj)
        return self._parsed[key]


# ---------------------------------------------------------------------------
# Inputs and the comparison with the derived artifact
# ---------------------------------------------------------------------------

def int_parse(value, name: str) -> int:
    """A JSON integer; a bool, a float or a string is a parse error."""
    if type(value) is not int:
        raise ParseError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _int_list(value, name: str) -> tuple[int, ...]:
    """A list of JSON integers."""
    if not isinstance(value, list):
        raise ParseError(f"{name} must be a list of JSON integers, got {value!r}")
    return tuple(int_parse(v, f"{name} entry") for v in value)


def _current_form(kind: str, obj, earlier: tuple[str, ...], holds: str):
    """Reject obj unless it is a JSON object without the fields of an
    earlier form of the artifact; ``holds`` says what the current form
    holds."""
    if not isinstance(obj, dict):
        raise ParseError(f"bad {kind} artifact: a JSON {type(obj).__name__}, not an object")
    for name in earlier:
        if name in obj:
            raise ParseError(f"bad {kind} artifact: unknown field {name!r} ({holds})")


_JSON_TYPES = ((bool, "boolean"), (int, "integer"), (float, "number"), (str, "string"),
               (list, "array"), (dict, "object"))


def _json_type(value) -> str:
    return next((name for cls, name in _JSON_TYPES if isinstance(value, cls)), "null")


def require_derived(kind: str, derived, stored, at: str = ""):
    """Require the stored JSON of an artifact of kind to be the JSON derived
    again from its inputs.  Equal canonical text passes at once.  Otherwise
    both are walked in sorted key order and the first difference decides: a
    field the stored JSON lacks, or a value of another JSON type (boolean,
    integer, number, string, array, object and null all differ), is a
    ParseError; any other difference, an extra field or another array
    length included, is a CertificationError naming its JSON path.  Values
    compare in canonical text, so NaN equals NaN.  ``at`` is the JSON path
    of stored inside its artifact."""
    if dumps_canonical(derived) != dumps_canonical(stored):
        _require_equal(kind, derived, stored, at)


def _require_equal(kind: str, derived, stored, path: str):
    want = _json_type(derived)
    if _json_type(stored) != want:
        raise ParseError(f"bad {kind} artifact: {path} must be a JSON {want}, got {stored!r}")
    if want == "object":
        for name in sorted(derived.keys() | stored.keys()):
            at = f"{path}.{name}" if path else name
            if name not in stored:
                raise ParseError(f"bad {kind} artifact: missing field {at!r}")
            if name not in derived:
                raise CertificationError(f"stored {at} differs from the derived one")
            _require_equal(kind, derived[name], stored[name], at)
        return
    if want == "array":
        for i, (a, b) in enumerate(zip(derived, stored)):
            _require_equal(kind, a, b, f"{path}[{i}]")
    # equal entries leave only the length of an array to differ
    if dumps_canonical(derived) != dumps_canonical(stored):
        raise CertificationError(f"stored {path} differs from the derived one")


# ---------------------------------------------------------------------------
# Exact values
# ---------------------------------------------------------------------------

def key_wire(key: tuple, radicand: int) -> dict:
    """{"a": rational, "b": rational} with value = a + b*sqrt(radicand), the
    one writer of exact values: for the value (p + q*sqrt(c))/L, L > 0, of a
    key over the core c of radicand = f^2*c, a = p/L and b = q/(L*f) in
    lowest terms."""
    (p, q, scale), f = key, square_free_split(radicand)[0]
    g, h = math.gcd(p, scale), math.gcd(q, scale * f)
    return {"a": [str(p // g), str(scale // g)], "b": [str(q // h), str(scale * f // h)]}


def eps_wire(e: ExactEps, radicand: int) -> dict:
    return {
        "ksq": key_wire(e.ksq, radicand),
        "side": e.side,
        "float": float(e),
    }


# ---------------------------------------------------------------------------
# SignMatrix
# ---------------------------------------------------------------------------

def _is_recipe(m: SignMatrix) -> bool:
    """Whether m is exactly the matrix its label builds."""
    try:
        built = from_label(m.label)
    except (DomainError, ResourceLimitError):
        return False
    return built is m or built == m


def sign_matrix_obj(m: SignMatrix) -> dict:
    """The hadamard artifact of m: its recipe, ``kind``, ``label`` and
    ``order``, and its packed ``rows`` too unless m is exactly the matrix
    its label builds."""
    out = {"kind": "hadamard", "order": m.order, "label": m.label}
    if not _is_recipe(m):
        packed = np.packbits(m.rows < 0, axis=1)
        digits, width = packed.tobytes().hex(), 2 * packed.shape[1]
        out["rows"] = [digits[i:i + width] for i in range(0, len(digits), width)]
    return out


def _packed_rows_parse(rows, order: int) -> np.ndarray:
    """The +-1 rows of a packed sign matrix of the given order."""
    if order < 1 or not isinstance(rows, list) or len(rows) != order:
        raise ParseError(f"rows must be a list of {order} packed rows (order >= 1)")
    width = -(-order // 8)
    try:  # the whole matrix at once; the row at fault is looked for only on failure
        digits = "".join(rows)
        packed = bytes.fromhex(digits)
        well_formed = packed.hex() == digits and set(map(len, rows)) == {2 * width}
    except (TypeError, ValueError):
        well_formed = False
    if not well_formed:
        row_form = re.compile(f"[0-9a-f]{{{2 * width}}}")
        i, row = next((i, row) for i, row in enumerate(rows)
                      if type(row) is not str or not row_form.fullmatch(row))
        raise ParseError(f"rows[{i}] must be {2 * width} lowercase hex digits, got {row!r}")
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(order, width), axis=1)
    padded = bits[:, order:].any(axis=1)
    if padded.any():
        raise ParseError(f"rows[{int(np.argmax(padded))}] has nonzero padding bits")
    return 1 - 2 * bits[:, :order].astype(np.int8)


def _sign_matrix(obj) -> SignMatrix:
    """The matrix of a hadamard object, certified Hadamard: built again
    from its label, or, when obj holds ``rows``, unpacked from them and
    checked by its Gram."""
    try:
        order, label = int_parse(obj["order"], "order"), obj["label"]
        if type(label) is not str:
            raise ParseError(f"label must be a JSON string, got {label!r}")
        h = (SignMatrix(_packed_rows_parse(obj["rows"], order), label=label)
             if "rows" in obj else from_label(label))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad hadamard artifact: {exc}") from exc
    if not h.hadamard_verified:
        check = is_hadamard(h)
        if not check.ok:
            raise CertificationError(f"hadamard re-check failed at {check.first_violation}")
        h.hadamard_verified = True
    return h


def parse_sign_matrix(obj) -> SignMatrix:
    """The certified matrix of a hadamard artifact obj (``_sign_matrix``);
    obj must be the artifact the matrix derives."""
    h = _sign_matrix(obj)
    require_derived("hadamard", sign_matrix_obj(h), obj)
    return h


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


def eps_hadamard_obj(y: EpsHadamard, partial: bool = False) -> dict:
    """The artifact of y: its source H and split, from which a parse derives
    y again; ``partial`` marks the best split of a search that stopped at
    its cap (the field is omitted otherwise)."""
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
    """Y derived again from the stored H and split and certified; the
    artifact must be the one Y derives."""
    _current_form("eps-hadamard", obj, ("entries",),
                  "an eps-hadamard holds its source 'hadamard' and the split in "
                  "'provenance', from which Y is derived; write it again with armub "
                  "epsh or armub armub")
    partial = obj.get("partial", False)
    if not isinstance(partial, bool):
        raise ParseError(f"bad eps-hadamard artifact: partial={partial!r}")
    try:  # the comparison below covers the source H's object too
        h = _sign_matrix(obj["hadamard"])
        prov = obj["provenance"]
        split = None if prov["method"] == "exact-hadamard" else BlockSplit(
            h, *(_int_list(prov[name], f"provenance.{name}")
                 for name in ("row_select", "col_select", "row_negate", "col_negate")))
        variant = prov["variant"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad eps-hadamard artifact: {exc}") from exc
    y = EpsHadamard.from_sign_hadamard(h) if split is None else reduce_split(split, variant)
    require_derived("eps-hadamard", eps_hadamard_obj(y, partial), obj)
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


def parse_rbd(obj) -> Rbd:
    """The design of an rbd artifact's recipe (k, s), certified by
    ``verify_rbd``; the artifact must be the one the recipe derives."""
    _current_form("rbd", obj, ("classes",),
                  "an rbd holds its recipe 'k' and 's', from which the affine design "
                  "is derived; write it again with armub rbd or armub armub")
    design = _certified_design(obj, "rbd", "")
    require_derived("rbd", rbd_obj(design), obj)
    return design


def _certified_design(obj, kind: str, at: str) -> Rbd:
    """The affine design of the recipe k, s that obj, the object at the
    JSON path ``at`` of an artifact of kind, holds, certified by
    ``verify_rbd``."""
    try:
        design = Rbd(*(int_parse(obj[name], at + name) for name in ("k", "s")))
    except KeyError as exc:
        raise ParseError(f"bad {kind} artifact: missing field {at + exc.args[0]!r}") from exc
    cert = verify_rbd(design)
    if not cert.valid:
        raise CertificationError(f"design re-check failed: {cert.violations}")
    design.mu = cert.mu
    return design


# ---------------------------------------------------------------------------
# BasisSet
# ---------------------------------------------------------------------------

def file_ref(path: str, text: str) -> dict:
    """The reference to an artifact written as text at path: its file name
    and the SHA-256 of its bytes."""
    return {"file": os.path.basename(path),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def basis_set_obj(bs: BasisSet, epsh_ref: dict) -> dict:
    """The ``bases`` object of a certificate of bs: the recipe k, s of its
    design and the ``file_ref`` of the file that holds its Y."""
    return {"k": bs.k, "s": bs.s, "epsh": epsh_ref}


def _referenced(ref, at: str, directory: str, artifacts: ArtifactCache) -> tuple[str, dict]:
    """The path of the artifact that the reference ref, at the JSON path
    ``at`` of a certificate, names: a plain file name in directory whose
    bytes have the recorded SHA-256; and the reference derived from that
    file.  A malformed or unreadable reference is a parse error, a digest
    mismatch a certification failure."""
    if not (isinstance(ref, dict) and "file" in ref and "sha256" in ref):
        raise ParseError(
            f"bad certificate artifact: {at!r} must be an object with 'file' "
            f"and 'sha256', got {ref!r}"
        )
    file, recorded = ref["file"], ref["sha256"]
    if not (isinstance(file, str) and file not in ("", ".", "..")
            and os.path.basename(file) == file):
        raise ParseError(
            f"bad certificate artifact: {at}.file must be a plain file name in "
            f"the directory of the certificate, got {file!r}"
        )
    if not (isinstance(recorded, str) and re.fullmatch("[0-9a-f]{64}", recorded)):
        raise ParseError(
            f"bad certificate artifact: {at}.sha256 must be 64 lowercase hex "
            f"digits, got {recorded!r}"
        )
    path = os.path.join(directory, file)
    try:
        digest, _ = artifacts.load(path)
    except ParseError as exc:
        raise ParseError(f"bad certificate artifact: {at}.file: {exc}") from exc
    if digest != recorded:
        raise CertificationError(f"referenced {file} does not match its recorded sha256")
    return path, {"file": file, "sha256": digest}


_WRITE_AGAIN = "write it again with armub armub"


def parse_basis_set(obj, directory: str, artifacts: ArtifactCache) -> tuple[BasisSet, dict]:
    """The bases of a certificate's ``bases`` object obj, and the reference
    to Y's file derived from that file: the affine design of its recipe,
    certified, and the eps-hadamard artifact it refers to in directory,
    matched against its digest and certified (once per ``artifacts``
    cache).  The certificate's comparison requires obj to be the object
    they derive."""
    if isinstance(obj, dict) and "file" in obj:
        raise ParseError("bad certificate artifact: 'bases' is a reference to a basis-set "
                         "file, an earlier form (the certificate holds the recipe 'k', 's' "
                         f"and the reference 'epsh'); {_WRITE_AGAIN}")
    if not isinstance(obj, dict):
        raise ParseError(f"bad certificate artifact: bases must be a JSON object, got {obj!r}")
    design = _certified_design(obj, "certificate", "bases.")
    path, ref = _referenced(obj.get("epsh"), "bases.epsh", directory, artifacts)
    return assemble(design, artifacts.parse(path, parse_eps_hadamard)), ref


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
            {"value": key_wire(dv.key, m), "count": dv.count}
            for dv in report.delta
        ],
        "beta": {
            "max_ip": key_wire(report.delta[-1].key, m),
            "float": float(report.beta),
        },
        "bound_beta_float": report.bound_beta_float(),
        "max_abs_y_sq": key_wire(report.max_abs_y_sq_key, m),
        "pairs_checked": report.pairs_checked,
        "coverage": report.coverage,
        "classification": report.classification,
        "window_ok": report.window_ok,
        "beta_le_eps_chain": report.beta_le_eps_chain,
    }


def ledger_obj(lines) -> list[dict]:
    return [line.as_dict() for line in lines]


def certificate_obj(bs: BasisSet, t: int, scope: str, epsh_ref: dict) -> dict:
    """The certificate of the basis set bs, whose Y the ``file_ref``
    epsh_ref names, built by ``armub armub`` with t and the search scope:
    its bases, cross statistics, the bound ledger and the verdict.  t is
    Y's own for a reduction; for Y = H/sqrt(k), which no reduction made,
    the report and the ledger read the configured t."""
    t = bs.y.provenance.t or t
    n = (bs.k + t) // 4 if (bs.k + t) % 4 == 0 else None
    report = dataclasses.replace(cross_stats(bs), t=t, n=n)
    ledger = check_theorem_bounds(report)
    return {
        "kind": "certificate",
        "config": {"t": t, "scope": scope},
        "bases": basis_set_obj(bs, epsh_ref),
        "report": report_obj(report),
        "ledger": ledger_obj(ledger),
        "ok": ledger_ok(ledger),
    }


def _config_parse(obj) -> tuple[int, str]:
    """(t, scope) of a certificate's config, which holds exactly t in
    {1, 2, 3} and a search scope."""
    if isinstance(obj, dict) and obj.keys() & {"k", "s", "d"}:
        raise ParseError("bad certificate artifact: config holds k, s or d, an earlier form "
                         f"(the recipe k, s is in 'bases' and d is derived); {_WRITE_AGAIN}")
    if not (isinstance(obj, dict) and sorted(obj) == ["scope", "t"]):
        raise ParseError(f"bad certificate artifact: config must be an object with the "
                         f"fields scope and t, got {obj!r}")
    if int_parse(obj["t"], "config.t") not in (1, 2, 3) or obj["scope"] not in SEARCH_SCOPES:
        raise ParseError(f"bad certificate artifact: config needs t in {{1, 2, 3}} and a "
                         f"scope in {SEARCH_SCOPES}, got {obj!r}")
    return obj["t"], obj["scope"]


def parse_certificate(obj, directory: str, artifacts: ArtifactCache) -> dict:
    """The certificate derived again, by ``certificate_obj``, from its
    inputs: the config and the bases, whose Y is read from directory and
    certified through ``artifacts``.  obj must be the derived certificate."""
    _current_form("certificate", obj, ("artifacts",),
                  "a certificate holds its bases as the recipe 'k', 's' and the "
                  f"reference 'epsh'; {_WRITE_AGAIN}")
    for name in ("config", "bases", "report", "ledger", "ok"):
        if name not in obj:
            raise ParseError(f"bad certificate artifact: missing field {name!r}")
    t, scope = _config_parse(obj["config"])
    bs, epsh_ref = parse_basis_set(obj["bases"], directory, artifacts)
    derived = certificate_obj(bs, t, scope, epsh_ref)
    require_derived("certificate", derived, obj)
    return derived


def detect_kind(obj) -> str:
    if not isinstance(obj, dict):
        raise ParseError(f"artifact is a JSON {type(obj).__name__}, not an object")
    if "kind" in obj:
        return str(obj["kind"])
    raise ParseError("artifact has no 'kind' field")
