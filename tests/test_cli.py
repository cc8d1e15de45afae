"""The command-line interface, driven through ``armub.cli.main`` at small
sizes: exit codes, artifact files and batch verification."""

import hashlib
import json
import math
import os
import shutil
import time
from fractions import Fraction

import pytest

from armub import cli, jsonio
from armub.algebra import MAX_FIELD_SIZE
from armub.epsh import EpsHadamard, Provenance, best_reduction
from armub.errors import CertificationError, ParseError
from armub.hadamard import find_hadamard
from armub.rbd import build_affine_rbd
import oracles
from oracles import from_scalar_rows


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline") / "out"
    assert cli.main(["armub", "--k", "3", "--s", "5", "--t", "1", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def rbd_file(tmp_path_factory):
    """rbd.json of `armub rbd --k 3 --s 5`, the design of the pipeline above."""
    path = tmp_path_factory.mktemp("rbd") / "rbd.json"
    assert cli.main(["rbd", "--k", "3", "--s", "5", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def rows_epsh(tmp_path_factory):
    """epsh.json of the corner reduction of H_4 with rows 1..3 permuted
    (seed 2): no constructor builds that H, so the file holds packed rows."""
    path = tmp_path_factory.mktemp("rows") / "epsh.json"
    y = best_reduction(oracles.row_permuted(find_hadamard(4), 1, 2), 1)
    path.write_text(jsonio.dumps_canonical(jsonio.eps_hadamard_obj(y)))
    assert "rows" in _load(path)["hadamard"]
    return path


def _copy(pipeline_dir, tmp_path):
    return shutil.copytree(pipeline_dir, tmp_path / "out")


def test_epsh_writes_and_verifies(tmp_path, capsys):
    out = tmp_path / "epsh.json"
    assert cli.main(["epsh", "8", "1", "--out", str(out)]) == 0
    assert "partial" not in _load(out)
    assert cli.main(["verify", str(out)]) == 0
    assert f"{out}: eps-hadamard: ok\n" in capsys.readouterr().out


def test_pipeline_artifacts_verify(pipeline_dir, capsys):
    """`armub armub` writes Y's derivation and the certificate, which holds
    t and the scope, the design's recipe and a reference to Y's file."""
    files = sorted(str(p) for p in pipeline_dir.iterdir())
    assert [os.path.basename(f) for f in files] == ["certificate.json", "epsh.json"]
    cert = _load(pipeline_dir / "certificate.json")
    assert cert["config"] == {"t": 1, "scope": "corner-only"}
    assert cert["bases"] == {
        "k": 3, "s": 5,
        "epsh": jsonio.file_ref("epsh.json", (pipeline_dir / "epsh.json").read_text())}
    assert cli.main(["verify", *files]) == 0
    assert capsys.readouterr().out.count(": ok") == len(files)


def test_artifact_mode_follows_umask(tmp_path, umask_022):
    out = tmp_path / "epsh.json"
    assert cli.main(["epsh", "8", "1", "--out", str(out)]) == 0
    assert os.stat(out).st_mode & 0o777 == 0o644
    assert os.listdir(tmp_path) == ["epsh.json"]  # no temp file left behind


def test_domain_error_exit_2(capsys):
    assert cli.main(["epsh", "8", "3"]) == 2  # t^2 >= order
    assert cli.main(["armub", "--k", "3", "--s", "5", "--t", "2"]) == 2  # 4 does not divide 5
    assert "domain error" in capsys.readouterr().err


def test_cap_writes_partial_best_exit_6(tmp_path, capsys):
    out = tmp_path / "partial.json"
    code = cli.main(["epsh", "8", "1", "--scope", "row-col-permutations",
                     "--cap", "5", "--out", str(out)])
    assert code == 6
    assert "resource limit" in capsys.readouterr().err
    obj = _load(out)
    assert obj["partial"] is True
    # the same artifact as the uncapped search, apart from the marker
    full = tmp_path / "full.json"
    assert cli.main(["epsh", "8", "1", "--scope", "row-col-permutations",
                     "--out", str(full)]) == 0
    del obj["partial"]
    assert obj == _load(full)
    assert cli.main(["verify", str(out)]) == 0
    assert "eps-hadamard: ok (partial" in capsys.readouterr().out


def test_partial_must_be_boolean(tmp_path, capsys):
    out = tmp_path / "epsh.json"
    assert cli.main(["epsh", "8", "1", "--out", str(out)]) == 0
    obj = _load(out)
    obj["partial"] = "yes"
    assert cli.main(["verify", _dump(obj, out)]) == 4
    assert "parse error" in capsys.readouterr().out


def _flip_bit(obj, i, j):
    """obj, an eps-hadamard artifact, with entry (i, j) of its packed H negated."""
    rows = obj["hadamard"]["rows"]
    packed = bytearray.fromhex(rows[i])
    packed[j // 8] ^= 0x80 >> (j % 8)
    rows[i] = packed.hex()
    return obj


def test_verify_tampered_entry_exit_5(tmp_path, rows_epsh, capsys):
    out = tmp_path / "epsh.json"
    assert cli.main(["verify", _dump(_flip_bit(_load(rows_epsh), 2, 3), out)]) == 5
    assert "CHECK FAILED: hadamard re-check failed at (0, 2, 2)" in capsys.readouterr().out


# the stored derivation must be the one Y is derived by: each change below
# derives a Y whose provenance or epsilon differs from the stored one
U_RELATION_99 = {"gamma": 99, "kappa": 0, "paper_listed": True,
                 "preferred_variant": "Y1", "vartheta": None}
DIFFERS = " differs from the derived one"
DERIVATION_TAMPERS = {
    "split": ({"row_select": [1], "col_select": [1]}, "stored epsilon.float" + DIFFERS),
    "negation": ({"col_negate": [1]}, "stored epsilon.float" + DIFFERS),
    "variant": ({"variant": "Y2"}, "stored epsilon.float" + DIFFERS),
    "method": ({"method": "schur"}, "stored provenance.method" + DIFFERS),
    "label": ({"source_label": "anything"}, "stored provenance.source_label" + DIFFERS),
    "u-relation": ({"u_relation": U_RELATION_99}, "stored provenance.u_relation.gamma" + DIFFERS),
    "all-four": ({"row_select": [2], "method": "schur", "source_label": "anything",
                  "u_relation": U_RELATION_99},
                 "stored provenance.method" + DIFFERS),
}


@pytest.mark.parametrize("case", list(DERIVATION_TAMPERS))
def test_tampered_derivation_exit_5(tmp_path, pipeline_dir, capsys, case):
    fields, message = DERIVATION_TAMPERS[case]
    obj = _load(pipeline_dir / "epsh.json")
    obj["provenance"].update(fields)
    path = _dump(obj, tmp_path / "epsh.json")
    assert cli.main(["verify", path]) == 5
    assert capsys.readouterr().out == f"{path}: eps-hadamard: CHECK FAILED: {message}\n"


@pytest.mark.parametrize("flip", [
    lambda p: p.update(variant={"Y1": "Y2", "Y2": "Y1"}[p["variant"]]),
    lambda p: p["row_negate"].__setitem__(0, 1 - p["row_negate"][0]),
    lambda p: p["col_negate"].__setitem__(2, 1 - p["col_negate"][2]),
], ids=["variant", "row-negate", "col-negate"])
def test_flipped_t3_derivation_exit_5(tmp_path, capsys, flip):
    """A t = 3 artifact with its variant or one negation flag flipped
    derives another Y, whose stored provenance or epsilon no longer
    matches: verify exits 5."""
    out = tmp_path / "epsh.json"
    assert cli.main(["epsh", "16", "3", "--out", str(out)]) == 0
    obj = _load(out)
    flip(obj["provenance"])
    path = _dump(obj, out)
    capsys.readouterr()
    assert cli.main(["verify", path]) == 5
    assert capsys.readouterr().out.startswith(f"{path}: eps-hadamard: CHECK FAILED: stored ")


@pytest.mark.parametrize("field, value", [("k", 4), ("m", 8)])
def test_stored_order_must_be_derived(tmp_path, pipeline_dir, capsys, field, value):
    obj = _set(_load(pipeline_dir / "epsh.json"), **{field: value})
    assert cli.main(["verify", _dump(obj, tmp_path / "epsh.json")]) == 5
    assert f"stored {field} differs from the derived one" in capsys.readouterr().out


def test_equally_certified_split_verifies_alone(tmp_path, pipeline_dir, capsys):
    """Row 2 of H_4 gives U = [1] as row 0 does: the Y it derives has the
    stored provenance class and epsilon, so the changed file is a valid
    artifact of that Y; the certificate that refers to it fails its digest."""
    out = _copy(pipeline_dir, tmp_path)
    obj = _load(out / "epsh.json")
    obj["provenance"]["row_select"] = [2]
    epsh_path = _dump(obj, out / "epsh.json")
    assert cli.main(["verify", epsh_path, str(out / "certificate.json")]) == 5
    assert capsys.readouterr().out.splitlines() == [
        f"{epsh_path}: eps-hadamard: ok",
        f"{out / 'certificate.json'}: certificate: CHECK FAILED: referenced epsh.json "
        "does not match its recorded sha256",
    ]


def test_explicit_entries_epsh_exit_4(tmp_path, pipeline_dir, capsys):
    """The eps-hadamard form written before: Y's k x k cells, no H."""
    obj = _load(pipeline_dir / "epsh.json")
    del obj["hadamard"]
    cell = {"a": ["1", "3"], "b": ["0", "1"]}
    obj["entries"] = [[cell] * 3] * 3
    assert cli.main(["verify", _dump(obj, tmp_path / "epsh.json")]) == 4
    out = capsys.readouterr().out
    assert "parse error" in out and "unknown field 'entries'" in out
    assert "write it again" in out


def test_verify_batch_continues_after_bad_files(tmp_path, pipeline_dir, capsys):
    not_object = _dump([1, 2], tmp_path / "list.json")
    cert = _load(pipeline_dir / "certificate.json")
    del cert["report"]
    no_report = _dump(cert, tmp_path / "no-report.json")
    good = str(pipeline_dir / "epsh.json")
    missing = str(tmp_path / "missing.json")
    assert cli.main(["verify", not_object, no_report, good, missing]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith(f"{not_object}: parse error: artifact is a JSON list")
    assert lines[1].startswith(f"{no_report}: parse error:") and "'report'" in lines[1]
    assert lines[2] == f"{good}: eps-hadamard: ok"
    assert lines[3].startswith(f"{missing}: parse error: cannot read")


def test_verify_zero_denominator_is_parse_error(tmp_path, pipeline_dir, capsys):
    """A report alone, here with a zero denominator, is no artifact kind
    verify takes: the report is derived again inside a certificate only."""
    report = _load(pipeline_dir / "certificate.json")["report"]
    report["epsilon"]["ksq"]["a"] = ["1", "0"]
    path = _dump(report, tmp_path / "report.json")
    assert cli.main(["verify", path]) == 4
    assert capsys.readouterr().out == f"{path}: parse error: unknown artifact kind 'report'\n"


def test_undecodable_file_exit_4(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"kind": "rbd", "provenance": "\xff"}')
    assert cli.main(["verify", str(path)]) == 4
    assert capsys.readouterr().out.startswith(f"{path}: parse error: cannot read")


def test_ledger_certificate_without_report_exit_4(tmp_path, pipeline_dir):
    cert = _load(pipeline_dir / "certificate.json")
    del cert["report"]
    assert cli.main(["ledger", _dump(cert, tmp_path / "cert.json")]) == 4


@pytest.mark.parametrize("error, code", [
    ("StructuralError", 4),
    ("ExactArithmeticError", 5),
])
def test_library_errors_map_to_exit_codes(monkeypatch, capsys, error, code):
    from armub import errors

    def boom(args):
        raise getattr(errors, error)("injected")

    monkeypatch.setattr(cli, "cmd_hadamard", boom)
    assert cli.main(["hadamard", "4"]) == code
    assert "injected" in capsys.readouterr().err


def test_cached_parser_keeps_calls_apart(tmp_path, capsys):
    """In-process calls share one parser, and neither the options nor the
    defaults of one subcommand reach the next call."""
    wide, corner = tmp_path / "wide.json", tmp_path / "corner.json"
    assert cli.main(["epsh", "8", "1", "--scope", "row-col-permutations", "--cap", "5",
                     "--out", str(wide)]) == cli.EXIT_RESOURCE
    assert cli.main(["epsh", "8", "2", "--out", str(corner)]) == cli.EXIT_OK
    obj = _load(corner)
    assert "partial" not in obj
    assert obj["provenance"]["col_select"] == [0, 1]
    assert cli.main(["verify", str(wide), str(corner)]) == cli.EXIT_OK
    parser = cli.build_parser()
    assert parser is cli.build_parser()
    assert vars(parser.parse_args(["hadamard", "4"])) == \
        {"command": "hadamard", "order": 4, "out": None}
    assert vars(parser.parse_args(["epsh", "8", "1"])) == {
        "command": "epsh", "order": 8, "t": 1, "scope": "corner-only",
        "cap": 100_000, "out": None}


def _set(obj, **fields):
    obj.update(fields)
    return obj


@pytest.mark.parametrize("name, mutate", [
    ("epsh.json", lambda obj: _set(obj, k=0, entries=[])),
    ("epsh.json", lambda obj: _set(obj, provenance=None)),
    ("rbd.json", lambda obj: _set(obj, mu="x")),
])
def test_malformed_artifact_exit_4(tmp_path, pipeline_dir, rbd_file, capsys, name, mutate):
    source = rbd_file if name == "rbd.json" else pipeline_dir / name
    bad = _dump(mutate(_load(source)), tmp_path / name)
    assert cli.main(["verify", bad]) == 4
    assert capsys.readouterr().out.startswith(f"{bad}: parse error:")


# the stored epsilon and epsilon_upper must equal the recomputed ones: ksq
# exactly, and side as the JSON integer sign(ksq - 1)
@pytest.mark.parametrize("field, ksq_a, side, code", [
    ("epsilon_upper", ["9", "1"], -7, 5),
    ("epsilon_upper", ["9", "1"], 1, 5),
    ("epsilon_upper", ["4", "3"], -1, 5),
    ("epsilon", ["1", "3"], 0, 5),
    ("epsilon_upper", ["4", "3"], 1.0, 4),
])
def test_stored_epsilon_must_reproduce(tmp_path, pipeline_dir, capsys,
                                       field, ksq_a, side, code):
    obj = _load(pipeline_dir / "epsh.json")
    assert obj["epsilon"]["ksq"]["a"] == ["1", "3"]
    assert obj["epsilon_upper"]["ksq"]["a"] == ["4", "3"]
    obj[field]["ksq"]["a"], obj[field]["side"] = ksq_a, side
    assert cli.main(["verify", _dump(obj, tmp_path / "epsh.json")]) == code
    out = capsys.readouterr().out
    assert ("CHECK FAILED" if code == 5 else "parse error") in out


def test_verify_names_the_mu_route(pipeline_dir, rbd_file, capsys):
    files = [str(rbd_file), str(pipeline_dir / "certificate.json")]
    assert cli.main(["verify", *files]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{files[0]}: rbd: ok (affine design: mu = 1 by the line theorem)",
        f"{files[1]}: certificate: ok",
    ]


# a basis-set file as `armub armub` wrote it before the certificate held its bases
OLD_BASES = {"kind": "basis-set", "d": 15, "k": 3, "s": 5,
             "rbd": {"file": "rbd.json", "sha256": "0" * 64},
             "epsh": {"file": "epsh.json", "sha256": "0" * 64}}
BASIS_SET_FILE = ("parse error: a basis-set file is an earlier form: the certificate holds "
                  "its bases; write it again with armub armub")


def test_bases_with_vectors_field_exit_4(tmp_path, capsys):
    path = _dump({**OLD_BASES, "vectors": []}, tmp_path / "bases.json")
    assert cli.main(["verify", path]) == 4
    assert capsys.readouterr().out == f"{path}: {BASIS_SET_FILE}\n"


@pytest.mark.parametrize("option", [
    ["--threads", "2"], ["--mode", "exhaustive"], ["--seed", "1"],
])
def test_removed_armub_options_exit_2(tmp_path, capsys, option):
    argv = ["armub", "--k", "3", "--s", "5", "--t", "1", "--out", str(tmp_path), *option]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _put(obj, value, *path):
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


# A JSON float or bool where the wire format declares an integer, including
# values equal to the stored integer (1.0, true) that truncation or bool
# coercion used to accept; rational parts are decimal strings only, and a
# declared boolean is a JSON boolean.
MISTYPED_FIELDS = [
    ("rbd.json", 1.9, ("mu",)),
    ("rbd.json", True, ("mu",)),
    ("rbd.json", 3.7, ("k",)),
    ("rbd.json", 15.0, ("d",)),
    ("rbd.json", 5.0, ("s",)),
    ("rbd.json", 5.0, ("field", "modulus", 0)),
    ("rbd.json", False, ("field", "modulus", 0)),  # equal to the stored 0
    ("epsh.json", 3.2, ("k",)),
    ("epsh.json", 4.0, ("m",)),
    ("epsh.json", 1.0, ("provenance", "t")),
    ("epsh.json", 4.0, ("provenance", "source_order")),
    ("epsh.json", False, ("provenance", "row_select", 0)),
    ("epsh.json", False, ("provenance", "col_negate", 0)),
    ("epsh.json", 1.0, ("provenance", "u_relation", "gamma")),
    ("epsh.json", [1, 1, 1, 1], ("hadamard", "rows", 0)),  # not a string
    ("epsh.json", True, ("hadamard", "rows")),  # not a list
    ("epsh.json", 3, ("hadamard", "order")),  # 4 rows
    ("epsh.json", "23", ("hadamard", "rows", 0)),  # nonzero padding bits
    ("epsh.json", 4.0, ("hadamard", "order")),
    ("epsh.json", True, ("hadamard", "rows", 0)),
    ("certificate.json", 15.0, ("report", "d")),
    ("certificate.json", 5.0, ("bases", "s")),
    ("certificate.json", True, ("bases", "k")),
    ("epsh.json", 1, ("provenance", "u_relation", "paper_listed")),
    ("certificate.json", "1", ("config", "t")),
    ("rbd.json", 5.0, ("r",)),
    ("rbd.json", 5.0, ("field", "p")),
    ("rbd.json", True, ("field", "e")),
    ("rbd.json", 1.0, ("field", "modulus", 1)),
    ("rbd.json", "x", ("field", "modulus")),
    ("epsh.json", "0", ("hadamard", "rows", 0)),  # one hex digit short
    ("epsh.json", "0g", ("hadamard", "rows", 0)),
    ("epsh.json", "F0", ("hadamard", "rows", 0)),  # upper case
]


@pytest.mark.parametrize("name, value, path", MISTYPED_FIELDS)
def test_mistyped_json_field_exit_4(tmp_path, pipeline_dir, rows_epsh, rbd_file, capsys,
                                   name, value, path):
    # the source H's fields are typed on the form that holds packed rows
    source = (rows_epsh if path[0] == "hadamard" else rbd_file if name == "rbd.json"
              else pipeline_dir / name)
    bad = _dump(_put(_load(source), value, *path), tmp_path / name)
    assert cli.main(["verify", bad]) == 4
    assert capsys.readouterr().out.startswith(f"{bad}: parse error:")


@pytest.mark.parametrize("value, path", [(v, p) for n, v, p in MISTYPED_FIELDS if n == "rbd.json"])
def test_mistyped_design_field_in_certificate(tmp_path, pipeline_dir, rbd_file, capsys,
                                              value, path):
    """Each rbd.json case above, on the certificate of the same design: its
    bases hold the recipe k and s and its report d and r (as num_bases),
    exit 4 as in rbd.json.  mu and the field are derived and held nowhere
    in a certificate; in its bases they are extra fields, exit 5."""
    key = path[0]
    out = _copy(pipeline_dir, tmp_path)
    cert = _load(out / "certificate.json")
    at = ("report", {"d": "d", "r": "num_bases"}[key]) if key in ("d", "r") else ("bases", key)
    bad = _dump(_put(cert, _put(_load(rbd_file), value, *path)[key], *at),
                out / "certificate.json")
    code = 5 if key in ("mu", "field") else 4
    assert cli.main(["verify", bad]) == code
    assert capsys.readouterr().out.startswith(
        f"{bad}: " + ("certificate: CHECK FAILED: stored bases." if code == 5 else "parse error: "))


@pytest.mark.parametrize("value, path", [
    (4.0, ("order",)), ("4", ("order",)), (True, ("order",)), (7, ("label",)),
    (None, ("label",)), (["sylvester(2)"], ("label",)), ("0", ("rows",)),
])
def test_mistyped_recipe_field_exit_4(tmp_path, pipeline_dir, capsys, value, path):
    """The recipe form of the source H: order a JSON integer, label a
    string, and rows, if present, a list of packed rows."""
    bad = _dump(_put(_load(pipeline_dir / "epsh.json"), value, "hadamard", *path),
                tmp_path / "epsh.json")
    assert cli.main(["verify", bad]) == 4
    assert capsys.readouterr().out.startswith(f"{bad}: parse error: bad hadamard artifact: ")


def _rotation_rows(p, q):
    """The rational rotation [[a, -b], [b, a]] / c of the primitive
    Pythagorean triple (a, b, c) = (p^2 - q^2, 2pq, p^2 + q^2)."""
    a, b, c = p * p - q * q, 2 * p * q, p * p + q * q
    assert math.gcd(p, q) == 1 and (p - q) % 2 == 1
    return [[Fraction(a, c), Fraction(-b, c)], [Fraction(b, c), Fraction(a, c)]]


# c > 2^27 puts k*max|P|^2 = 2*a^2 and L^2 = c^2 above 2^53, so the Gram
# check leaves float64; c > 2^63 also puts L*Y itself outside int64.
@pytest.mark.parametrize("p, q", [(29_000, 12_011), (4_000_000_001, 1_656_854_250)])
def test_large_denominator_artifact_takes_python_int_route(monkeypatch, p, q):
    prov = Provenance(source_label=f"pythagorean({p},{q})", source_order=2, t=0,
                      row_select=(), col_select=(), row_negate=(), col_negate=(),
                      variant=None, method="rotation")
    rows = _rotation_rows(p, q)
    routes = []
    float_exact = oracles._float_exact

    def spy(*args):
        routes.append(float_exact(*args))
        return routes[-1]

    monkeypatch.setattr(oracles, "_float_exact", spy)
    from_scalar_rows(rows, 2, prov)
    assert routes == [False]  # certified on Python ints
    rows[1][1] += Fraction(1, rows[1][1].denominator)
    with pytest.raises(CertificationError, match=r"orthogonality violated at \(0, 1\)"):
        from_scalar_rows(rows, 2, prov)  # a CertificationError exits 5
    assert routes[1:] == [False]


# the class array of the affine (3, 5) design, as rbd.json stored it before
# the recipe form: block c of slope l holds a*5 + (c + l*a) mod 5 for a < 3
OLD_CLASSES_3_5 = [[[a * 5 + (c + l * a) % 5 for a in range(3)] for c in range(5)]
                   for l in range(5)]


def test_explicit_affine_rbd_exit_4(tmp_path, capsys):
    old = {"kind": "rbd", "d": 15, "k": 3, "s": 5, "r": 5, "mu": 1,
           "provenance": "affine(k=3, s=5)", "classes": OLD_CLASSES_3_5}
    path = _dump(old, tmp_path / "rbd.json")
    assert cli.main(["verify", path]) == 4
    assert capsys.readouterr().out == (
        f"{path}: parse error: bad rbd artifact: unknown field 'classes' (an rbd "
        "holds its recipe 'k' and 's', from which the affine design is derived; "
        "write it again with armub rbd or armub armub)\n"
    )


def _without(obj, field):
    del obj[field]
    return obj


@pytest.mark.parametrize("mutate, message", [
    (lambda obj: _set(obj, classes=OLD_CLASSES_3_5), "unknown field 'classes'"),
    (lambda obj: _without(obj, "field"), "missing field 'field'"),
], ids=["classes-present", "field-missing"])
def test_rbd_needs_exactly_one_form_exit_4(tmp_path, rbd_file, capsys, mutate, message):
    bad = _dump(mutate(_load(rbd_file)), tmp_path / "rbd.json")
    assert cli.main(["verify", bad]) == 4
    assert message in capsys.readouterr().out


def test_rbd_beyond_the_old_budget(tmp_path, capsys):
    """The recipe builds nothing of size d, so d = 256 * 16381 is written
    and verified."""
    path = str(tmp_path / "rbd.json")
    assert cli.main(["rbd", "--k", "256", "--s", "16381", "--out", path]) == 0
    assert cli.main(["verify", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"d={256 * 16381} k=256 s=16381 mu=1 classes=16381",
        f"{path}: rbd: ok (affine design: mu = 1 by the line theorem)",
    ]


# (k, s) of the recipe, the fields replaced, and a part of the violation
RECIPE_TAMPERS = {
    "k-above-s": ((3, 5), {"k": 6, "d": 30}, "1 <= k <= s"),
    "r-not-s": ((3, 5), {"r": 4}, "stored r differs from the derived one"),
    "d-not-ks": ((3, 5), {"d": 16}, "stored d differs from the derived one"),
    "even-s": ((3, 5), {"s": 4, "d": 12, "r": 4,
                        "field": {"p": 2, "e": 2, "modulus": [1, 1, 1]}}, "odd prime power"),
    "non-prime-power-s": ((3, 5), {"s": 15, "d": 45, "r": 15}, "odd prime power"),
    "s-above-field-budget": ((3, 5), {"s": 3**10, "d": 3 * 3**10, "r": 3**10,
                                      "field": {"p": 3, "e": 10, "modulus": [1] * 11}},
                             "odd prime power of at most"),
    "field-of-other-order": ((3, 125), {"field": {"p": 125, "e": 1, "modulus": [0, 1]}},
                             "stored field.e differs from the derived one"),
    "wrong-modulus": ((3, 125), {"field": {"p": 5, "e": 3, "modulus": [4, 1, 0, 1]}},
                      "stored field.modulus[0] differs from the derived one"),
    "reducible-modulus": ((3, 125), {"field": {"p": 5, "e": 3, "modulus": [0, 0, 0, 1]}},
                          "stored field.modulus[0] differs from the derived one"),
    "declared-mu-0": ((3, 5), {"mu": 0}, "stored mu differs from the derived one"),
}


@pytest.mark.parametrize("case", list(RECIPE_TAMPERS))
def test_tampered_recipe_exit_5(tmp_path, capsys, case):
    (k, s), fields, violation = RECIPE_TAMPERS[case]
    obj = _set(jsonio.rbd_obj(build_affine_rbd(k, s)), **fields)
    path = _dump(obj, tmp_path / "rbd.json")
    assert cli.main(["verify", path]) == 5
    out = capsys.readouterr().out
    assert out.startswith(f"{path}: rbd: CHECK FAILED: ")
    assert violation in out


@pytest.mark.parametrize("case", list(RECIPE_TAMPERS))
def test_tampered_bases_recipe_exit_5(tmp_path, capsys, case):
    """Each case above on the bases of a certificate of the same recipe:
    the recipe fails verify_rbd, or the bases hold a derived field, which
    is an extra field there."""
    (k, s), fields, violation = RECIPE_TAMPERS[case]
    assert cli.main(["armub", "--k", str(k), "--s", str(s), "--t", "1",
                     "--out", str(tmp_path)]) == 0
    cert = _load(tmp_path / "certificate.json")
    cert["bases"].update(fields)
    path = _dump(cert, tmp_path / "certificate.json")
    capsys.readouterr()
    assert cli.main(["verify", path]) == 5
    if violation.startswith("stored "):
        violation = f"stored bases.{min(fields.keys() - {'k', 's'})} differs from the derived one"
    out = capsys.readouterr().out
    assert out.startswith(f"{path}: certificate: CHECK FAILED: ")
    assert violation in out


# the reference to Y's file must name a readable file in the certificate's directory
@pytest.mark.parametrize("file", [
    lambda out: str(out / "epsh.json"),  # absolute path
    lambda out: "sub/epsh.json",
    lambda out: "../out/epsh.json",
    lambda out: "..",
    lambda out: "missing.json",
    lambda out: 7,
], ids=["absolute", "separator", "dotdot-path", "dotdot", "missing", "not-a-string"])
def test_unsafe_or_missing_reference_exit_4(tmp_path, pipeline_dir, capsys, file):
    out = _copy(pipeline_dir, tmp_path)
    os.mkdir(out / "sub")
    shutil.copy(out / "epsh.json", out / "sub" / "epsh.json")
    cert = _load(out / "certificate.json")
    cert["bases"]["epsh"]["file"] = file(out)
    path = _dump(cert, out / "certificate.json")
    assert cli.main(["verify", path]) == 4
    message = capsys.readouterr().out
    assert message.startswith(f"{path}: parse error: bad certificate artifact: bases.epsh.file")


@pytest.mark.parametrize("name", ["epsh.json"])
def test_reference_digest_mismatch_exit_5(tmp_path, pipeline_dir, capsys, name):
    out = _copy(pipeline_dir, tmp_path)
    with open(out / name, "a") as fh:
        fh.write(" ")  # the same JSON value, other bytes
    path = str(out / "certificate.json")
    assert cli.main(["verify", path, str(out / name)]) == 5
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"{path}: certificate: CHECK FAILED: referenced {name} "
                        "does not match its recorded sha256")
    assert lines[1].startswith(f"{out / name}: ") and ": ok" in lines[1]


MUST_BE_A_REFERENCE = "'bases.epsh' must be an object with 'file' and 'sha256'"


@pytest.mark.parametrize("mutate, message", [
    (lambda bases: bases["epsh"].pop("sha256"), MUST_BE_A_REFERENCE),
    (lambda bases: bases["epsh"].pop("file"), MUST_BE_A_REFERENCE),
    (lambda bases: bases.update(epsh="epsh.json"), MUST_BE_A_REFERENCE),
    (lambda bases: bases["epsh"].update(sha256=bases["epsh"]["sha256"].upper()),
     "bases.epsh.sha256 must be 64 lowercase hex digits"),
], ids=["no-sha256", "no-file", "not-an-object", "upper-case-sha256"])
def test_malformed_reference_exit_4(tmp_path, pipeline_dir, capsys, mutate, message):
    out = _copy(pipeline_dir, tmp_path)
    cert = _load(out / "certificate.json")
    mutate(cert["bases"])
    assert cli.main(["verify", _dump(cert, out / "certificate.json")]) == 4
    assert message in capsys.readouterr().out


@pytest.mark.parametrize("field", ["design", "y"])
def test_bases_with_embedded_design_or_y_exit_4(tmp_path, pipeline_dir, rbd_file, capsys, field):
    """The basis-set form written before references: design and Y inline."""
    old = {"kind": "basis-set", "d": 15, "k": 3, "s": 5,
           "design": _load(rbd_file), "y": _load(pipeline_dir / "epsh.json")}
    if field == "y":
        del old["design"]
    path = _dump(old, tmp_path / "bases.json")
    assert cli.main(["verify", path]) == 4
    assert capsys.readouterr().out == f"{path}: {BASIS_SET_FILE}\n"


# the certificate form written before: a config with k, s and d, and a
# reference to a basis-set file
OLD_CONFIG = {"d": 15, "k": 3, "s": 5, "scope": "corner-only", "t": 1}
OLD_BASES_REF = {"file": "bases.json", "sha256": "0" * 64}


@pytest.mark.parametrize("fields", [
    {"config": OLD_CONFIG}, {"bases": OLD_BASES_REF},
    {"config": OLD_CONFIG, "bases": OLD_BASES_REF},
], ids=["config", "bases-reference", "both"])
def test_earlier_certificate_form_exit_4(tmp_path, pipeline_dir, capsys, fields):
    path = _dump(_set(_load(pipeline_dir / "certificate.json"), **fields),
                 tmp_path / "certificate.json")
    for command in ("verify", "ledger"):
        assert cli.main([command, path]) == 4
        captured = capsys.readouterr()
        assert "parse error: bad certificate artifact: " in captured.out + captured.err
        assert "write it again with armub armub" in captured.out + captured.err


def test_declared_size_must_match_referenced_design(tmp_path, pipeline_dir, capsys):
    out = _copy(pipeline_dir, tmp_path)
    cert = _load(out / "certificate.json")
    cert["bases"]["d"] = 16
    assert cli.main(["verify", _dump(cert, out / "certificate.json")]) == 5
    assert "stored bases.d differs from the derived one" in capsys.readouterr().out


def test_verify_batch_certifies_each_artifact_once(pipeline_dir, rows_epsh, monkeypatch, capsys):
    from armub import hadamard

    calls = {"verify_orthogonal": 0, "is_hadamard": 0}
    verify_orthogonal, is_hadamard = EpsHadamard.verify_orthogonal, hadamard.is_hadamard

    def spy_orthogonal(self):
        calls["verify_orthogonal"] += 1
        return verify_orthogonal(self)

    def spy_hadamard(m):
        calls["is_hadamard"] += 1
        return is_hadamard(m)

    monkeypatch.setattr(EpsHadamard, "verify_orthogonal", spy_orthogonal)
    monkeypatch.setattr(jsonio, "is_hadamard", spy_hadamard)
    monkeypatch.setattr(hadamard, "is_hadamard", spy_hadamard)
    files = sorted(str(p) for p in pipeline_dir.iterdir())
    assert len(files) == 2
    assert cli.main(["verify", *files]) == 0
    assert capsys.readouterr().out.count(": ok") == 2
    # H_4 is its recipe: built again from its label, with no Gram
    assert calls == {"verify_orthogonal": 1, "is_hadamard": 0}
    assert cli.main(["verify", str(rows_epsh), str(rows_epsh)]) == 0
    assert calls == {"verify_orthogonal": 2, "is_hadamard": 1}


@pytest.mark.parametrize("order", [sorted, lambda files: sorted(files, reverse=True)],
                         ids=["certificate-first", "epsh-first"])
def test_verify_batch_assembles_the_bases_once(pipeline_dir, monkeypatch, capsys, order):
    """The epsh file that the certificate refers to and the epsh file
    itself are one artifact content: one parse, and one assembly of the
    certificate's bases."""
    calls = {"parse_basis_set": 0, "assemble": 0}

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(jsonio, name, counted)

    spy("parse_basis_set", jsonio.parse_basis_set)
    spy("assemble", jsonio.assemble)
    files = order(str(p) for p in pipeline_dir.iterdir())
    assert cli.main(["verify", *files]) == 0
    assert capsys.readouterr().out.count(": ok") == 2
    assert calls == {"parse_basis_set": 1, "assemble": 1}


def test_pipeline_writes_and_verify_loads_two_files(tmp_path, monkeypatch, capsys):
    """One `armub armub` and one verify of its directory: two files written
    and two loaded, and the bases are written by basis_set_obj, read by
    parse_basis_set and assembled, once on each side."""
    files, calls = [], dict.fromkeys(("basis_set_obj", "parse_basis_set", "assemble"), 0)

    def spy(module, name):
        fn = getattr(module, name)

        def counted(*args):
            if name in calls:
                calls[name] += 1
            else:
                files.append(os.path.basename(args[0]))
            return fn(*args)
        monkeypatch.setattr(module, name, counted)

    for name in ("write_atomic", "load_json", "basis_set_obj", "parse_basis_set", "assemble"):
        spy(jsonio, name)
    spy(cli, "assemble")
    out = tmp_path / "out"
    assert cli.main(["armub", "--k", "3", "--s", "5", "--t", "1", "--out", str(out)]) == 0
    assert cli.main(["verify", *sorted(str(p) for p in out.iterdir())]) == 0
    assert files == ["epsh.json", "certificate.json", "certificate.json", "epsh.json"]
    assert calls == {"basis_set_obj": 2, "parse_basis_set": 1, "assemble": 2}


def test_design_artifacts_stay_small(tmp_path, capsys):
    """The certificate holds the design as its recipe and Y as a
    reference, whatever d, and epsh.json holds H_24 bit-packed and the
    split."""
    out = tmp_path / "out"
    assert cli.main(["armub", "--k", "23", "--s", "25", "--t", "1", "--out", str(out)]) == 0
    bases = _load(out / "certificate.json")["bases"]
    assert len(jsonio.dumps_canonical(bases)) < 1024
    assert os.path.getsize(out / "epsh.json") < 2048
    files = sorted(str(p) for p in out.iterdir())
    assert cli.main(["verify", *files]) == 0


def test_pipeline_t1_writes_under_100_kb_reproducibly(tmp_path, capsys):
    """armub armub --k 123 --s 125 --t 1 (d = 15375) writes under 100 KB in
    all, byte-identical across two runs."""
    contents = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.main(["armub", "--k", "123", "--s", "125", "--t", "1",
                         "--out", str(out)]) == 0
        contents.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sum(map(len, contents[0].values())) < 100 * 1024
    assert contents[0] == contents[1]


@pytest.mark.parametrize("field, value", [
    ("d", -1), ("k", 0), ("s", 0), ("num_bases", 0), ("d", 16), ("t", 5),
    ("scope", "everywhere"),
])
@pytest.mark.parametrize("carrier", ["report", "certificate"])
def test_out_of_domain_report_exit_4(tmp_path, pipeline_dir, capsys, field, value, carrier):
    """A certificate's config holds exactly t in {1, 2, 3} and a search
    scope: num_bases is no config field, and k, s and d are fields of its
    earlier form.  A config that breaks this, and a report alone with any
    field, are parse errors for verify and ledger, never a traceback."""
    cert = _load(pipeline_dir / "certificate.json")
    if carrier == "certificate":
        cert["config"][field] = value
        message = "bad certificate artifact: config"
    else:
        cert = _set(cert["report"], **{field: value})
        message = "ledger needs a certificate, got 'report'"
    bad = _dump(cert, tmp_path / "x.json")
    assert cli.main(["verify", bad]) == 4
    assert "parse error" in capsys.readouterr().out
    assert cli.main(["ledger", bad]) == 4
    assert message in capsys.readouterr().err


def _roadmap_tamper(cert):
    """7 added to a delta count and to pairs_checked, the evidence of the
    deleted sampled mode, and another coverage."""
    report = cert["report"]
    report["delta"][0]["count"] += 7
    report["pairs_checked"] += 7
    report["evidence"] = "sampled"
    report["coverage"] = {"mode": "sampled", "basis_pairs": 1}


def _flip_ledger_line(cert):
    line = cert["ledger"][4]
    assert (line["check"], line["verdict"]) == ("beta-lt-2", "pass")
    line["verdict"], line["lhs"] = "n/a", 1.5


# claims of the (3, 5, 1) certificate changed, and the first JSON path found to differ
CERTIFICATE_TAMPERS = {
    "roadmap": (_roadmap_tamper, "report.coverage.basis_pairs"),
    "ledger-line": (_flip_ledger_line, "ledger[4].lhs"),
    "ok": (lambda cert: cert.update(ok=False), "ok"),
    "t": (lambda cert: cert["config"].update(t=3), "config.t"),
    "reference-field": (lambda cert: cert["bases"].update(note="x"), "bases.note"),
}


@pytest.mark.parametrize("case", list(CERTIFICATE_TAMPERS))
def test_tampered_certificate_exit_5(tmp_path, pipeline_dir, capsys, case):
    """A certificate is derived again from its config and the basis-set it
    refers to; any other claim it stores must be the derived one."""
    tamper, key = CERTIFICATE_TAMPERS[case]
    out = _copy(pipeline_dir, tmp_path)
    cert = _load(out / "certificate.json")
    tamper(cert)
    path = _dump(cert, out / "certificate.json")
    assert cli.main(["verify", path]) == 5
    assert capsys.readouterr().out == (
        f"{path}: certificate: CHECK FAILED: stored {key} differs from the derived one\n")
    assert cli.main(["ledger", path]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"certification failed: stored {key} differs from the derived one\n"


def test_exact_hadamard_certificate_config_t_exit_5(tmp_path, capsys):
    """At (4, 5, 1) Y is H_4/2, which no reduction made, so t comes from the
    config alone; another t derives another report and ledger."""
    assert cli.main(["armub", "--k", "4", "--s", "5", "--t", "1", "--out", str(tmp_path)]) == 0
    assert _load(tmp_path / "epsh.json")["provenance"]["t"] == 0
    cert = _load(tmp_path / "certificate.json")
    cert["config"]["t"] = 2
    path = _dump(cert, tmp_path / "certificate.json")
    capsys.readouterr()
    assert cli.main(["verify", path]) == 5
    assert "differs from the derived one" in capsys.readouterr().out


def test_certificate_bases_digest_mismatch_exit_5(tmp_path, pipeline_dir, capsys):
    out = _copy(pipeline_dir, tmp_path)
    with open(out / "epsh.json", "a") as fh:
        fh.write(" ")  # the same JSON value, other bytes
    path = str(out / "certificate.json")
    assert cli.main(["verify", path]) == 5
    assert capsys.readouterr().out == (
        f"{path}: certificate: CHECK FAILED: referenced epsh.json does not match "
        "its recorded sha256\n")
    assert cli.main(["ledger", path]) == 5


def test_certificate_missing_bases_exit_4(tmp_path, pipeline_dir, capsys):
    """The certificate's bases refer to a file that is gone."""
    out = _copy(pipeline_dir, tmp_path)
    os.unlink(out / "epsh.json")
    path = str(out / "certificate.json")
    assert cli.main(["verify", path]) == 4
    assert capsys.readouterr().out.startswith(
        f"{path}: parse error: bad certificate artifact: bases.epsh.file: cannot read")
    assert cli.main(["ledger", path]) == 4


def test_certificate_with_artifacts_map_exit_4(tmp_path, pipeline_dir, capsys):
    """The certificate form written before: bare file names, no digest."""
    cert = _load(pipeline_dir / "certificate.json")
    del cert["bases"]
    cert["artifacts"] = {"bases": "bases.json", "epsh": "epsh.json", "rbd": "rbd.json"}
    path = _dump(cert, tmp_path / "certificate.json")
    assert cli.main(["verify", path]) == 4
    out = capsys.readouterr().out
    assert out.startswith(f"{path}: parse error: bad certificate artifact: unknown field "
                          "'artifacts'")
    assert "write it again with armub armub" in out
    assert cli.main(["ledger", path]) == 4


def test_certificate_with_nan_verifies_after_roundtrip(tmp_path, capsys):
    """(9, 19, 3) has the n/a line of eps-le-rho/sqrt(n) with rhs NaN; a
    parsed NaN is not equal to a computed one, so the certificate is
    compared in canonical text, which survives a parse and a rewrite."""
    assert cli.main(["armub", "--k", "9", "--s", "19", "--t", "3", "--out", str(tmp_path)]) == 0
    path = tmp_path / "certificate.json"
    assert '"rhs":NaN' in path.read_text()
    _dump(_load(path), path)  # other whitespace, the same JSON value
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: certificate: ok\n"
    assert cli.main(["ledger", str(path)]) == 0
    assert '"rhs":NaN' in capsys.readouterr().out


@pytest.mark.parametrize("case", ["armub-out-is-file", "missing-directory", "out-is-directory"])
def test_unwritable_out_exit_2(tmp_path, capsys, case):
    existing_file = tmp_path / "file"
    existing_file.write_text("")
    argv = {
        "armub-out-is-file": ["armub", "--k", "3", "--s", "5", "--t", "1",
                              "--out", str(existing_file)],
        "missing-directory": ["rbd", "--k", "3", "--s", "5",
                              "--out", str(tmp_path / "missing" / "x.json")],
        "out-is-directory": ["rbd", "--k", "3", "--s", "5", "--out", str(tmp_path)],
    }[case]
    assert cli.main(argv) == 2
    assert "cannot write" in capsys.readouterr().err
    assert existing_file.read_text() == ""


def _nodes(obj, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


# the objects of each (3, 5) artifact that a mutant adds a field to
EXTRA_FIELD_AT = {
    "certificate.json": [(), ("config",), ("bases",), ("bases", "epsh")],
    "epsh.json": [(), ("provenance",), ("hadamard",)],
    "rbd.json": [(), ("field",)],
}


def _mutants(original, extra_at):
    """Each node of a JSON value replaced in turn by each value of another
    type or domain, then the value with a field added to each object that
    extra_at names."""
    for path in _nodes(original):
        for value in (None, True, 0, -1, 1.5, "x", [], {}, 10**30):
            yield _put(json.loads(json.dumps(original)), value, *path) if path else value
    for path in extra_at:
        yield _put(json.loads(json.dumps(original)), 0, *path, "extra")


def test_every_mutated_node_exits_cleanly(tmp_path, pipeline_dir, rbd_file, capsys):
    """Each mutant of both files of the (3, 5, 1) pipeline and of the (3, 5)
    rbd file: verify (and ledger, for the certificate) exits 0, 4 or 5 and
    raises nothing.  Every artifact is derived again, so it exits 0 only
    when the mutant's canonical text is the original's."""
    out = _copy(pipeline_dir, tmp_path)  # a mutant finds the file it refers to
    mutant = str(out / "mutant.json")
    for name in ("certificate.json", "epsh.json", "rbd.json"):
        original = _load(rbd_file if name == "rbd.json" else pipeline_dir / name)
        commands = ["verify", "ledger"] if name == "certificate.json" else ["verify"]
        for obj in _mutants(original, EXTRA_FIELD_AT[name]):
            _dump(obj, mutant)
            unchanged = jsonio.dumps_canonical(obj) == jsonio.dumps_canonical(original)
            for command in commands:
                code = cli.main([command, mutant])
                assert code in (0, 4, 5), (name, obj, command)
                assert (code == 0) == unchanged, (name, obj, command, code)
            capsys.readouterr()


@pytest.mark.parametrize("label", [7, None, ["H"], "missing"])
def test_hadamard_label_must_be_a_string(tmp_path, capsys, label):
    path = tmp_path / "hadamard.json"
    assert cli.main(["hadamard", "4", "--out", str(path)]) == 0
    obj = _load(path)
    if label == "missing":
        del obj["label"]
    else:
        obj["label"] = label
    assert cli.main(["verify", _dump(obj, path)]) == 4
    assert "parse error: bad hadamard artifact" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["rbd"], ["armub", "--t", "1"]])
def test_design_bounds_s_before_factoring(tmp_path, capsys, command):
    """s = 2^61 - 1 is a prime far above the field budget: refused before a
    trial division, not after ~10^9 of them."""
    start = time.perf_counter()
    argv = [*command, "--k", "3", "--s", str(2**61 - 1), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1
    assert f"odd prime power of at most {MAX_FIELD_SIZE}" in capsys.readouterr().err


# (derived, stored, error): the first difference in sorted key order decides
# between a parse error (exit 4) and a certification failure (exit 5)
COMPARATOR_CASES = {
    "int-vs-float": ({"x": 1}, {"x": 1.0}, ParseError),
    "float-vs-int": ({"x": 1.0}, {"x": 1}, ParseError),
    "int-vs-bool": ({"x": 1}, {"x": True}, ParseError),
    "bool-vs-int": ({"x": False}, {"x": 0}, ParseError),
    "null-vs-string": ({"x": None}, {"x": "None"}, ParseError),
    "other-int": ({"x": 1}, {"x": 2}, CertificationError),
    "negative-zero": ({"x": 0.0}, {"x": -0.0}, CertificationError),
    "missing-field": ({"x": 1, "y": 2}, {"x": 1}, ParseError),
    "extra-field": ({"x": 1}, {"x": 1, "y": 2}, CertificationError),
    "shorter-list": ({"x": [1, 2]}, {"x": [1]}, CertificationError),
    "longer-list": ({"x": [1]}, {"x": [1, 2]}, CertificationError),
    "value-sorts-first": ({"b": 1, "a": 1}, {"b": 1.0, "a": 2}, CertificationError),
    "type-sorts-first": ({"b": 1, "a": 1}, {"b": 2, "a": 1.0}, ParseError),
    "missing-sorts-first": ({"b": [1], "a": 1}, {"b": [1, 2]}, ParseError),
    "nested-value-first": ({"a": {"z": [0, 1]}, "b": 1}, {"a": {"z": [0, 2]}, "b": "1"},
                           CertificationError),
}


@pytest.mark.parametrize("case", list(COMPARATOR_CASES))
def test_require_derived_first_difference(case):
    derived, stored, error = COMPARATOR_CASES[case]
    with pytest.raises(error):
        jsonio.require_derived("test", derived, stored)


def test_require_derived_names_the_path_and_takes_nan():
    nan = {"rhs": float("nan"), "rows": ["00", "01"]}
    jsonio.require_derived("test", nan, json.loads(json.dumps(nan)))
    stored = {"rhs": float("nan"), "rows": ["00", "11"]}
    with pytest.raises(CertificationError, match=r"^stored rows\[1\] differs from the derived one$"):
        jsonio.require_derived("test", nan, stored)
    with pytest.raises(ParseError, match="^bad test artifact: missing field 'rhs'$"):
        jsonio.require_derived("test", nan, {"rows": nan["rows"]})


def _hadamard_file(tmp_path):
    path = tmp_path / "hadamard.json"
    assert cli.main(["hadamard", "4", "--out", str(path)]) == 0
    assert _load(path) == {"kind": "hadamard", "label": "sylvester(2)", "order": 4}
    return path


# a recipe's label or order changed, and the first JSON path found to differ:
# another order, or another H of order 4 whose Y names another source label
RECIPE_LABEL_TAMPERS = {
    "hadamard-label": ("hadamard.json", ("label",), "sylvester(3)", "order"),
    "hadamard-order": ("hadamard.json", ("order",), 8, "order"),
    # Y of order 7 sorts first: its epsilon differs before hadamard.order
    "epsh-label-other-order": ("epsh.json", ("hadamard", "label"), "sylvester(3)",
                               "epsilon.float"),
    "epsh-label-same-rows": ("epsh.json", ("hadamard", "label"),
                             "kron(sylvester(1),sylvester(1))", "provenance.source_label"),
    "epsh-label-paley": ("epsh.json", ("hadamard", "label"), "paley1(3)",
                         "provenance.source_label"),
    "epsh-order": ("epsh.json", ("hadamard", "order"), 8, "hadamard.order"),
}


@pytest.mark.parametrize("case", list(RECIPE_LABEL_TAMPERS))
def test_tampered_hadamard_recipe_exit_5(tmp_path, pipeline_dir, capsys, case):
    name, path, value, key = RECIPE_LABEL_TAMPERS[case]
    source = _hadamard_file(tmp_path) if name == "hadamard.json" else pipeline_dir / name
    bad = _dump(_put(_load(source), value, *path), tmp_path / name)
    capsys.readouterr()
    assert cli.main(["verify", bad]) == 5
    assert capsys.readouterr().out.endswith(f"CHECK FAILED: stored {key} differs from the derived one\n")


@pytest.mark.parametrize("label", [
    "x", "", "sylvester(2", "sylvester(02)", "sylvester(-1)", "hadamard(4)",
    "paley1(5)",  # GF(5) gives a Paley matrix of type II
    "paley2(15)",  # 15 is not a prime power
    "kron(sylvester(1))", "kron(sylvester(1),sylvester(1)", "kron(sylvester(1),x)",
    "sylvester(1)+permutation(7)",
    "kron(" * 20 + "sylvester(1)" + ",sylvester(1))" * 20,
])
@pytest.mark.parametrize("name", ["hadamard.json", "epsh.json"])
def test_unknown_hadamard_label_exit_4(tmp_path, pipeline_dir, capsys, name, label):
    source = _hadamard_file(tmp_path) if name == "hadamard.json" else pipeline_dir / name
    obj = _load(source)
    _put(obj, label, *(("label",) if name == "hadamard.json" else ("hadamard", "label")))
    bad = _dump(obj, tmp_path / name)
    capsys.readouterr()
    assert cli.main(["verify", bad]) == 4
    assert capsys.readouterr().out.startswith(f"{bad}: parse error: bad hadamard artifact: ")


@pytest.mark.parametrize("label, order", [
    ("sylvester(13)", 8192),
    ("kron(sylvester(12),sylvester(1))", 8192),
    ("sylvester(100000000000000000)", 4),
    ("paley1(99999999999999999)", 4),  # refused before q is factored
])
def test_hadamard_label_past_size_budget_exit_6(tmp_path, pipeline_dir, capsys, label, order):
    """A recipe whose matrix is past the size budget exits 6 (resource
    limit) before anything of that size is built, and verify goes on with
    the next file."""
    bad = _dump({"kind": "hadamard", "label": label, "order": order}, tmp_path / "h.json")
    good = str(pipeline_dir / "epsh.json")
    start = time.perf_counter()
    assert cli.main(["verify", bad, good]) == 6
    assert time.perf_counter() - start < 5
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{bad}: resource limit: order ")
    assert lines[0].endswith(" exceeds size budget 4096")
    assert lines[1:] == [f"{good}: eps-hadamard: ok"]


def test_matrix_its_label_builds_is_stored_as_recipe(tmp_path, pipeline_dir, capsys):
    """Packed rows of a matrix that its label builds differ from the derived
    recipe: one matrix has one artifact."""
    obj = _load(pipeline_dir / "epsh.json")
    assert obj["hadamard"]["label"] == "sylvester(2)"
    obj["hadamard"]["rows"] = ["00", "50", "30", "60"]  # H_4 packed
    bad = _dump(obj, tmp_path / "epsh.json")
    assert cli.main(["verify", bad]) == 5
    assert capsys.readouterr().out.endswith(
        "CHECK FAILED: stored hadamard.rows differs from the derived one\n")


# (order, t, scope) of the benchmark's reduction workloads, and the size and
# sha256 of the epsh.json each writes for seed 1234567890: the packed-rows
# form of a row-permuted H is pinned byte for byte
SEEDED_EPSH = {
    (16, 2, "row-col-permutations"):
        (735, "719c99845a2b21ef77ad894f69e2edf6cd2e5ef67a2f21f509b2546003308c33"),
    (256, 3, "corner-only"):
        (17803, "277f140dbbaabff96d98acbaf25f462f0bbde6f49bb5f247b019583a12ee3ee0"),
}


@pytest.mark.parametrize("order, t, scope", list(SEEDED_EPSH))
def test_seeded_benchmark_input_keeps_packed_rows(tmp_path, capsys, order, t, scope):
    """The benchmark's seeded input, H with rows t..M-1 permuted, is no
    recipe: its epsh.json holds packed rows, verifies, round-trips byte for
    byte and has the pinned bytes."""
    h = oracles.row_permuted(find_hadamard(order), t, 1234567890)
    y = best_reduction(h, t, search_scope=scope)
    text = jsonio.dumps_canonical(jsonio.eps_hadamard_obj(y))
    path = tmp_path / "epsh.json"
    path.write_text(text)
    assert cli.main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: eps-hadamard: ok\n"
    obj = json.loads(text)
    assert len(obj["hadamard"]["rows"]) == order
    parsed = jsonio.parse_eps_hadamard(obj)
    assert jsonio.dumps_canonical(jsonio.eps_hadamard_obj(parsed)) == text
    size, digest = SEEDED_EPSH[(order, t, scope)]
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (size, digest)


# (k, s, t) of `armub armub` runs and the size and sha256 of every file each
# writes: the two pipeline workloads of the benchmark, a t = 2 case, (13, 17, 3)
# where epsilon > 1 and the beta < 2 observation fails, and two runs where
# Y = H/sqrt(k), (8, 9, 1) with n n/a and (2, 3, 2) with n = 1.  The ledger's
# and the report's float fields are pinned with the rest of each file.
PIPELINE_ARTIFACTS = {
    (123, 125, 1): {
        "certificate.json":
            (1974, "9585e1cf4e187147da4565a9a99666edb5b8147bb13e98873f74125258a7877a"),
        "epsh.json": (568, "ece33b773fb4213ef112b211a42c15d25f95a7d24a6d038b8ad5499a9b48a4f1"),
    },
    (93, 97, 3): {
        "certificate.json":
            (5669, "e7a744166f88d94929ede2e81c946979ea50f80f6b84e687413ed72d07bfc819"),
        "epsh.json": (650, "0eca13068f944171ed113f5c22a3b7cf998f6687104d8a93bd33d62aab4d829b"),
    },
    (14, 17, 2): {
        "certificate.json":
            (2517, "a1be7c625341629bb524ffaf86d9ff90429a8e143bdccce68cd70a08cc494cfb"),
        "epsh.json": (560, "542a3a334a8ee7a95b8462df564503ea8d5de5b77d159ab5de78b5e3b47b3680"),
    },
    (13, 17, 3): {
        "certificate.json":
            (3574, "80dfb7dc1e4e5578c4161ad3a9ec127bb2e51e64bc7cce2ed0c393b8a5ee5fbd"),
        "epsh.json": (568, "2dd9b9326009063bc161d3d4ef2017b16d1baa9b8e21ab9b0fccc936610e6fad"),
    },
    (8, 9, 1): {
        "certificate.json":
            (1654, "a01329b4528efcbef46d923828c601feb48a44fa65dbbbe72552e535ef35bebb"),
        "epsh.json": (417, "15a2fbb4ab9128616bfe312b3428a1088583db9ff1bc8db6633d91647fda49db"),
    },
    (2, 3, 2): {
        "certificate.json":
            (1623, "3589da77723f883120ead7dafafafd0c77e91a41b785f99242f4052b07bbabdb"),
        "epsh.json": (417, "3470aae8f6d8b615460bf273234ac5df28871bd54e7e7640b3cb999250c20671"),
    },
}


@pytest.mark.parametrize("k, s, t", list(PIPELINE_ARTIFACTS))
def test_pipeline_artifacts_are_pinned(tmp_path, capsys, k, s, t):
    """Every file `armub armub` writes at (k, s, t) has the pinned size and
    sha256, so each float that the report and the ledger render keeps its
    bytes."""
    assert cli.main(["armub", "--k", str(k), "--s", str(s), "--t", str(t),
                     "--out", str(tmp_path)]) == 0
    written = {path.name: (len(data := path.read_bytes()), hashlib.sha256(data).hexdigest())
               for path in sorted(tmp_path.iterdir())}
    assert written == PIPELINE_ARTIFACTS[(k, s, t)]


def test_beta_lt_2_line_is_observed_not_counted(tmp_path, capsys):
    """At (13, 17, 3) the beta < 2 line fails and is printed as an
    observation that "ok" does not count; every counted line passes, so the
    pipeline exits 0 and its certificate verifies."""
    assert cli.main(["armub", "--k", "13", "--s", "17", "--t", "3",
                     "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "beta-lt-2" in line] == [
        "  [fail] beta-lt-2: lhs=4.58829 rhs=2 (observed; not counted in ok)"]
    assert sum("not counted" in line for line in lines) == 1
    cert = _load(tmp_path / "certificate.json")
    assert cert["ok"] is True
    assert cli.main(["verify", *sorted(str(p) for p in tmp_path.iterdir())]) == 0
