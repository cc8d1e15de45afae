"""The command-line interface, driven through ``armub.cli.main`` at small
sizes: exit codes, artifact files and batch verification."""

import json
import os

import pytest

from armub import cli


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


def test_epsh_writes_and_verifies(tmp_path, capsys):
    out = tmp_path / "epsh.json"
    assert cli.main(["epsh", "8", "1", "--out", str(out)]) == 0
    assert "partial" not in _load(out)
    assert cli.main(["verify", str(out)]) == 0
    assert f"{out}: eps-hadamard: ok\n" in capsys.readouterr().out


def test_pipeline_artifacts_verify(pipeline_dir, capsys):
    files = sorted(str(p) for p in pipeline_dir.iterdir())
    assert [os.path.basename(f) for f in files] == [
        "bases.json", "certificate.json", "epsh.json", "hadamard.json",
        "rbd.json", "report.json",
    ]
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


def test_verify_tampered_entry_exit_5(tmp_path, capsys):
    out = tmp_path / "epsh.json"
    assert cli.main(["epsh", "8", "1", "--out", str(out)]) == 0
    obj = _load(out)
    obj["entries"][0][0], obj["entries"][0][1] = obj["entries"][0][1], obj["entries"][0][0]
    assert cli.main(["verify", _dump(obj, out)]) == 5
    assert "CHECK FAILED" in capsys.readouterr().out


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
    report = _load(pipeline_dir / "report.json")
    report["epsilon"]["ksq"]["a"] = ["1", "0"]
    assert cli.main(["verify", _dump(report, tmp_path / "report.json")]) == 4
    assert "parse error" in capsys.readouterr().out


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


def _set(obj, **fields):
    obj.update(fields)
    return obj


@pytest.mark.parametrize("name, mutate", [
    ("epsh.json", lambda obj: _set(obj, k=0, entries=[])),
    ("epsh.json", lambda obj: _set(obj, provenance=None)),
    ("rbd.json", lambda obj: _set(obj, mu="x")),
])
def test_malformed_artifact_exit_4(tmp_path, pipeline_dir, capsys, name, mutate):
    bad = _dump(mutate(_load(pipeline_dir / name)), tmp_path / name)
    assert cli.main(["verify", bad]) == 4
    assert capsys.readouterr().out.startswith(f"{bad}: parse error:")


def test_bases_with_vectors_field_exit_4(tmp_path, pipeline_dir, capsys):
    obj = _load(pipeline_dir / "bases.json")
    assert "vectors" not in obj
    obj["vectors"] = []
    assert cli.main(["verify", _dump(obj, tmp_path / "bases.json")]) == 4
    out = capsys.readouterr().out
    assert "parse error" in out and "'vectors'" in out


@pytest.mark.parametrize("option", [
    ["--threads", "2"], ["--mode", "exhaustive"], ["--seed", "1"],
])
def test_removed_armub_options_exit_2(tmp_path, capsys, option):
    argv = ["armub", "--k", "3", "--s", "5", "--t", "1", "--out", str(tmp_path), *option]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
