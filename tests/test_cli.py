import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import regmaps
from regmaps import cli, maps, wreath
from regmaps.cli import main
from regmaps.maps import format_triple
from regmaps.wreath import classify, records_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_classify_json_roundtrips(capsys):
    code, out = run(capsys, "classify", "--d", "2", "--n", "3", "--format", "json")
    assert code == 0
    records = records_from_json(out)
    assert len(records) == 1
    assert records[0].invariants.type_string == "{6,4}_4"


def test_classify_table(capsys):
    code, out = run(capsys, "classify", "--d", "1", "--n", "6")
    assert code == 0
    assert "{3,5}_5" in out and "{5,5}_3" in out


def test_classify_output_is_byte_stable(capsys):
    _, first = run(capsys, "classify", "--d", "2", "--n", "4", "--format", "json")
    _, second = run(capsys, "classify", "--d", "2", "--n", "4", "--format", "json")
    assert first == second


def test_invariants_builtin_triple(capsys):
    code, out = run(capsys, "invariants", "--triple", "h22-octagon")
    assert code == 0
    assert "{8,2}_8" in out
    assert "nonorientable" in out


def test_census_record_revalidates_through_invariants(tmp_path, capsys):
    rec = classify(2, 3)[0]
    path = tmp_path / "h23.triple"
    path.write_text(format_triple(rec.triple()))
    code, out = run(capsys, "invariants", "--triple", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["validation"]["ok"] is True
    inv = payload["invariants"]
    assert inv["type"] == {"p": 6, "q": 4, "r": 4}
    assert inv["genus"] == rec.invariants.genus
    assert inv["group_order"] == rec.invariants.group_order


def test_invariants_failing_triple_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.triple"
    path.write_text("degree 3\nlambda 1 0 2\nrho 0 1 2\ntau 1 0 2\n")
    code, out = run(capsys, "invariants", "--triple", str(path))
    assert code == 1
    assert "FAIL" in out


def test_unknown_triple_name_exits_2(capsys):
    code, _ = run(capsys, "invariants", "--triple", "missing-file")
    assert code == 2


def test_bad_cell_exits_2(capsys):
    code, _ = run(capsys, "classify", "--d", "0", "--n", "3")
    assert code == 2


def test_budget_exceeded_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("REGMAP_BUDGET", "10")
    code, _ = run(capsys, "classify", "--d", "2", "--n", "6")
    assert code == 3


def test_pgl29_verify(capsys):
    code, out = run(capsys, "pgl29", "--verify")
    assert code == 0
    assert "all checks passed" in out


def test_verify_theorem_small(capsys):
    code, out = run(capsys, "verify-theorem", "--max-d", "1", "--max-n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["complete"] is True
    assert [c["found"] for c in payload["cells"]] == [1, 1]


def test_verify_theorem_budget_exits_3(capsys):
    code, out = run(capsys, "verify-theorem", "--max-d", "2", "--max-n", "4", "--budget", "50")
    assert code == 3
    assert "INCOMPLETE" in out


def test_cell_past_the_degree_bound_exits_3(capsys, monkeypatch):
    # the cells within the bound still run; the one past it is skipped
    monkeypatch.setattr(wreath, "MAX_DEGREE", 10)
    code, out = run(capsys, "verify-theorem", "--max-d", "2", "--max-n", "4")
    assert code == 3
    assert "  2  4         1      0  SKIP" in out and "INCOMPLETE" in out
    assert main(["classify", "--d", "2", "--n", "4"]) == 3
    assert "degree 4^2 exceeds the supported bound 10" in capsys.readouterr().err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "census.json"
    code, out = run(
        capsys, "classify", "--d", "1", "--n", "4", "--format", "json",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert records_from_json(target.read_text())[0].n == 4


def test_pgl29_verify_honours_budget(capsys):
    code, _ = run(capsys, "pgl29", "--verify", "--budget", "5")
    assert code == 3


def test_bad_budget_env_exits_2_with_message(capsys, monkeypatch):
    monkeypatch.setenv("REGMAP_BUDGET", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--d", "1", "--n", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "'abc'" in err


@pytest.mark.parametrize("flag", ["--budget"])
def test_non_positive_budget_or_workers_exit_2(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--d", "1", "--n", "4", flag, "0"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-theorem", "--max-d", "0"],
        ["verify-theorem", "--max-n", "2"],
        ["verify-theorem", "--max-witness-len", "0"],
        ["classify", "--d", "2", "--n", "3", "--max-witness-len", "0"],
    ],
)
def test_empty_range_or_witness_bound_exits_2(capsys, argv):
    # rejected while parsing, before any census cell runs
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_over_budget_cell_exits_3_before_building(capsys):
    # the count comes from the pool sizes; building the 88.9M candidates
    # first would take hours and gigabytes
    start = time.perf_counter()
    code = main(["classify", "--d", "4", "--n", "8", "--budget", "1000000"])
    elapsed = time.perf_counter() - start
    assert code == 3
    assert "candidate count 88865280 exceeds budget 1000000" in capsys.readouterr().err
    assert elapsed < 5


def test_invariants_validates_the_triple_once(capsys, monkeypatch):
    validated = []
    validate = maps.validate_admissible

    def recording_validate(t, cap=maps.DEFAULT_BUDGET):
        validated.append(t)
        return validate(t, cap)

    monkeypatch.setattr(maps, "validate_admissible", recording_validate)
    monkeypatch.setattr(cli, "validate_admissible", recording_validate)
    code, out = run(capsys, "invariants", "--triple", "h22-octagon", "--format", "json")
    assert code == 0
    assert json.loads(out)["invariants"]["genus"] == 1
    assert len(validated) == 1


def test_census_and_pgl29_never_load_numpy_ma():
    # numpy imports numpy.ma lazily, from its unique-family set routines
    code = (
        "import sys\n"
        "from regmaps.cli import main\n"
        "from regmaps.wreath import verify_theorem\n"
        "assert verify_theorem(3, 7, budget=100000).ok\n"
        "assert main(['pgl29', '--verify']) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was loaded'\n"
    )
    src = str(Path(regmaps.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
