"""Self-test of the benchmark: its checks catch wrong outputs, and its
metric names are the ones BENCHMARK.json declares.

    python3 -m pytest perfbench/test_perfbench.py
"""

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest

from harness import FIXTURE, HERE, ROOT, SRC, check, load_references, spawn
from instrument import PER_LAYER_UNITS, Tracer, layer_metrics
from run import END_TO_END_UNITS
from speed import REF_PROBE_S, Sampler

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def failed(ops):
    return sum(not ok for _, ok in ops)


@pytest.fixture(scope="module")
def refs():
    return load_references()


@pytest.fixture(scope="module")
def theorem_report():
    return spawn("theorem-d3n7", "run")


def test_metric_names_match_the_declaration():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_seed_census_output_passes(theorem_report, refs):
    ops = check("theorem-d3n7", theorem_report, refs)
    assert len(ops) == 16 and failed(ops) == 0


def test_wrong_expected_cell_stats_fails(theorem_report, refs):
    wrong = copy.deepcopy(refs)
    wrong["theorem-d3n7"]["cell_stats"][3]["stats"]["kept"] += 1
    assert failed(check("theorem-d3n7", theorem_report, wrong)) == 1


def test_changed_census_bytes_fail(theorem_report, refs):
    report = dict(theorem_report, output=theorem_report["output"].replace('"ok": true', '"ok": false'))
    assert failed(check("theorem-d3n7", report, refs)) >= 1


def test_run_is_probed_and_scaled(theorem_report):
    assert theorem_report["probes"] > 0 and theorem_report["speed"] > 0
    assert 0 < theorem_report["work_s"] < theorem_report["wall_s"]
    sampler = Sampler()
    assert sampler.speed(fallback=0.5) == 0.5
    sampler.probes = [REF_PROBE_S, 2 * REF_PROBE_S]
    assert sampler.speed(fallback=0.5) == pytest.approx(0.75)


def test_seed_fixture_loads(refs):
    ops = check("census-reload", spawn("census-reload", "run"), refs)
    assert len(ops) == 13 and failed(ops) == 0


def test_tampered_fixture_record_fails(refs, tmp_path):
    records = json.loads(FIXTURE.read_text())
    records[5]["genus"] += 1
    tampered = tmp_path / "census.json"
    tampered.write_text(json.dumps(records, indent=2) + "\n")
    report = spawn("census-reload", "run", fixture=tampered)
    assert report["error"] is not None
    assert failed(check("census-reload", report, refs, fixture=tampered)) > 0


def test_removed_name_reports_zero_calls_and_is_flagged(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    import regmaps.cli  # noqa: F401  (loads every module the tracer patches)
    import regmaps.pgl29

    monkeypatch.delattr(regmaps.pgl29, "mat_closure")
    tracer = Tracer()
    tracer.install()
    assert tracer.missing == ["pgl29.mat_closure"]
    metrics = layer_metrics(tracer.report(), [])
    assert metrics["pgl29.mat_closure.calls"] == 0
    trace_only = {"trace.wall_s", "trace.overhead_s", "trace.unattributed_s", "trace.missing_names"}
    assert set(metrics) | trace_only == set(PER_LAYER_UNITS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "pgl29-pair",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
