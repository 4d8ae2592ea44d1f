"""Workloads, child processes and output checks shared by the benchmark's
scripts and its self-test.

Every measured iteration is one fresh interpreter (``child.py``) that
imports regmaps from this checkout's ``src``, runs one workload serially
and reports its timings, its output and the ``CellStats`` of each census
cell.  Its output is then compared with references recorded at the seed
(``references.json``); every operation that does not match counts as
failed.  An operation is a census cell, a construction check, a loaded
record, or the byte-exact output document.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
FIXTURE = HERE / "fixtures" / "census_reload.json"

# CLI argument lists; None marks a workload driven through the library
WORKLOADS = {
    # the acceptance range users run: cap-overflow closures in (3,6) and
    # sigma enumeration in (3,7) dominate
    "theorem-d3n7": ["verify-theorem", "--max-d", "3", "--max-n", "7",
                     "--budget", "100000", "--format", "json"],
    # enumeration of 383,040 candidates that the clique filter rejects;
    # almost no group closure runs
    "census-d3n8": ["classify", "--d", "3", "--n", "8",
                    "--budget", "1000000", "--format", "json"],
    # PGL(2,9) matrix closure, validation, coset graph and isomorphism
    "pgl29-pair": ["pgl29", "--verify", "--budget", "100000", "--format", "json"],
    # the read side of the census: records_from_json with revalidation
    "census-reload": None,
}

CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong program output)."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def child_env() -> dict[str, str]:
    """The child's environment, with every input the program reads pinned:
    no budget from the environment, this checkout's sources first on the
    path, one thread per numeric library, and a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if k not in ("REGMAP_BUDGET", "PYTHONPATH")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(workload: str, mode: str, fixture: Path = FIXTURE) -> dict:
    """Run one child and return its report, with ``setup_wall_s`` measured
    from just before the process was started until it was ready to run,
    and ``setup_s`` that time scaled to the reference speed."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, mode, str(fixture)]
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} ({mode}) ran longer than {CHILD_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} ({mode}) child exited {proc.returncode} without a report:\n{err[-4000:]}"
        )
    report = json.loads(lines[-1])
    report["setup_wall_s"] = report["ready"] - start
    report["setup_s"] = report["setup_wall_s"] * report["setup_speed"]
    return report


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def _parse(text):
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return None


def _cell_ok(ref: dict, got) -> bool:
    """Same cell, one worker, and every reference ``CellStats`` field equal.
    Fields added to ``CellStats`` after the seed are not compared."""
    return (
        got is not None
        and (got["d"], got["n"]) == (ref["d"], ref["n"])
        and got["workers"] == 1
        and all(got["stats"].get(k) == v for k, v in ref["stats"].items())
    )


def check(workload: str, report: dict, refs: dict, fixture: Path = FIXTURE) -> list[tuple[str, bool]]:
    """(operation, passed) for every operation of one iteration."""
    ref = refs[workload]
    output = report.get("output")
    if workload == "census-reload":
        text = fixture.read_text(encoding="utf-8")
        expected = _parse(text) or []
        loaded = _parse(output) or []
        ops = [
            (f"record {i}", i < len(expected) and i < len(loaded) and loaded[i] == expected[i])
            for i in range(ref["records"])
        ]
        ops.append(("round trip", output == text and sha256(text) == ref["fixture_sha256"]))
        return ops
    doc = _parse(output)
    if workload == "pgl29-pair":
        got = {c[0]: c for c in doc.get("checks", [])} if isinstance(doc, dict) else {}
        return [(f"check {c[0]}", got.get(c[0]) == c) for c in ref["checks"]]

    cells = report.get("cells", [])
    doc_cells = doc.get("cells", []) if isinstance(doc, dict) else []
    ops = []
    for i, cell in enumerate(ref["cell_stats"]):
        ok = _cell_ok(cell, cells[i] if i < len(cells) else None)
        if "cells" in ref:
            ok = ok and i < len(doc_cells) and doc_cells[i] == ref["cells"][i]
        ops.append((f"cell {cell['d']},{cell['n']}", ok))
    ops.append((
        "output bytes",
        report.get("exit") == 0 and output is not None and sha256(output) == ref["output_sha256"],
    ))
    return ops
