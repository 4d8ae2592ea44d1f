"""Record the reference outputs the benchmark checks against, and the
census-reload fixture.

    python3 perfbench/record.py

Run from the root of the checkout whose outputs are the references: it
rewrites ``references.json`` and ``fixtures/census_reload.json``.  The
references were recorded once, at the commit that introduced the
benchmark; re-recording them to make a changed program pass defeats the
check, since a speed-up that changes the census bytes or the
``CellStats`` counts does not count.
"""

from __future__ import annotations

import json
import sys

from harness import FIXTURE, REFERENCES, SRC, WORKLOADS, sha256, spawn


def census_fixture() -> str:
    """Every nonempty cell with d <= 4 and n in {3, 4, 6}, in cell order."""
    sys.path.insert(0, str(SRC))
    from regmaps.wreath import classify, expected_count, records_to_json

    records = []
    for d in range(1, 5):
        for n in (3, 4, 6):
            if expected_count(d, n):
                records += classify(d, n, budget=1_000_000)
    return records_to_json(records)


def main() -> int:
    text = census_fixture()
    refs = {"census-reload": {"fixture_sha256": sha256(text), "records": len(json.loads(text))}}
    for workload in WORKLOADS:
        if WORKLOADS[workload] is None:
            continue
        report = spawn(workload, "run")
        doc = json.loads(report["output"])
        if report["exit"] != 0 or (isinstance(doc, dict) and not doc["ok"]):
            raise SystemExit(f"{workload} does not verify; not recording it as a reference")
        if workload == "pgl29-pair":
            refs[workload] = {"checks": doc["checks"]}
            continue
        refs[workload] = {
            "output_sha256": sha256(report["output"]),
            "cell_stats": [
                {"d": c["d"], "n": c["n"], "stats": c["stats"]} for c in report["cells"]
            ],
        }
        if isinstance(doc, dict):
            refs[workload]["cells"] = doc["cells"]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(text, encoding="utf-8")
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
