"""The regmaps benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; regmaps is imported from its ``src``.
One client runs serially in a closed loop: each iteration is a fresh
process that runs the workload once, the way a user runs the command,
and its output is checked against references recorded at the seed.
The workloads are deterministic, so the seed selects nothing and is
only recorded.

``--trace 0`` reports the end-to-end metrics, medians over the
iterations that fit in ``--seconds`` (at least one):

* ``wall_ref_s``: run time of one iteration, not counting set-up, scaled
  to the reference core speed of ``speed.py``;
* ``setup_s``: from starting the process until regmaps is imported and
  the inputs are loaded, over several set-up-only processes as well,
  scaled to the reference speed by probes taken just after set-up;
* ``peak_rss_mb``: maximum resident memory of the iteration's process.

The host's cores change speed by up to 1.5x within seconds, so raw
times of identical runs spread past any useful bound; the scaled times
divide that speed out.  The raw times go on the information line.

Operations that fail their check are counted in ``failed`` out of
``attempted``; that ratio is the run's failed share.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of ``instrument.py`` (medians over traced
iterations), plus ``trace.wall_s`` (traced wall time, not scaled),
``trace.overhead_s`` (traced minus untraced wall time, the untraced
one without its speed probes) and
``trace.unattributed_s`` (traced wall time not inside any instrumented
span).  The self times add up to ``trace.wall_s`` minus that last
figure, which is checked to stay within the tracing overhead.

The last line of standard output is the result object; the line before
it records the machine, the versions and the source the figures belong
to.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time

from harness import FIXTURE, ROOT, SRC, WORKLOADS, BenchError, check, load_references, spawn
from instrument import PER_LAYER_UNITS, layer_metrics

SETUP_PROBES = 24
END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "regmaps").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Tally:
    """Operations attempted and failed across the iterations of a run."""

    def __init__(self, workload: str, refs: dict):
        self.workload, self.refs = workload, refs
        self.attempted = self.failed = 0

    def add(self, report: dict) -> None:
        ops = check(self.workload, report, self.refs, FIXTURE)
        bad = [name for name, ok in ops if not ok]
        self.attempted += len(ops)
        self.failed += len(bad)
        if bad:
            print(f"failed: {', '.join(bad[:10])} (error: {report.get('error')})", file=sys.stderr)


def _keep_going(start: float, last: float, seconds: float) -> bool:
    """Start another iteration only if one as long as the last still fits."""
    return time.monotonic() - start + last <= seconds


def _setup_probes(workload: str) -> list[dict]:
    return [spawn(workload, "setup") for _ in range(SETUP_PROBES // 2)]


def measure(workload: str, seconds: float, tally: Tally):
    start = time.monotonic()
    # set-up is probed at both ends of the run, so that a workload with few
    # iterations does not take all its set-up samples in one moment
    setups = _setup_probes(workload)
    samples = {"wall_ref_s": [], "peak_rss_mb": [], "wall_s": [], "probes": []}
    while True:
        began = time.monotonic()
        report = spawn(workload, "run")
        tally.add(report)
        setups.append(report)
        samples["wall_ref_s"].append(report["work_s"] * report["speed"])
        samples["peak_rss_mb"].append(report["rss_kb"] / 1024)
        samples["wall_s"].append(report["wall_s"])
        samples["probes"].append(report["probes"])
        if not _keep_going(start, time.monotonic() - began, seconds):
            break
    setups += _setup_probes(workload)
    samples["setup_s"] = [r["setup_s"] for r in setups]
    samples["setup_wall_s"] = [r["setup_wall_s"] for r in setups]
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END_UNITS}
    return metrics, samples, report


def measure_traced(workload: str, seconds: float, tally: Tally):
    start = time.monotonic()
    untraced, traced = [], []
    while True:
        began = time.monotonic()
        plain = spawn(workload, "run")
        report = spawn(workload, "trace")
        for r in (plain, report):
            tally.add(r)
        untraced.append(plain["work_s"])
        layers = layer_metrics(report["trace"], report["cells"])
        layers["trace.wall_s"] = report["wall_s"]
        layers["trace.unattributed_s"] = report["wall_s"] - sum(report["trace"]["self_s"].values())
        traced.append(layers)
        if not _keep_going(start, time.monotonic() - began, seconds):
            break
    # median_low keeps exact counts whole numbers
    metrics = {name: statistics.median_low(t[name] for t in traced) for name in traced[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median_low(untraced)
    missing = report["trace"]["missing"]
    metrics["trace.missing_names"] = len(missing)
    if missing:
        print(f"instrumented names not found: {', '.join(missing)}", file=sys.stderr)

    # the self times must account for the traced wall time: what no span
    # covers is only the harness's own glue, well inside the overhead
    tolerance = max(abs(metrics["trace.overhead_s"]), 0.05 * metrics["trace.wall_s"])
    tally.attempted += 1
    if metrics["trace.unattributed_s"] > tolerance:
        tally.failed += 1
        print(f"failed: self times leave {metrics['trace.unattributed_s']:.4f} s "
              f"unattributed (tolerance {tolerance:.4f} s)", file=sys.stderr)
    samples = {"untraced_wall_s": untraced, "traced_wall_s": [t["trace.wall_s"] for t in traced]}
    return metrics, samples, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "regmaps" / "__init__.py").is_file():
        print(f"no regmaps sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    tally = Tally(args.workload, load_references())
    try:
        if args.trace:
            metrics, samples, report = measure_traced(args.workload, args.seconds, tally)
            units = PER_LAYER_UNITS
        else:
            metrics, samples, report = measure(args.workload, args.seconds, tally)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "samples": samples,
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
