"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD MODE FIXTURE

MODE is ``setup`` (import regmaps and load the inputs, then stop),
``run`` (run the workload once, with the core's speed probed while it
runs) or ``trace`` (run it once with every instrumented name wrapped
and no probes).  Every mode also probes the speed just after set-up.
The child prints one JSON report on standard output; what the program
itself prints is captured into the report.  It expects ``PYTHONPATH`` to hold only this checkout's ``src``
and refuses to run against any other copy of regmaps.
"""

import contextlib
import io
import os
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    workload, mode, fixture = argv[0], argv[1], Path(argv[2])
    # one CPU for the whole run: migrating between CPUs made the run
    # time of identical iterations spread several times wider
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import json

    import numpy
    import regmaps
    import regmaps.cli
    from harness import SRC, WORKLOADS
    from instrument import Tracer, capture_cell_stats
    from speed import Sampler, burst_speed

    if Path(regmaps.__file__).resolve().parent != SRC / "regmaps":
        print(f"regmaps was imported from {regmaps.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    cells = capture_cell_stats()
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    argv_cli = WORKLOADS[workload]
    text = fixture.read_text(encoding="utf-8") if argv_cli is None else None
    ready = time.monotonic()
    setup_speed = burst_speed()
    report = {"ready": ready, "setup_speed": setup_speed, "numpy": numpy.__version__}
    if mode != "setup":
        output, code, error = None, None, None
        sampler = Sampler()
        if mode == "run":
            sampler.start()
        start = time.perf_counter()
        try:
            if argv_cli is None:
                records = regmaps.wreath.records_from_json(text)
                output = regmaps.wreath.records_to_json(records)
                code = 0
            else:
                buf = io.StringIO()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = regmaps.cli.main(list(argv_cli))
                finally:
                    output = buf.getvalue()
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a program failure: reported, counted as failed operations
            error = f"{type(exc).__name__}: {exc}"
        finally:
            sampler.stop()
            wall = time.perf_counter() - start
        work = wall - sum(sampler.probes)
        report.update(
            wall_s=wall,
            work_s=work,
            speed=sampler.speed(fallback=setup_speed),
            probes=len(sampler.probes),
            rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            exit=code,
            error=error,
            output=output,
            cells=cells,
        )
        if tracer is not None:
            report["trace"] = tracer.report()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
