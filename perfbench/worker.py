"""One timed iteration: a fresh process that runs a workload's commands.

Usage: python3 perfbench/worker.py JOB.json

JOB.json holds ``{"commands": [[argv...], ...], "trace": path or null}``;
``bcsl`` is found through PYTHONPATH.  The process imports ``bcsl.cli``
(and, when tracing, installs the outside-in wrappers) before the clock
starts, then runs every command through ``bcsl.cli.dispatch`` in order.
It prints one JSON line: per-command exit codes and seconds, the
iteration's wall seconds and its peak RSS.  Spans, when traced, are
written as JSONL after the clock stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    import bcsl.cli as cli

    tracer = None
    if job.get("trace"):
        import trace_layers
        tracer = trace_layers.Tracer()
        tracer.install()

    codes, seconds = [], []
    sink = io.StringIO()
    t_start = time.perf_counter()
    for i, argv in enumerate(job["commands"]):
        if tracer is not None:
            tracer.command = i
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.dispatch(argv)
        except Exception:  # a crash is a failed command, not a dead worker
            traceback.print_exc()
            rc = -1
        seconds.append(time.perf_counter() - t0)
        codes.append(rc)
    wall = time.perf_counter() - t_start
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        tracer.write(job["trace"])
    print(json.dumps({"codes": codes, "seconds": seconds, "wall_s": wall,
                      "peak_rss_mb": rss_mib}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
