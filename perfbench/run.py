"""bcsl benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {frontier,fme,orderings,codec} \\
        --seed N --seconds S --trace {0,1}

The program is run from ``src/`` as it stands in the checkout.  A run
writes the seeded inputs, measures set-up time with fresh ``bcsl``
processes, then runs timed iterations for about ``--seconds``.
Each iteration is a fresh single-threaded process that imports
``bcsl.cli`` before its clock starts and runs the workload's commands
through ``bcsl.cli.dispatch``.  Every command's output is checked against
the seed-commit reference in ``refs/``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics, the
trace overhead and the ``-X importtime`` breakdown.  Human-readable detail
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import trace_layers  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
# a hung process is killed so that the whole run ends within 180 s
ITERATION_TIMEOUT = 100.0
PROBE_TIMEOUT = 20.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BCSL_THREADS")
# the installed ``bcsl`` console script, run from source
ENTRY = ("import sys; from bcsl.cli import main; sys.argv[0] = 'bcsl'; "
         "main()")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update({v: "1" for v in THREAD_VARS})
    return env


def machine() -> dict:
    return {"nproc": os.cpu_count(), "arch": platform.machine(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "threads": {v: "1" for v in THREAD_VARS}}


def spawn_worker(plan: dict, indir: str, outdir: str, trace: str | None,
                 env: dict[str, str]) -> dict:
    """One worker process running the plan's commands into `outdir`."""
    cmds = plan["commands"]
    os.makedirs(outdir)
    job_path = os.path.join(outdir, "job.json")
    with open(job_path, "w") as fh:
        json.dump({"commands": [workloads.expand(c["argv"], indir, outdir)
                                for c in cmds], "trace": trace}, fh)
    with open(outdir + ".stderr", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), job_path],
            env=env, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            out, _ = proc.communicate(timeout=ITERATION_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"codes": [-1] * len(cmds), "seconds": [0.0] * len(cmds),
                "wall_s": 0.0, "peak_rss_mb": 0.0}


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: str, seed: int, small: bool = False):
        self.plan = workloads.plan(workload, seed, small)
        self.workload = workload
        self.dir = os.path.join(WORK, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.indir = os.path.join(self.dir, "in")
        digests = workloads.write_inputs(self.plan, self.indir)
        with open(workloads.ref_path(workload)) as fh:
            ref = json.load(fh)["keys"][self.plan["key"]]
        self.ref = ref["commands"]
        # inputs must be the ones the reference was made from
        self.inputs_ok = digests == ref["inputs"]
        self.env = child_env()
        self.iterations = 0
        self.attempted = 0
        self.failed = 0

    # -- processes -------------------------------------------------------
    def probe(self) -> float:
        """Wall seconds of a fresh ``bcsl`` process running the probe."""
        outdir = os.path.join(self.dir, "probe")
        os.makedirs(outdir, exist_ok=True)
        argv = workloads.expand(self.plan["probe"], self.indir, outdir)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", ENTRY, *argv],
                                  env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=PROBE_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.failed += 1
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            self.failed += 1
            sys.stderr.write(proc.stderr)
        return dt

    def import_times(self) -> tuple[float, float]:
        """(bcsl, scipy) import seconds from ``-X importtime``: the
        cumulative time of the outermost entries of each package."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bcsl.cli"],
            env=self.env, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT)
        totals = {"bcsl": 0, "scipy": 0}
        outer: list[tuple[int, str]] = []    # enclosing entries
        # children are printed before their parent, so walk backwards
        for line in reversed(proc.stderr.splitlines()):
            if not line.startswith("import time:") or "[us]" in line:
                continue
            _, cum_us, name = line[len("import time:"):].split("|")
            depth = len(name) - len(name.lstrip())
            pkg = name.strip().split(".")[0]
            while outer and outer[-1][0] >= depth:
                outer.pop()
            if pkg in totals and all(p != pkg for _, p in outer):
                totals[pkg] += int(cum_us)
            outer.append((depth, pkg))
        return totals["bcsl"] / 1e6, totals["scipy"] / 1e6

    def iteration(self, traced: bool) -> dict:
        """Run every command once in a fresh worker and check the outputs."""
        i = self.iterations
        self.iterations += 1
        outdir = os.path.join(self.dir, f"iter{i:03d}")
        trace = (os.path.join(self.dir, f"trace{i:03d}.jsonl") if traced
                 else None)
        cmds = self.plan["commands"]
        res = spawn_worker(self.plan, self.indir, outdir, trace, self.env)
        res["ok"] = [self.check(c, rc, outdir)
                     for c, rc in zip(cmds, res["codes"])]
        self.attempted += len(cmds)
        self.failed += res["ok"].count(False)
        if traced and os.path.exists(trace + ".counters.json"):
            res["layers"] = trace_layers.aggregate(*trace_layers.load(trace))
        shutil.rmtree(outdir)
        return res

    def check(self, cmd: dict, rc: int, outdir: str) -> bool:
        if rc != 0 or not self.inputs_ok:
            return False
        try:
            got = workloads.observe(self.workload, cmd, outdir)
        except (OSError, ValueError, KeyError):
            return False
        return workloads.agrees(self.workload, cmd, got,
                                self.ref[cmd["id"]])

    def loop(self, seconds: float, pattern: tuple[bool, ...]) -> list[dict]:
        """Iterations cycling through `pattern` (traced flags) until the
        pattern has run once and the next iteration would end more than
        half an iteration past `seconds`."""
        out = []
        t0 = time.perf_counter()
        while True:
            out.append(self.iteration(pattern[len(out) % len(pattern)]))
            elapsed = time.perf_counter() - t0
            if (len(out) >= len(pattern)
                    and elapsed + elapsed / len(out) / 2 > seconds):
                return out


# --------------------------------------------------------------------------
# metrics


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are ten or fewer."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100
    return xs[-11], (100 * (len(xs) - 10)) // len(xs)


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    setup = [run.probe() for _ in range(SETUP_PROBES)]
    its = run.loop(seconds, (False,))
    cmds = run.plan["commands"]
    ids = [c["id"] for c in cmds]

    def per_cmd(cid):
        k = ids.index(cid)
        return [it["seconds"][k] for it in its]

    med = statistics.median
    m = {"setup_s": med(setup),
         "wall_s": med(it["wall_s"] for it in its),
         "peak_rss_mb": med(it["peak_rss_mb"] for it in its)}
    detail = [f"setup_s {m['setup_s']:.4f} s (median of {len(setup)})",
              f"wall_s {m['wall_s']:.4f} s (median of {len(its)})",
              f"peak_rss_mb {m['peak_rss_mb']:.1f} MiB "
              f"(median of {len(its)})",
              f"fail_frac {run.failed / run.attempted:.4f} ratio "
              f"({run.failed} of {run.attempted} commands)"]
    if run.workload == "orderings":
        decide = [s for cid in ids for s in per_cmd(cid)]
        m["focus_s"] = statistics.fmean(decide)
        value, pct = tail(decide)
        detail += [f"decide_mean_s {m['focus_s']:.4f} s "
                   f"(mean of {len(decide)})",
                   f"decide_p50_s {med(decide):.4f} s "
                   f"(median of {len(decide)})",
                   f"decide_tail_s {value:.4f} s "
                   f"(p{pct} of {len(decide)})"]
    else:
        m["focus_s"] = med(map(sum, zip(*map(per_cmd, run.plan["focus"]))))
        name = {"frontier": "wide_s", "fme": "nocert_s",
                "codec": "equiv_s"}[run.workload]
        detail.append(f"{name} {m['focus_s']:.4f} s (median of {len(its)})")
    if run.workload == "codec":
        trials = workloads.CODEC_TRIALS
        rate = med(trials / s for s in per_cmd("sim_run"))
        detail.append(f"trials_per_s {rate:.1f} 1/s (median of {len(its)})")
    detail.append(f"focus_s = {run.plan['focus']}")
    return m, detail


def per_layer(run: Run, seconds: float, units: dict[str, str]
              ) -> tuple[dict, list[str]]:
    import_s, scipy_s = run.import_times()
    its = run.loop(seconds, (False, True))
    plain = [it["wall_s"] for it in its[0::2]]
    traced = [it for it in its[1::2] if "layers" in it]
    if not traced:
        return {}, ["no traced iteration finished"]
    med = statistics.median
    m = {}
    for name, unit in units.items():
        vals = [it["layers"][name] for it in traced
                if name in it["layers"]]
        if vals:
            m[name] = med(vals) if unit == "s" else vals[0]
    m["cli.import_s"] = import_s
    m["cli.import_scipy_s"] = scipy_s
    m["trace.overhead_ratio"] = (med(it["wall_s"] for it in traced)
                                 / med(plain))
    exact = [{k: v for k, v in it["layers"].items() if units.get(k) != "s"}
             for it in traced]
    detail = [f"traced iterations {len(traced)}, untraced {len(plain)}",
              "counts repeat across traced iterations: "
              f"{all(e == exact[0] for e in exact)}"]
    return m, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "bcsl", "cli.py")):
        print(f"error: no bcsl sources under {SRC}", file=sys.stderr)
        return 2
    with open(bench) as fh:
        spec = json.load(fh)
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    run = Run(args.workload, args.seed)
    if args.trace:
        metrics, detail = per_layer(run, args.seconds, units)
    else:
        metrics, detail = end_to_end(run, args.seconds)
    print(f"workload {args.workload} seed {args.seed} key {run.plan['key']}"
          f" inputs_match_reference {run.inputs_ok}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    for line in detail:
        print(line)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
