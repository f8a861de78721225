"""Self-test of the benchmark harness.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs every workload once at minimal size through the same code paths as a
real run, and checks that:
  * every metric in BENCHMARK.json has a well-formed name and a unit, and
    both the end-to-end and the traced run compute exactly those metrics;
  * the exact per-layer counts repeat across two traced iterations;
  * a deliberately corrupted output is counted as a failed command;
  * the runner exits non-zero, printing no result, in a directory that
    holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import run
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def corrupt(workload: str, cmd: dict, outdir: str) -> None:
    """Change a command's primary output so its check must fail."""
    path = os.path.join(outdir, cmd["output"])
    if workload in ("frontier", "fme"):
        with open(path, "a") as fh:
            fh.write(" ")
        return
    with open(path) as fh:
        d = json.load(fh)
    if workload == "orderings":
        d["consistent"] = not d["consistent"]
    else:
        d["pe_y1"] = 1.0 - d["pe_y1"]
    with open(path, "w") as fh:
        json.dump(d, fh)


def spec_units() -> tuple[dict[str, str], dict[str, str]]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    groups = []
    for key in ("end_to_end", "per_layer"):
        for m in spec[key]:
            expect(NAME.fullmatch(m["name"]) is not None,
                   f"bad metric name {m['name']!r}")
            expect(bool(m.get("unit")), f"{m['name']} has no unit")
        groups.append({m["name"]: m["unit"] for m in spec[key]})
    return groups[0], groups[1]


def check_workload(workload: str, e2e: dict, layers: dict) -> None:
    r = run.Run(workload, 0, small=True)
    m, _ = run.end_to_end(r, 0)
    expect(set(m) == set(e2e), f"{workload}: end-to-end {sorted(m)}")
    m, _ = run.per_layer(r, 0, layers)
    expect(set(m) == set(layers), f"{workload}: per-layer "
           f"{sorted(set(layers) ^ set(m))}")
    expect(r.failed == 0, f"{workload}: {r.failed} failed commands")

    one, two = trace_metrics(r), trace_metrics(r)
    expect(all(one[k] == two[k] for k in one if layers[k] != "s"),
           f"{workload}: counts differ between traced iterations")

    spawn = run.spawn_worker
    first = r.plan["commands"][0]

    def corrupting(plan, indir, outdir, trace, env):
        res = spawn(plan, indir, outdir, trace, env)
        corrupt(workload, first, outdir)
        return res

    run.spawn_worker = corrupting
    try:
        before = r.failed
        r.iteration(False)
    finally:
        run.spawn_worker = spawn
    expect(r.failed == before + 1,
           f"{workload}: corrupted output counted {r.failed - before} times")
    print(f"{workload}: ok (fail_frac {r.failed}/{r.attempted} after the "
          "corrupted iteration)")


def trace_metrics(r: run.Run) -> dict:
    res = r.iteration(True)
    expect(all(res["ok"]), "traced iteration failed its checks")
    return res["layers"]


def check_equivocation_tolerance() -> None:
    cmd = {"id": "equiv_layered"}
    ref = {"h_w1": 1.0, "h_w2": 2.0, "h_w1_given_y3": 0.5,
           "h_w2_given_y3": 1.0, "h_w12_given_y3": 1.25}
    near = dict(ref, h_w12_given_y3=1.25 + 5e-10)
    far = dict(ref, h_w12_given_y3=1.25 + 5e-9)
    expect(workloads.agrees("codec", cmd, near, ref), "1e-9 tolerance")
    expect(not workloads.agrees("codec", cmd, far, ref), "1e-9 tolerance")


def check_bare_directory() -> None:
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fme", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0, "bare directory run exited 0")
    expect('"metrics"' not in proc.stdout, "bare directory run printed")
    print("bare directory: exits", proc.returncode, "without a result")


def main() -> None:
    e2e, layers = spec_units()
    for workload in workloads.WORKLOADS:
        check_workload(workload, e2e, layers)
    check_equivocation_tolerance()
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
