"""Record the reference observations that every benchmark run checks.

Usage: python3 perfbench/make_refs.py [WORKLOAD ...]

Runs each workload's commands once per input key (and once at the
self-test's minimal size) through the same worker the benchmark times, and
writes ``refs/<workload>.json``: the input digests and each command's
observation.  Run it at the commit whose outputs are the reference; a
command that fails aborts the recording.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads


def record(workload: str, seed: int, small: bool) -> dict:
    plan = workloads.plan(workload, seed, small)
    base = os.path.join(run.WORK, "refs", workload, plan["key"])
    shutil.rmtree(base, ignore_errors=True)
    indir, outdir = os.path.join(base, "in"), os.path.join(base, "out")
    digests = workloads.write_inputs(plan, indir)
    res = run.spawn_worker(plan, indir, outdir, None, run.child_env())
    if any(res["codes"]):
        sys.exit(f"{workload} key {plan['key']}: exit codes {res['codes']}")
    obs = {c["id"]: workloads.observe(workload, c, outdir)
           for c in plan["commands"]}
    shutil.rmtree(base)
    return plan["key"], {"inputs": digests, "commands": obs}


def main(names: list[str]) -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    for workload in names or workloads.WORKLOADS:
        seeds = [0] if workload == "fme" else range(workloads.KEYS)
        keys = dict(record(workload, s, False) for s in seeds)
        keys.update([record(workload, 0, True)])
        os.makedirs(os.path.dirname(workloads.ref_path(workload)),
                    exist_ok=True)
        with open(workloads.ref_path(workload), "w") as fh:
            json.dump({"commit": commit, "machine": run.machine(),
                       "keys": keys}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(keys)} keys")


if __name__ == "__main__":
    main(sys.argv[1:])
