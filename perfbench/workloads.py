"""Seeded inputs, command lists and output checks for the four workloads.

A plan is pure data: the input files to write, the CLI commands to run
(with ``{in}`` and ``{out}`` placeholders for the input and output
directories), the set-up probe command, and which commands make up the
workload's focus metric.  Inputs are generated with ``random.Random`` and
``math.log`` only, so the same seed gives byte-identical input files on any
Python and numpy version.

Inputs cycle with period ``KEYS``: seed ``s`` uses key ``s % KEYS``.  Every
key has a reference observation stored in ``refs/<workload>.json``, made
from the seed commit by ``make_refs.py``, so every run can be checked.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

WORKLOADS = ("frontier", "fme", "orderings", "codec")
KEYS = 16

# frontier: search effort of the two commands (restarts x 60 iterations)
FRONTIER_RESTARTS = (6, 6)
# orderings: channel shapes (nx, ny), each drawn this many times per seed
ORDERING_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3))
ORDERING_REPS = 2
# codec: Monte Carlo trials of the sim run command
CODEC_TRIALS = 3000

# two-sided z bound for a sim-run error rate against its reference
PE_Z = 4.5
# sim equivocation entropies must match the reference this closely (bits)
ENTROPY_TOL = 1e-9


# --------------------------------------------------------------------------
# channel and auxiliary builders (plain lists, JSON-ready)


def _bsc(p):
    return [[1 - p, p], [p, 1 - p]]


def _bec(a):
    return [[1 - a, 0.0, a], [0.0, 1 - a, a]]


def _ksym(k, p):
    """k-ary symmetric channel with total crossover probability p."""
    return [[1 - p if y == x else p / (k - 1) for y in range(k)]
            for x in range(k)]


def _channel(t):
    nx, ny1, ny2, ny3 = (len(t), len(t[0]), len(t[0][0]), len(t[0][0][0]))
    return {"nx": nx, "ny1": ny1, "ny2": ny2, "ny3": ny3, "p": t}


def product_channel(w1, w2, w3):
    """Independent per-receiver noise: p(y1,y2,y3|x) = w1[x][y1] w2[x][y2]
    w3[x][y3]."""
    return _channel([[[[a * b * c for c in w3[x]] for b in w2[x]]
                      for a in w1[x]] for x in range(len(w1))])


def cascade_channel(p1, p2, p3):
    """Physically degraded binary cascade X -> Y1 -> Y2 -> Y3."""
    a, b, c = _bsc(p1), _bsc(p2), _bsc(p3)
    return _channel([[[[a[x][y1] * b[y1][y2] * c[y2][y3] for y3 in range(2)]
                       for y2 in range(2)] for y1 in range(2)]
                     for x in range(2)])


def _dirichlet_ones(rng, k):
    """Flat-Dirichlet draw from normalized unit exponentials."""
    e = [-math.log(1.0 - rng.random()) for _ in range(k)]
    s = sum(e)
    return [v / s for v in e]


def random_channel(rng, nx, ny):
    """Each input row is a flat-Dirichlet pmf over (y1, y2, y3)."""
    t = []
    for _ in range(nx):
        row = _dirichlet_ones(rng, ny ** 3)
        t.append([[[row[(i * ny + j) * ny + k] for k in range(ny)]
                   for j in range(ny)] for i in range(ny)])
    return _channel(t)


def uniform_binary_aux():
    """Trivial cloud layers and U2 = X uniform binary."""
    p = [[[[0.0, 0.0]], [[0.0, 0.0]]]]
    p[0][0][0][0] = 0.5
    p[0][1][0][1] = 0.5
    return {"m1": 1, "m2": 2, "m3": 1, "nx": 2, "p": p}


def layered_aux(noise=0.1):
    """U1 uniform binary; U2 and U3 each carry U1 plus one fresh uniform bit
    (symbol j is owned by U1 = j mod 2), and X = b2 xor b3 flipped with
    probability `noise`.  Every required Markov chain holds and
    I(U2;U3|U1) = 0, so any pairing headroom suffices."""
    p = [[[[0.0, 0.0] for _ in range(4)] for _ in range(4)] for _ in range(2)]
    for u1 in range(2):
        for b2 in range(2):
            for b3 in range(2):
                for x in range(2):
                    p[u1][u1 + 2 * b2][u1 + 2 * b3][x] = (
                        (1 - noise if x == b2 ^ b3 else noise) / 8)
    return {"m1": 2, "m2": 4, "m3": 4, "nx": 2, "p": p}


# --------------------------------------------------------------------------
# plans


def _cmd(cid, *argv, output):
    return {"id": cid, "argv": list(argv), "output": output}


def _frontier(key, small):
    restarts = (1, 1) if small else FRONTIER_RESTARTS
    iters = ["--iters", "3"] if small else []
    files = {
        "cascade.json": cascade_channel(0.1, 0.08, 0.08),
        "sym3.json": product_channel(_ksym(3, 0.05), _ksym(3, 0.15),
                                     _ksym(3, 0.30)),
    }
    cmds = [
        _cmd("inner3dm", "regions", "frontier", "--bound", "inner3dm",
             "--channel", "{in}/cascade.json", "--weights", "1,1,1,1,1",
             "--seed", str(key), "--restarts", str(restarts[0]), *iters,
             "--out", "{out}/inner3dm.csv", output="inner3dm.csv"),
        _cmd("outer3dm_wide", "regions", "frontier", "--bound", "outer3dm",
             "--override", "--channel", "{in}/sym3.json",
             "--weights", "0,1,1,0,0", "--seed", str(key),
             "--restarts", str(restarts[1]), *iters,
             "--out", "{out}/outer3dm.csv", output="outer3dm.csv"),
    ]
    probe = ["regions", "frontier", "--bound", "inner3dm",
             "--channel", "{in}/cascade.json", "--weights", "1,1,1,1,1",
             "--seed", "0", "--restarts", "1", "--iters", "0",
             "--out", "{out}/probe.csv"]
    return files, cmds, probe, ["outer3dm_wide"]


def _fme(key, small):
    # fme derive --target corollary1 and fme appendix without --symbolic run
    # the same functions as these two commands.  With all four, a 25 s run
    # fit two 12 s iterations and wall_s spread by 10.5% between runs
    # (nocert_s by 15.1%); with these two, by 5.6% (7.8%).
    cmds = [] if small else [
        _cmd("theorem1", "fme", "derive", "--target", "theorem1",
             "--out", "{out}/theorem1.json", output="theorem1.json")]
    cmds.append(_cmd("appendix_symbolic", "fme", "appendix", "--symbolic",
                     "--out", "{out}/appendix_symbolic.json",
                     output="appendix_symbolic.json"))
    return {}, cmds, ["--version"], ["appendix_symbolic"]


def _orderings(key, small):
    # The channels and pairs are one fixed draw; the seed picks the search
    # seeds.  Drawing channels per seed would make the cost vary with the
    # seed far more than with the code: one implication check takes
    # 0.15-1.6 s depending on the channel, but varies by about 10% with the
    # search seed on a fixed channel.
    pool = random.Random("orderings/channels")
    rng = random.Random(f"orderings/{key}")
    shapes = ((2, 2), (4, 2)) if small else ORDERING_SHAPES * ORDERING_REPS
    restarts = "2" if small else "32"
    files, cmds = {}, []
    for i, (nx, ny) in enumerate(shapes):
        name = f"ch{i:02d}.json"
        files[name] = random_channel(pool, nx, ny)
        a, b = pool.sample((1, 2, 3), 2)
        cmds.append(_cmd(
            f"ch{i:02d}", "orderings", "--channel", "{in}/" + name,
            "--pair", f"{a},{b}", "--predicate", "implication",
            "--restarts", restarts, "--seed", str(rng.randrange(2 ** 31)),
            "--out", f"{{out}}/ch{i:02d}.json", output=f"ch{i:02d}.json"))
    probe = ["orderings", "--channel", "{in}/ch00.json", "--pair", "1,3",
             "--predicate", "degraded", "--out", "{out}/probe.json"]
    return files, cmds, probe, [c["id"] for c in cmds]


def _codec(key, small):
    files = {
        "bec_mc.json": product_channel(_bec(1 / 3), _bec(1 / 2), _bec(2 / 3)),
        "bec_eq.json": product_channel(_bec(0.1), _bec(0.2), _bec(0.4)),
        "bsc_eq.json": product_channel(_bsc(1 / 3), _bsc(1 / 3), _bsc(1 / 3)),
        "uniform_aux.json": uniform_binary_aux(),
        "layered_aux.json": layered_aux(),
        "mc_cfg.json": {"n": 10, "r1e": 0.15, "q2": 0.3, "eps": 0.5,
                        "seed": key},
        "layered_cfg.json": {"n": 12, "r0": 0.1, "r1e": 0.1,
                             "r1p": 0.1, "r1dag": 0.1, "q2": 0.4, "q3": 0.3,
                             "p3": 0.1, "p3dag": 0.1, "p1e": 0.1, "p1p": 0.1,
                             "eps": 3.0, "seed": key},
        "bsc_cfg.json": {"n": 10 if small else 18, "r1e": 0.2, "r1p": 0.3,
                         "q2": 0.6, "eps": 0.5, "seed": key},
        "probe_cfg.json": {"n": 2, "eps": 1.0, "seed": 0},
    }
    trials = "100" if small else str(CODEC_TRIALS)
    cmds = [
        _cmd("sim_run", "sim", "run", "--channel", "{in}/bec_mc.json",
             "--aux", "{in}/uniform_aux.json", "--config", "{in}/mc_cfg.json",
             "--trials", trials, "--seed", str(key), "--threads", "1",
             "--out", "{out}/sim_run.json", output="sim_run.json"),
        _cmd("equiv_layered", "sim", "equivocation",
             "--channel", "{in}/bec_eq.json", "--aux", "{in}/layered_aux.json",
             "--config", "{in}/layered_cfg.json", "--seed", str(key),
             "--out", "{out}/equiv_layered.json",
             output="equiv_layered.json"),
        _cmd("equiv_wide", "sim", "equivocation",
             "--channel", "{in}/bsc_eq.json", "--aux", "{in}/uniform_aux.json",
             "--config", "{in}/bsc_cfg.json", "--seed", str(key),
             "--out", "{out}/equiv_wide.json", output="equiv_wide.json"),
    ]
    probe = ["sim", "equivocation", "--channel", "{in}/bec_mc.json",
             "--aux", "{in}/uniform_aux.json", "--config",
             "{in}/probe_cfg.json", "--seed", "0",
             "--out", "{out}/probe.json"]
    return files, cmds, probe, ["equiv_layered", "equiv_wide"]


_PLANNERS = {"frontier": _frontier, "fme": _fme, "orderings": _orderings,
             "codec": _codec}


def plan(workload: str, seed: int, small: bool = False) -> dict:
    """Inputs, commands, set-up probe and focus commands for one seed."""
    # the fme commands take no seed: every seed has the same inputs
    key = 0 if workload == "fme" else seed % KEYS
    files, cmds, probe, focus = _PLANNERS[workload](key, small)
    return {"key": "small" if small else str(key),
            "files": {name: json.dumps(obj) + "\n"
                      for name, obj in files.items()},
            "commands": cmds, "probe": probe, "focus": focus}


def write_inputs(p: dict, indir: str) -> dict[str, str]:
    """Write the plan's input files; return their SHA-256 digests."""
    os.makedirs(indir, exist_ok=True)
    digests = {}
    for name, text in p["files"].items():
        with open(os.path.join(indir, name), "w") as fh:
            fh.write(text)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def expand(argv: list[str], indir: str, outdir: str) -> list[str]:
    return [a.replace("{in}", indir).replace("{out}", outdir) for a in argv]


# --------------------------------------------------------------------------
# observing and checking outputs


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def observe(workload: str, cmd: dict, outdir: str) -> dict:
    """The part of a command's primary output that the check compares.

    Raises OSError, ValueError or KeyError when the output is missing or
    malformed.
    """
    path = os.path.join(outdir, cmd["output"])
    if workload == "frontier":
        return {"csv_sha256": _sha256(path),
                "aux_sha256": _sha256(path + ".aux.json")}
    if workload == "fme":
        return {"sha256": _sha256(path)}
    with open(path) as fh:
        d = json.load(fh)
    if workload == "orderings":
        return {"verdicts": [d[k]["verdict"] for k in
                             ("degraded", "less_noisy", "more_capable")],
                "consistent": d["consistent"]}
    if cmd["id"] == "sim_run":
        return {k: d[k] for k in ("trials", "pairing_failure_fraction",
                                  "pe_y1", "pe_y2", "pe_y3")}
    return {k: d[k] for k in ("h_w1", "h_w2", "h_w1_given_y3",
                              "h_w2_given_y3", "h_w12_given_y3")}


def _rates_agree(p1: float, p2: float, n: int) -> bool:
    """Two-proportion z test, |z| <= PE_Z, on error rates from n trials
    each."""
    pooled = (p1 + p2) / 2
    return abs(p1 - p2) <= PE_Z * math.sqrt(pooled * (1 - pooled) * 2 / n)


def agrees(workload: str, cmd: dict, got: dict, ref: dict) -> bool:
    """Does an observation match the seed-commit reference?

    frontier and fme: byte-identical primary outputs.  orderings: the
    verdict triple and chain consistency (gaps and witnesses may change).
    sim run: equal trial count and pairing fraction, error rates equal up
    to sampling noise (RNG consumption may change).  sim equivocation:
    every entropy within ENTROPY_TOL bits.
    """
    if workload in ("frontier", "fme", "orderings"):
        return got == ref
    if cmd["id"] == "sim_run":
        n = got["trials"]
        return (n == ref["trials"]
                and got["pairing_failure_fraction"]
                == ref["pairing_failure_fraction"]
                and all(_rates_agree(got[k], ref[k], n)
                        for k in ("pe_y1", "pe_y2", "pe_y3")))
    return got.keys() == ref.keys() and all(
        abs(got[k] - ref[k]) <= ENTROPY_TOL for k in ref)


def ref_path(workload: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs",
                        f"{workload}.json")
