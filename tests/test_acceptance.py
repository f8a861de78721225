"""Acceptance gate: ten checks, one printed pass/fail line each."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from bcsl.channel_core import conditional_mi, induced_joint
from bcsl.codec_sim import (CodeConfig, build_codebook, exact_equivocation,
                            secrecy_gap_study, simulate)
from bcsl.fme import appendix_reduction, derive_inner_bound, derive_type1_bound
from bcsl.orderings import implication_check, is_less_noisy
from bcsl.regions import BoundId, FactorBlocks, eval_bound, eval_cor3_match
from bcsl.errors import ValidationError

from conftest import (bsc, cascade_channel, identical_y1_y3_channel,
                      noiseless_identical_channel, product_channel,
                      random_channel, uniform_binary_input_aux)
from test_channel_core import brute_conditional_mi, random_joint
from test_equivocation import two_word_codebook


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def bec(a: float) -> np.ndarray:
    return np.array([[1 - a, 0, a], [0, 1 - a, a]])


def test_criterion_01_inner_derivation_two_way():
    t0 = time.monotonic()
    _, rep = derive_inner_bound()
    dt = time.monotonic() - t0
    ok = (rep.equivalent and not rep.forward.errors
          and not rep.backward.errors and dt < 60)
    _report(1, ok, f"two-way certified={rep.equivalent}, "
            f"errors={len(rep.forward.errors) + len(rep.backward.errors)}, "
            f"{dt:.1f}s")


def test_criterion_02_single_secret_derivation_two_way():
    t0 = time.monotonic()
    _, rep = derive_type1_bound()
    dt = time.monotonic() - t0
    ok = (rep.equivalent and not rep.forward.errors
          and not rep.backward.errors and dt < 60)
    _report(2, ok, f"two-way certified={rep.equivalent}, "
            f"errors={len(rep.forward.errors) + len(rep.backward.errors)}, "
            f"{dt:.1f}s")


def test_criterion_03_collapsed_layer_reduction():
    t0 = time.monotonic()
    rep = appendix_reduction()
    dt = time.monotonic() - t0
    ok = rep.equivalent and dt < 30
    _report(3, ok, f"exact equivalence={rep.equivalent}, {dt:.1f}s")


def test_criterion_04_no_secrecy_when_y1_equals_y3():
    rng = np.random.default_rng(4)
    worst = -np.inf
    for _ in range(20):
        ch = identical_y1_y3_channel(rng)
        aux = FactorBlocks.random(rng, 2, 3, 3, 2).to_aux()
        pol = eval_bound(BoundId.INNER_3DM, ch, aux)
        r1e_cap = min(pol.row("r1e_via_y2").rhs, pol.row("r1e_via_y1").rhs)
        worst = max(worst, r1e_cap, abs(pol.row("r2e_cap").rhs),
                    abs(pol.row("joint_secrecy").rhs))
    ok = worst <= 1e-9
    _report(4, ok, f"20 channels, worst secrecy ceiling {worst:.2e}")


def test_criterion_05_single_aux_collapse():
    ch = cascade_channel(0.1, 0.08, 0.08)
    reports = [is_less_noisy(ch, 1, 3, seed=0),
               is_less_noisy(ch, 2, 3, seed=0)]
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        pux = rng.dirichlet(np.ones(4)).reshape(2, 2)
        rep = eval_cor3_match(ch, pux, ordering_reports=reports)
        worst = max(worst, max(abs(r.inner_rhs - r.region_rhs)
                               for r in rep.rows),
                    max(abs(r.outer_rhs - r.region_rhs) for r in rep.rows))
        if not rep.matched:
            break
    ok = rep.matched and worst <= 1e-9
    _report(5, ok, f"50 auxiliaries, max per-row residual {worst:.2e}")


def test_criterion_06_mi_engine_oracles():
    rng = np.random.default_rng(6)
    worst = 0.0
    from bcsl.channel_core import mutual_information
    for _ in range(1000):
        j = random_joint(rng, (2, 2, 2), ("A", "B", "C"))
        got = conditional_mi(j, ["A"], ["B"], ["C"])
        worst = max(
            worst,
            abs(got - brute_conditional_mi(j, ["A"], ["B"], ["C"])),
            abs(got - conditional_mi(j, ["B"], ["A"], ["C"])),
            abs(mutual_information(j, ["A"], ["B", "C"])
                - mutual_information(j, ["A"], ["B"])
                - conditional_mi(j, ["A"], ["C"], ["B"])),
            -min(0.0, got))
    ok = worst <= 1e-10
    _report(6, ok, f"1000 joints, worst deviation {worst:.2e}")


def test_criterion_07_ordering_implication_chain():
    rng = np.random.default_rng(7)
    violations = []
    for k in range(100):
        nx = int(rng.integers(2, 4))
        ny = int(rng.integers(2, 4))
        ch = random_channel(rng, nx, ny, ny, ny)
        a, b = rng.choice([1, 2, 3], size=2, replace=False)
        rep = implication_check(ch, int(a), int(b), restarts=8, seed=k)
        if not rep.consistent:
            violations.append((k, rep.violations))
    ok = not violations
    _report(7, ok, f"100 channels, {len(violations)} implication violations")


def test_criterion_08_error_decay_trend():
    t0 = time.monotonic()
    ch = product_channel(bec(1 / 3), bec(1 / 2), bec(2 / 3))
    aux = uniform_binary_input_aux()
    # the operating point (R0,R1,R1e,R2,R2e) = (0, .15, .15, 0, 0) must sit
    # strictly inside the evaluated inner region
    pol = eval_bound(BoundId.INNER_3DM, ch, aux)
    point = {"R0": 0.0, "R1": 0.15, "R1e": 0.15, "R2": 0.0, "R2e": 0.0}
    def margin(row):
        return row.rhs - sum(c * point[s] for s, c in row.coeffs)

    # capacity rows (all-positive coefficients) must hold strictly; the
    # structural rows R1e <= R1 and R2e <= R2 may bind
    inside = all(
        margin(row) > 1e-6 if all(c > 0 for _, c in row.coeffs)
        else margin(row) >= 0
        for row in pol.rows
        if any(point[s] * c > 0 for s, c in row.coeffs))
    rates = {}
    for n in (6, 10):
        pe = []
        for seed in (0, 1):
            cfg = CodeConfig(n=n, r1e=0.15, q2=0.3, eps=0.5, seed=seed)
            pe.append(simulate(cfg, aux, ch, trials=10_000, seed=seed).rate(1))
        rates[n] = sum(pe) / len(pe)
    noiseless = simulate(CodeConfig(n=2, r1e=0.5, q2=0.5, eps=1.0, seed=0),
                         aux, noiseless_identical_channel(2),
                         trials=2000, seed=0)
    dt = time.monotonic() - t0
    ok = (inside and rates[10] < rates[6] and noiseless.rate(1) == 0.0
          and dt < 300)
    _report(8, ok, f"inside={inside}, Pe(Y1) n=6: {rates[6]:.3f} -> "
            f"n=10: {rates[10]:.3f}, noiseless Pe={noiseless.rate(1)}, "
            f"{dt:.0f}s")


def test_criterion_09_equivocation_oracle_and_binning():
    aux = uniform_binary_input_aux()
    # three closed-form cases
    ch = product_channel(bsc(0.1), bsc(0.1), bsc(0.1))
    single = exact_equivocation(
        build_codebook(CodeConfig(n=2, eps=1.0), aux, ch))
    cb = two_word_codebook(aux, 0.2)
    cb.x[0, 1, 0, 0, 0, 0, 0] = cb.x[0, 0, 0, 0, 0, 0, 0]
    identical = exact_equivocation(cb)
    wiretap = exact_equivocation(two_word_codebook(aux, 0.0))
    trivial_ok = (abs(single.h_w1_given_y3) <= 1e-12
                  and abs(identical.h_w1_given_y3 - 1.0) <= 1e-12
                  and abs(wiretap.h_w1_given_y3) <= 1e-12)
    # paired comparison: randomization rate 0 vs the wiretapper's satellite
    # capacity; raising it must weakly raise H(W1|Y3^n)/n per seed
    ch3 = product_channel(bsc(1 / 3), bsc(1 / 3), bsc(1 / 3))
    r1p_full = conditional_mi(induced_joint(ch3, aux),
                              ("U2",), ("Y3",), ("U1",))
    seeds = list(range(20))
    lo = secrecy_gap_study(
        [CodeConfig(n=8, r1e=0.2, r1p=0.0, q2=0.6, eps=0.5)],
        aux, ch3, seeds)
    hi = secrecy_gap_study(
        [CodeConfig(n=8, r1e=0.2, r1p=r1p_full, q2=0.6, eps=0.5)],
        aux, ch3, seeds)
    wins = sum(h["h_w1_per_use"] >= l["h_w1_per_use"] - 1e-12
               for l, h in zip(lo, hi))
    ok = trivial_ok and wins >= 18
    _report(9, ok, f"closed-form cases ok={trivial_ok}, "
            f"monotone on {wins}/20 seeds")


def test_criterion_10_byte_identical_reruns(tmp_path):
    ch = product_channel(bec(1 / 3), bec(1 / 2), bec(2 / 3))
    aux = uniform_binary_input_aux()
    chf, auxf, cfgf = (tmp_path / "ch.json", tmp_path / "aux.json",
                       tmp_path / "cfg.json")
    chf.write_text(json.dumps(ch.to_dict()))
    auxf.write_text(json.dumps(aux.to_dict()))
    cfgf.write_text(json.dumps(
        CodeConfig(n=6, r1e=0.15, q2=0.3, eps=0.5, seed=0).to_dict()))
    outputs = []
    for run, threads in (("a", "1"), ("b", "8"), ("c", "1")):
        out = tmp_path / f"sim_{run}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "bcsl.cli", "sim", "run",
             "--channel", str(chf), "--aux", str(auxf),
             "--config", str(cfgf), "--trials", "300", "--seed", "17",
             "--threads", threads, "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(10, ok, "sim run byte-identical across reruns and "
            "--threads {1,8}" if ok else "outputs differ")
