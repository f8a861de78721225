"""Command-line contract: exit codes, diagnostics, manifests, determinism."""

import hashlib
import json
import resource
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bcsl import cli, codec_sim
from bcsl.cli import dispatch, parse_channel
from bcsl.errors import ValidationError
from bcsl.regions import SearchEffort

from conftest import bsc, cascade_channel, product_channel, random_channel


@pytest.fixture()
def ch_file(tmp_path):
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(cascade_channel(0.1, 0.08, 0.08).to_dict()))
    return str(path)


@pytest.fixture()
def aux_file(tmp_path):
    p = np.zeros((1, 2, 1, 2))
    p[0, 0, 0, 0] = 0.5
    p[0, 1, 0, 1] = 0.5
    path = tmp_path / "aux.json"
    path.write_text(json.dumps({"m1": 1, "m2": 2, "m3": 1, "nx": 2,
                                "p": p.tolist()}))
    return str(path)


@pytest.fixture()
def code_file(tmp_path):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"n": 6, "r1e": 0.1, "q2": 0.2, "eps": 0.5,
                                "seed": 0}))
    return str(path)


class TestExitCodes:
    def test_usage_error_no_args(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()

    def test_usage_error_missing_seed(self, ch_file, capsys):
        rc = dispatch(["orderings", "--channel", ch_file, "--pair", "1,3",
                       "--predicate", "less_noisy"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err.lower()

    def test_domain_error_bad_channel(self, tmp_path, capsys):
        bad = cascade_channel(0.1, 0.1, 0.1).to_dict()
        bad["p"][0][0][0][0] -= 0.02   # row x=0 now sums to 0.98
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        rc = dispatch(["orderings", "--channel", str(path), "--pair", "1,3",
                       "--predicate", "degraded"])
        assert rc == 1
        assert "x=0" in capsys.readouterr().err

    def test_missing_file_is_domain_error(self, capsys):
        rc = dispatch(["orderings", "--channel", "/nonexistent.json",
                       "--pair", "1,3", "--predicate", "degraded"])
        assert rc == 1
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--out", "--aux-out"])
    def test_output_in_missing_directory_is_domain_error(
            self, flag, ch_file, tmp_path, capsys):
        paths = {"--out": str(tmp_path / "f.csv"),
                 "--aux-out": str(tmp_path / "aux.json")}
        paths[flag] = str(tmp_path / "missing" / "x")
        rc = dispatch(["regions", "frontier", "--bound", "inner3dm",
                       "--channel", ch_file, "--weights", "1,1,1,1,1",
                       "--seed", "0", "--restarts", "1", "--iters", "0",
                       "--out", paths["--out"],
                       "--aux-out", paths["--aux-out"]])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: output file ") and "missing" in err

    @pytest.mark.parametrize("with_out", [True, False])
    def test_failed_frontier_write_leaves_no_output(
            self, with_out, ch_file, tmp_path, capsys):
        outdir = tmp_path / "outs"
        outdir.mkdir()
        argv = ["regions", "frontier", "--bound", "inner3dm",
                "--channel", ch_file, "--weights", "1,1,1,1,1",
                "--seed", "0", "--restarts", "1", "--iters", "0",
                "--aux-out", str(tmp_path / "missing" / "aux.json")]
        if with_out:
            argv += ["--out", str(outdir / "f.csv")]
        rc = dispatch(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: output file ")
        assert captured.out == ""
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_is_usage_error(self, trials, ch_file,
                                               aux_file, code_file, capsys):
        rc = dispatch(["sim", "run", "--channel", ch_file, "--aux", aux_file,
                       "--config", code_file, "--trials", trials,
                       "--seed", "0"])
        assert rc == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("field,message", [
        ("seed", "seed must be a nonnegative integer"),
        ("r1e", "rate r1e must be a finite nonnegative number"),
        ("n", "blocklength must be an integer >= 1")])
    def test_boolean_config_field_is_domain_error(self, field, message,
                                                  ch_file, aux_file,
                                                  tmp_path, capsys):
        # JSON true would otherwise run as 1: seed 1, rate 1.0 or n = 1
        config = tmp_path / "bool.json"
        config.write_text(json.dumps({"n": 6, "r1e": 0.1, "q2": 0.2,
                                      "eps": 0.5, field: True}))
        rc = dispatch(["sim", "run", "--channel", ch_file, "--aux", aux_file,
                       "--config", str(config), "--trials", "5",
                       "--seed", "0"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("predicate",
                             ["less_noisy", "more_capable", "implication"])
    def test_negative_ordering_restarts_is_usage_error(self, predicate,
                                                       ch_file, capsys):
        rc = dispatch(["orderings", "--channel", ch_file, "--pair", "1,3",
                       "--predicate", predicate, "--restarts", "-2",
                       "--seed", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "restarts" in captured.err and captured.out == ""

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_frontier_without_restarts_is_usage_error(self, restarts,
                                                      ch_file, capsys):
        rc = dispatch(["regions", "frontier", "--channel", ch_file,
                       "--bound", "inner3dm", "--weights", "1,1,1,1,1",
                       "--restarts", restarts, "--iters", "1",
                       "--seed", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "restarts" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag,value", [
        ("--m1", "-1"), ("--m1", "0"), ("--m2", "0"), ("--m3", "0"),
        ("--iters", "-5")])
    def test_bad_frontier_search_size_is_usage_error(self, flag, value,
                                                     ch_file, capsys):
        rc = dispatch(["regions", "frontier", "--channel", ch_file,
                       "--bound", "inner3dm", "--weights", "1,1,1,1,1",
                       "--restarts", "1", "--iters", "1", flag, value,
                       "--seed", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert flag[2:] in captured.err and captured.out == ""

    def test_frontier_refuses_oversized_auxiliary(self, ch_file):
        # 3 * 10^5 * 10^5 * 16 cells of the induced joint, far above the
        # cap; the address-space limit keeps a regression from taking the
        # host's memory, and the refusal comes before any search
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "bcsl.cli", "regions", "frontier",
             "--channel", ch_file, "--bound", "inner3dm",
             "--weights", "1,1,1,1,1", "--restarts", "1", "--iters", "1",
             "--m2", "100000", "--m3", "100000", "--seed", "0"],
            capture_output=True, text=True, timeout=120, preexec_fn=limit)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1 and "cap" in proc.stderr
        assert time.monotonic() - t0 < 60

    @pytest.mark.parametrize("weight,rc,message", [
        ("nan", 2, "usage error: weights must be 5 finite"),
        ("inf", 2, "usage error: weights must be 5 finite"),
        # HiGHS reads a cost of 1e20 or more as infinite and finds no optimum
        ("1e20", 1, "error: HiGHS found no optimum")])
    def test_frontier_weight_out_of_range(self, weight, rc, message,
                                          ch_file, capsys):
        got = dispatch(["regions", "frontier", "--channel", ch_file,
                        "--bound", "inner3dm",
                        "--weights", f"1,1,1,1,{weight}",
                        "--restarts", "1", "--iters", "1", "--seed", "0"])
        captured = capsys.readouterr()
        assert got == rc
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("command", ["equivocation", "study"])
    def test_enumeration_cap_fails_before_codebook(self, command, tmp_path,
                                                   monkeypatch, capsys):
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps(product_channel(
            bsc(1 / 3), bsc(1 / 3), bsc(1 / 3)).to_dict()))
        aux = tmp_path / "aux.json"
        aux.write_text(json.dumps(_valid_inputs()["aux"]))
        cfg = {"n": 30, "r1e": 0.3, "r1p": 0.25, "q2": 0.6, "eps": 0.5}
        code = tmp_path / "code.json"
        code.write_text(json.dumps(cfg if command == "equivocation"
                                   else [cfg]))

        def no_build(*args, **kwargs):
            raise AssertionError("codebook built before the cap check")

        monkeypatch.setattr(cli, "build_codebook", no_build)
        monkeypatch.setattr(codec_sim, "build_codebook", no_build)
        tail = (["--config", str(code), "--seed", "0"]
                if command == "equivocation"
                else ["--grid", str(code), "--seeds", "0"])
        rc = dispatch(["sim", command, "--channel", str(ch), "--aux",
                       str(aux)] + tail)
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: |Y3|^n = 1073741824 exceeds the enumeration cap 1048576;"
            " use a smaller blocklength\n")

    def test_success(self, ch_file, capsys):
        rc = dispatch(["orderings", "--channel", ch_file, "--pair", "1,3",
                       "--predicate", "degraded"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["verdict"] == "true"


def test_cached_parser_gives_the_outputs_of_a_fresh_one(ch_file, tmp_path,
                                                       capsys):
    # the parser is built once per process and reused by every command:
    # each command prints and writes the same bytes as on a new parser
    commands = [
        ["orderings", "--pair", "1,3"],
        ["--version"],
        ["orderings", "--channel", ch_file, "--pair", "3,1", "--predicate",
         "implication", "--restarts", "2", "--seed", "0", "--out",
         "{out}/ord.json"],
        ["fme", "appendix", "--out", "{out}/appendix.json"],
    ]

    def run(argv, out):
        out.mkdir()
        rc = dispatch([a.replace("{out}", str(out)) for a in argv])
        std = capsys.readouterr()
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())
                 if not f.name.endswith(".manifest.json")}
        return rc, std.out, std.err, files

    cached = [run(argv, tmp_path / f"cached{k}")
              for k, argv in enumerate(commands)]
    assert cli.build_parser() is cli.build_parser()
    assert [r[0] for r in cached] == [2, 0, 0, 0]
    assert cached[1][1] and cached[2][3] and cached[3][3]
    for k, argv in enumerate(commands):
        cli.build_parser.cache_clear()
        assert run(argv, tmp_path / f"fresh{k}") == cached[k]


def test_manifest_is_encoded_straight_to_its_file(ch_file, tmp_path,
                                                  monkeypatch, capsys):
    # a frontier manifest with 20 000 restart scores: `json.dumps` would
    # list every chunk of its text before joining them, and `_json_dump`
    # hands each chunk to the file as it comes, with the same bytes
    peaks = {}
    dump = cli._json_dump

    def traced(obj, fh):
        tracemalloc.start()
        try:
            dump(obj, fh)
        finally:
            peaks[fh.name] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_json_dump", traced)
    out = tmp_path / "f.csv"
    rc = dispatch(["regions", "frontier", "--bound", "outer_nosecrecy",
                   "--override", "--channel", ch_file, "--weights",
                   "1,1,1,1,1", "--seed", "0", "--restarts", "20000",
                   "--iters", "0", "--m1", "1", "--m2", "2", "--m3", "2",
                   "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    path = str(out) + ".manifest.json"
    with open(path) as fh:
        text = fh.read()
    manifest = json.loads(text)
    assert len(manifest["extras"]["search"]["restart_scores"]) == 20_000
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    tracemalloc.start()
    try:
        json.dumps(manifest, indent=2, sort_keys=True)
        joined = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peaks[path] < joined / 10, (peaks[path], joined)


def test_manifest_dict_copies_no_restart_scores():
    # the manifest of a 20 000-restart frontier (--iters 0): its fields
    # are JSON-ready, so `to_dict` hands them over without the deep copy
    # `asdict` makes, and the encoded bytes are the same
    effort = SearchEffort(evaluations=20_000, infeasible=0,
                          infeasible_restarts=0, dual_vertices=48,
                          winning_restart=7,
                          restart_scores=tuple((True, 0.1 + i * 1e-6)
                                               for i in range(20_000)),
                          block_restarts=158)
    manifest = cli.RunManifest(command="regions frontier", parameters={},
                               input_digests={}, seed=0)
    manifest.extras["search"] = asdict(effort)
    peaks = []
    for to_dict in (asdict, cli.RunManifest.to_dict):
        tracemalloc.start()
        try:
            d = to_dict(manifest)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert json.dumps(d, indent=2, sort_keys=True) == json.dumps(
            asdict(manifest), indent=2, sort_keys=True)
    assert peaks[1] < peaks[0] / 100, peaks


class TestChannelParsing:
    def test_key_order_irrelevant(self, tmp_path):
        d = cascade_channel(0.1, 0.1, 0.1).to_dict()
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(d))
        b.write_text(json.dumps({k: d[k] for k in reversed(list(d))}))
        ca, cb = parse_channel(str(a)), parse_channel(str(b))
        assert np.array_equal(ca.p, cb.p)

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError):
            parse_channel(str(bad))


class TestOutputsRoundTrip:
    def test_regions_eval_manifest(self, ch_file, aux_file, tmp_path,
                                   capsys):
        out = tmp_path / "pol.json"
        rc = dispatch(["regions", "eval", "--bound", "inner3dm",
                       "--channel", ch_file, "--aux", aux_file,
                       "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["bound"] == "inner3dm"
        manifest = json.loads((tmp_path / "pol.json.manifest.json")
                              .read_text())
        assert manifest["command"] == "regions eval"
        assert ch_file in manifest["input_digests"]

    def test_frontier_manifest_reports_search_effort(self, ch_file,
                                                     tmp_path, capsys):
        rand = tmp_path / "rand.json"
        rand.write_text(json.dumps(random_channel(
            np.random.default_rng(7), 2, 2, 3, 2).to_dict()))
        cases = [
            # every auxiliary scored here is feasible
            (["--bound", "inner3dm", "--channel", ch_file,
              "--weights", "1,1,1,1,1"], 4,
             {"infeasible": 0, "infeasible_restarts": 0,
              "dual_vertices": 48, "winning_restart": 0}),
            # the first of six random channels on which every start of the
            # region_type2 search is infeasible: two restarts climb to a
            # nonempty polytope within 30 steps, one does not
            (["--bound", "region_type2", "--override", "--channel",
              str(rand), "--weights", "1,1,1,0,0"], 30,
             {"infeasible": 82, "infeasible_restarts": 1,
              "dual_vertices": 2, "winning_restart": 0})]
        out = tmp_path / "f.csv"
        for argv, iters, want in cases:
            rc = dispatch(["regions", "frontier", *argv, "--seed", "0",
                           "--restarts", "3", "--iters", str(iters),
                           "--out", str(out)])
            assert rc == 0
            capsys.readouterr()
            manifest = json.loads(
                (tmp_path / "f.csv.manifest.json").read_text())
            search = manifest["extras"]["search"]
            scores = search.pop("restart_scores")
            # every restart scores its start and one candidate per step;
            # the three restarts fit one lockstep block
            assert search == {"evaluations": 3 * (iters + 1),
                              "block_restarts": 3, **want}
            # one final (feasible, value) per restart, in restart order; the
            # reported restart is the first holding the best feasible value
            assert len(scores) == 3
            values = [v for ok, v in scores if ok]
            assert len(values) == 3 - search["infeasible_restarts"]
            assert search["winning_restart"] == min(
                r for r, (ok, v) in enumerate(scores)
                if ok and v == max(values))
        # the effort stays out of the primary output and the sidecar
        assert out.read_text().splitlines()[0] == (
            "w_r0,w_r1,w_r1e,w_r2,w_r2e,R0,R1,R1e,R2,R2e,value")
        assert set(json.loads((tmp_path / "f.csv.aux.json").read_text())) == {
            "m1", "m2", "m3", "nx", "p"}

    def test_frontier_value_is_weights_dot_printed_rates(self, tmp_path,
                                                         capsys):
        # HiGHS's optimum on this channel has a rate a hair below zero,
        # which the printed rates clamp to 0
        rand = tmp_path / "rand.json"
        rand.write_text(json.dumps(random_channel(
            np.random.default_rng(7), 2, 2, 3, 2).to_dict()))
        out = tmp_path / "f.csv"
        rc = dispatch(["regions", "frontier", "--bound", "region_type2",
                       "--override", "--channel", str(rand), "--weights",
                       "1,1,1,0,0", "--seed", "0", "--restarts", "3",
                       "--iters", "30", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        row = [float(v) for v in out.read_text().splitlines()[1].split(",")]
        assert row[10] == np.asarray(row[:5]) @ np.asarray(row[5:10])

    def test_equivocation_manifest_reports_enumeration(
            self, ch_file, aux_file, code_file, tmp_path, capsys):
        out = tmp_path / "eq.json"
        rc = dispatch(["sim", "equivocation", "--channel", ch_file, "--aux",
                       aux_file, "--config", code_file, "--seed", "0",
                       "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "eq.json.manifest.json")
                              .read_text())
        # n = 6 over a binary Y3, two (w1, w2) groups of one codeword
        assert manifest["extras"]["enumeration"] == {
            "cells": 2 * 64, "row_blocks": 1, "codeword_chunks": 1,
            "block_bytes": 8 * 2 * 64}
        assert set(json.loads(out.read_text())) == {
            "n", "h_w1", "h_w2", "h_w1_given_y3", "h_w2_given_y3",
            "h_w12_given_y3", "per_use"}

    def test_ordering_report_feeds_outer_eval(self, ch_file, aux_file,
                                              tmp_path, capsys):
        rep = tmp_path / "mc.json"
        assert dispatch(["orderings", "--channel", ch_file, "--pair", "1,3",
                         "--predicate", "more_capable", "--seed", "0",
                         "--out", str(rep)]) == 0
        capsys.readouterr()
        rc = dispatch(["regions", "eval", "--bound", "outer3dm",
                       "--channel", ch_file, "--aux", aux_file,
                       "--ordering-report", str(rep)])
        assert rc == 0
        capsys.readouterr()

    def test_report_from_another_channel_rejected(self, ch_file, aux_file,
                                                  tmp_path, capsys):
        # a more-capable report on the cascade channel says nothing about a
        # channel where Y1 is pure noise and Y3 = X
        rep = tmp_path / "mc.json"
        assert dispatch(["orderings", "--channel", ch_file, "--pair", "1,3",
                         "--predicate", "more_capable", "--seed", "0",
                         "--out", str(rep)]) == 0
        capsys.readouterr()
        t = np.einsum("i,xj,xk->xijk", [0.5, 0.5], bsc(0.1), np.eye(2))
        other = tmp_path / "other.json"
        other.write_text(json.dumps(
            {"nx": 2, "ny1": 2, "ny2": 2, "ny3": 2, "p": t.tolist()}))
        rc = dispatch(["regions", "eval", "--bound", "outer3dm",
                       "--channel", str(other), "--aux", aux_file,
                       "--ordering-report", str(rep)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "computed on channel" in err

    def test_report_without_channel_digest_rejected(self, ch_file, aux_file,
                                                    tmp_path, capsys):
        rep = tmp_path / "mc.json"
        rep.write_text(json.dumps({k: v for k, v in _VALID_REPORT.items()
                                   if k != "channel_sha256"}))
        rc = dispatch(["regions", "eval", "--bound", "outer3dm",
                       "--channel", ch_file, "--aux", aux_file,
                       "--ordering-report", str(rep)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "channel_sha256" in err

    def test_outer_without_report_fails(self, ch_file, aux_file, capsys):
        rc = dispatch(["regions", "eval", "--bound", "outer3dm",
                       "--channel", ch_file, "--aux", aux_file])
        assert rc == 1
        assert "more capable" in capsys.readouterr().err


class TestDeterminism:
    def test_frontier_byte_identical(self, ch_file, tmp_path, capsys):
        outs = []
        for name in ("f1.csv", "f2.csv"):
            out = tmp_path / name
            rc = dispatch(["regions", "frontier", "--bound", "inner3dm",
                           "--channel", ch_file, "--weights", "1,0,0,0,0",
                           "--seed", "3", "--restarts", "2", "--iters", "5",
                           "--out", str(out)])
            assert rc == 0
            capsys.readouterr()
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_sim_run_thread_invariant_subprocess(self, ch_file, aux_file,
                                                 code_file, tmp_path):
        outs = []
        for name, threads in (("s1.json", "1"), ("s8.json", "8")):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "bcsl.cli", "sim", "run",
                 "--channel", ch_file, "--aux", aux_file,
                 "--config", code_file, "--trials", "100", "--seed", "5",
                 "--threads", threads, "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
            # how the trials ran goes to the manifest only: n = 6 over the
            # 8 outputs (y1, y2, y3) gives 48 channel comparisons a trial
            manifest = json.loads(
                (tmp_path / (name + ".manifest.json")).read_text())
            assert manifest["extras"]["simulation"] == {
                "trials": 100, "trials_per_block": 2 ** 17 // 48,
                "blocks": 1, "encode_failures": 0}
        assert outs[0] == outs[1]
        # the report of the trial-at-a-time simulator that trial blocks
        # replaced
        assert hashlib.sha256(outs[0]).hexdigest() == (
            "7b9d4548650b81b368e0fa6d562b4ad0e30e7391d3a8bfe918eb986b1adb73a6")


# --------------------------------------------------------------------------
# malformed input files never escape the exit-code contract

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)

_VALID_REPORT = {"predicate": "more_capable", "pair": [1, 3],
                 "verdict": "false", "gap_bits": 0.5, "witness": None,
                 "restarts": 0, "grid_resolution": 0, "note": "",
                 "channel_sha256": cascade_channel(0.1, 0.08, 0.08).sha256}


@st.composite
def _malformed(draw, valid: dict) -> str:
    """Raw text, or the valid object with one key dropped or its value
    replaced by an arbitrary JSON value."""
    how = draw(st.sampled_from(["text", "drop", "replace"]))
    if how == "text":
        return draw(st.text(max_size=30))
    d = dict(valid)
    key = draw(st.sampled_from(sorted(d)))
    if how == "drop":
        del d[key]
    else:
        d[key] = draw(_JSON_VALUES)
    return json.dumps(d)


def _valid_inputs() -> dict[str, dict]:
    aux = np.zeros((1, 2, 1, 2))
    aux[0, 0, 0, 0] = aux[0, 1, 0, 1] = 0.5
    return {
        "channel": cascade_channel(0.1, 0.08, 0.08).to_dict(),
        "aux": {"m1": 1, "m2": 2, "m3": 1, "nx": 2, "p": aux.tolist()},
        "config": {"n": 6, "r1e": 0.1, "q2": 0.2, "eps": 0.5, "seed": 0},
        "report": _VALID_REPORT,
    }


# one cheap command per input kind; {bad} is the fuzzed file
_FUZZ_COMMANDS = {
    "channel": ["orderings", "--channel", "{bad}", "--pair", "1,3",
                "--predicate", "degraded"],
    "aux": ["regions", "eval", "--bound", "inner3dm", "--channel",
            "{channel}", "--aux", "{bad}"],
    "config": ["sim", "equivocation", "--channel", "{channel}", "--aux",
               "{aux}", "--config", "{bad}", "--seed", "0"],
    "report": ["regions", "eval", "--bound", "outer3dm", "--channel",
               "{channel}", "--aux", "{aux}", "--ordering-report", "{bad}"],
}


@pytest.mark.parametrize("kind", sorted(_FUZZ_COMMANDS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_input_files_keep_exit_contract(kind, data, tmp_path,
                                                  capsys):
    valid = _valid_inputs()
    paths = {}
    for name, obj in valid.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(obj, fh)
    paths["bad"] = str(tmp_path / "bad.json")
    with open(paths["bad"], "w", encoding="utf-8") as fh:
        fh.write(data.draw(_malformed(valid[kind])))
    rc = dispatch([a.format(**paths) for a in _FUZZ_COMMANDS[kind]]
                  + ["--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    if rc:
        assert err.startswith(("error: ", "usage error: ")), err
