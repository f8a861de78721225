"""Command-line front end.

Subcommands: orderings, regions eval, regions frontier, fme derive,
fme appendix, sim run, sim equivocation, sim study.

Contract: exit 0 on success, 1 on domain errors (violated preconditions,
infeasible configurations, bad input data), 2 on usage errors.  Primary
outputs are JSON/CSV; a RunManifest (resolved parameters, input digests,
seed, version, timestamps) accompanies every run.  All randomness flows
from an explicit --seed; stochastic commands refuse to run without one.
Volatile quantities (timestamps, wall-clock) live only in the manifest so
primary outputs are byte-identical across reruns and thread counts.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .channel_core import Channel3
from .errors import BcslError, UsageError, ValidationError
from .fme import (appendix_reduction, derive_inner_bound, derive_type1_bound)
from .orderings import (OrderingReport, implication_check, is_degraded,
                        is_less_noisy, is_more_capable)
from .regions import (AuxJoint, BoundId, SearchConfig, eval_bound,
                      max_weighted_rate)
from .codec_sim import (CodeConfig, build_codebook, exact_equivocation,
                        secrecy_gap_study, simulate)


# --------------------------------------------------------------------------
# manifest and IO helpers


@dataclass
class RunManifest:
    command: str
    parameters: dict
    input_digests: dict[str, str]
    seed: int | None
    version: str = __version__
    started: str = ""
    finished: str = ""
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load(path: str, what: str, build):
    """Build an object from a JSON input file.  An unreadable file,
    malformed JSON, or a missing or mistyped field is a domain error."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as e:
        raise ValidationError(f"{what} file {path}: {e.strerror}") from e
    except ValueError as e:     # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"{path}: malformed JSON ({e})") from e
    try:
        return build(d)
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(
            f"{path}: malformed {what} ({type(e).__name__}: {e})") from e


def parse_channel(path: str) -> Channel3:
    """Load and validate a channel JSON file with a precise diagnostic."""
    return _load(path, "channel", Channel3.from_dict)


def parse_aux(path: str) -> AuxJoint:
    return _load(path, "aux", AuxJoint.from_dict)


def _report_from_dict(d: dict) -> OrderingReport:
    verdicts = {"true": True, "false": False, "indeterminate": None}
    digest = d["channel_sha256"]
    if not isinstance(digest, str):
        raise TypeError("channel_sha256 must be a string")
    return OrderingReport(
        predicate=d["predicate"], pair=tuple(int(v) for v in d["pair"]),
        verdict=verdicts[d["verdict"]], gap=float(d["gap_bits"]),
        witness=np.asarray(d["witness"]) if d.get("witness") is not None
        else None,
        channel_sha256=digest,
        restarts=d.get("restarts", 0),
        grid_resolution=d.get("grid_resolution", 0),
        note=d.get("note", ""))


def load_ordering_report(path: str) -> OrderingReport:
    return _load(path, "ordering report", _report_from_dict)


def _json_dump(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Emitter:
    """Writes the primary output (stdout or --out) plus the manifest."""

    def __init__(self, args, command: str, inputs: list[str]):
        self.out = getattr(args, "out", None)
        self.written: list[str] = []
        self.manifest = RunManifest(
            command=command,
            parameters={k: v for k, v in vars(args).items()
                        if k not in ("func",) and v is not None},
            input_digests={p: _digest(p) for p in inputs
                           if p and os.path.exists(p)},
            seed=getattr(args, "seed", None),
            started=_now())

    def write(self, path: str, text: str) -> None:
        """Write one output file.  An unwritable path is a domain error,
        and every file this run has opened is removed with it."""
        try:
            with open(path, "w") as fh:
                self.written.append(path)
                fh.write(text)
        except OSError as e:
            for p in self.written:
                with contextlib.suppress(OSError):
                    os.remove(p)
            raise ValidationError(f"output file {path}: {e.strerror}") from e

    def _to_out(self, text: str) -> bool:
        """Write the primary output to --out and the manifest beside it;
        False when there is no --out."""
        self.manifest.finished = _now()
        if not self.out:
            return False
        self.write(self.out, text)
        self.write(self.out + ".manifest.json",
                   _json_dump(self.manifest.to_dict()))
        return True

    def emit_json(self, payload: dict) -> None:
        if not self._to_out(_json_dump(payload)):
            print(_json_dump({"result": payload,
                              "manifest": self.manifest.to_dict()}), end="")

    def emit_csv(self, header: list[str], rows: list[list]) -> None:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        if not self._to_out(buf.getvalue()):
            sys.stdout.write(buf.getvalue())
            sys.stderr.write(_json_dump(self.manifest.to_dict()))


def _pair(text: str) -> tuple[int, int]:
    try:
        a, b = (int(t) for t in text.split(","))
    except Exception as e:
        raise UsageError(f"--pair expects 'a,b', got {text!r}") from e
    return a, b


def _weights(text: str) -> list[float]:
    try:
        w = [float(t) for t in text.split(",")]
    except Exception as e:
        raise UsageError(f"--weights expects comma floats, got {text!r}") from e
    if len(w) != 5:
        raise UsageError("--weights needs exactly 5 values (R0,R1,R1e,R2,R2e)")
    return w


# --------------------------------------------------------------------------
# subcommand handlers


def cmd_orderings(args) -> int:
    ch = parse_channel(args.channel)
    a, b = _pair(args.pair)
    em = _Emitter(args, "orderings", [args.channel])
    if args.predicate == "degraded":
        rep = is_degraded(ch, a, b)
    elif args.predicate == "less_noisy":
        rep = is_less_noisy(ch, a, b, restarts=args.restarts, seed=args.seed)
    elif args.predicate == "more_capable":
        rep = is_more_capable(ch, a, b, restarts=args.restarts,
                              seed=args.seed)
    else:
        rep = implication_check(ch, a, b, restarts=args.restarts,
                                seed=args.seed)
    em.emit_json(rep.to_dict())
    return 0


def cmd_regions_eval(args) -> int:
    ch = parse_channel(args.channel)
    aux = parse_aux(args.aux)
    reports = [load_ordering_report(p) for p in (args.ordering_report or [])]
    em = _Emitter(args, "regions eval",
                  [args.channel, args.aux] + (args.ordering_report or []))
    pol = eval_bound(BoundId(args.bound), ch, aux, ordering_reports=reports,
                     override=args.override)
    em.emit_json(pol.to_dict())
    return 0


def cmd_regions_frontier(args) -> int:
    ch = parse_channel(args.channel)
    w = _weights(args.weights)
    reports = [load_ordering_report(p) for p in (args.ordering_report or [])]
    em = _Emitter(args, "regions frontier",
                  [args.channel] + (args.ordering_report or []))
    cfg = SearchConfig(restarts=args.restarts, iters=args.iters,
                       seed=args.seed, m1=args.m1, m2=args.m2, m3=args.m3)
    rate, aux, value, effort = max_weighted_rate(
        BoundId(args.bound), ch, w, cfg, ordering_reports=reports,
        override=args.override)
    em.manifest.extras["search"] = asdict(effort)
    r = rate.as_dict()
    # the sidecar goes first, so a failed write prints no primary output
    sidecar = args.aux_out or ((args.out or "frontier") + ".aux.json")
    em.write(sidecar, _json_dump(aux.to_dict()))
    em.emit_csv(
        ["w_r0", "w_r1", "w_r1e", "w_r2", "w_r2e",
         "R0", "R1", "R1e", "R2", "R2e", "value"],
        [[*(repr(float(x)) for x in w),
          *(repr(float(r[s])) for s in ("R0", "R1", "R1e", "R2", "R2e")),
          repr(float(value))]])
    return 0


def cmd_fme_derive(args) -> int:
    em = _Emitter(args, "fme derive", [])
    if args.target == "theorem1":
        derived, report = derive_inner_bound()
    elif args.target == "corollary1":
        derived, report = derive_type1_bound()
    else:
        raise UsageError(f"unknown derivation target {args.target!r}")
    em.emit_json({"target": args.target,
                  "derived_rows": [str(r) for r in derived.rows],
                  "report": report.to_dict()})
    return 0 if report.equivalent else 1


def cmd_fme_appendix(args) -> int:
    em = _Emitter(args, "fme appendix", [])
    report = appendix_reduction(outer_layer_symbolic=args.symbolic)
    em.emit_json({"symbolic": args.symbolic, "report": report.to_dict()})
    expect_equivalent = not args.symbolic
    ok = report.equivalent if expect_equivalent else report.forward.holds
    return 0 if ok else 1


def _load_config(path: str) -> CodeConfig:
    return _load(path, "code config", CodeConfig.from_dict)


def _grid_from_list(grid) -> list[CodeConfig]:
    if not isinstance(grid, list):
        raise ValidationError("grid file must hold a JSON list of configs")
    return [CodeConfig.from_dict(d) for d in grid]


def cmd_sim_run(args) -> int:
    ch = parse_channel(args.channel)
    aux = parse_aux(args.aux)
    cfg = _load_config(args.config)
    em = _Emitter(args, "sim run", [args.channel, args.aux, args.config])
    rep = simulate(cfg, aux, ch, args.trials, args.seed)
    payload = rep.to_dict()
    # wall-clock is volatile; keep it out of the primary output
    em.manifest.extras["wall_seconds"] = payload.pop("wall_seconds")
    em.emit_json(payload)
    return 0


def cmd_sim_equivocation(args) -> int:
    ch = parse_channel(args.channel)
    aux = parse_aux(args.aux)
    cfg = replace(_load_config(args.config), seed=args.seed)
    em = _Emitter(args, "sim equivocation",
                  [args.channel, args.aux, args.config])
    cb = build_codebook(cfg, aux, ch)
    rep = exact_equivocation(cb)
    em.emit_json(rep.to_dict())
    return 0


def cmd_sim_study(args) -> int:
    ch = parse_channel(args.channel)
    aux = parse_aux(args.aux)
    cfgs = _load(args.grid, "grid", _grid_from_list)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError as e:
        raise UsageError(f"--seeds expects comma integers, got {args.seeds!r}"
                         ) from e
    em = _Emitter(args, "sim study", [args.channel, args.aux, args.grid])
    rows = secrecy_gap_study(cfgs, aux, ch, seeds)
    header = list(rows[0].keys()) if rows else []
    em.emit_csv(header, [[repr(r[k]) if isinstance(r[k], float) else r[k]
                          for k in header] for r in rows])
    return 0


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bcsl",
        description="Rate-equivocation bounds for a 3-receiver broadcast "
                    "channel: orderings, region evaluation, exact "
                    "Fourier-Motzkin re-derivation, coding simulation.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    po = sub.add_parser("orderings", help="receiver ordering predicates")
    po.add_argument("--channel", required=True)
    po.add_argument("--pair", required=True, help="receiver pair, e.g. 1,3")
    po.add_argument("--predicate", required=True,
                    choices=["degraded", "less_noisy", "more_capable",
                             "implication"])
    po.add_argument("--restarts", type=int, default=32)
    po.add_argument("--seed", type=int)
    po.add_argument("--out")
    po.set_defaults(func=cmd_orderings)

    pr = sub.add_parser("regions", help="bound evaluation and frontier")
    rsub = pr.add_subparsers(dest="subcommand", required=True)
    re_ = rsub.add_parser("eval")
    re_.add_argument("--bound", required=True,
                     choices=[b.value for b in BoundId])
    re_.add_argument("--channel", required=True)
    re_.add_argument("--aux", required=True)
    re_.add_argument("--ordering-report", action="append")
    re_.add_argument("--override", action="store_true")
    re_.add_argument("--out")
    re_.set_defaults(func=cmd_regions_eval)
    rf = rsub.add_parser("frontier")
    rf.add_argument("--bound", required=True,
                    choices=[b.value for b in BoundId])
    rf.add_argument("--channel", required=True)
    rf.add_argument("--weights", required=True)
    rf.add_argument("--seed", type=int)
    rf.add_argument("--restarts", type=int, default=16)
    rf.add_argument("--iters", type=int, default=60)
    rf.add_argument("--m1", type=int)
    rf.add_argument("--m2", type=int)
    rf.add_argument("--m3", type=int)
    rf.add_argument("--ordering-report", action="append")
    rf.add_argument("--override", action="store_true")
    rf.add_argument("--out")
    rf.add_argument("--aux-out")
    rf.set_defaults(func=cmd_regions_frontier)

    pf = sub.add_parser("fme", help="exact symbolic re-derivations")
    fsub = pf.add_subparsers(dest="subcommand", required=True)
    fd = fsub.add_parser("derive")
    fd.add_argument("--target", required=True,
                    choices=["theorem1", "corollary1"])
    fd.add_argument("--out")
    fd.set_defaults(func=cmd_fme_derive)
    fa = fsub.add_parser("appendix")
    fa.add_argument("--symbolic", action="store_true",
                    help="keep the inserted layer's rates symbolic instead "
                         "of pinning them to zero")
    fa.add_argument("--out")
    fa.set_defaults(func=cmd_fme_appendix)

    ps = sub.add_parser("sim", help="coding-scheme simulation")
    ssub = ps.add_subparsers(dest="subcommand", required=True)
    sr = ssub.add_parser("run")
    for flag in ("--channel", "--aux", "--config"):
        sr.add_argument(flag, required=True)
    sr.add_argument("--trials", type=int, required=True)
    sr.add_argument("--seed", type=int)
    sr.add_argument("--threads", type=int,
                    help="accepted for compatibility; runs are "
                         "single-threaded and results do not depend on it")
    sr.add_argument("--out")
    sr.set_defaults(func=cmd_sim_run)
    se = ssub.add_parser("equivocation")
    for flag in ("--channel", "--aux", "--config"):
        se.add_argument(flag, required=True)
    se.add_argument("--seed", type=int)
    se.add_argument("--out")
    se.set_defaults(func=cmd_sim_equivocation)
    st = ssub.add_parser("study")
    for flag in ("--channel", "--aux", "--grid"):
        st.add_argument(flag, required=True)
    st.add_argument("--seeds", required=True,
                    help="comma-separated seed list")
    st.add_argument("--out")
    st.set_defaults(func=cmd_sim_study)
    return p


_NEEDS_SEED = {cmd_regions_frontier, cmd_sim_run, cmd_sim_equivocation}
_STOCHASTIC_ORDERINGS = {"less_noisy", "more_capable", "implication"}


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.func in _NEEDS_SEED and args.seed is None:
            raise UsageError("this command is stochastic: --seed is required")
        if (args.func is cmd_orderings
                and args.predicate in _STOCHASTIC_ORDERINGS
                and args.seed is None):
            raise UsageError(
                f"predicate {args.predicate} is stochastic: --seed is required")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise UsageError("--seed must be a nonnegative integer")
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except BcslError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
