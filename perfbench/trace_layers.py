"""Outside-in tracing of bcsl's public layer functions.

The tracer wraps functions from the benchmark's side, without any change to
the program: every module attribute that resolves to a wrapped function is
replaced, so a function bound in several modules (``remove_redundant`` in
``bcsl.fme``, ``bcsl.fme.farkas`` and ``bcsl.fme.derivations``) is traced
whichever binding its caller uses.  Methods and properties are patched on
their class.

Each wrapped call records one span ``[name, start, end, parent, command,
attrs]`` in memory; spans are written as JSONL when the iteration ends.
Cheap, very frequent calls (entropy evaluations, ``JointPmf`` constructions,
``CodeConfig.sizes`` accesses) are counted without a span.

``aggregate`` turns one iteration's spans and counters into the per-layer
metrics; a span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

perf_counter = time.perf_counter


def _rows(system) -> int:
    return len(system.rows)


def _certify_attrs(args, kwargs, result):
    identities = args[2] if len(args) > 2 else kwargs.get("identities")
    cols = _rows(args[0]) + (_rows(identities) if identities is not None
                             else 0)
    return {"cols": cols, "none": result is None}


def _rows_attrs(args, kwargs, result):
    return {"rows_in": _rows(args[0]), "rows_out": _rows(result)}


def _verdict_attrs(args, kwargs, result):
    return {"indeterminate": result.verdict is None}


def _enum_attrs(args, kwargs, result):
    """Cells of the equivocation table: stored codewords x |Y3|^n."""
    cb = args[0]
    *bins, n = cb.x.shape
    return {"cells": math.prod(bins) * cb.ch.ny3 ** n}


# span name -> (defining module, attribute, attrs(args, kwargs, result))
SPANS = {
    "cli.dispatch": ("bcsl.cli", "dispatch", None),
    "channel_core.conditional_mi": ("bcsl.channel_core", "conditional_mi",
                                    None),
    "channel_core.induced_joint": ("bcsl.channel_core", "induced_joint",
                                   None),
    "regions.max_weighted_rate": ("bcsl.regions", "max_weighted_rate", None),
    "regions.eval_bound": ("bcsl.regions", "eval_bound", None),
    "regions.check_markov": ("bcsl.regions", "check_markov", None),
    "regions.polytope_lp": ("bcsl.regions", "polytope_lp",
                            lambda a, k, r: {"none": r is None}),
    "orderings.implication_check": ("bcsl.orderings", "implication_check",
                                    None),
    "orderings.is_degraded": ("bcsl.orderings", "is_degraded",
                              _verdict_attrs),
    "orderings.is_less_noisy": ("bcsl.orderings", "is_less_noisy",
                                _verdict_attrs),
    "orderings.is_more_capable": ("bcsl.orderings", "is_more_capable",
                                  _verdict_attrs),
    "fme.derive_inner_bound": ("bcsl.fme.derivations", "derive_inner_bound",
                               None),
    "fme.derive_type1_bound": ("bcsl.fme.derivations", "derive_type1_bound",
                               None),
    "fme.appendix_reduction": ("bcsl.fme.derivations", "appendix_reduction",
                               None),
    "fme.certify": ("bcsl.fme.farkas", "certify", _certify_attrs),
    "fme.remove_redundant": ("bcsl.fme.farkas", "remove_redundant",
                             _rows_attrs),
    "fme.check_equivalence": ("bcsl.fme.farkas", "check_equivalence", None),
    "codec_sim.simulate": ("bcsl.codec_sim", "simulate", None),
    "codec_sim.build_codebook": (
        "bcsl.codec_sim", "build_codebook",
        lambda a, k, r: {"pairing_failure": r.pairing_failure_fraction}),
    "codec_sim.exact_equivocation": ("bcsl.codec_sim", "exact_equivocation",
                                     _enum_attrs),
    "codec_sim.encode": ("bcsl.codec_sim", "encode", None),
    "codec_sim.decode_all": ("bcsl.codec_sim", "decode_all", None),
    "codec_sim.batch_typical": ("bcsl.codec_sim", "batch_typical",
                                lambda a, k, r: {"rows": int(a[0].shape[0])}),
}

# span name -> (module, class, method, attrs) for methods patched on a class
METHOD_SPANS = {
    "fme.eliminate": ("bcsl.fme.system", "IneqSystem", "eliminate",
                      _rows_attrs),
}

# counts without spans
COUNTERS = ("channel_core.tensor_entropy.calls",
            "channel_core.joint_pmf.builds", "codec_sim.config_sizes.calls")


class Tracer:
    """Installs the wrappers and holds one iteration's spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.command = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------
    def _span(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command,
                   None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                rec[5] = {"raised": type(e).__name__}
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> int:
        """Replace every bcsl module attribute bound to `original`."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "bcsl" and not mod_name.startswith("bcsl."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                    hits += 1
        return hits

    def install(self) -> None:
        for name, (mod, attr, attrs) in SPANS.items():
            fn = getattr(sys.modules[mod], attr)
            if not self._rebind(fn, self._span(name, fn, attrs)):
                raise RuntimeError(f"nothing bound to {mod}.{attr}")
        for name, (mod, cls, meth, attrs) in METHOD_SPANS.items():
            owner = getattr(sys.modules[mod], cls)
            self._set(owner, meth, self._span(name, owner.__dict__[meth],
                                              attrs))
        count = self._counted
        core = sys.modules["bcsl.channel_core"]
        fn = core.tensor_entropy
        self._rebind(fn, count("channel_core.tensor_entropy.calls", fn))
        self._set(core.JointPmf, "__init__", count(
            "channel_core.joint_pmf.builds", core.JointPmf.__init__))
        cc = sys.modules["bcsl.codec_sim"].CodeConfig
        self._set(cc, "sizes", property(count(
            "codec_sim.config_sizes.calls", cc.__dict__["sizes"].fget)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        """Spans as JSONL, one object per line; the counters go beside
        them in ``PATH.counters.json``."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, cmd, attrs) in enumerate(
                    self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "cmd": cmd, "attrs": attrs}) + "\n")
        with open(path + ".counters.json", "w") as fh:
            json.dump(self.counters, fh)


# --------------------------------------------------------------------------
# aggregation


def load(path: str) -> tuple[list[dict], dict[str, int]]:
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    with open(path + ".counters.json") as fh:
        return spans, json.load(fh)


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def _amount(value) -> float:
    """An attribute's contribution to its sum: a flag or exception name
    counts once, a number counts as itself."""
    if isinstance(value, (bool, str)):
        return 1 if value else 0
    return value


def aggregate(spans: list[dict], counters: dict[str, int]
              ) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    child: dict[int, float] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        total[s["name"]] = total.get(s["name"], 0.0) + dur
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + dur
        for k, v in (s["attrs"] or {}).items():
            key = (s["name"], k)
            attr_sum[key] = attr_sum.get(key, 0) + _amount(v)
    self_s: dict[str, float] = {}
    for s in spans:
        self_s[s["name"]] = (self_s.get(s["name"], 0.0) + s["end"]
                             - s["start"] - child.get(s["id"], 0.0))

    def n(name):
        return calls.get(name, 0)

    def a(name, key):
        return attr_sum.get((name, key), 0)

    m: dict[str, float] = {}
    m["cli.dispatch_self_s"] = self_s.get("cli.dispatch", 0.0)
    for name in ("channel_core.conditional_mi", "regions.eval_bound",
                 "regions.polytope_lp", "fme.certify", "codec_sim.encode",
                 "codec_sim.decode_all", "codec_sim.batch_typical"):
        m[name + ".calls"] = n(name)
    for name in ("channel_core.conditional_mi", "channel_core.induced_joint",
                 "regions.eval_bound", "regions.check_markov",
                 "regions.polytope_lp", "orderings.is_degraded",
                 "orderings.is_less_noisy", "orderings.is_more_capable",
                 "fme.certify", "fme.remove_redundant", "fme.eliminate",
                 "fme.check_equivalence", "codec_sim.encode",
                 "codec_sim.decode_all", "codec_sim.build_codebook",
                 "codec_sim.exact_equivocation"):
        m[name + ".s"] = total.get(name, 0.0)
    for name in ("regions.eval_bound", "regions.max_weighted_rate",
                 "codec_sim.simulate"):
        m[name + ".self_s"] = self_s.get(name, 0.0)
    m.update(counters)
    m["regions.lp_infeasible_frac"] = _frac(a("regions.polytope_lp", "none"),
                                            n("regions.polytope_lp"))
    preds = ("orderings.is_degraded", "orderings.is_less_noisy",
             "orderings.is_more_capable")
    m["orderings.indeterminate_frac"] = _frac(
        sum(a(p, "indeterminate") for p in preds), sum(n(p) for p in preds))
    m["fme.certify.none_frac"] = _frac(a("fme.certify", "none"),
                                       n("fme.certify"))
    m["fme.certify.cols"] = a("fme.certify", "cols")
    for name in ("fme.remove_redundant", "fme.eliminate"):
        m[name + ".rows_in"] = a(name, "rows_in")
        m[name + ".rows_out"] = a(name, "rows_out")
    m["codec_sim.batch_typical.rows"] = a("codec_sim.batch_typical", "rows")
    m["codec_sim.enum_cells"] = a("codec_sim.exact_equivocation", "cells")
    m["codec_sim.pairing_failure_frac"] = _frac(
        a("codec_sim.build_codebook", "pairing_failure"),
        n("codec_sim.build_codebook"))
    m["codec_sim.encode_failure_frac"] = _frac(
        a("codec_sim.encode", "raised"), n("codec_sim.encode"))
    return m
