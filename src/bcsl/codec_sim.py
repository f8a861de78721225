"""Desk-scale secure broadcast coding scheme and exact equivocation.

Implements the layered random-coding construction: a cloud codebook for the
common message, two satellite banks on top of it whose jointly typical pairs
are found by lexicographic search (Marton pairing), a double partition of the
first bank whose second level supplies wiretapper-saturating randomization
(double binning), and a stochastic encoder.  The three decoding rules are
joint-typicality based; equivocation at the wiretap output is computed
exactly by full enumeration at small blocklength.

Everything is seed-deterministic: codebook generation, encoder
randomization, and per-trial channel noise each use counter-based RNG
streams derived from one master seed.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .channel_core import Channel3, conditional_mi, induced_joint, tensor_entropy
from .errors import (CapabilityError, ConfigError, EncodingError,
                     GenerationError, UsageError, ValidationError)
from .regions import AuxJoint

RATE_TOL = 1e-9
DEFAULT_RETRY_CAP = 2000
DEFAULT_ENUM_CAP = 2 ** 20
DEFAULT_CODEWORD_CAP = 10 ** 7
# sum tolerance of a sampling row, the one Generator.choice applies to p
_PMF_ATOL = math.sqrt(np.finfo(np.float64).eps)
# two-sided 95% standard normal quantile of the Wilson interval
_Z95 = 1.959963984540054

# RNG stream tags (first element after the master seed)
_STREAM_GEN = 0
_STREAM_ENC = 1
_STREAM_TRIAL = 2


def message_size(n: int, rate: float) -> int:
    """Number of indices carried by a per-use rate at blocklength n."""
    try:
        return max(1, round(2.0 ** (n * rate)))
    except OverflowError as e:
        raise CapabilityError(
            f"rate {rate} at blocklength {n} needs 2^{n * rate} indices") from e


def _finite(v) -> bool:
    return isinstance(v, numbers.Real) and math.isfinite(v)


@dataclass(frozen=True)
class CodeConfig:
    """Blocklength, per-layer rates (bits/use), typicality slack, seed.

    Rate symbols: r0 cloud; r1e secret part and r1p randomization part of the
    first satellite message with r1dag the pairing headroom; q2/q3 bank
    rates; p3/p3dag partition of the second bank; p1e/p1p partition of the
    innermost codeword layer.
    """

    n: int
    r0: float = 0.0
    r1e: float = 0.0
    r1p: float = 0.0
    r1dag: float = 0.0
    q2: float = 0.0
    q3: float = 0.0
    p3: float = 0.0
    p3dag: float = 0.0
    p1e: float = 0.0
    p1p: float = 0.0
    eps: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ValidationError("blocklength must be an integer >= 1")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        if not (_finite(self.eps) and self.eps > 0):
            raise ValidationError("typicality slack must be positive")
        for name in ("r0", "r1e", "r1p", "r1dag", "q2", "q3", "p3",
                     "p3dag", "p1e", "p1p"):
            v = getattr(self, name)
            if not (_finite(v) and v >= 0):
                raise ValidationError(f"rate {name} is negative or not finite")

    # message/bank sizes ---------------------------------------------------
    @property
    def sizes(self) -> dict[str, int]:
        n = self.n
        s = {k: message_size(n, getattr(self, k))
             for k in ("r0", "r1e", "r1p", "r1dag", "p3", "p3dag",
                       "p1e", "p1p")}
        s["q2_bank"] = s["r1e"] * s["r1p"] * s["r1dag"]
        s["q3_bank"] = s["p3"] * s["p3dag"]
        s["w2"] = s["p1e"] * s["p3"]
        return s

    def validate_against(self, aux: AuxJoint) -> None:
        """Check the bin-pairing feasibility conditions against the
        auxiliary's pairing penalty I(U2;U3|U1)."""
        j = conditional_mi(aux.joint_pmf(), ("U2",), ("U3",), ("U1",))
        checks = [
            ("r1e + r1p + r1dag <= q2",
             self.r1e + self.r1p + self.r1dag, self.q2),
            ("p3 + p3dag <= q3", self.p3 + self.p3dag, self.q3),
            # strict pairing headroom relaxed to its closure so zero-rate
            # configurations (where the penalty is 0) remain valid
            ("r1dag + p3dag >= I(U2;U3|U1)", j, self.r1dag + self.p3dag),
            ("r1e + r1p + p3 <= q2 + q3 - I(U2;U3|U1)",
             self.r1e + self.r1p + self.p3, self.q2 + self.q3 - j),
        ]
        for tag, lhs, rhs in checks:
            if lhs > rhs + RATE_TOL:
                raise ConfigError(
                    f"bin-pairing condition violated: {tag} "
                    f"({lhs:.6f} > {rhs:.6f})")

    def to_dict(self) -> dict:
        return {k: getattr(self, k)
                for k in ("n", "r0", "r1e", "r1p", "r1dag", "q2", "q3",
                          "p3", "p3dag", "p1e", "p1p", "eps", "seed")}

    @staticmethod
    def from_dict(d: Mapping) -> "CodeConfig":
        known = {"n", "r0", "r1e", "r1p", "r1dag", "q2", "q3", "p3",
                 "p3dag", "p1e", "p1p", "eps", "seed"}
        extra = set(d) - known
        if extra:
            raise ValidationError(f"unknown CodeConfig fields: {sorted(extra)}")
        return CodeConfig(**{k: d[k] for k in d})


# --------------------------------------------------------------------------
# strong typicality


def typical(counts: np.ndarray, n: int, pmf: np.ndarray, eps: float) -> bool:
    """Strong typicality: |freq - p| <= eps * p per joint symbol (so symbols
    of probability zero must not occur)."""
    return bool(np.all(np.abs(counts / n - pmf) <= eps * pmf + 1e-12))


def batch_typical(joint_idx: np.ndarray, n: int, pmf_flat: np.ndarray,
                  eps: float) -> np.ndarray:
    """Vectorized typicality over C candidate sequences.

    joint_idx: (C, n) flattened joint-symbol indices; pmf_flat: (K,).
    Returns a boolean vector of length C.
    """
    c, k = joint_idx.shape[0], pmf_flat.size
    offset = joint_idx + np.arange(c)[:, None] * k
    counts = np.bincount(offset.ravel(), minlength=c * k).reshape(c, k)
    return np.all(np.abs(counts / n - pmf_flat) <= eps * pmf_flat + 1e-12,
                  axis=1)


def _cdf_rows(rows: np.ndarray) -> np.ndarray:
    """Cumulative rows of a stack of pmfs, normalised as
    ``Generator.choice`` normalises ``p``, for `_draw_rows`."""
    sums = rows.sum(axis=1)
    if np.any(rows < 0) or np.any(np.abs(sums - 1.0) > _PMF_ATOL):
        raise ValidationError("sampling rows are not probability vectors")
    cdf = np.cumsum(rows, axis=1)
    return cdf / cdf[:, -1:]


def _draw_rows(rng: np.random.Generator, cdf: np.ndarray,
               base: np.ndarray) -> np.ndarray:
    """s_i ~ row base_i of the pmfs behind `cdf`, by inverse CDF.

    One uniform per symbol and the count of CDF entries at or below it (a
    right-sided search): ``rng.choice(k, p=row)`` symbol by symbol, draw
    for draw."""
    u = rng.random(len(base))
    return (u[:, None] >= cdf[base]).sum(axis=1)


def _draw_cond_typical(rng: np.random.Generator, cond_base: np.ndarray,
                       cond_cdf: np.ndarray, typ_base: np.ndarray,
                       joint_flat: np.ndarray, n: int, eps: float, cap: int,
                       what: str) -> np.ndarray:
    """Draw s with s_i ~ cond[cond_base_i] until (typ_base, s) is jointly
    typical for joint_flat (flattened over typ_base-symbol x new-symbol);
    `cond_cdf` is `_cdf_rows(cond)`."""
    k_new = cond_cdf.shape[1]
    for _ in range(cap):
        s = _draw_rows(rng, cond_cdf, cond_base)
        idx = typ_base * k_new + s
        if typical(np.bincount(idx, minlength=joint_flat.size), n,
                   joint_flat, eps):
            return s
    raise GenerationError(
        f"typicality rejection cap {cap} exceeded while sampling {what}; "
        "the conditionally typical set may be empty at this blocklength")


def _conditional(joint: np.ndarray) -> np.ndarray:
    """Rows p(col|row) of a 2-D joint, uniform on zero-mass rows."""
    rows = joint.sum(axis=1, keepdims=True)
    out = np.where(rows > 0, joint / np.maximum(rows, 1e-300),
                   1.0 / joint.shape[1])
    return out


# --------------------------------------------------------------------------
# codebook


@dataclass
class Codebook:
    """The layered codebook.

    The C order of ``pair.shape[:-1]``, (w0, w1, w1p, p3), is the order of
    the product bins, and ``x`` extends it by the inner cell (p1, p1p).
    Pairing, codeword generation, receiver 1's scan and the equivocation
    sum all walk the code in this one order.
    """

    cfg: CodeConfig
    aux: AuxJoint
    ch: Channel3
    u1: np.ndarray      # (Nw0, n)
    u2: np.ndarray      # (Nw0, Nq2, n), q2 = ((w1*Nw1p)+w1p)*Ndag + w1dag
    u3: np.ndarray      # (Nw0, Nq3, n), q3 = p3*Np3dag + p3dag
    pair: np.ndarray    # (Nw0, Nw1, Nw1p, Np3, 2) selected (w1dag, p3dag), -1 = fail
    x: np.ndarray       # (Nw0, Nw1, Nw1p, Np3, Np1e, Np1p, n), -1 on failed bins
    # flattened target pmfs for the decoders
    pmf_rx1: np.ndarray = field(repr=False, default=None)   # (U1,U2,U3,X,Y1)
    pmf_u2y2: np.ndarray = field(repr=False, default=None)
    pmf_u1u2y2: np.ndarray = field(repr=False, default=None)
    pmf_u3y3: np.ndarray = field(repr=False, default=None)

    @functools.cached_property
    def sizes(self) -> dict[str, int]:
        return self.cfg.sizes

    @property
    def pairing_failure_fraction(self) -> float:
        return float(np.mean(self.pair[..., 0] < 0))

    def q2_index(self, w1, w1p, w1dag):
        """u2 bank index; the arguments may be broadcasting arrays."""
        s = self.sizes
        return (w1 * s["r1p"] + w1p) * s["r1dag"] + w1dag

    def q3_index(self, p3, p3dag):
        return p3 * self.sizes["p3dag"] + p3dag

    def triple_rows(self, w0, q2, q3) -> np.ndarray:
        """(u1,u2,u3)-combined symbol rows of cloud w0 and bank entries q2,
        q3; the arguments broadcast, and the rows run along the last axis."""
        m2, m3 = self.aux.m2, self.aux.m3
        return (self.u1[w0] * m2 + self.u2[w0, q2]) * m3 + self.u3[w0, q3]

    def split_w2(self, w2: int) -> tuple[int, int]:
        """w2 -> (p1, p3) by mixed radix."""
        s = self.sizes
        if not 0 <= w2 < s["w2"]:
            raise UsageError(f"w2 index {w2} out of range {s['w2']}")
        return w2 // s["p3"], w2 % s["p3"]

    def join_w2(self, p1, p3):
        return p1 * self.sizes["p3"] + p3

    @property
    def live(self) -> np.ndarray:
        """Mask over ``x.shape[:-1]``: the codewords of paired bins."""
        return np.broadcast_to(self.pair[..., :1, None] >= 0,
                               self.x.shape[:-1])

    @functools.cached_property
    def bin_rows(self) -> np.ndarray:
        """(u1,u2,u3)-combined rows of each product bin's selected satellite
        pair, shaped (w0, w1, w1p, p3, n); -1 on unpaired bins.  Read only
        once the pairing is final."""
        rows = np.full(self.pair.shape[:-1] + (self.cfg.n,), -1,
                       dtype=np.int64)
        b = np.nonzero(self.pair[..., 0] >= 0)
        w1dag, p3dag = self.pair[b].T
        rows[b] = self.triple_rows(b[0], self.q2_index(b[1], b[2], w1dag),
                                   self.q3_index(b[3], p3dag))
        return rows

    @functools.cached_property
    def rx1_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Receiver 1's candidate rows, (u1,u2,u3,x)-combined, and their
        (w0, w1, w2) labels.  Built on first decode, so codebooks only used
        for exact equivocation never pay for it."""
        idx = np.nonzero(self.live)
        w0, w1, _, p3, p1, _ = idx
        rows = self.bin_rows[idx[:4]] * self.aux.nx + self.x[idx]
        return rows, np.stack([w0, w1, self.join_w2(p1, p3)], axis=1)


def build_codebook(cfg: CodeConfig, aux: AuxJoint, ch: Channel3, *,
                   retry_cap: int = DEFAULT_RETRY_CAP,
                   codeword_cap: int = DEFAULT_CODEWORD_CAP) -> Codebook:
    """Generate the full layered codebook (seed-deterministic).

    Bank membership is assigned by index arithmetic over the uniformly
    generated codewords (statistically equivalent to a random partition);
    per product bin, the first jointly typical satellite pair in
    lexicographic (w1dag, p3dag) order is selected.
    """
    if aux.nx != ch.nx:
        raise ValidationError(f"aux input alphabet {aux.nx} != channel {ch.nx}")
    cfg.validate_against(aux)
    s = cfg.sizes
    n, eps = cfg.n, cfg.eps
    m2, m3, nx = aux.m2, aux.m3, aux.nx

    bins = (s["r0"], s["r1e"], s["r1p"], s["p3"])
    total = math.prod(bins) * s["p1e"] * s["p1p"] * n
    if total > codeword_cap:
        raise CapabilityError(
            f"codebook needs {total} stored symbols > cap {codeword_cap}; "
            "shrink the rates or blocklength")

    ajoint = aux.joint_pmf()
    p_u1 = ajoint.marginal(["U1"]).probs
    p_u1u2 = ajoint.marginal(["U1", "U2"]).probs
    p_u1u3 = ajoint.marginal(["U1", "U3"]).probs
    p_u1u2u3 = ajoint.marginal(["U1", "U2", "U3"]).probs
    p_full = ajoint.probs
    cdf_u1 = _cdf_rows(p_u1[None])
    cdf_u2 = _cdf_rows(_conditional(p_u1u2))
    cdf_u3 = _cdf_rows(_conditional(p_u1u3))
    # x | (u2, u3): U1 is conditionally irrelevant by the Markov chain
    p_u2u3x = ajoint.marginal(["U2", "U3", "X"]).probs
    cdf_x = _cdf_rows(_conditional(p_u2u3x.reshape(m2 * m3, nx)))

    rng = np.random.default_rng([cfg.seed, _STREAM_GEN])
    nw0, nq2, nq3 = s["r0"], s["q2_bank"], s["q3_bank"]
    u1 = np.empty((nw0, n), dtype=np.int64)
    u2 = np.empty((nw0, nq2, n), dtype=np.int64)
    u3 = np.empty((nw0, nq3, n), dtype=np.int64)
    zeros = np.zeros(n, dtype=np.int64)     # u1 draws from one row
    for w0 in range(nw0):
        u1[w0] = _draw_cond_typical(rng, zeros, cdf_u1, zeros, p_u1, n, eps,
                                    retry_cap, "p(u1)")
        for q2 in range(nq2):
            u2[w0, q2] = _draw_cond_typical(rng, u1[w0], cdf_u2, u1[w0],
                                            p_u1u2.ravel(), n, eps,
                                            retry_cap, "p(u2|u1)")
        for q3 in range(nq3):
            u3[w0, q3] = _draw_cond_typical(rng, u1[w0], cdf_u3, u1[w0],
                                            p_u1u3.ravel(), n, eps,
                                            retry_cap, "p(u3|u1)")

    # pair and x are filled in place below
    j = induced_joint(ch, aux)
    cb = Codebook(
        cfg, aux, ch, u1, u2, u3,
        np.full(bins + (2,), -1, dtype=np.int64),
        np.full(bins + (s["p1e"], s["p1p"], n), -1, dtype=np.int64),
        pmf_rx1=j.marginal(["U1", "U2", "U3", "X", "Y1"]).probs.ravel(),
        pmf_u2y2=j.marginal(["U2", "Y2"]).probs.ravel(),
        pmf_u1u2y2=j.marginal(["U1", "U2", "Y2"]).probs.ravel(),
        pmf_u3y3=j.marginal(["U3", "Y3"]).probs.ravel(),
    )

    # Marton pairing: the first jointly typical candidate per product bin,
    # candidates taken in C (lexicographic) order
    cands = (s["r1dag"], s["p3dag"])
    w1dag, p3dag = np.indices(cands)
    flat_triple = p_u1u2u3.ravel()
    for w0, w1, w1p, p3 in np.ndindex(bins):
        rows = cb.triple_rows(w0, cb.q2_index(w1, w1p, w1dag),
                              cb.q3_index(p3, p3dag))
        ok = batch_typical(rows.reshape(-1, n), n, flat_triple, eps)
        if ok.any():
            cb.pair[w0, w1, w1p, p3] = np.unravel_index(ok.argmax(), cands)

    flat_full = p_full.ravel()
    for idx in zip(*np.nonzero(cb.live)):
        joint_base = cb.bin_rows[idx[:4]]
        # draw conditioned on (u2,u3), the low digits of the triple, but
        # test joint typicality of the full (u1,u2,u3,x) tuple
        cb.x[idx] = _draw_cond_typical(
            rng, joint_base % (m2 * m3), cdf_x, joint_base, flat_full,
            n, eps, retry_cap, "p(x|u2,u3)")
    return cb


# --------------------------------------------------------------------------
# encoding


def encode(cb: Codebook, w0: int, w1: int, w2: int, *, nonce: int = 0
           ) -> np.ndarray:
    """Stochastic encoder: split w2 into (p1, p3), draw the randomization
    indices (w1p, p1p) uniformly from a stream keyed by (seed, nonce), and
    emit the stored codeword."""
    s = cb.sizes
    if not (0 <= w0 < s["r0"] and 0 <= w1 < s["r1e"]):
        raise UsageError("message index out of range")
    p1, p3 = cb.split_w2(w2)
    rng = np.random.default_rng([cb.cfg.seed, _STREAM_ENC, nonce])
    w1p = int(rng.integers(0, s["r1p"]))
    p1p = int(rng.integers(0, s["p1p"]))
    if cb.pair[w0, w1, w1p, p3, 0] < 0:
        raise EncodingError(
            f"product bin (w0={w0}, w1={w1}, w1p={w1p}, p3={p3}) has no "
            "jointly typical satellite pair")
    return cb.x[w0, w1, w1p, p3, p1, p1p].copy()


# --------------------------------------------------------------------------
# decoding


@dataclass(frozen=True)
class DecodeResult:
    """Per-receiver estimates; None marks a declared error at that stage."""

    rx1: tuple[int, int, int] | None   # (w0, w1, w2)
    rx2: tuple[int, int | None] | None  # (w0, w1); w1 None = stage-2 error
    rx3: int | None                     # w0


def _sole(labels: np.ndarray):
    """The label every hit carries, or None when there is no hit or the
    hits disagree."""
    if len(labels) and (labels == labels[0]).all():
        return labels[0].tolist()
    return None


def _lead(ok: np.ndarray, size: int) -> np.ndarray:
    """Leading index of each hit of a C-ordered mask over (size, ...)."""
    return np.nonzero(ok.reshape(size, -1))[0]


def decode_all(cb: Codebook, y1: np.ndarray, y2: np.ndarray, y3: np.ndarray
               ) -> DecodeResult:
    """Run all three decoding rules on one received block.

    Receiver 1 scans all codeword tuples for joint typicality; receivers 2
    and 3 recover the cloud index indirectly through their satellite bank,
    and receiver 2 then decodes its message within the identified cloud.
    Ambiguity or absence at any stage is a declared error (None).
    """
    cfg, s = cb.cfg, cb.sizes
    n, eps = cfg.n, cfg.eps
    ny1, ny2, ny3 = cb.ch.ny1, cb.ch.ny2, cb.ch.ny3
    y1 = np.asarray(y1)
    y2 = np.asarray(y2)
    y3 = np.asarray(y3)
    for y, ny in ((y1, ny1), (y2, ny2), (y3, ny3)):
        if y.shape != (n,) or y.min() < 0 or y.max() >= ny:
            raise UsageError("received sequence has wrong length or symbols")

    # receiver 1: direct joint-typicality scan
    rows1, labels1 = cb.rx1_table
    ok1 = batch_typical(rows1 * ny1 + y1, n, cb.pmf_rx1, eps)
    hit1 = _sole(labels1[ok1])
    rx1 = None if hit1 is None else tuple(hit1)

    # receiver 2: indirect cloud decoding through the u2 bank
    ok2 = batch_typical(cb.u2.reshape(-1, n) * ny2 + y2, n, cb.pmf_u2y2, eps)
    w0 = _sole(_lead(ok2, s["r0"]))
    if w0 is None:
        rx2 = None
    else:
        rows = (cb.u1[w0][None, :] * cb.aux.m2 + cb.u2[w0]) * ny2 + y2
        okb = batch_typical(rows, n, cb.pmf_u1u2y2, eps)
        rx2 = (w0, _sole(_lead(okb, s["r1e"])))

    # receiver 3: indirect cloud decoding through the u3 bank
    ok3 = batch_typical(cb.u3.reshape(-1, n) * ny3 + y3, n, cb.pmf_u3y3, eps)
    rx3 = _sole(_lead(ok3, s["r0"]))

    return DecodeResult(rx1, rx2, rx3)


# --------------------------------------------------------------------------
# Monte Carlo simulation


def wilson_interval(k: int, m: int) -> tuple[float, float]:
    """95% binomial score interval (always contains k/m)."""
    if m == 0:
        return (0.0, 1.0)
    ph, z = k / m, _Z95
    denom = 1 + z * z / m
    center = (ph + z * z / (2 * m)) / denom
    half = z * math.sqrt(ph * (1 - ph) / m + z * z / (4 * m * m)) / denom
    return (max(0.0, min(ph, center - half)),
            min(1.0, max(ph, center + half)))


@dataclass(frozen=True)
class SimReport:
    trials: int
    errors_rx1: int
    errors_rx2: int
    errors_rx3: int
    encode_failures: int
    pairing_failure_fraction: float
    wall_seconds: float

    def rate(self, which: int) -> float:
        k = {1: self.errors_rx1, 2: self.errors_rx2, 3: self.errors_rx3}[which]
        return k / self.trials if self.trials else 0.0

    def interval(self, which: int) -> tuple[float, float]:
        k = {1: self.errors_rx1, 2: self.errors_rx2, 3: self.errors_rx3}[which]
        return wilson_interval(k, self.trials)

    def to_dict(self) -> dict:
        out = {"trials": self.trials,
               "pairing_failure_fraction": self.pairing_failure_fraction,
               "encode_failures": self.encode_failures,
               "wall_seconds": self.wall_seconds}
        for i in (1, 2, 3):
            lo, hi = self.interval(i)
            out[f"pe_y{i}"] = self.rate(i)
            out[f"pe_y{i}_ci95"] = [lo, hi]
        return out


def _run_trial(cb: Codebook, ch_cdf: np.ndarray, trial: int, seed: int
               ) -> tuple[bool, bool, bool, bool]:
    """One trial: draw messages, encode, push through the channel, decode.
    Returns (rx1_err, rx2_err, rx3_err, encode_failed)."""
    s = cb.sizes
    rng = np.random.default_rng([seed, _STREAM_TRIAL, trial])
    w0 = int(rng.integers(0, s["r0"]))
    w1 = int(rng.integers(0, s["r1e"]))
    w2 = int(rng.integers(0, s["w2"]))
    try:
        xs = encode(cb, w0, w1, w2, nonce=trial)
    except EncodingError:
        return True, True, True, True
    ny2, ny3 = cb.ch.ny2, cb.ch.ny3
    draws = _draw_rows(rng, ch_cdf, xs)
    y1 = draws // (ny2 * ny3)
    y2 = (draws // ny3) % ny2
    y3 = draws % ny3
    dec = decode_all(cb, y1, y2, y3)
    e1 = dec.rx1 != (w0, w1, w2)
    e2 = dec.rx2 != (w0, w1)
    e3 = dec.rx3 != w0
    return e1, e2, e3, False


def simulate(cfg: CodeConfig, aux: AuxJoint, ch: Channel3, trials: int,
             seed: int, *, codebook: Codebook | None = None) -> SimReport:
    """Monte Carlo block-error estimation.

    Per-trial randomness is counter-based on (seed, trial), so the report
    does not depend on the trial order.  Trials run in one thread, since
    they are bound by the interpreter lock.
    """
    if trials < 1:
        raise UsageError(f"trials must be at least 1, got {trials}")
    t0 = time.time()
    cb = codebook if codebook is not None else build_codebook(cfg, aux, ch)
    ch_cdf = _cdf_rows(cb.ch.p.reshape(cb.ch.nx, -1))
    results = [_run_trial(cb, ch_cdf, t, seed) for t in range(trials)]
    e1 = sum(r[0] for r in results)
    e2 = sum(r[1] for r in results)
    e3 = sum(r[2] for r in results)
    ef = sum(r[3] for r in results)
    return SimReport(trials, e1, e2, e3, ef,
                     cb.pairing_failure_fraction, time.time() - t0)


# --------------------------------------------------------------------------
# exact equivocation


@dataclass(frozen=True)
class EquivocationReport:
    n: int
    h_w1: float                 # message entropies, bits
    h_w2: float
    h_w1_given_y3: float        # exact conditional entropies, bits
    h_w2_given_y3: float
    h_w12_given_y3: float

    def __post_init__(self):
        tol = 1e-9
        if not -tol <= self.h_w1_given_y3 <= self.h_w1 + tol:
            raise ValidationError("H(W1|Y3^n) outside [0, H(W1)]")
        if not -tol <= self.h_w2_given_y3 <= self.h_w2 + tol:
            raise ValidationError("H(W2|Y3^n) outside [0, H(W2)]")
        if self.h_w12_given_y3 > (self.h_w1_given_y3 + self.h_w2_given_y3
                                  + tol):
            raise ValidationError("joint equivocation exceeds the sum")

    @property
    def per_use(self) -> dict[str, float]:
        return {"w1": self.h_w1_given_y3 / self.n,
                "w2": self.h_w2_given_y3 / self.n,
                "w12": self.h_w12_given_y3 / self.n}

    def to_dict(self) -> dict:
        return {"n": self.n, "h_w1": self.h_w1, "h_w2": self.h_w2,
                "h_w1_given_y3": self.h_w1_given_y3,
                "h_w2_given_y3": self.h_w2_given_y3,
                "h_w12_given_y3": self.h_w12_given_y3,
                "per_use": self.per_use}


def _likelihood_table(ch3: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """p(y^k|x^k) of codeword segments xs (..., k) over every y^k, in the C
    order of (y_1, ..., y_k): shape (..., ny^k), all ones when k = 0."""
    lead = xs.shape[:-1]
    out = np.ones(lead + (1,))
    for i in range(xs.shape[-1]):
        out = (out[..., :, None] * ch3[xs[..., i]][..., None, :]
               ).reshape(lead + (-1,))
    return out


def exact_equivocation(cb: Codebook, *, enum_cap: int = DEFAULT_ENUM_CAP
                       ) -> EquivocationReport:
    """Exact H(W1|Y3^n), H(W2|Y3^n), H(W1,W2|Y3^n) by full enumeration.

    Marginalizes the uniform messages and the encoder's uniform
    randomization indices against the memoryless wiretap channel law.
    """
    cfg, s = cb.cfg, cb.sizes
    n = cfg.n
    ny3 = cb.ch.ny3
    if ny3 ** n > enum_cap:
        raise CapabilityError(
            f"|Y3|^n = {ny3 ** n} exceeds the enumeration cap {enum_cap}; "
            "use a smaller blocklength")
    if cb.pairing_failure_fraction > 0:
        raise ValidationError(
            "codebook has unpaired product bins; exact equivocation needs a "
            "fully paired codebook")
    ch3 = cb.ch.marginal_to(3)          # (nx, ny3)
    nw1, nw2 = s["r1e"], s["w2"]
    weight = 1.0 / math.prod(cb.x.shape[:-1])
    # codewords grouped by (w1, w2): (w1, p1, p3, w0, w1p, p1p, n), so that
    # w2 = join_w2(p1, p3) = p1 * Np3 + p3 falls out of the reshape
    xs = cb.x.transpose(1, 4, 3, 0, 2, 5, 6).reshape(nw1, nw2, -1, n)
    # p(y3^n|x^n) = outer(L_A, L_B) over the two halves of the block, the
    # first half giving the high digits of the C order of (y3_1, ..., y3_n);
    # each group's table row is then sum_c weight L_A(c) (x) L_B(c), one
    # matrix product.  Blocks of at most ny3^h codewords keep both half
    # tables no larger than the output table.
    h = n // 2
    block = ny3 ** h

    # half tables live only inside one call, so none outlives its block
    def group_sum(part: np.ndarray) -> np.ndarray:
        la = weight * _likelihood_table(ch3, part[..., :h])
        return np.matmul(la.swapaxes(-1, -2),
                         _likelihood_table(ch3, part[..., h:]))

    table = group_sum(xs[:, :, :block])
    for lo in range(block, xs.shape[2], block):
        table += group_sum(xs[:, :, lo:lo + block])
    table = table.reshape(nw1, nw2, ny3 ** n)
    h_y3 = tensor_entropy(table.sum(axis=(0, 1)))
    h_w1y3 = tensor_entropy(table.sum(axis=1))
    h_w2y3 = tensor_entropy(table.sum(axis=0))
    h_w12y3 = tensor_entropy(table)
    return EquivocationReport(
        n=n,
        h_w1=math.log2(nw1),
        h_w2=math.log2(nw2),
        h_w1_given_y3=max(0.0, h_w1y3 - h_y3),
        h_w2_given_y3=max(0.0, h_w2y3 - h_y3),
        h_w12_given_y3=max(0.0, h_w12y3 - h_y3),
    )


# --------------------------------------------------------------------------
# secrecy gap study


def secrecy_gap_study(configs: Sequence[CodeConfig], aux: AuxJoint,
                      ch: Channel3, seeds: Sequence[int]) -> list[dict]:
    """Exact equivocation across a config grid and seed list.

    Emits one row per (config, seed) with per-use equivocations and gaps to
    the configured secrecy rates.  Downstream comparisons (e.g. raising the
    randomization rate r1p toward the wiretapper's satellite capacity should
    weakly raise H(W1|Y3^n)/n on the same seed) are made on these rows.
    """
    rows = []
    for cfg in configs:
        for seed in seeds:
            scfg = replace(cfg, seed=seed)
            cb = build_codebook(scfg, aux, ch)
            rep = exact_equivocation(cb)
            per = rep.per_use
            rows.append({
                "n": scfg.n, "seed": seed,
                "r1p": scfg.r1p, "p1p": scfg.p1p,
                "r1e": scfg.r1e, "r2e": scfg.p1e + scfg.p3,
                "h_w1_per_use": per["w1"],
                "h_w2_per_use": per["w2"],
                "h_w12_per_use": per["w12"],
                "gap_w1": scfg.r1e - per["w1"],
                "gap_w2": (scfg.p1e + scfg.p3) - per["w2"],
                "gap_w12": (scfg.r1e + scfg.p1e + scfg.p3) - per["w12"],
            })
    return rows



