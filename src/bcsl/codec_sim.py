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
from dataclasses import asdict, dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from . import channel_core
from .channel_core import (AuxJoint, Channel3, _clamp, conditional_mi,
                           induced_joint)
from .errors import (CapabilityError, ConfigError, GenerationError,
                     UsageError, ValidationError)
from .fme import is_constant_symbol, load_fixture, parse_mi_name
from .streams import stream_draws

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


def _number(v, kind=numbers.Real) -> bool:
    """v is a finite number of `kind`; JSON's true and false are not."""
    if isinstance(v, bool) or not isinstance(v, kind):
        return False
    return isinstance(v, numbers.Integral) or math.isfinite(v)


@dataclass(frozen=True)
class CodeConfig:
    """Blocklength, per-layer rates (bits/use), typicality slack, seed.

    The rates are the fields between ``n`` and ``eps``: r0 cloud; r1e
    secret part and r1p randomization part of the first satellite message
    with r1dag the pairing headroom; q2/q3 bank rates; p3/p3dag partition
    of the second bank; p1e/p1p partition of the innermost codeword layer.
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
        if not (_number(self.n, numbers.Integral) and self.n >= 1):
            raise ValidationError("blocklength must be an integer >= 1")
        if not (_number(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValidationError("seed must be a nonnegative integer")
        if not (_number(self.eps) and self.eps > 0):
            raise ValidationError("typicality slack must be a positive number")
        for name in _RATE_FIELDS:
            v = getattr(self, name)
            if not (_number(v) and v >= 0):
                raise ValidationError(
                    f"rate {name} must be a finite nonnegative number")

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
        """Check the bin-pairing rows of the inner scheme's raw system, whose
        rate symbols are these rate fields upper-cased, at the auxiliary's
        information constants; the error names every row broken."""
        system = load_fixture("inner_bin_pairing.txt")
        j = aux.joint_pmf()
        value = {s: conditional_mi(j, *parse_mi_name(s))
                 if is_constant_symbol(s) else getattr(self, s.lower())
                 for s in system.symbols()}
        broken = []
        for row in system.rows:
            lhs = sum(float(c) * value[s] for s, c in row.coeffs)
            if lhs > row.rhs + RATE_TOL:
                broken.append(f"{row} ({lhs:.6f} > {float(row.rhs):.6f})")
        if broken:
            raise ConfigError(
                "bin-pairing condition violated: " + "; ".join(broken))

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: Mapping) -> "CodeConfig":
        extra = set(d) - set(_FIELDS)
        if extra:
            raise ValidationError(f"unknown CodeConfig fields: {sorted(extra)}")
        return CodeConfig(**d)


_FIELDS = tuple(f.name for f in fields(CodeConfig))
_RATE_FIELDS = _FIELDS[_FIELDS.index("n") + 1:_FIELDS.index("eps")]


# --------------------------------------------------------------------------
# strong typicality


def typical(counts: np.ndarray, n: int, pmf: np.ndarray, eps: float
            ) -> np.ndarray:
    """Strong typicality: |freq - p| <= eps * p per joint symbol (so symbols
    of probability zero must not occur).  `counts` (..., K) holds count
    vectors along its last axis; one verdict per vector."""
    return np.all(np.abs(counts / n - pmf) <= eps * pmf + 1e-12, axis=-1)


def batch_typical(joint_idx: np.ndarray, n: int, pmf_flat: np.ndarray,
                  eps: float) -> np.ndarray:
    """Typicality of C candidate sequences, joint_idx (C, n) of flattened
    joint-symbol indices into pmf_flat (K,): a boolean vector of length C.
    """
    c, k = joint_idx.shape[0], pmf_flat.size
    offset = joint_idx + np.arange(c)[:, None] * k
    counts = np.bincount(offset.ravel(), minlength=c * k).reshape(c, k)
    return typical(counts, n, pmf_flat, eps)


def _cdf_rows(rows: np.ndarray) -> np.ndarray:
    """Cumulative rows of a stack of pmfs, normalised as
    ``Generator.choice`` normalises ``p``, for `_draw_rows`."""
    sums = rows.sum(axis=1)
    if np.any(rows < 0) or np.any(np.abs(sums - 1.0) > _PMF_ATOL):
        raise ValidationError("sampling rows are not probability vectors")
    cdf = np.cumsum(rows, axis=1)
    return cdf / cdf[:, -1:]


def _draw_rows(u: np.ndarray, cdf: np.ndarray, base: np.ndarray
               ) -> np.ndarray:
    """s ~ row `base` of the pmfs behind `cdf`, elementwise, by inverse CDF.

    One uniform of `u` (shaped as `base`) per symbol and the count of CDF
    entries at or below it (a right-sided search): with ``u =
    rng.random(len(base))``, ``rng.choice(k, p=row)`` symbol by symbol,
    draw for draw."""
    return (u[..., None] >= cdf[base]).sum(axis=-1)


def _draw_cond_typical(rng: np.random.Generator, cond_base: np.ndarray,
                       cond_cdf: np.ndarray, typ_base: np.ndarray,
                       joint_flat: np.ndarray, n: int, eps: float, cap: int,
                       what: str) -> np.ndarray:
    """Draw s with s_i ~ cond[cond_base_i] until (typ_base, s) is jointly
    typical for joint_flat (flattened over typ_base-symbol x new-symbol);
    `cond_cdf` is `_cdf_rows(cond)`."""
    k_new = cond_cdf.shape[1]
    for _ in range(cap):
        s = _draw_rows(rng.random(len(cond_base)), cond_cdf, cond_base)
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
    """The layered codebook: its arrays, and what is derived from them.

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

    def split_w2(self, w2):
        """w2 -> (p1, p3) by mixed radix, the inverse of `join_w2`."""
        return np.divmod(w2, self.sizes["p3"])

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

    @functools.cached_property
    def decoder_targets(self) -> tuple[np.ndarray, ...]:
        """Flattened p(u1,u2,u3,x,y1), p(u2,y2), p(u1,u2,y2), p(u3,y3), the
        pmfs the decoders test typicality against.  Built on first decode,
        as `rx1_table` is."""
        j = induced_joint(self.ch, self.aux)
        return tuple(j.marginal(axes).probs.ravel()
                     for axes in (["U1", "U2", "U3", "X", "Y1"], ["U2", "Y2"],
                                  ["U1", "U2", "Y2"], ["U3", "Y3"]))


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
    cb = Codebook(cfg, aux, ch, u1, u2, u3,
                  np.full(bins + (2,), -1, dtype=np.int64),
                  np.full(bins + (s["p1e"], s["p1p"], n), -1, dtype=np.int64))

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


def encode(cb: Codebook, msgs: np.ndarray, nonces: np.ndarray
           ) -> np.ndarray:
    """Stochastic encoder over a stack of messages: msgs (T, 3) holds one
    (w0, w1, w2) per row.  Each w2 splits into (p1, p3), row i draws the
    randomization indices (w1p, p1p) uniformly from the stream keyed by
    (seed, nonces[i]), and the stored codewords come back as (T, n).  A row
    whose product bin has no jointly typical satellite pair is -1
    throughout, as `Codebook.x` stores it."""
    s = cb.sizes
    msgs, nonces = np.asarray(msgs), np.asarray(nonces)
    if nonces.ndim != 1 or msgs.shape != (len(nonces), 3):
        raise UsageError("encode takes messages (T, 3) and nonces (T,)")
    if np.any(msgs < 0) or np.any(msgs >= (s["r0"], s["r1e"], s["w2"])):
        raise UsageError("message index out of range")
    w0, w1, w2 = msgs.T
    p1, p3 = cb.split_w2(w2)
    ints, _ = stream_draws((cb.cfg.seed, _STREAM_ENC), nonces,
                           (s["r1p"], s["p1p"]))
    w1p, p1p = ints.T
    return cb.x[w0, w1, w1p, p3, p1, p1p]


# --------------------------------------------------------------------------
# decoding


def _sole(ok: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per row of a hit mask ok (T, C) over C candidates with nonnegative
    labels (C,): the label every hit carries, or -1 when the row has no hit
    or its hits disagree."""
    lab = np.broadcast_to(labels, ok.shape)
    lo = np.min(lab, axis=1, initial=np.iinfo(lab.dtype).max, where=ok)
    hi = np.max(lab, axis=1, initial=-1, where=ok)
    return np.where(lo == hi, lo, -1)


def _lead(count: int, size: int) -> np.ndarray:
    """Leading index of each entry of a C-ordered axis of `count` entries
    over (size, ...)."""
    return np.arange(count) // (count // size)


def decode_all(cb: Codebook, y1: np.ndarray, y2: np.ndarray, y3: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run all three decoding rules on a stack of received blocks.

    y1, y2, y3 are integer (T, n) arrays; row t holds what each receiver
    hears in trial t.  Receiver 1 scans all codeword tuples for joint
    typicality; receivers 2 and 3 recover the cloud index indirectly
    through their satellite bank, and receiver 2 then decodes its message
    within the cloud it identified.  Returns receiver 1's (w0, w1, w2)
    (T, 3), receiver 2's (w0, w1) (T, 2) and receiver 3's w0 (T,).  Where
    a stage finds no typical candidate, or typical candidates whose labels
    differ, it declares an error, -1, as do the stages after it.
    """
    cfg, s, ch = cb.cfg, cb.sizes, cb.ch
    n, eps = cfg.n, cfg.eps
    ys = tuple(np.asarray(y) for y in (y1, y2, y3))
    for y, ny in zip(ys, (ch.ny1, ch.ny2, ch.ny3)):
        if y.dtype.kind not in "iu":
            raise UsageError("received blocks must be integer arrays")
        if y.ndim != 2 or y.shape != ys[0].shape or y.shape[1] != n:
            raise UsageError(
                f"received blocks must be three equal (T, {n}) arrays")
        if np.any(y < 0) or np.any(y >= ny):
            raise UsageError("received symbol out of range")
    y1, y2, y3 = ys
    p_rx1, p_u2y2, p_u1u2y2, p_u3y3 = cb.decoder_targets

    def hits(rows, y, ny, pmf):
        """Typicality of candidate rows (C, n), or (T, C, n) per trial,
        with each trial's block: a (T, C) mask."""
        idx = rows * ny + y[:, None, :]
        return batch_typical(idx.reshape(-1, n), n, pmf, eps
                             ).reshape(idx.shape[:2])

    # receiver 1: direct joint-typicality scan; a triple is the sole label
    # of the hits when each of its three parts is
    rows1, labels1 = cb.rx1_table
    ok1 = hits(rows1, y1, ch.ny1, p_rx1)
    rx1 = np.stack([_sole(ok1, lab) for lab in labels1.T], axis=1)
    rx1[(rx1 < 0).any(axis=1)] = -1

    # receiver 2: indirect cloud decoding through the u2 bank, then its
    # message within the decoded cloud
    u2 = cb.u2.reshape(-1, n)
    w0 = _sole(hits(u2, y2, ch.ny2, p_u2y2), _lead(len(u2), s["r0"]))
    rx2 = np.stack([w0, np.full_like(w0, -1)], axis=1)
    got = w0 >= 0
    rows = cb.u1[w0[got], None, :] * cb.aux.m2 + cb.u2[w0[got]]
    rx2[got, 1] = _sole(hits(rows, y2[got], ch.ny2, p_u1u2y2),
                        _lead(s["q2_bank"], s["r1e"]))

    # receiver 3: indirect cloud decoding through the u3 bank
    u3 = cb.u3.reshape(-1, n)
    rx3 = _sole(hits(u3, y3, ch.ny3, p_u3y3), _lead(len(u3), s["r0"]))
    return rx1, rx2, rx3


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
    errors: tuple[int, int, int]    # block errors at receivers 1, 2, 3
    encode_failures: int
    pairing_failure_fraction: float
    wall_seconds: float
    block_trials: int               # trials per block of `simulate`

    def rate(self, which: int) -> float:
        k = self.errors[which - 1]
        return k / self.trials if self.trials else 0.0

    def interval(self, which: int) -> tuple[float, float]:
        return wilson_interval(self.errors[which - 1], self.trials)

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

    def run_stats(self) -> dict[str, int]:
        """How the trials ran: the trials, the trials per block, the
        blocks and the encode failures."""
        return {"trials": self.trials, "trials_per_block": self.block_trials,
                "blocks": -(-self.trials // self.block_trials),
                "encode_failures": self.encode_failures}


def _trial_block(cb: Codebook) -> int:
    """Trials per block of `simulate`: as many as ENUM_BLOCK_CELLS cells
    hold of its largest per-trial array, at least one.  That is the
    channel draw's n x |Y1 Y2 Y3| comparisons, or a decoding stage's
    candidates x max(n, joint cells) symbol indices and counts."""
    n, ch, s = cb.cfg.n, cb.ch, cb.sizes
    # candidates of the stages in the order of `decoder_targets`
    stages = zip((len(cb.rx1_table[0]), s["r0"] * s["q2_bank"],
                  s["q2_bank"], s["r0"] * s["q3_bank"]),
                 cb.decoder_targets)
    cells = max([n * ch.ny1 * ch.ny2 * ch.ny3]
                + [c * max(n, pmf.size) for c, pmf in stages])
    return max(1, channel_core.ENUM_BLOCK_CELLS // cells)


def simulate(cfg: CodeConfig, aux: AuxJoint, ch: Channel3, trials: int,
             seed: int) -> SimReport:
    """Monte Carlo block-error estimation.

    Per-trial randomness is counter-based on (seed, trial): each trial's
    messages and channel uniforms come from its own stream, and its
    encoder randomization from its own (cfg.seed, trial) stream, so the
    report does not depend on the trial order.  Trials run in blocks of
    `_trial_block` trials, so memory does not grow with `trials`.  A block
    draws every trial's streams at once (`stream_draws`), encodes them in
    one `encode` call, and draws and decodes its channel outputs as array
    operations.  The report is the same for every block size.
    """
    if trials < 1:
        raise UsageError(f"trials must be at least 1, got {trials}")
    t0 = time.perf_counter()
    cb = build_codebook(cfg, aux, ch)
    s, n = cb.sizes, cfg.n
    ny2, ny3 = ch.ny2, ch.ny3
    ch_cdf = _cdf_rows(ch.p.reshape(ch.nx, -1))
    block = _trial_block(cb)
    errors = np.zeros(3, dtype=np.int64)
    failures = 0
    for first in range(0, trials, block):
        ts = np.arange(first, min(trials, first + block))
        msgs, u = stream_draws((seed, _STREAM_TRIAL), ts,
                               (s["r0"], s["r1e"], s["w2"]), n)
        xs = encode(cb, msgs, ts)
        sent = xs[:, 0] >= 0
        draws = _draw_rows(u[sent], ch_cdf, xs[sent])
        rx1, rx2, rx3 = decode_all(cb, draws // (ny2 * ny3),
                                   draws // ny3 % ny2, draws % ny3)
        msgs = msgs[sent]
        errors += ((rx1 != msgs).any(axis=1).sum(),
                   (rx2 != msgs[:, :2]).any(axis=1).sum(),
                   (rx3 != msgs[:, 0]).sum())
        failures += int((~sent).sum())
    return SimReport(trials, tuple(int(e) + failures for e in errors),
                     failures, cb.pairing_failure_fraction,
                     time.perf_counter() - t0, block)


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
        return {**asdict(self), "per_use": self.per_use}


def _likelihood_table(ch3: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """p(y^k|x^k) of codeword segments xs (..., k) over every y^k, in the C
    order of (y_1, ..., y_k): shape (..., ny^k), all ones when k = 0."""
    lead = xs.shape[:-1]
    out = np.ones(lead + (1,))
    for i in range(xs.shape[-1]):
        out = (out[..., :, None] * ch3[xs[..., i]][..., None, :]
               ).reshape(lead + (-1,))
    return out


def _neg_plogp(t: np.ndarray) -> float:
    """-sum t log2 t over a nonnegative array (0 log 0 = 0), without the
    compressed copy of its positive entries that `tensor_entropy` makes."""
    logs = np.log2(t, out=np.zeros_like(t), where=t > 0)
    return -float(np.vdot(t, logs))


def check_enum_cap(n: int, ny3: int, enum_cap: int = DEFAULT_ENUM_CAP
                   ) -> None:
    """Refuse a blocklength whose |Y3|^n outputs exceed the enumeration
    cap; callers check it before they build a codebook."""
    if ny3 ** n > enum_cap:
        raise CapabilityError(
            f"|Y3|^n = {ny3 ** n} exceeds the enumeration cap {enum_cap}; "
            "use a smaller blocklength")


def _block_plan(cb: Codebook) -> tuple[int, int]:
    """Codeword chunks and table rows per block of `exact_equivocation`.

    A chunk holds at most ny3^(n//2) codewords of each (w1, w2) group; a
    block, as many rows (values of the first n//2 outputs) as
    ENUM_BLOCK_CELLS cells hold, at least one.  With more than one chunk,
    every block would rebuild every chunk's half tables, while one full
    chunk's half tables already outweigh the table: one block then spans
    every row."""
    n, ny3 = cb.cfg.n, cb.ch.ny3
    groups = cb.sizes["r1e"] * cb.sizes["w2"]
    rows = ny3 ** (n // 2)
    chunks = -(-math.prod(cb.x.shape[:-1]) // (groups * rows))
    if chunks == 1:
        rows = min(rows, max(1, channel_core.ENUM_BLOCK_CELLS
                             // (groups * ny3 ** (n - n // 2))))
    return chunks, rows


def enumeration_counts(cb: Codebook) -> dict[str, int]:
    """The work `exact_equivocation` does on cb: the cells of the
    wiretapper's table p(w1, w2, y3^n), the row blocks and codeword chunks
    it forms them in, and the bytes of one block."""
    n, ny3 = cb.cfg.n, cb.ch.ny3
    groups = cb.sizes["r1e"] * cb.sizes["w2"]
    chunks, rows = _block_plan(cb)
    return {"cells": groups * ny3 ** n,
            "row_blocks": -(-ny3 ** (n // 2) // rows),
            "codeword_chunks": chunks,
            "block_bytes": 8 * groups * rows * ny3 ** (n - n // 2)}


def exact_equivocation(cb: Codebook, *, enum_cap: int = DEFAULT_ENUM_CAP
                       ) -> EquivocationReport:
    """Exact H(W1|Y3^n), H(W2|Y3^n), H(W1,W2|Y3^n) by full enumeration.

    Marginalizes the uniform messages and the encoder's uniform
    randomization indices against the memoryless wiretap channel law.
    The table p(w1, w2, y3^n) is formed a block of rows at a time, each
    block added to the four entropy sums and dropped.  When each (w1, w2)
    group has at most |Y3|^(n//2) codewords (one chunk, see `_block_plan`),
    memory is the two half tables plus one block of at most
    ENUM_BLOCK_CELLS cells (one row, if a row is larger), never the full
    table, so `enum_cap` caps the time of the enumeration, not its memory.
    With more codewords, one chunk's half tables outweigh the table, and
    one block holds it.
    """
    cfg, s = cb.cfg, cb.sizes
    n = cfg.n
    ny3 = cb.ch.ny3
    check_enum_cap(n, ny3, enum_cap)
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
    # first half giving the high digits of the C order of (y3_1, ..., y3_n),
    # so rows a0:a1 of each group's table are sum_c weight L_A(c)[a0:a1]
    # (x) L_B(c), one matrix product.  Chunks of at most ny3^h codewords
    # keep both half tables no larger than the whole table would be.
    h = n // 2
    chunk = ny3 ** h

    def halves(part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        la = _likelihood_table(ch3, part[..., :h])
        la *= weight
        return la.swapaxes(-1, -2), _likelihood_table(ch3, part[..., h:])

    parts = [xs[:, :, lo:lo + chunk] for lo in range(0, xs.shape[2], chunk)]
    # one chunk keeps its half tables for every block; with more chunks one
    # block spans every row, so each chunk's are built once, and freed
    # before the next chunk's are built
    chunks, rows = _block_plan(cb)
    kept = halves(parts[0]) if chunks == 1 else None

    def share(part: np.ndarray, a0: int) -> np.ndarray:
        la_t, lb = kept or halves(part)
        return np.matmul(la_t[..., a0:a0 + rows, :], lb)

    sums = np.zeros(4)          # -sum p log p of (w1,w2,y), (w1,y), (w2,y), y
    for a0 in range(0, ny3 ** h, rows):
        block = share(parts[0], a0)
        for part in parts[1:]:
            block += share(part, a0)
        # |W2| = 1 repeats (w1,w2,y) as (w1,y) and (w2,y) as y, value for
        # value in the same order; |W1| = 1 repeats them the other way round
        w1y = block.sum(axis=1)
        h12 = _neg_plogp(block)
        h1 = h12 if nw2 == 1 else _neg_plogp(w1y)
        h2 = h12 if nw1 == 1 else _neg_plogp(block.sum(axis=0))
        sums += (h12, h1, h2, h2 if nw2 == 1 else h1 if nw1 == 1
                 else _neg_plogp(w1y.sum(axis=0)))
    h_w12y3, h_w1y3, h_w2y3, h_y3 = (_clamp(float(v), "entropy")
                                     for v in sums)
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
    for cfg in configs:
        check_enum_cap(cfg.n, ch.ny3)
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
