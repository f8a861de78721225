"""Counter-based random streams, many at once.

`stream_draws` gives, for a whole array of counters t, what
``np.random.default_rng([*prefix, t])`` draws, without building one
Generator per t.  It runs numpy's SeedSequence, PCG64 (XSL-RR output over a
128-bit LCG) and PCG64's 32-bit Lemire rule for ``integers`` (Lemire, "Fast
random integer generation in an interval", ACM TOMACS 29(1), 2019) one lane
per t, on uint32 and uint64 arrays.  The draws are those of numpy's own
Generators, bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import CapabilityError, UsageError

_M32 = 0xFFFFFFFF
_U32 = np.uint64(_M32)
# SeedSequence: a pool of four 32-bit words, hashed and mixed with these
_POOL = 4
_HASH_A = (0x43B0D7E5, 0x931E8875)      # (initial, multiplier) of the pool
_HASH_B = (0x8B51F9DD, 0x58F38DED)      # (initial, multiplier) of its output
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = (np.uint64(2549297995355413924), np.uint64(4865540595714422341))


def _int_words(v: int) -> list[int]:
    """v as SeedSequence reads an integer: little-endian 32-bit words,
    one word for 0."""
    if v < 0:
        raise UsageError(f"stream keys must be nonnegative, got {v}")
    words = [v & _M32]
    while v > _M32:
        v >>= 32
        words.append(v & _M32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hash: each call xors in the running constant, steps
    it, multiplies by it and folds the high half in."""
    const = init

    def hash32(v: np.ndarray) -> np.ndarray:
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & _M32
        v = v * np.uint32(const)
        return v ^ (v >> 16)
    return hash32


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _seed_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` per lane, from
    the lanes' entropy words (uint32 arrays, lowest word first)."""
    hash_a = _hasher(*_HASH_A)
    zero = np.zeros_like(entropy[0])
    pool = [hash_a(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hash_a(word))
    hash_b = _hasher(*_HASH_B)
    out = [hash_b(pool[i % _POOL]).astype(np.uint64) for i in range(8)]
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _mul128(a: tuple, b: tuple) -> tuple:
    """a * b mod 2^128 on (hi, lo) uint64 pairs, the low words' full
    product from 32-bit limbs."""
    (ahi, alo), (bhi, blo) = a, b
    a1, a0, b1, b0 = alo >> 32, alo & _U32, blo >> 32, blo & _U32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _U32) + (p10 & _U32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return carry + ahi * blo + alo * bhi, alo * blo


def _add128(a: tuple, b: tuple) -> tuple:
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


class _PCG64Lanes:
    """numpy's PCG64 seeded from `_seed_words`, one lane per stream: the
    LCG state and increment as (hi, lo) uint64 arrays, and the high half of
    a 64-bit output that ``next32`` keeps for its next call."""

    def __init__(self, seed: list[np.ndarray]):
        s0, s1, s2, s3 = seed
        self.inc = (s2 << 1 | s3 >> 63, s3 << 1 | 1)
        self.state = self._stepped(_add128(self.inc, (s0, s1)), self.inc)
        self.has32 = np.zeros(len(s0), dtype=bool)
        self.half = np.zeros(len(s0), dtype=np.uint64)

    @staticmethod
    def _stepped(state: tuple, inc: tuple) -> tuple:
        return _add128(_mul128(state, _PCG_MULT), inc)

    def next64(self, idx) -> np.ndarray:
        """Step the lanes idx and return their XSL-RR outputs."""
        hi, lo = self._stepped((self.state[0][idx], self.state[1][idx]),
                               (self.inc[0][idx], self.inc[1][idx]))
        self.state[0][idx], self.state[1][idx] = hi, lo
        x, rot = hi ^ lo, hi >> 58
        return x >> rot | x << (-rot & np.uint64(63))

    def next32(self, idx: np.ndarray) -> np.ndarray:
        """The low half of a fresh output, or the kept high half."""
        kept = self.has32[idx]
        out = self.half[idx]
        fresh = idx[~kept]
        x = self.next64(fresh)
        out[~kept] = x & _U32
        self.half[fresh] = x >> 32
        self.has32[idx] = ~kept
        return out

    def integers(self, k: int) -> np.ndarray:
        """``integers(0, k)`` per lane, 1 <= k <= 2^32: a 32-bit draw
        scaled by k, drawn again in the lanes whose low word falls below
        2^32 mod k (Lemire's rule; none at k = 2^32); k = 1 draws
        nothing."""
        lanes = np.arange(len(self.has32))
        if k == 1:
            return np.zeros(len(lanes), dtype=np.int64)
        m = self.next32(lanes) * np.uint64(k)
        floor = np.uint64(2 ** 32 % k)
        redo = lanes[(m & _U32) < floor]
        while redo.size:
            m[redo] = self.next32(redo) * np.uint64(k)
            redo = redo[(m[redo] & _U32) < floor]
        return (m >> 32).astype(np.int64)

    def random(self, n: int) -> np.ndarray:
        """``random(n)`` per lane, (lanes, n): 53-bit fractions."""
        out = np.empty((n, len(self.has32)))
        for i in range(n):
            out[i] = self.next64(slice(None)) >> 11
        return (out * 2.0 ** -53).T


def stream_draws(prefix: Sequence[int], ts: np.ndarray,
                 bounds: Sequence[int], n: int = 0
                 ) -> tuple[np.ndarray, np.ndarray]:
    """For each counter t of ts (T,), what ``np.random.default_rng([*prefix,
    t])`` draws: ``integers(0, k)`` for each k of `bounds` in turn, then
    ``random(n)``.  Returns the integers (T, len(bounds)) and the uniforms
    (T, n), bit for bit."""
    for k in bounds:
        if not 1 <= k <= 2 ** 32:
            raise CapabilityError(
                f"stream draws take bounds 1..2^32, got {k}")
    ts = np.asarray(ts)
    if np.any(ts < 0):
        raise UsageError("stream counters must be nonnegative")
    ts = ts.astype(np.uint64)
    head = [w for v in prefix for w in _int_words(int(v))]
    ints = np.empty((len(ts), len(bounds)), dtype=np.int64)
    uniforms = np.empty((len(ts), n))
    wide = ts > _M32
    # a counter of 2^32 or more is two entropy words, not one
    for sel, words in ((~wide, (ts & _U32,)), (wide, (ts & _U32, ts >> 32))):
        if not sel.any():
            continue
        entropy = [np.full(int(sel.sum()), w, dtype=np.uint32) for w in head]
        entropy += [w[sel].astype(np.uint32) for w in words]
        lanes = _PCG64Lanes(_seed_words(entropy))
        for j, k in enumerate(bounds):
            ints[sel, j] = lanes.integers(k)
        uniforms[sel] = lanes.random(n)
    return ints, uniforms
