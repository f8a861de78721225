"""Exact wiretapper equivocation by enumeration, with hand-computed oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bcsl import channel_core, codec_sim
from bcsl.codec_sim import (CodeConfig, Codebook, build_codebook,
                            enumeration_counts, exact_equivocation,
                            secrecy_gap_study)
from bcsl.errors import CapabilityError, ValidationError

from conftest import (bsc, product_channel, random_channel,
                      uniform_binary_input_aux)


@pytest.fixture(scope="module")
def aux():
    return uniform_binary_input_aux()


def two_word_codebook(aux, p3_flip: float):
    """n = 1 codebook with two secret messages, codewords pinned to x = w1.

    The wiretapper sees the codeword through a BSC(p3_flip)."""
    ch = product_channel(bsc(0.0), bsc(0.0), bsc(p3_flip))
    cfg = CodeConfig(n=1, r1e=1.0, q2=1.0, eps=1.0, seed=0)
    cb = build_codebook(cfg, aux, ch)
    assert cb.sizes["r1e"] == 2
    cb.x[0, 0, 0, 0, 0, 0, 0] = 0
    cb.x[0, 1, 0, 0, 0, 0, 0] = 1
    return cb


class TestHandComputedOracle:
    def test_two_codeword_bayes_posterior(self, aux):
        # independent oracle: H(W1|Y3) from the explicit 2x2 joint
        # p(w1, y3) = 0.5 * BSC(p)[w1, y3]
        p = 0.2
        cb = two_word_codebook(aux, p)
        rep = exact_equivocation(cb)
        joint = 0.5 * bsc(p)
        h_joint = -sum(q * math.log2(q) for q in joint.flat if q > 0)
        py = joint.sum(axis=0)
        h_y = -sum(q * math.log2(q) for q in py if q > 0)
        assert rep.h_w1 == pytest.approx(1.0, abs=1e-12)
        assert rep.h_w1_given_y3 == pytest.approx(h_joint - h_y, abs=1e-12)

    def test_identical_codewords_full_equivocation(self, aux):
        cb = two_word_codebook(aux, 0.2)
        cb.x[0, 1, 0, 0, 0, 0, 0] = cb.x[0, 0, 0, 0, 0, 0, 0]
        rep = exact_equivocation(cb)
        assert rep.h_w1_given_y3 == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_distinct_codewords_zero_equivocation(self, aux):
        cb = two_word_codebook(aux, 0.0)
        rep = exact_equivocation(cb)
        assert rep.h_w1_given_y3 == pytest.approx(0.0, abs=1e-12)

    def test_single_message_zero_equivocation(self, aux):
        ch = product_channel(bsc(0.1), bsc(0.1), bsc(0.1))
        cfg = CodeConfig(n=2, eps=1.0)
        rep = exact_equivocation(build_codebook(cfg, aux, ch))
        assert rep.h_w1 == 0.0
        assert rep.h_w1_given_y3 == 0.0
        assert rep.h_w2_given_y3 == 0.0


class TestInvariants:
    def test_conditioning_reduces_entropy(self, aux):
        ch = product_channel(bsc(1 / 3), bsc(1 / 3), bsc(1 / 3))
        cfg = CodeConfig(n=6, r1e=0.2, r1p=0.2, q2=0.6, eps=0.5, seed=4)
        rep = exact_equivocation(build_codebook(cfg, aux, ch))
        assert rep.h_w1_given_y3 <= rep.h_w1 + 1e-12
        assert rep.h_w2_given_y3 <= rep.h_w2 + 1e-12
        assert (rep.h_w12_given_y3
                <= rep.h_w1_given_y3 + rep.h_w2_given_y3 + 1e-12)
        assert rep.h_w12_given_y3 >= max(rep.h_w1_given_y3,
                                         rep.h_w2_given_y3) - 1e-12

    def test_per_use_scaling(self, aux):
        ch = product_channel(bsc(1 / 3), bsc(1 / 3), bsc(1 / 3))
        cfg = CodeConfig(n=6, r1e=0.2, q2=0.2, eps=0.5, seed=4)
        rep = exact_equivocation(build_codebook(cfg, aux, ch))
        assert rep.per_use["w1"] == pytest.approx(rep.h_w1_given_y3 / 6)


class TestGuards:
    def test_enum_cap(self, aux):
        ch = product_channel(bsc(1 / 3), bsc(1 / 3), bsc(1 / 3))
        cfg = CodeConfig(n=6, eps=0.5)
        cb = build_codebook(cfg, aux, ch)
        with pytest.raises(CapabilityError):
            exact_equivocation(cb, enum_cap=8)

    def test_unpaired_codebook_rejected(self, aux):
        ch = product_channel(bsc(1 / 3), bsc(1 / 3), bsc(1 / 3))
        cfg = CodeConfig(n=4, eps=1.0)
        cb = build_codebook(cfg, aux, ch)
        cb.pair[...] = -1
        with pytest.raises(ValidationError):
            exact_equivocation(cb)


def test_equivocation_builds_no_decoder_joint(aux, monkeypatch):
    # the seven-axis joint p(u1,u2,u3,x,y1,y2,y3) only feeds the decoders
    def refuse(*args):
        raise AssertionError("induced_joint called")

    monkeypatch.setattr(codec_sim, "induced_joint", refuse)
    ch = product_channel(bsc(0.1), bsc(0.2), bsc(0.3))
    cfg = CodeConfig(n=6, r1e=0.15, r1p=0.15, q2=0.3, eps=0.5, seed=0)
    rep = exact_equivocation(build_codebook(cfg, aux, ch))
    assert 0 < rep.h_w1_given_y3 <= rep.h_w1


class TestMemory:
    def test_wide_table_streams_in_blocks(self, aux):
        # the shape of the codec benchmark's widest enumeration: a 24 MiB
        # table that one block of rows at a time never holds whole
        ch = product_channel(bsc(1 / 3), bsc(1 / 3), bsc(1 / 3))
        cfg = CodeConfig(n=18, r1e=0.2, r1p=0.3, q2=0.6, eps=0.5, seed=0)
        cb = build_codebook(cfg, aux, ch)
        counts = enumeration_counts(cb)
        assert counts == {"cells": 12 * 2 ** 18, "row_blocks": 25,
                          "codeword_chunks": 1,
                          "block_bytes": 8 * 12 * 21 * 2 ** 9}
        tracemalloc.start()
        try:
            exact_equivocation(cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * counts["cells"] / 2


class TestEntropySums:
    @pytest.mark.parametrize("nw1, nw2, calls", [
        (3, 1, 2), (1, 3, 2), (2, 2, 4), (1, 1, 1)])
    def test_one_valued_message_reuses_sums(self, nw1, nw2, calls):
        # a one-valued message makes two of the four tables repeat the
        # other two: their entropies are reused, and equal a four-sum
        # reference over the same blocks exactly
        n, rng = 5, np.random.default_rng(nw1 * 10 + nw2)
        ch = random_channel(rng, 2, 2, 2, 3)
        sizes = (1, nw1, 2, 1, nw2, 1)
        cfg = CodeConfig(n=n, r1e=_sized(n, nw1), r1p=_sized(n, 2),
                         p1e=_sized(n, nw2), eps=1.0)
        x = rng.integers(0, 2, size=sizes + (n,))
        empty = np.zeros((1, 1, n), dtype=np.int64)
        cb = Codebook(cfg, uniform_binary_input_aux(), ch, empty[:, 0], empty,
                      empty, np.zeros(sizes[:4] + (2,), dtype=np.int64), x)
        neg_plogp, blocks = codec_sim._neg_plogp, []

        def counted(t):
            if t.ndim == 4:
                blocks.append(t.copy())
            counted.calls += 1
            return neg_plogp(t)

        counted.calls = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codec_sim, "_neg_plogp", counted)
            mp.setattr(channel_core, "ENUM_BLOCK_CELLS", _FEW_CELLS)
            rep = exact_equivocation(cb)
            rows = enumeration_counts(cb)["row_blocks"]
        assert rows > 1 and len(blocks) == rows
        assert counted.calls == calls * rows
        sums = np.zeros(4)
        for block in blocks:
            w1y = block.sum(axis=1)
            sums += (neg_plogp(block), neg_plogp(w1y),
                     neg_plogp(block.sum(axis=0)), neg_plogp(w1y.sum(axis=0)))
        h_w12y3, h_w1y3, h_w2y3, h_y3 = (float(v) for v in sums)
        assert (rep.h_w1_given_y3, rep.h_w2_given_y3, rep.h_w12_given_y3) \
            == (max(0.0, h_w1y3 - h_y3), max(0.0, h_w2y3 - h_y3),
                max(0.0, h_w12y3 - h_y3))


class TestGapStudy:
    def test_rows_match_direct_evaluation(self, aux):
        ch = product_channel(bsc(1 / 3), bsc(1 / 3), bsc(1 / 3))
        cfgs = [CodeConfig(n=6, r1e=0.2, q2=0.2, eps=0.5),
                CodeConfig(n=6, r1e=0.2, r1p=0.2, q2=0.6, eps=0.5)]
        seeds = [0, 1]
        rows = secrecy_gap_study(cfgs, aux, ch, seeds)
        assert len(rows) == 4
        import dataclasses
        direct = exact_equivocation(
            build_codebook(dataclasses.replace(cfgs[1], seed=1), aux, ch))
        row = rows[3]
        assert row["seed"] == 1 and row["r1p"] == pytest.approx(0.2)
        assert row["h_w1_per_use"] == pytest.approx(direct.per_use["w1"])
        assert row["gap_w1"] == pytest.approx(0.2 - direct.per_use["w1"])


# --------------------------------------------------------------------------
# the stacked accumulation against a per-codeword Kronecker loop


def _kron_oracle(cb: Codebook) -> tuple[float, float, float]:
    """H(W1|Y3^n), H(W2|Y3^n), H(W1,W2|Y3^n) from a table built codeword
    by codeword, with w2 = p1 * Np3 + p3."""
    ch3 = cb.ch.marginal_to(3)
    _, nw1, _, np3, np1, _, n = cb.x.shape
    table = np.zeros((nw1, np1 * np3, cb.ch.ny3 ** n))
    for w0, w1, w1p, p3, p1, p1p in np.ndindex(cb.x.shape[:-1]):
        lik = np.ones(1)
        for xi in cb.x[w0, w1, w1p, p3, p1, p1p]:
            lik = np.kron(lik, ch3[xi])
        table[w1, p1 * np3 + p3] += lik
    table /= table.sum()

    def h(t):
        t = t[t > 0]
        return float(-(t * np.log2(t)).sum())

    h_y = h(table.sum(axis=(0, 1)))
    return (h(table.sum(axis=1)) - h_y, h(table.sum(axis=0)) - h_y,
            h(table) - h_y)


_FEW_CELLS = 24


def _sized(n: int, k: int) -> float:
    """A rate whose message size at blocklength n is k."""
    return math.log2(k) / n


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([1, 2, 3, 5, 7]), ny3=st.sampled_from([2, 3]),
       sizes=st.tuples(*[st.integers(1, 3)] * 6), seed=st.integers(0, 2**32))
# more codewords per (w1, w2) group than ny3^(n - n//2): blocked sums
@example(n=1, ny3=3, sizes=(3, 2, 2, 1, 1, 2), seed=1)
@example(n=5, ny3=2, sizes=(3, 2, 2, 2, 1, 3), seed=2)
# at _FEW_CELLS: two row blocks of 3 + 1 rows (binary), and of 2 + 1 rows
# (ternary, odd n)
@example(n=5, ny3=2, sizes=(1, 1, 2, 1, 1, 1), seed=3)
@example(n=3, ny3=3, sizes=(2, 1, 1, 1, 1, 1), seed=4)
def test_stacked_equivocation_matches_kron_loop(n, ny3, sizes, seed):
    nw0, nw1, nw1p, np3, np1, np1p = sizes
    rng = np.random.default_rng(seed)
    ch = random_channel(rng, 2, 2, 2, ny3)
    cfg = CodeConfig(n=n, r0=_sized(n, nw0), r1e=_sized(n, nw1),
                     r1p=_sized(n, nw1p), p3=_sized(n, np3),
                     p1e=_sized(n, np1), p1p=_sized(n, np1p), eps=1.0)
    assert (cfg.sizes["r0"], cfg.sizes["r1e"], cfg.sizes["r1p"],
            cfg.sizes["p3"], cfg.sizes["p1e"], cfg.sizes["p1p"]) == sizes
    x = rng.integers(0, 2, size=sizes + (n,))
    empty = np.zeros((nw0, 1, n), dtype=np.int64)
    cb = Codebook(cfg, uniform_binary_input_aux(), ch, empty[:, 0], empty,
                  empty, np.zeros(sizes[:4] + (2,), dtype=np.int64), x)
    want = _kron_oracle(cb)
    # the default block, then blocks of a few cells: several row blocks,
    # some with a ragged last one
    for cells in (channel_core.ENUM_BLOCK_CELLS, _FEW_CELLS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(channel_core, "ENUM_BLOCK_CELLS", cells)
            rep = exact_equivocation(cb)
        got = (rep.h_w1_given_y3, rep.h_w2_given_y3, rep.h_w12_given_y3)
        assert got == pytest.approx(want, abs=1e-12)
