"""Receiver ordering predicates and the implication chain."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bcsl.channel_core import Channel3, JointPmf, conditional_mi
from bcsl.errors import UsageError
from bcsl.orderings import (implication_check, is_degraded, is_less_noisy,
                            is_more_capable)

from conftest import (bsc, cascade_channel, check_benchmark_key,
                      product_channel, random_channel)


@pytest.fixture(scope="module")
def cascade():
    return cascade_channel(0.1, 0.1, 0.05)


class TestDegraded:
    def test_cascade_directions(self, cascade):
        assert is_degraded(cascade, 1, 3).verdict is True
        assert is_degraded(cascade, 1, 2).verdict is True
        assert is_degraded(cascade, 2, 3).verdict is True
        assert is_degraded(cascade, 3, 1).verdict is False

    def test_witness_reproduces_marginal(self, cascade):
        rep = is_degraded(cascade, 1, 3)
        w = rep.witness
        m1 = cascade.marginal_to(1)
        m3 = cascade.marginal_to(3)
        assert np.allclose(m1 @ w, m3, atol=1e-7)
        assert np.all(w >= -1e-9)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)

    def test_self_pair_identity(self, cascade):
        rep = is_degraded(cascade, 2, 2)
        assert rep.verdict is True

    def test_bad_pair(self, cascade):
        with pytest.raises(UsageError):
            is_degraded(cascade, 0, 3)


class TestMoreCapable:
    def test_cascade(self, cascade):
        assert is_more_capable(cascade, 1, 3, seed=0).verdict is True
        rep = is_more_capable(cascade, 3, 1, seed=0)
        assert rep.verdict is False
        # worst gap for a degraded BSC pair is at the uniform input
        m1 = cascade.marginal_to(1)
        m3 = cascade.marginal_to(3)

        def cap(m):
            px = np.array([0.5, 0.5])
            py = px @ m
            h_y = -(py * np.log2(py)).sum()
            h_y_x = -(px[:, None] * m * np.log2(m)).sum()
            return h_y - h_y_x

        assert rep.gap == pytest.approx(cap(m1) - cap(m3), abs=1e-6)

    def test_grid_cap(self, rng):
        # past GRID_CAP inputs the search falls back to multistart only and
        # reports no grid
        ch = random_channel(rng, 4, 2, 2, 2)
        rep = is_more_capable(ch, 1, 3, seed=0)
        assert rep.grid_resolution == 0
        assert rep.verdict in (True, False, None)


class TestLessNoisy:
    def test_cascade(self, cascade):
        assert is_less_noisy(cascade, 1, 3, seed=0).verdict is True
        assert is_less_noisy(cascade, 2, 3, seed=0).verdict is True

    def test_reverse_fails(self, cascade):
        assert is_less_noisy(cascade, 3, 1, seed=0).verdict is False


def _stochastic(rng, rows, cols):
    return rng.dirichlet(np.ones(cols), size=rows)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(nx=st.integers(2, 4), ny=st.integers(2, 3), nyb=st.integers(2, 3),
       seed=st.integers(0, 2**32 - 1))
def test_degraded_pair_is_less_noisy(nx, ny, nyb, seed):
    # Y3 = Y1 M for a stochastic M: degraded, so less noisy and more capable
    rng = np.random.default_rng(seed)
    w1 = _stochastic(rng, nx, ny)
    ch = product_channel(w1, _stochastic(rng, nx, 2),
                         w1 @ _stochastic(rng, ny, nyb))
    rep = implication_check(ch, 1, 3, restarts=2, seed=seed % 997)
    assert rep.less_noisy.verdict is True
    assert rep.consistent, rep.violations


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(nx=st.integers(2, 4), sizes=st.tuples(*[st.integers(2, 3)] * 3),
       pair=st.permutations([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
@example(nx=2, sizes=(2, 2, 2), pair=[3, 1, 2], seed=0)
def test_less_noisy_gap_is_witnessed(nx, sizes, pair, seed):
    # the reported gap is I(U;Y_b) − I(U;Y_a) of the witness p(u,x), as
    # the MI engine computes it
    rng = np.random.default_rng(seed)
    ch = product_channel(*(_stochastic(rng, nx, ny) for ny in sizes))
    a, b = pair[:2]
    rep = is_less_noisy(ch, a, b, restarts=2, seed=seed % 997)
    assert rep.witness.shape == (2, nx)

    def mi(w):
        j = JointPmf(("U", "X", "Y"), rep.witness[:, :, None] * w[None])
        return conditional_mi(j, ["U"], ["Y"], [])

    assert rep.gap >= 0.0
    assert rep.gap == pytest.approx(
        mi(ch.marginal_to(b)) - mi(ch.marginal_to(a)), abs=1e-12)


def test_orderings_agree_with_benchmark_refs(tmp_path, capsys):
    # every verdict triple of one key of the orderings benchmark equals the
    # reference made at the seed commit
    check_benchmark_key("orderings", 0, tmp_path)
    capsys.readouterr()


class TestImplicationChain:
    def test_cascade_consistent(self, cascade):
        rep = implication_check(cascade, 1, 3, seed=0)
        assert rep.consistent
        assert rep.degraded.verdict is True
        assert rep.less_noisy.verdict is True
        assert rep.more_capable.verdict is True

    def test_single_input_letter(self):
        ch = Channel3(1, 2, 2, 2, np.full((1, 2, 2, 2), 1 / 8))
        rep = implication_check(ch, 1, 3, restarts=2, seed=0)
        assert rep.consistent
        assert all(r.verdict is True and r.gap == 0.0 for r in
                   (rep.degraded, rep.less_noisy, rep.more_capable))

    def test_unreachable_output_symbol(self):
        # Y1's third symbol has probability 0 under every input
        w1 = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0]])
        ch = product_channel(w1, bsc(0.1), np.array([[0.7, 0.3], [0.4, 0.6]]))
        forward = implication_check(ch, 1, 3, restarts=2, seed=0)
        backward = implication_check(ch, 3, 1, restarts=2, seed=0)
        assert forward.consistent and backward.consistent
        assert forward.less_noisy.verdict is True
        assert backward.less_noisy.verdict is False

    def test_random_channels_consistent(self, rng):
        for k in range(20):
            nx = int(rng.integers(2, 4))
            ch = random_channel(rng, nx, 2, 2, 2)
            a, b = rng.choice([1, 2, 3], size=2, replace=False)
            rep = implication_check(ch, int(a), int(b), restarts=8, seed=k)
            assert rep.consistent, rep.violations


class TestDeterminism:
    def test_same_seed_same_report(self, cascade):
        r1 = is_less_noisy(cascade, 1, 3, seed=5)
        r2 = is_less_noisy(cascade, 1, 3, seed=5)
        assert r1.gap == r2.gap and r1.verdict == r2.verdict
