"""Receiver ordering predicates and the implication chain."""

import numpy as np
import pytest

from bcsl.errors import UsageError
from bcsl.orderings import (implication_check, is_degraded, is_less_noisy,
                            is_more_capable)

from conftest import bsc, cascade_channel, product_channel, random_channel


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
        # past grid_cap the search falls back to multistart only, the same
        # search as an explicit grid_resolution=0, and reports no grid
        ch = random_channel(rng, 4, 2, 2, 2)
        rep = is_more_capable(ch, 1, 3, seed=0)
        assert rep.grid_resolution == 0
        assert rep.verdict in (True, False, None)
        bare = is_more_capable(ch, 1, 3, seed=0, grid_resolution=0)
        assert (rep.gap, rep.verdict) == (bare.gap, bare.verdict)
        assert np.array_equal(rep.witness, bare.witness)


class TestLessNoisy:
    def test_cascade(self, cascade):
        assert is_less_noisy(cascade, 1, 3, seed=0).verdict is True
        assert is_less_noisy(cascade, 2, 3, seed=0).verdict is True

    def test_reverse_fails(self, cascade):
        assert is_less_noisy(cascade, 3, 1, seed=0).verdict is False


class TestImplicationChain:
    def test_cascade_consistent(self, cascade):
        rep = implication_check(cascade, 1, 3, seed=0)
        assert rep.consistent
        assert rep.degraded.verdict is True
        assert rep.less_noisy.verdict is True
        assert rep.more_capable.verdict is True

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
