"""Receiver ordering predicates and the implication chain."""

import contextlib
import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bcsl import orderings
from bcsl.channel_core import Channel3, JointPmf, conditional_mi
from bcsl.errors import UsageError
from bcsl.orderings import (FAIL_TOL, _curvature, _excess, _excess_gradient,
                            _phi, _simplex_grid, implication_check,
                            is_degraded, is_less_noisy, is_more_capable)

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

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(nx=st.integers(2, 4), ny=st.integers(2, 3),
           log_eps=st.floats(-9.5, -6), seed=st.integers(0, 2 ** 32 - 1))
    def test_true_verdict_rests_on_a_checked_witness(self, nx, ny, log_eps,
                                                     seed):
        # B = A W moved by 10^log_eps, between DEGRADED_TOL and well past
        # HiGHS's 1e-7 feasibility tolerance: a true verdict needs a
        # row-stochastic witness that meets DEGRADED_TOL itself
        rng = np.random.default_rng(seed)
        a = rng.dirichlet(np.ones(ny), size=nx)
        b = a @ rng.dirichlet(np.ones(ny), size=ny)
        d = rng.normal(size=(nx, ny))
        d -= d.mean(axis=1, keepdims=True)
        b += 10 ** log_eps * d / np.abs(d).max()
        assume(np.all(b >= 0))
        b /= b.sum(axis=1, keepdims=True)
        p = np.einsum("xi,j,xk->xijk", a, np.full(2, 0.5), b)
        rep = is_degraded(Channel3(nx, ny, 2, ny, p), 1, 3)
        if rep.verdict is True:
            w = rep.witness
            assert np.all(w >= 0)
            assert np.abs(w.sum(axis=1) - 1).max() <= 1e-12
            assert np.abs(a @ w - b).max() <= 1e-9

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
        # past GRID_CAP inputs the scan has no grid, only the uniform pmf and
        # the Dirichlet draws, and the report says so
        ch = random_channel(rng, 4, 2, 2, 2)
        rep = is_more_capable(ch, 1, 3, seed=0)
        assert rep.grid_resolution == 0
        assert rep.verdict in (True, False, None)

    def test_ascent_leaves_the_simplex_boundary(self):
        # I(X;Y_1) − I(X;Y_3) peaks at 1 bit on the edge p = (1/2, 0, 0, 1/2):
        # Y_1 is x mod 2 without noise, and Y_3 is the same symbol for x = 0
        # and x = 3.  The ascent passes faces where some Y_3 symbol has
        # probability 0; the gradient there must stay steep, not read as 0
        w1 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        w3 = np.array([[0.0, 0.0, 1.0], [0.0, 0.75, 0.25],
                       [0.9, 0.01, 0.09], [0.0, 0.0, 1.0]])
        ch = product_channel(w1, np.full((4, 2), 0.5), w3)
        for restarts in (0, 2, 8):
            rep = is_more_capable(ch, 3, 1, restarts=restarts, seed=0)
            assert rep.gap == pytest.approx(1.0, abs=1e-9)

    def test_face_rule_finds_excess_next_to_a_vertex(self, monkeypatch):
        # I(X;Y_2) − I(X;Y_1) is positive only within about 1e-3 of e_2
        # toward e_1: W_2[2, 2] = 0 < W_2[1, 2], while W_1[2] has no zero
        # entry, so it rises there like t·log2(1/t).  The grid and the
        # draws miss it, and the face rule's edge search finds it
        w1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.871, 0.129]])
        w2 = np.array([[0.153, 0.847, 0.0], [0.844, 0.0, 0.156],
                       [0.314, 0.686, 0.0]])
        w3 = np.array([[0.393, 0.035, 0.572], [0.0, 1.0, 0.0],
                       [0.249, 0.0, 0.751]])
        ch = product_channel(w1, w2, w3)
        rep = is_more_capable(ch, 1, 2, seed=0)
        assert rep.verdict is False and rep.gap > FAIL_TOL

        def mi(w):
            j = JointPmf(("X", "Y"), rep.witness[:, None] * w)
            return conditional_mi(j, ["X"], ["Y"], [])

        assert rep.gap == pytest.approx(
            mi(ch.marginal_to(2)) - mi(ch.marginal_to(1)), abs=1e-12)
        monkeypatch.setattr(orderings, "_face_edges", lambda wa, wb: [])
        assert is_more_capable(ch, 1, 2, seed=0).verdict is True


class TestLessNoisy:
    def test_cascade(self, cascade):
        assert is_less_noisy(cascade, 1, 3, seed=0).verdict is True
        assert is_less_noisy(cascade, 2, 3, seed=0).verdict is True

    def test_reverse_fails(self, cascade):
        assert is_less_noisy(cascade, 3, 1, seed=0).verdict is False

    @pytest.mark.parametrize("w2, w3", [
        # the second output, which both receivers' second rows miss
        ([[0.534, 0.216, 0.25], [0.111, 0.0, 0.889], [0.0, 0.665, 0.335]],
         [[0.232, 0.107, 0.661], [0.029, 0.0, 0.971],
          [0.412, 0.136, 0.452]]),
        # the third output, which only receiver 2's second row misses
        ([[0.02, 0.932, 0.048], [0.761, 0.239, 0.0], [0.0, 0.0, 1.0]],
         [[0.513, 0.018, 0.469], [0.066, 0.181, 0.753],
          [0.591, 0.409, 0.0]])])
    def test_face_corners_find_a_defect_next_to_a_vertex(self, w2, w3,
                                                         monkeypatch):
        # φ = H(pW_3) − H(pW_2) fails to be convex only within about 1e-2
        # of e_2, where an output that the second input misses has a small
        # probability.  The grid does not reach in that far, and the points
        # near e_2 do
        w1 = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ch = product_channel(w1, np.array(w2), np.array(w3))
        rep = is_less_noisy(ch, 2, 3, seed=0)
        assert rep.verdict is False and rep.gap > FAIL_TOL

        def mi(w):
            j = JointPmf(("U", "X", "Y"), rep.witness[:, :, None] * w[None])
            return conditional_mi(j, ["U"], ["Y"], [])

        assert rep.gap == pytest.approx(
            mi(ch.marginal_to(3)) - mi(ch.marginal_to(2)), abs=1e-12)
        monkeypatch.setattr(orderings, "_face_corners", lambda wa, wb: [])
        assert is_less_noisy(ch, 2, 3, seed=0).verdict is True

    def test_no_face_corners_without_zero_entries(self, rng):
        for nx in (2, 3):
            wa, wb = _stochastic(rng, nx, 3), _stochastic(rng, nx, 2)
            assert list(orderings._face_corners(wa, wb)) == []


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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(nx=st.integers(2, 3), sizes=st.tuples(*[st.integers(2, 3)] * 3),
       pair=st.permutations([1, 2, 3]), restarts=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
def test_more_capable_gap_reaches_grid_maximum(nx, sizes, pair, restarts,
                                               seed):
    # the reported gap is no less than the best I(X;Y_b) − I(X;Y_a) over a
    # fine grid of input pmfs: 100 001 points for binary X, resolution 400
    # for ternary X
    rng = np.random.default_rng(seed)
    ch = product_channel(*(_stochastic(rng, nx, ny) for ny in sizes))
    a, b = pair[:2]
    rep = is_more_capable(ch, a, b, restarts=restarts, seed=seed % 997)
    if nx == 2:
        t = np.arange(100_001) / 100_000
        grid = np.stack([t, 1 - t], axis=1)
    else:
        grid = _simplex_grid(3, 400)

    def mi(w):
        joint = grid[:, :, None] * w
        prod = grid[:, :, None] * joint.sum(axis=1)[:, None, :]
        ratio = np.divide(joint, prod, out=np.ones_like(joint),
                          where=joint > 0)
        return (joint * np.log2(ratio)).sum(axis=(1, 2))

    best = (mi(ch.marginal_to(b)) - mi(ch.marginal_to(a))).max()
    assert rep.gap >= best - 1e-9


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(nx=st.integers(2, 4), nya=st.integers(2, 3), nyb=st.integers(2, 3),
       seed=st.integers(0, 2**32 - 1))
def test_phi_derivatives_match_differences(nx, nya, nyb, seed):
    # at an interior input pmf p, along random tangent directions u: the
    # ascent's gradient is the slope of I(X;Y_b) − I(X;Y_a) = φ − p·Δh, and
    # the less-noisy scan's Hessian the second derivative of −φ
    rng = np.random.default_rng(seed)
    wa, wb = _stochastic(rng, nx, nya), _stochastic(rng, nx, nyb)
    dh = _phi(np.eye(nx), wa, wb)
    p = 0.5 * rng.dirichlet(np.ones(nx)) + 0.5 / nx
    grad = _excess_gradient(p, wa, wb, dh)
    hess = (_curvature(p[None], wb) - _curvature(p[None], wa))[0] / np.log(2)
    for u in rng.normal(size=(3, nx)):
        u -= u.mean()
        u /= np.abs(u).max()

        def excess(t):
            return _excess(p + t * u, wa, wb, dh)

        def phi(t):
            return _phi(p + t * u, wa, wb)

        assert grad @ u == pytest.approx(
            (excess(1e-5) - excess(-1e-5)) / 2e-5, rel=1e-6, abs=1e-8)
        assert u @ hess @ u == pytest.approx(
            -(phi(1e-4) - 2 * phi(0.0) + phi(-1e-4)) / 1e-8,
            rel=1e-4, abs=1e-5)


# The ordering searches' kernel before it summed the outputs column by
# column: the reference that the bitwise tests below hold the kernel to.

def _log2_reference(q):
    return np.log2(q, out=np.full_like(q, np.log2(1e-300)), where=q > 0)


def _entropy_reference(p, w):
    q = (p.reshape(-1, w.shape[0]) @ w).reshape(*p.shape[:-1], w.shape[1])
    return -(q * _log2_reference(q)).sum(axis=-1)


@contextlib.contextmanager
def _reference_kernel():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orderings, "_log2", _log2_reference)
        mp.setattr(orderings, "_entropy", _entropy_reference)
        yield


def _is_less_noisy_reference(ch, a, b, restarts, seed):
    """`is_less_noisy` with its line search's two `.mean(axis=2)` calls,
    on the same input pmfs."""
    nx = ch.nx
    gap, witness = 0.0, np.full((2, nx), 1.0 / (2 * nx))
    if a == b or nx == 1:
        return orderings.OrderingReport("less_noisy", (a, b), True, gap,
                                        witness, ch.sha256)
    wa, wb = (w[:, w.any(axis=0)]
              for w in (ch.marginal_to(a), ch.marginal_to(b)))
    used_resolution, points = orderings._scan_points(nx, restarts, seed)
    basis = np.linalg.qr(np.eye(nx)[:, :-1] - 1.0 / nx)[0]
    steps = np.arange(1, orderings._STEPS + 1) / orderings._STEPS
    scanned = 0
    for p in itertools.chain(points, orderings._face_corners(wa, wb)):
        p = p[(p > 0).all(axis=1)]
        scanned += len(p)
        hess = (_curvature(p, wb) - _curvature(p, wa)) / orderings._LOG2
        lam, vec = np.linalg.eigh(basis.T @ hess @ basis)
        pos = lam[:, -1] > 0
        if not pos.any():
            continue
        p = p[pos]
        v = vec[pos, :, -1] @ basis.T
        reach = np.divide(p, np.abs(v), out=np.full_like(p, np.inf),
                          where=v != 0).min(axis=1)
        delta = (reach[:, None] * steps)[..., None, None]
        cond = np.maximum(p[:, None, None]
                          + delta * np.stack([v, -v], axis=1)[:, None], 0.0)
        score = (orderings._phi(cond.mean(axis=2), wa, wb)
                 - orderings._phi(cond, wa, wb).mean(axis=2))
        best = np.unravel_index(np.argmax(score), score.shape)
        if score[best] > gap:
            gap, witness = float(score[best]), 0.5 * cond[best]
    return orderings.OrderingReport(
        "less_noisy", (a, b), orderings._band_verdict(gap), gap, witness,
        ch.sha256, restarts=restarts, grid_resolution=used_resolution,
        note="numerically certified only up to search effort; concavity "
             f"scan of {scanned} input pmfs, |U|=2")


def _sparse_stochastic(rng, rows, cols):
    """Rows with zero entries, and about one output in four that no row
    reaches."""
    w = rng.dirichlet(np.ones(cols), size=rows)
    w[rng.random(w.shape) < 0.35] = 0.0
    w[:, rng.random(cols) < 0.25] = 0.0
    for r in w:
        if not r.any():
            r[rng.integers(cols)] = 1.0
    return w / w.sum(axis=1, keepdims=True)


def _both_searches(ch, a, b, restarts, seed):
    """(less noisy, more capable) reports of the kernel and of the
    reference, as JSON text: equal text means bitwise-equal floats."""
    def text(*reports):
        return [json.dumps(r.to_dict()) for r in reports]

    new = text(is_less_noisy(ch, a, b, restarts=restarts, seed=seed),
               is_more_capable(ch, a, b, restarts=restarts, seed=seed))
    with _reference_kernel():
        ref = text(_is_less_noisy_reference(ch, a, b, restarts, seed),
                   is_more_capable(ch, a, b, restarts=restarts, seed=seed))
    return new, ref


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(nx=st.integers(1, 4), ny=st.tuples(*[st.integers(1, 7)] * 2),
       restarts=st.integers(0, 3), sparse=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(nx=3, ny=(3, 7), restarts=0, sparse=True, seed=0)
def test_kernel_reports_equal_the_reference_bitwise(nx, ny, restarts, sparse,
                                                    seed):
    # every gap, witness, verdict and note of both searches, with fewer
    # than 8 outputs per receiver, on dense rows and on rows with zeros
    rng = np.random.default_rng(seed)
    draw = _sparse_stochastic if sparse else _stochastic
    ch = product_channel(draw(rng, nx, ny[0]), draw(rng, nx, 2),
                         draw(rng, nx, ny[1]))
    new, ref = _both_searches(ch, 1, 3, restarts, seed % 997)
    assert new == ref
    new, ref = _both_searches(ch, 3, 1, restarts, seed % 997)
    assert new == ref


@pytest.mark.parametrize("seed", range(4))
def test_kernel_on_wide_alphabets_matches_reference_to_last_bits(seed):
    # with 8 or more outputs numpy sums pairwise and the kernel in order
    rng = np.random.default_rng(seed)
    nx = 2 + seed % 2
    ch = product_channel(_stochastic(rng, nx, 8), _stochastic(rng, nx, 2),
                         _sparse_stochastic(rng, nx, 9))
    for a, b in ((1, 3), (3, 1)):
        new, ref = _both_searches(ch, a, b, 1, seed)
        for n, r in zip(map(json.loads, new), map(json.loads, ref)):
            assert n["verdict"] == r["verdict"]
            assert abs(n["gap_bits"] - r["gap_bits"]) <= 1e-12


@pytest.mark.parametrize("resolution", [1, 2, 7, 64])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_simplex_grid_rows_in_lexicographic_order(dim, resolution):
    comps = [c + (resolution - sum(c),)
             for c in itertools.product(range(resolution + 1), repeat=dim - 1)
             if sum(c) <= resolution]
    want = np.array(comps, dtype=float) / resolution
    got = _simplex_grid(dim, resolution)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("key", range(16))
def test_orderings_agree_with_benchmark_refs(key, tmp_path, capsys):
    # every verdict triple of every key of the orderings benchmark equals
    # the reference made at the seed commit
    check_benchmark_key("orderings", key, tmp_path)
    capsys.readouterr()


@pytest.mark.parametrize("pair", [(1, 3), (3, 1)])
@pytest.mark.parametrize("predicate",
                         [is_degraded, is_less_noisy, is_more_capable])
def test_report_round_trips_through_its_dict(cascade, predicate, pair):
    rep = predicate(cascade, *pair)
    for r in (rep, dataclasses.replace(rep, witness=None)):
        back = orderings.OrderingReport.from_dict(
            json.loads(json.dumps(r.to_dict())))
        assert back.to_dict() == r.to_dict()
        assert back.pair == r.pair and back.verdict is r.verdict
        if r.witness is None:
            assert back.witness is None
        else:
            assert back.witness.tobytes() == r.witness.tobytes()


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
