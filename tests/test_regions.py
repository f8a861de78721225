"""Bound evaluation, the single-auxiliary collapse, and frontier search."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bcsl import channel_core
from bcsl.channel_core import (JOINT_AXES, Channel3, conditional_mi,
                               induced_joint)
from bcsl.errors import PreconditionError, UsageError, ValidationError
from bcsl.fme import (IneqSystem, is_constant_symbol, load_fixture,
                      parse_mi_name)
from bcsl.orderings import is_less_noisy, is_more_capable
from bcsl.regions import (AuxJoint, BoundId, FactorBlocks, LP_FEAS_TOL,
                          PERTURB_STEP, RATE_SYMBOLS, PolytopeRow,
                          RatePolytope, RateTuple, SearchConfig,
                          SearchEffort, _FIXTURES, _Scorer, _compile,
                          _dual_vertices, _instantiate, _renorm,
                          _preconditions, check_markov, eval_bound,
                          eval_cor3_match, max_weighted_rate, polytope_lp)

from conftest import (bsc, cascade_channel, check_benchmark_key,
                      identical_y1_y3_channel, ksym,
                      noiseless_identical_channel, product_channel,
                      random_channel)


@pytest.fixture(scope="module")
def cascade():
    return cascade_channel(0.1, 0.08, 0.08)


@pytest.fixture(scope="module")
def mc13(cascade):
    return is_more_capable(cascade, 1, 3, seed=0)


@pytest.fixture(scope="module")
def ln_reports(cascade):
    return [is_less_noisy(cascade, 1, 3, seed=0),
            is_less_noisy(cascade, 2, 3, seed=0)]


def _owner_loop_joint(state):
    """p(u1) p(u2|u1) p(u3,x|u2) written entry by entry, u1 = a owning the
    U2 and U3 symbols j with j mod m1 = a."""
    m1, m2, m3, nx = state.m1, state.m2, state.m3, state.nx
    own2 = [[j for j in range(m2) if j % m1 == a] for a in range(m1)]
    own3 = [[k for k in range(m3) if k % m1 == a] for a in range(m1)]
    p1, p21, p32 = (state.blocks[0], state.blocks[1:1 + m1],
                    state.blocks[1 + m1:])
    assert len(p32) == m2
    joint = np.zeros((m1, m2, m3, nx))
    for a in range(m1):
        for jj, j in enumerate(own2[a]):
            block = p32[j].reshape(len(own3[a]), nx)
            for kk, k in enumerate(own3[a]):
                joint[a, j, k, :] = p1[a] * p21[a][jj] * block[kk]
    return joint


class TestAuxJoint:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(m1=st.integers(1, 3), extra2=st.integers(0, 3),
           extra3=st.integers(0, 3), nx=st.integers(2, 3),
           steps=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_sampler_satisfies_all_chains(self, m1, extra2, extra3, nx,
                                          steps, seed):
        # the search scores FactorBlocks auxiliaries without eval_bound's
        # Markov gate; that is sound only because every member, perturbed
        # or not, passes the gate and evaluates exactly as through it
        rng = np.random.default_rng(seed)
        ch = random_channel(rng, nx, 2, 2, 2)
        # a stack of three, perturbed as the search perturbs it: each
        # auxiliary's joint in the stack is its joint alone
        rngs = [np.random.default_rng([seed, r]) for r in range(3)]
        stack = FactorBlocks.stack([
            FactorBlocks.random(g, m1, m1 + extra2, m1 + extra3, nx)
            for g in rngs])
        for _ in range(steps):
            stack = stack.perturbed(rngs, PERTURB_STEP)
        joints = stack.joint()
        for r in range(3):
            state = stack[r]
            assert joints[r].tobytes() == state.joint().tobytes()
            assert joints[r].tobytes() == _owner_loop_joint(state).tobytes()
        aux = state.to_aux()
        assert all(r <= 1e-12 for _, r in check_markov(aux))
        joint = induced_joint(ch, aux)
        for bound in BoundId:
            notes = _preconditions(bound, ch, None, True)
            assert _instantiate(bound, joint, notes) == eval_bound(
                bound, ch, aux, override=True)

    def test_independent_variables_zero_residual(self):
        p = np.full((2, 2, 2, 2), 1 / 16)
        assert all(r == pytest.approx(0.0, abs=1e-12)
                   for _, r in check_markov(AuxJoint(2, 2, 2, 2, p)))

    def test_copy_aux_violates_first_chain(self):
        # U1 = X, U2 independent of both: I(U1; X | U2) = H(X|U2) > 0
        p = np.zeros((2, 2, 1, 2))
        for u1 in range(2):
            for u2 in range(2):
                p[u1, u2, 0, u1] = 0.25
        residuals = dict(check_markov(AuxJoint(2, 2, 1, 2, p)))
        assert residuals["U1->U2->(U3,X)"] > 0.5

    def test_invalid_pmf_rejected(self):
        with pytest.raises(ValidationError):
            AuxJoint(2, 2, 2, 2, np.full((2, 2, 2, 2), 0.9 / 16))
        p = np.full((2, 2, 2, 2), 1 / 16)
        p[0, 0, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            AuxJoint(2, 2, 2, 2, p)

    def test_cardinality_floor(self):
        with pytest.raises(UsageError):
            FactorBlocks.uniform(3, 2, 3, 2)


class TestRateTuple:
    def test_invariants(self):
        RateTuple(0.1, 0.2, 0.1, 0.3, 0.0)
        with pytest.raises(ValidationError):
            RateTuple(-0.1, 0, 0, 0, 0)
        with pytest.raises(ValidationError):
            RateTuple(0, 0.1, 0.2, 0, 0)   # R1e > R1


class TestEvalBound:
    def test_rhs_matches_brute_force(self, rng, cascade):
        # every row of every bound equals its fixture inequality, recomputed
        # independently from the raw joint; a side condition (a fixture row
        # with no rate terms) is a row with no rate coefficients
        for _ in range(5):
            aux = FactorBlocks.random(rng, 2, 3, 3, 2).to_aux()
            j = induced_joint(cascade, aux)

            def consts(ineq):
                # value of the constants moved to the left-hand side
                return sum(float(c) * conditional_mi(j, *parse_mi_name(s))
                           for s, c in ineq.coeffs if is_constant_symbol(s))

            for bound in BoundId:
                pol = eval_bound(bound, cascade, aux, override=True)
                fixture = {r.tag: r
                           for r in load_fixture(_FIXTURES[bound]).rows}
                tags = [r.tag for r in pol.rows]
                assert set(tags) <= set(fixture)
                if bound is not BoundId.OUTER_NO_SECRECY:
                    assert tags == list(fixture)
                for row in pol.rows:
                    ineq = fixture[row.tag]
                    assert dict(row.coeffs) == {
                        s: c for s, c in ineq.coeffs
                        if not is_constant_symbol(s)}
                    assert row.rhs == pytest.approx(-consts(ineq), abs=1e-10)
                rate_free = {r.tag for r in pol.rows if r.coeffs == ()}
                assert rate_free == {
                    BoundId.INNER_3DM: {"side_condition"},
                    BoundId.INNER_TYPE1: {"side_condition_a",
                                          "side_condition_b"},
                }.get(bound, set())

    def test_label_permutation_invariance(self, rng, cascade):
        aux = FactorBlocks.random(rng, 2, 3, 3, 2).to_aux()
        perm = [2, 0, 1]
        permuted = AuxJoint(2, 3, 3, 2, aux.p[:, perm, :, :])
        a = eval_bound(BoundId.INNER_3DM, cascade, aux)
        b = eval_bound(BoundId.INNER_3DM, cascade, permuted)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.rhs == pytest.approx(rb.rhs, abs=1e-12)

    def test_u3_constant_zeroes_common_rate(self, rng, cascade):
        aux = FactorBlocks.random(rng, 1, 2, 1, 2).to_aux()
        pol = eval_bound(BoundId.INNER_3DM, cascade, aux)
        assert pol.row("common").rhs == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_secrecy_y1_equals_y3(self, rng):
        ch = identical_y1_y3_channel(rng)
        aux = FactorBlocks.random(rng, 2, 3, 3, 2).to_aux()
        pol = eval_bound(BoundId.INNER_3DM, ch, aux)
        r1e = min(pol.row("r1e_via_y2").rhs, pol.row("r1e_via_y1").rhs)
        assert r1e <= 1e-9
        assert abs(pol.row("r2e_cap").rhs) <= 1e-9
        assert abs(pol.row("joint_secrecy").rhs) <= 1e-9

    def test_both_r1e_ceilings_emitted(self, rng, cascade):
        aux = FactorBlocks.random(rng, 2, 3, 3, 2).to_aux()
        pol = eval_bound(BoundId.INNER_3DM, cascade, aux)
        tags = {r.tag for r in pol.rows}
        assert {"r1e_via_y2", "r1e_via_y1"} <= tags
        binding = min(pol.row("r1e_via_y2").rhs, pol.row("r1e_via_y1").rhs)
        assert binding == min(r.rhs for r in pol.rows
                              if r.tag.startswith("r1e_via"))

    def test_markov_violation_rejected(self, cascade):
        p = np.zeros((2, 1, 2, 2))
        for u in range(2):
            p[u, 0, u, u] = 0.5     # U2 constant, U3 = X = U1
        with pytest.raises(ValidationError):
            eval_bound(BoundId.INNER_3DM, cascade, AuxJoint(2, 1, 2, 2, p))

    def test_outer_needs_ordering_report(self, rng, cascade, mc13):
        aux = FactorBlocks.random(rng, 2, 3, 3, 2).to_aux()
        with pytest.raises(PreconditionError):
            eval_bound(BoundId.OUTER_3DM, cascade, aux)
        pol = eval_bound(BoundId.OUTER_3DM, cascade, aux,
                         ordering_reports=[mc13])
        assert pol.rows
        pol2 = eval_bound(BoundId.OUTER_3DM, cascade, aux, override=True)
        assert any("condition unverified" in n for n in pol2.notes)

    def test_secrecy_rows_never_enlarge_projection(self, rng, cascade, mc13):
        # LP inclusion: max of any (R0,R1,R2) objective under Outer3DM is
        # at most the same max under OuterNoSecrecy
        for _ in range(5):
            aux = FactorBlocks.random(rng, 2, 3, 3, 2).to_aux()
            full = eval_bound(BoundId.OUTER_3DM, cascade, aux,
                              ordering_reports=[mc13])
            nosec = eval_bound(BoundId.OUTER_NO_SECRECY, cascade, aux)
            for _ in range(5):
                w = np.zeros(5)
                w[[0, 1, 3]] = rng.random(3)
                got_full = polytope_lp(full, w)
                if got_full is None:
                    continue    # empty per-aux slice is trivially included
                got_nosec = polytope_lp(nosec, w)
                assert got_nosec is not None
                assert got_full[1] <= got_nosec[1] + 1e-8


def _vertex_enum_max(pol, w):
    """Oracle: enumerate basic feasible points of the 5-D polytope."""
    idx = {s: i for i, s in enumerate(("R0", "R1", "R1e", "R2", "R2e"))}
    a_rows = []
    b_rows = []
    for row in pol.rows:
        coeff = np.zeros(5)
        for s, c in row.coeffs:
            coeff[idx[s]] = c
        a_rows.append(coeff)
        b_rows.append(row.rhs)
    for e, r in (("R1e", "R1"), ("R2e", "R2")):
        coeff = np.zeros(5)
        coeff[idx[e]], coeff[idx[r]] = 1.0, -1.0
        a_rows.append(coeff)
        b_rows.append(0.0)
    for i in range(5):
        coeff = np.zeros(5)
        coeff[i] = -1.0
        a_rows.append(coeff)
        b_rows.append(0.0)
    for s in set(idx) - set(pol.free_symbols):
        coeff = np.zeros(5)
        coeff[idx[s]] = 1.0
        a_rows.append(coeff)
        b_rows.append(0.0)
        a_rows.append(-coeff)
        b_rows.append(0.0)
    a = np.array(a_rows)
    b = np.array(b_rows)
    best = -np.inf
    for combo in itertools.combinations(range(len(a_rows)), 5):
        sub = a[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        v = np.linalg.solve(sub, b[list(combo)])
        if np.all(a @ v <= b + 1e-8):
            best = max(best, float(np.asarray(w) @ v))
    return best


class TestPolytopeLp:
    def test_matches_vertex_enumeration(self, rng, cascade):
        aux = FactorBlocks.random(rng, 2, 3, 3, 2).to_aux()
        pol = eval_bound(BoundId.INNER_3DM, cascade, aux)
        for _ in range(4):
            w = rng.random(5)
            _, got = polytope_lp(pol, w)
            want = _vertex_enum_max(pol, w)
            assert got == pytest.approx(want, abs=1e-7)

    def test_hand_built_polytope_solved_by_its_own_rows(self, rng):
        # polytope_lp reads the matrices from pol's rows and free rates,
        # not from the bound it names
        pol = RatePolytope("inner3dm", (
            PolytopeRow("common", (("R0", 1), ("R1", 1)), 0.5),
            PolytopeRow("r1", (("R1", 2),), 0.6),
            PolytopeRow("secret", (("R1e", 1), ("R0", 1)), 0.4)),
            free_symbols=("R0", "R1", "R1e"))
        for _ in range(4):
            w = rng.random(5)
            rate, got = polytope_lp(pol, w)
            assert got == pytest.approx(_vertex_enum_max(pol, w), abs=1e-7)
            assert rate.r2 == rate.r2e == 0.0

    def test_negative_coefficient_beside_constants_rejected(self,
                                                            monkeypatch):
        # r = 0 is feasible iff every rhs is >= 0 only while each row with
        # information constants has nonnegative rate coefficients
        system = IneqSystem.parse("r1e_gap: R1e - R1 <= I(X;Y1)\n")
        monkeypatch.setattr("bcsl.regions.load_fixture", lambda name: system)
        with pytest.raises(ValidationError):
            _compile.__wrapped__(BoundId.INNER_3DM)


class TestCor3Match:
    def test_cascade_collapse(self, rng, cascade, ln_reports):
        for _ in range(10):
            pux = rng.dirichlet(np.ones(4)).reshape(2, 2)
            rep = eval_cor3_match(cascade, pux, ordering_reports=ln_reports)
            assert rep.matched, rep.to_dict()

    def test_u_constant(self, cascade, ln_reports):
        pux = np.array([[0.5, 0.5]])
        rep = eval_cor3_match(cascade, pux, ordering_reports=ln_reports)
        rows = {r.tag: r for r in rep.rows}
        assert rows["common"].region_rhs == pytest.approx(0.0, abs=1e-12)
        assert rep.matched

    def test_y1_equals_y3_kills_r1e(self, rng):
        ch = identical_y1_y3_channel(rng)
        pux = rng.dirichlet(np.ones(4)).reshape(2, 2)
        rep = eval_cor3_match(ch, pux, override=True)
        rows = {r.tag: r for r in rep.rows}
        assert rows["r1e_via_y1"].region_rhs <= 1e-9

    def test_precondition(self, cascade):
        with pytest.raises(PreconditionError):
            eval_cor3_match(cascade, np.full((2, 2), 0.25))


class TestMaxWeightedRate:
    def test_common_capacity_noiseless(self):
        ch = noiseless_identical_channel(2)
        rate, aux, value, _ = max_weighted_rate(
            BoundId.INNER_3DM, ch, [1, 0, 0, 0, 0],
            SearchConfig(restarts=8, iters=40, seed=2))
        assert value == pytest.approx(1.0, abs=0.02)

    def test_r2e_zero_when_y1_equals_y3(self, rng):
        ch = identical_y1_y3_channel(rng)
        rate, aux, value, _ = max_weighted_rate(
            BoundId.INNER_3DM, ch, [0, 0, 0, 0, 1],
            SearchConfig(restarts=4, iters=10, seed=1))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_deterministic(self, cascade):
        cfg = SearchConfig(restarts=3, iters=8, seed=9)
        a = max_weighted_rate(BoundId.INNER_3DM, cascade, [1, 1, 0, 0, 0], cfg)
        b = max_weighted_rate(BoundId.INNER_3DM, cascade, [1, 1, 0, 0, 0], cfg)
        assert a[2] == b[2]
        assert np.array_equal(a[1].p, b[1].p)

    def test_weights_validation(self, cascade):
        with pytest.raises(UsageError):
            max_weighted_rate(BoundId.INNER_3DM, cascade, [0, 0, 0, 0, 0])


def _binary_draws(n):
    """n seeded (channel, auxiliary) pairs: a binary channel whose rows are
    Dirichlet(0.3) draws, then a FactorBlocks auxiliary of sizes (1, 2, 2)."""
    rng = np.random.default_rng(0)
    for _ in range(n):
        p = rng.dirichlet(np.full(8, 0.3), size=2).reshape(2, 2, 2, 2)
        yield Channel3(2, 2, 2, 2, p), FactorBlocks.random(
            rng, 1, 2, 2, 2).to_aux()


class TestSideConditions:
    """A side condition is a bound row with no rate terms, so the polytope
    is empty wherever one fails, whatever the rate rows allow."""

    @pytest.mark.parametrize("bound", [BoundId.INNER_3DM,
                                       BoundId.INNER_TYPE1])
    def test_broken_side_condition_empties_polytope(self, bound):
        w = np.ones(5)
        broken = 0
        for ch, aux in _binary_draws(120):
            pol = eval_bound(bound, ch, aux)
            if pol.feasible or any(r.rhs < -LP_FEAS_TOL
                                   for r in pol.rows if r.coeffs):
                continue
            broken += 1
            (feasible,), _ = _Scorer(bound, ch, w)(aux.p[None])
            assert not feasible
            assert polytope_lp(pol, w) is None
        assert broken >= 1      # draw 116 breaks both bounds' conditions

    @pytest.mark.parametrize("draw,seed", [(1, 1), (5, 0), (5, 1)])
    def test_frontier_reports_auxiliary_meeting_side_conditions(self, draw,
                                                                seed):
        # on these channels the best points of the rate rows alone break
        # side_condition_a by 0.015 to 0.040 bits
        ch, _ = list(_binary_draws(draw + 1))[draw]
        _, aux, value, _ = max_weighted_rate(
            BoundId.INNER_TYPE1, ch, [0, 0, 1, 0, 1],
            SearchConfig(1, 2, 2, restarts=6, iters=60, seed=seed))
        assert value > 0
        assert eval_bound(BoundId.INNER_TYPE1, ch, aux).feasible

    @pytest.mark.parametrize("m1", [2, 3])
    def test_infeasible_starts_climb_to_a_value(self, m1):
        # on these channels the region_type2 polytope is empty at every
        # searched start, so a value needs restarts that climb their least
        # rhs until the polytope is nonempty
        rng = np.random.default_rng(7)
        for _ in range(6):
            ch = random_channel(rng, 2, 2, 3, 2)
            _, aux, value, _ = max_weighted_rate(
                BoundId.REGION_TYPE2, ch, [1, 1, 1, 0, 0],
                SearchConfig(m1=m1, restarts=4, iters=60), override=True)
            assert value > 0.002
            assert eval_bound(BoundId.REGION_TYPE2, ch, aux,
                              override=True).feasible


# the cascade is degraded toward Y3; in the last channel Y3 is the strongest
# receiver, so secrecy rows go negative and some polytopes are empty
_SCORER_CHANNELS = {
    "cascade": cascade_channel(0.1, 0.08, 0.08),
    "product3": product_channel(ksym(3, 0.05), ksym(3, 0.15),
                                ksym(3, 0.30)),
    "y3_strongest": product_channel(bsc(0.2), bsc(0.25), bsc(0.02)),
}


def _row_violation(pol, rate):
    """How far the rate tuple overshoots the polytope's worst row (bits)."""
    r = rate.as_dict()
    return max(0.0, *(sum(c * r[s] for s, c in row.coeffs) - row.rhs
                      for row in pol.rows))


class TestScorer:
    @pytest.mark.parametrize("bound", list(BoundId))
    def test_agrees_with_highs(self, bound):
        verdicts = []

        @settings(derandomize=True, max_examples=15, deadline=None)
        @given(weights=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                                min_size=5, max_size=5).filter(any),
               m1=st.integers(1, 3), extra2=st.integers(0, 2),
               extra3=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
        # all weight on rates that some bounds pin to zero
        @example(weights=[0, 0, 1, 0, 2], m1=2, extra2=1, extra3=0, seed=1)
        @example(weights=[0, 0, 0, 1, 1], m1=1, extra2=2, extra3=1, seed=2)
        def check(weights, m1, extra2, extra3, seed):
            rng = np.random.default_rng(seed)
            for ch in _SCORER_CHANNELS.values():
                score = _Scorer(bound, ch, np.asarray(weights, float))
                state = FactorBlocks.stack([FactorBlocks.random(
                    rng, m1, m1 + extra2, m1 + extra3, ch.nx)])
                for _ in range(2):
                    aux = state[0].to_aux()
                    (feasible,), (got,) = score(aux.p[None])
                    pol = eval_bound(bound, ch, aux, override=True)
                    want = polytope_lp(pol, weights)
                    assert feasible == (want is not None) == pol.feasible
                    if not feasible:
                        assert got == pytest.approx(
                            min(r.rhs for r in pol.rows), abs=1e-12)
                    else:
                        # HiGHS may return a point that violates rows by up
                        # to its 1e-7 tolerance; its value then moves by at
                        # most that violation times the largest dual
                        # vertex 1-norm
                        slack = _row_violation(pol, want[0]) * np.abs(
                            score.vertices).sum(axis=1).max()
                        assert abs(got - want[1]) <= 1e-12 + slack
                    verdicts.append(feasible)
                    state = state.perturbed([rng], PERTURB_STEP)

        check()
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("bound", list(BoundId))
    def test_grey_zone_verdict_matches_highs(self, bound, cascade):
        # HiGHS accepts a row violated by up to its 1e-7 primal feasibility
        # tolerance, and so must the scorer
        pol = eval_bound(bound, cascade,
                         FactorBlocks.uniform(3, 3, 3, 2).to_aux(),
                         override=True)
        w = [1, 1, 1, 1, 1]
        score = _Scorer(bound, cascade, np.asarray(w, float))
        with_constants = [i for i, (_, _, terms) in
                          enumerate(_compile(bound).rows) if terms]
        for i in with_constants:
            for rhs, feasible in ((-5e-8, True), (-2e-7, False)):
                rows = list(pol.rows)
                rows[i] = dataclasses.replace(rows[i], rhs=rhs)
                highs = polytope_lp(dataclasses.replace(pol, rows=tuple(rows)),
                                    w)
                (got,), _ = score.keys(
                    np.array([[r.rhs for r in rows] + [0, 0]]))
                assert (highs is not None) is feasible, (rows[i].tag, rhs)
                assert got == feasible, (rows[i].tag, rhs)


class _OneAuxScorer:
    """Reference for _Scorer: the one-auxiliary scorer it replaced, which
    scores p(u1,u2,u3,x) alone and returns (feasible, score)."""

    def __init__(self, bound, ch, w):
        t = self.t = _compile(bound)
        free_cols = [RATE_SYMBOLS.index(s) for s in t.free_symbols]
        self.vertices = _dual_vertices(t.a_groups, w[free_cols])
        self.sets = []
        for s in t.entropy_sets:
            drop_u = tuple(i for i, v in enumerate(JOINT_AXES[:3])
                           if v not in s)
            drop_y = tuple(i for i, v in enumerate(JOINT_AXES[4:], 1)
                           if v not in s)
            py = (None if len(drop_y) == 3
                  else ch.p.sum(axis=drop_y).reshape(ch.nx, -1))
            self.sets.append((drop_u, "X" in s, py))
        self.calls = 0
        self.infeasible = 0

    def __call__(self, p):
        self.calls += 1
        marginals = {}
        joints = []
        for drop_u, has_x, py in self.sets:
            pu = marginals.get(drop_u)
            if pu is None:
                pu = marginals[drop_u] = p.sum(axis=drop_u).reshape(
                    -1, p.shape[3])
            joint = pu if py is None else pu[:, :, None] * py[None]
            joints.append((joint if has_x else joint.sum(axis=1)).ravel())
        sizes = [j.size for j in joints]
        flat = np.concatenate(joints)
        plogp = flat * np.log2(flat, out=np.zeros_like(flat), where=flat > 0)
        h = -np.add.reduceat(plogp, np.cumsum([0] + sizes[:-1]))
        mi = self.t.mi_from_h @ h
        assert mi.min() >= -1e-6
        rhs = self.t.rhs_from_mi @ np.maximum(mi, 0.0)
        val = self.value(rhs)
        if val is None:
            self.infeasible += 1
            return False, float(rhs.min())
        return True, val

    def value(self, rhs):
        if rhs.min() < -LP_FEAS_TOL or not len(self.vertices):
            return None
        g = np.full(len(self.t.a_groups), np.inf)
        np.minimum.at(g, self.t.row_group, rhs)
        return float((self.vertices @ g).min())


def _perturbed_one(state, rng, step):
    """Reference for FactorBlocks.perturbed on one auxiliary."""
    i = int(rng.integers(0, len(state.blocks)))
    b = state.blocks[i]
    new = _renorm(b + step * rng.normal(size=b.shape))
    return dataclasses.replace(
        state, blocks=state.blocks[:i] + (new,) + state.blocks[i + 1:])


def _sequential_search(bound, ch, weights, cfg, override):
    """Reference for max_weighted_rate: its restarts one after another, each
    scored one auxiliary at a time.  Returns (rate, aux, value, effort)
    with no lockstep block size."""
    w = np.asarray(weights, float)
    m1, m2, m3 = cfg.sizes(ch.nx)
    evaluate = _OneAuxScorer(bound, ch, w)

    def beats(a, b):
        return a[0] > b[0] or (a[0] == b[0] and a[1] > b[1] + 1e-12)

    best, keys = None, []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        state = (FactorBlocks.uniform(m1, m2, m3, ch.nx) if restart == 0
                 else FactorBlocks.random(rng, m1, m2, m3, ch.nx))
        key = evaluate(_owner_loop_joint(state))
        for _ in range(cfg.iters):
            cand = _perturbed_one(state, rng, PERTURB_STEP)
            ckey = evaluate(_owner_loop_joint(cand))
            if beats(ckey, key):
                state, key = cand, ckey
        keys.append(key)
        if key[0] and (best is None or beats(key, best[0])):
            best = (key, restart, state)
    _, restart, state = best
    aux = state.to_aux()
    rate, value = polytope_lp(eval_bound(bound, ch, aux, override=override),
                              w)
    return rate, aux, value, SearchEffort(
        evaluate.calls, evaluate.infeasible,
        sum(not ok for ok, _ in keys), len(evaluate.vertices), restart,
        tuple(keys), None)


# channels whose scored stacks mix feasible and infeasible auxiliaries: the
# structured ones, and random ones with two and three inputs; on the first
# six, the region_type2 random channels of the frontier tests, every
# region_type2 start is infeasible
_ORACLE_CHANNELS = (
    list(_SCORER_CHANNELS.values())
    + [random_channel(rng, nx, 2, 3, 2)
       for nx, rng in ((2, np.random.default_rng(7)),
                       (3, np.random.default_rng(8)))
       for _ in range(6)])


def test_stacked_scorer_matches_one_aux_reference():
    # each auxiliary's score in a stack is bit for bit its score alone,
    # and the counters count auxiliaries
    mixed = []

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(bound=st.sampled_from(list(BoundId)),
           ch=st.sampled_from(_ORACLE_CHANNELS),
           sizes=st.sampled_from([(1, 3, 3), (1, 4, 4), (2, 2, 3), None]),
           weights=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                            min_size=5, max_size=5).filter(any),
           stack=st.integers(1, 7), steps=st.integers(0, 2),
           seed=st.integers(0, 2 ** 32 - 1))
    def check(bound, ch, sizes, weights, stack, steps, seed):
        m1, m2, m3 = sizes or (ch.nx + 1,) * 3
        w = np.asarray(weights, float)
        rngs = [np.random.default_rng([seed, r]) for r in range(stack)]
        states = FactorBlocks.stack([
            FactorBlocks.random(g, m1, m2, m3, ch.nx) for g in rngs])
        for _ in range(steps):
            states = states.perturbed(rngs, PERTURB_STEP)
        p = states.joint()
        got, want = _Scorer(bound, ch, w), _OneAuxScorer(bound, ch, w)
        feasible, score = got(p)
        assert feasible.shape == score.shape == (stack,)
        for r in range(stack):
            ok, value = want(p[r])
            assert feasible[r] == ok
            assert score[r].tobytes() == np.float64(value).tobytes()
        assert (got.calls, got.infeasible) == (want.calls, want.infeasible)
        mixed.append(0 < want.infeasible < stack)
        # the LP values of arbitrary rhs stacks, some rows below zero
        rng = np.random.default_rng(seed)
        rhs = rng.exponential(size=(stack, len(got.t.rhs_from_mi)))
        rhs[:, -2:] = 0.0
        rhs[rng.random(stack) < 0.3, 0] *= -1
        feasible, score = got.keys(rhs)
        for r in range(stack):
            value = want.value(rhs[r])
            assert feasible[r] == (value is not None)
            assert score[r].tobytes() == np.float64(
                rhs[r].min() if value is None else value).tobytes()

    check()
    assert sum(mixed) >= 5


# (bound, channel, weights, search, override) of the lockstep oracle
_SEARCH_CASES = {
    "restarts1": (BoundId.INNER_3DM, _SCORER_CHANNELS["cascade"],
                  [1, 1, 1, 1, 1], SearchConfig(restarts=1, iters=30, seed=3),
                  False),
    "iters0": (BoundId.OUTER_3DM, _SCORER_CHANNELS["product3"],
               [0, 1, 1, 0, 0], SearchConfig(restarts=6, iters=0, seed=2),
               True),
    # the first region_type2 random channel: every start is infeasible
    "climb": (BoundId.REGION_TYPE2, _ORACLE_CHANNELS[3], [1, 1, 1, 0, 0],
              SearchConfig(restarts=4, iters=30), True),
    # one restart ends infeasible, and restart 5 wins
    "ragged": (BoundId.OUTER_TYPE1, _ORACLE_CHANNELS[9], [0, 1, 1, 0, 1],
               SearchConfig(1, 3, 3, restarts=7, iters=20, seed=5), True),
}


@pytest.mark.parametrize("name,per_block", [
    ("restarts1", None), ("iters0", None), ("climb", None),
    # the cell budget patched to one restart per block, then to blocks of
    # 5 of 7 restarts, the last block ragged
    ("ragged", 1), ("ragged", 5)])
def test_lockstep_search_matches_sequential_restarts(name, per_block,
                                                     monkeypatch):
    bound, ch, weights, cfg, override = _SEARCH_CASES[name]
    if per_block is not None:
        cells = _Scorer(bound, ch, np.asarray(weights, float)).cells(
            *cfg.sizes(ch.nx))
        monkeypatch.setattr(channel_core, "ENUM_BLOCK_CELLS",
                            per_block * cells)
    rate, aux, value, effort = max_weighted_rate(bound, ch, weights, cfg,
                                                 override=override)
    want_rate, want_aux, want_value, want_effort = _sequential_search(
        bound, ch, weights, cfg, override)
    assert rate == want_rate and value == want_value
    assert aux.p.tobytes() == want_aux.p.tobytes()
    assert dataclasses.replace(effort, block_restarts=None) == want_effort
    assert effort.block_restarts == (per_block or cfg.restarts)
    if name == "climb":
        # every start is infeasible, so the result comes from a climb
        m = cfg.sizes(ch.nx)
        ref = _OneAuxScorer(bound, ch, np.asarray(weights, float))
        starts = [FactorBlocks.uniform(*m, ch.nx)] + [
            FactorBlocks.random(np.random.default_rng([cfg.seed, r]), *m,
                                ch.nx) for r in range(1, cfg.restarts)]
        assert not any(ref(_owner_loop_joint(s))[0] for s in starts)


def test_search_memory_does_not_grow_with_restarts(monkeypatch):
    # blocks of 8 restarts: each block's generators and states are made
    # when it starts, so 400 restarts peak where 16 do, but for the two
    # numbers per restart of the restart scores (about 100 bytes each);
    # a generator and a state alone take about 2 KB
    ch, w = _SCORER_CHANNELS["cascade"], [1, 1, 1, 0, 0]
    cells = _Scorer(BoundId.REGION_TYPE2, ch, np.ones(5)).cells(3, 3, 3)
    monkeypatch.setattr(channel_core, "ENUM_BLOCK_CELLS", 8 * cells)
    peaks = []
    for restarts in (16, 400):
        tracemalloc.start()
        try:
            effort = max_weighted_rate(
                BoundId.REGION_TYPE2, ch, w,
                SearchConfig(restarts=restarts, iters=0), override=True)[3]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert effort.block_restarts == 8
    assert peaks[1] - peaks[0] <= 2 ** 17, peaks


def _dual_vertices_all_rows(a, w):
    """Reference for _dual_vertices: one batch over every basis of
    [a^T, -I], all-zero rows of a included."""
    k, n = a.shape
    m = np.hstack([a.T, -np.eye(n)])
    idx = np.array(list(itertools.combinations(range(k + n), n)))
    bases = m[:, idx].transpose(1, 0, 2)
    keep = np.abs(np.linalg.det(bases)) > 0.5
    idx, bases = idx[keep], bases[keep]
    z = np.linalg.solve(bases, np.broadcast_to(w[:, None],
                                               (len(bases), n, 1)))[..., 0]
    feasible = np.all(z >= -1e-9 * max(1.0, np.abs(w).max()), axis=1)
    y = np.zeros((int(feasible.sum()), k + n))
    np.put_along_axis(y, idx[feasible], np.maximum(z[feasible], 0.0), axis=1)
    ys = y[:, :k]
    _, first = np.unique(np.round(ys, 9), axis=0, return_index=True)
    return ys[np.sort(first)]


@pytest.mark.parametrize("bound", list(BoundId))
@pytest.mark.parametrize("weights", [(1, 1, 1, 1, 1), (0, 1, 1, 0, 0),
                                     (1, 1, 1, 0, 0), (0, 0, 1, 0, 1)])
def test_dual_vertices_skip_rate_free_rows(bound, weights):
    # a group of rate-free rows is a zero column of every basis that holds
    # it, so leaving it out of the bases leaves the vertex table as it is
    t = _compile(bound)
    w = np.asarray(weights, float)[[RATE_SYMBOLS.index(s)
                                    for s in t.free_symbols]]
    want = _dual_vertices_all_rows(t.a_groups, w)
    assert np.array_equal(_dual_vertices(t.a_groups, w), want)


@pytest.mark.parametrize("key", range(16))
def test_frontier_agrees_with_benchmark_refs(key, tmp_path, capsys):
    # the CSV and auxiliary sidecar of both frontier commands of every key
    # of the frontier benchmark are byte-identical to the seed-commit
    # reference
    check_benchmark_key("frontier", key, tmp_path)
    capsys.readouterr()
