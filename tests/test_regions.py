"""Bound evaluation, the single-auxiliary collapse, and frontier search."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bcsl.channel_core import conditional_mi, induced_joint
from bcsl.errors import PreconditionError, UsageError, ValidationError
from bcsl.fme import IneqSystem, is_constant_symbol, load_fixture
from bcsl.orderings import is_less_noisy, is_more_capable
from bcsl.regions import (AuxJoint, BoundId, FactorBlocks, PERTURB_STEP,
                          PolytopeRow, RatePolytope, RateTuple, SearchConfig,
                          _FIXTURES, _Scorer, _compile, _instantiate,
                          _preconditions, check_markov, eval_bound,
                          eval_cor3_match, max_weighted_rate, parse_mi_name,
                          polytope_lp)

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
        state = FactorBlocks.random(rng, m1, m1 + extra2, m1 + extra3, nx)
        for _ in range(steps):
            state = state.perturbed(rng, PERTURB_STEP)
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
        # every row and side condition of every bound equals its fixture
        # inequality, recomputed independently from the raw joint
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
                tags = [r.tag for r in pol.rows + pol.side_conditions]
                assert set(tags) <= set(fixture)
                if bound is not BoundId.OUTER_NO_SECRECY:
                    assert tags == list(fixture)
                for row in pol.rows:
                    ineq = fixture[row.tag]
                    assert dict(row.coeffs) == {
                        s: c for s, c in ineq.coeffs
                        if not is_constant_symbol(s)}
                    assert row.rhs == pytest.approx(-consts(ineq), abs=1e-10)
                for sc in pol.side_conditions:
                    assert sc.lhs - sc.rhs == pytest.approx(
                        consts(fixture[sc.tag]), abs=1e-10)

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
                state = FactorBlocks.random(rng, m1, m1 + extra2,
                                            m1 + extra3, ch.nx)
                for _ in range(2):
                    aux = state.to_aux()
                    got = score(aux)
                    pol = eval_bound(bound, ch, aux, override=True)
                    want = polytope_lp(pol, weights)
                    assert (got is None) == (want is None)
                    if got is not None:
                        # HiGHS may return a point that violates rows by up
                        # to its 1e-7 tolerance; its value then moves by at
                        # most that violation times the largest dual
                        # vertex 1-norm
                        slack = _row_violation(pol, want[0]) * np.abs(
                            score.vertices).sum(axis=1).max()
                        assert abs(got - want[1]) <= 1e-12 + slack
                    verdicts.append(got is None)
                    state = state.perturbed(rng, PERTURB_STEP)

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
                got = score.value(np.array([r.rhs for r in rows] + [0, 0]))
                assert (highs is not None) is feasible, (rows[i].tag, rhs)
                assert (got is not None) is feasible, (rows[i].tag, rhs)


def test_frontier_agrees_with_benchmark_refs(tmp_path, capsys):
    # the CSV and auxiliary sidecar of both frontier commands of keys 0-3 of
    # the frontier benchmark are byte-identical to the seed-commit reference
    for key in range(4):
        (tmp_path / str(key)).mkdir()
        check_benchmark_key("frontier", key, tmp_path / str(key))
    capsys.readouterr()
