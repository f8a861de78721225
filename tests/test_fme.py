"""Exact symbolic elimination, Farkas certification, and the re-derivations."""

import hashlib
import itertools
import json
import pathlib
import signal
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from bcsl.cli import dispatch
from bcsl.errors import ValidationError
from bcsl.fme import (Ineq, IneqSystem, appendix_reduction,
                      base_system_for_appendix, certify, check_equivalence,
                      derive_inner_bound, derive_type1_bound, load_fixture,
                      remove_redundant)


class TestDsl:
    def test_simple_roundtrip(self):
        text = "row_a: 3 R0 + R1 <= I(U3;Y3) + I(U2;Y2)\nrow_b: 0 <= Q2\n"
        s = IneqSystem.parse(text)
        assert IneqSystem.parse(str(s)).rows == s.rows

    @pytest.mark.parametrize("line", [
        "a: R0 < 1", "a: R0 > 1", "a: R0 < 1 <= 2"])
    def test_strict_relation_rejected(self, line):
        # certificates prove only non-strict rows
        with pytest.raises(ValidationError, match="strict"):
            IneqSystem.parse(line)

    def test_equality_expands_to_two_rows(self):
        fwd, rev = IneqSystem.parse("a: R0 + R1 = I(U1;Y1) + 1").rows
        assert (fwd.tag, rev.tag) == ("a", "a_rev")
        assert fwd.coeff_dict() == {"R0": 1, "R1": 1, "I(U1;Y1)": -1}
        assert rev.coeff_dict() == {"R0": -1, "R1": -1, "I(U1;Y1)": 1}
        assert (fwd.rhs, rev.rhs) == (1, -1)

    @pytest.mark.parametrize("name", [
        "inner_bin_pairing", "inner_decoding", "inner_partition_floor",
        "inner_bound_target", "type1_bin_pairing", "type1_decoding",
        "type1_partition_floor", "type1_bound_target", "appendix_system",
        "outer3dm_bound", "outer_type1_bound", "region_type2_bound",
    ])
    def test_fixture_roundtrip(self, name):
        s = load_fixture(name + ".txt")
        assert IneqSystem.parse(str(s)).rows == s.rows


class TestEliminate:
    def test_upper_lower_pairing(self):
        s = IneqSystem.parse("up: x <= I(A;B)\nlo: y - x <= 0\n")
        out = s.eliminate("x")
        assert len(out.rows) == 1
        row = out.rows[0]
        assert row.coeff_dict() == {"y": Fraction(1), "I(A;B)": Fraction(-1)}
        assert row.rhs == 0

    def test_no_lower_bounds(self):
        s = IneqSystem.parse("up: x <= I(A;B)\n")
        assert s.eliminate("x").rows == ()

    def test_absent_variable_identity(self):
        s = IneqSystem.parse("r: y <= I(A;B)\n")
        assert s.eliminate("x").rows == s.rows

    def test_projection_exactness(self, rng):
        # random 3-variable systems: a point satisfies the eliminated system
        # iff the eliminated variable has a nonempty feasible interval
        for trial in range(30):
            rows = []
            for i in range(6):
                cx = Fraction(int(rng.integers(-3, 4)))
                cy = Fraction(int(rng.integers(-3, 4)))
                cz = Fraction(int(rng.integers(-3, 4)))
                rhs = Fraction(int(rng.integers(-4, 8)))
                if cx == cy == cz == 0:
                    continue
                rows.append(f"r{i}: {cx} x + {cy} y + {cz} z <= {rhs}")
            s = IneqSystem.parse("\n".join(rows) + "\n")
            try:
                proj = s.eliminate("z")
            except Exception:
                # globally infeasible random system (FME surfaces 0 <= neg)
                continue
            grid = [Fraction(k, 2) for k in range(-6, 7)]
            for x, y in itertools.product(grid, repeat=2):
                point = {"x": x, "y": y}
                in_proj = all(
                    sum(r.coeff(v) * point[v] for v in ("x", "y")) <= r.rhs
                    for r in proj.rows)
                lo, hi = None, None
                feasible = True
                for r in s.rows:
                    cz = r.coeff("z")
                    rest = r.rhs - sum(r.coeff(v) * point[v]
                                       for v in ("x", "y"))
                    if cz == 0:
                        feasible = feasible and rest >= 0
                    elif cz > 0:
                        hi = rest / cz if hi is None else min(hi, rest / cz)
                    else:
                        lo = rest / cz if lo is None else max(lo, rest / cz)
                extendable = feasible and (lo is None or hi is None
                                           or lo <= hi)
                assert in_proj == extendable


class TestRemoveRedundant:
    def test_duplicate_dropped(self):
        s = IneqSystem.parse("a: x <= 2\nb: x <= 2\n")
        assert len(remove_redundant(s).rows) == 1

    def test_sum_row_dropped(self):
        s = IneqSystem.parse("a: x <= 1\nb: y <= 1\nc: x + y <= 2\n")
        out = remove_redundant(s)
        assert {r.tag for r in out.rows} == {"a", "b"}

    def test_preserves_equivalence(self):
        s = IneqSystem.parse(
            "a: x <= I(A;B)\nb: y <= I(A;B)\nc: x + y <= 2 I(A;B)\n")
        out = remove_redundant(s)
        rep = check_equivalence(s, out)
        assert rep.equivalent


class TestCertify:
    def test_direct_combination(self):
        s = IneqSystem.parse("a: x <= 1\nb: y <= 2\n")
        target = IneqSystem.parse("t: x + y <= 3\n").rows[0]
        assert certify(s, target) is not None

    def test_uncertifiable(self):
        s = IneqSystem.parse("a: x <= 1\n")
        target = IneqSystem.parse("t: x <= 0\n").rows[0]
        assert certify(s, target) is None

    def test_nonneg_vars_used(self):
        s = IneqSystem.parse("a: x + y <= 1\n")
        target = IneqSystem.parse("t: x <= 1\n").rows[0]
        assert certify(s, target) is None
        assert certify(s, target, nonneg_vars=("y",)) is not None


# --------------------------------------------------------------------------
# certify against an independent float LP on small integer systems

_SYMS = ("x", "y", "I(A;B)")
_COEF = st.integers(-2, 2)
_RHS = st.sampled_from([0, 0, 1, -1, 2, 3])


@st.composite
def _certify_cases(draw):
    """Rows with duplicates, zero rows and zero right-hand sides, so that
    Bland ties occur; the target is a random row or a nonnegative integer
    combination of the rows with its bound moved by -1 to 3."""
    base = draw(st.lists(st.tuples(st.tuples(_COEF, _COEF, _COEF), _RHS),
                         min_size=1, max_size=5))
    dups = draw(st.lists(st.sampled_from(base), max_size=2))
    zeros = draw(st.lists(st.tuples(st.just((0, 0, 0)), _RHS), max_size=1))
    specs = draw(st.permutations(base + dups + zeros))
    rows = [Ineq.make(dict(zip(_SYMS, map(Fraction, a))), Fraction(b),
                      f"r{i}") for i, (a, b) in enumerate(specs)]
    if draw(st.booleans()):
        k = draw(st.lists(st.integers(0, 2), min_size=len(specs),
                          max_size=len(specs)))
        c = [sum(ki * a[j] for ki, (a, _) in zip(k, specs))
             for j in range(len(_SYMS))]
        d = sum(ki * b for ki, (_, b) in zip(k, specs)) + draw(_RHS)
    else:
        c = [draw(_COEF) for _ in _SYMS]
        d = draw(_RHS)
    target = Ineq.make(dict(zip(_SYMS, map(Fraction, c))), Fraction(d), "t")
    nonneg = tuple(v for v in ("x", "y") if draw(st.booleans()))
    return rows, target, nonneg


def _multiplier_lp_feasible(rows, target, nonneg_vars) -> bool:
    """HiGHS on {y >= 0 : sum y_i a_i = c, sum y_i b_i <= d}, where the
    rows are the system plus -s <= 0 for every constant and `nonneg_vars`."""
    syms = sorted({s for r in rows + [target] for s, _ in r.coeffs}
                  | set(nonneg_vars))
    gens = [(r.coeff_dict(), r.rhs) for r in rows]
    gens += [({s: Fraction(-1)}, Fraction(0)) for s in syms
             if s.startswith("I(") or s in nonneg_vars]
    a_eq = np.array([[float(g.get(s, 0)) for g, _ in gens] for s in syms])
    b_eq = np.array([float(target.coeff(s)) for s in syms])
    res = linprog(np.zeros(len(gens)),
                  A_ub=np.array([[float(b) for _, b in gens]]),
                  b_ub=[float(target.rhs)],
                  A_eq=a_eq if syms else None, b_eq=b_eq if syms else None,
                  bounds=(0, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def _within_seconds(limit, fn, *args, **kwargs):
    """Run fn, raising TimeoutError after `limit` seconds.  Bland's rule
    never cycles, so a simplex that runs on for a system of a few rows is
    a fault (wrong reduced costs), not a slow case."""
    def expire(signum, frame):
        raise TimeoutError(f"{fn.__name__} ran past {limit} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_certify_cases())
def test_certify_matches_multiplier_lp(case):
    rows, target, nonneg = case
    cert = _within_seconds(2.0, certify, IneqSystem(tuple(rows)), target,
                           nonneg_vars=nonneg)
    assert (cert is not None) == _multiplier_lp_feasible(rows, target,
                                                         nonneg)
    if cert is None:
        return
    by_tag = {r.tag: r for r in rows}
    lhs: dict[str, Fraction] = {}
    bound = Fraction(0)
    for tag, w in cert.multipliers:
        assert w > 0
        if tag in by_tag:
            row = by_tag[tag]
        else:
            sym = tag[len("nonneg("):-1]
            assert tag == f"nonneg({sym})"
            assert sym.startswith("I(") or sym in nonneg
            row = Ineq.make({sym: Fraction(-1)}, Fraction(0), tag)
        for s, c in row.coeffs:
            lhs[s] = lhs.get(s, Fraction(0)) + w * c
        bound += w * row.rhs
    assert {s: c for s, c in lhs.items() if c != 0} == target.coeff_dict()
    assert bound <= target.rhs


class TestDerivations:
    def test_inner_system_two_way(self):
        derived, report = derive_inner_bound()
        assert report.equivalent, report.summary()
        assert not report.forward.errors and not report.backward.errors

    def test_type1_system_two_way(self):
        derived, report = derive_type1_bound()
        assert report.equivalent, report.summary()
        assert not report.forward.errors and not report.backward.errors

    def test_elimination_order_independence(self):
        d1, _ = derive_inner_bound()
        d2, _ = derive_inner_bound(order=("P3", "Q3", "Q2", "P3dag", "R1dag"))
        rep = check_equivalence(d1, d2, nonneg_vars=("R0", "R1e", "R2e"))
        assert rep.equivalent

    def test_partition_floor_mutation_breaks_inner(self):
        _, report = derive_inner_bound(drop_tags=("x_partition_floor",))
        assert report.forward.errors  # named unmatched rows
        assert any("r1e" in tag or "side" in tag
                   for tag in report.forward.errors)

    def test_u2_layer_mutation_breaks_type1(self):
        _, report = derive_type1_bound(drop_tags=("dec1_u2_layer",))
        assert report.forward.errors

    def test_appendix_pinned_equivalent(self):
        report = appendix_reduction()
        assert report.equivalent, report.summary()

    def test_appendix_symbolic_one_way(self):
        report = appendix_reduction(outer_layer_symbolic=True)
        assert report.forward.holds
        assert not report.backward.holds

    def test_empty_system_substitution(self):
        s = IneqSystem(())
        assert s.substitute("x", {}).rows == ()
        assert s.rename_constants({"I(A;B)": None}).rows == ()


# --------------------------------------------------------------------------
# golden outputs: the four `fme` commands print exactly these bytes

_FME_GOLDEN = {
    "theorem1": (["derive", "--target", "theorem1"],
                 "52fb17961dba1e5efa8eddc5860c53574107a211b7ab890c053322e1e0d65d7f"),
    "corollary1": (["derive", "--target", "corollary1"],
                   "0245947bdcae302b242b7efb74b5bd3bd37dc857965d871ed0162841cf943720"),
    "appendix": (["appendix"],
                 "9a0b653545bb28d124500be6366689f10a85728f7ea30c1d0e2069447f20fcbf"),
    "appendix_symbolic": (["appendix", "--symbolic"],
                          "4b63573bcdf9198cea6dc00d6c52079b649c1d38109849b88324af49fe80fc7f"),
}


@pytest.mark.parametrize("name", sorted(_FME_GOLDEN))
def test_fme_output_golden(name, tmp_path, capsys):
    argv, digest = _FME_GOLDEN[name]
    out = tmp_path / f"{name}.json"
    assert dispatch(["fme", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_fme_golden_agrees_with_benchmark_refs():
    refs = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
        "refs" / "fme.json"
    commands = json.loads(refs.read_text())["keys"]["0"]["commands"]
    assert set(commands) == {"theorem1", "appendix_symbolic"}
    for name, ref in commands.items():
        assert ref["sha256"] == _FME_GOLDEN[name][1]
