"""Exact symbolic elimination, Farkas certification, and the re-derivations."""

import itertools
import time
from fractions import Fraction

import pytest

from bcsl.fme import (IneqSystem, appendix_reduction, base_system_for_appendix,
                      certify, check_equivalence, derive_inner_bound,
                      derive_type1_bound, load_fixture, remove_redundant)


class TestDsl:
    def test_simple_roundtrip(self):
        text = "row_a: 3 R0 + R1 <= I(U3;Y3) + I(U2;Y2)\nrow_b: 0 <= Q2\n"
        s = IneqSystem.parse(text)
        assert IneqSystem.parse(str(s)).rows == s.rows

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
