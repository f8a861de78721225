"""Exact implication certificates for inequality systems.

A target row `c . z <= d` is implied by a system `{a_i . z <= b_i}` together
with nonnegativity of the information constants iff there are rational
multipliers y >= 0 with  sum y_i a_i = c  and  sum y_i b_i <= d  (Farkas /
LP duality over the polyhedron; nonnegativity rows for the constants are
part of the system for this purpose).  Feasibility is decided by an exact
phase-1 simplex with Bland's rule on an integer tableau: each row is kept as
a primitive integer vector, a positive multiple of the rational row it
stands for, so every certificate reproduces its target row identically, not
approximately, and no `Fraction` is formed until the solution is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .system import Ineq, IneqSystem

ZERO = Fraction(0)


def _primitive(row: list[int]) -> list[int]:
    """`row` divided by the gcd of its entries (an all-zero row as is)."""
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def _phase1_simplex(eq_rows: Sequence[Sequence[Fraction | int]]
                    ) -> list[Fraction] | None:
    """Find x >= 0 with M x = r, exactly; None if infeasible.

    Each row of `eq_rows` is one equation, its coefficients then its rhs r_i.
    Classic phase-1 with artificial variables and Bland's rule, on integer
    rows: a tableau row is any positive multiple of its rational row, and
    the phase-1 reduced-cost row (minimise the sum of the artificials), with
    the objective value as its last entry, is carried and pivoted the same
    way.  Scaling a row by a positive number keeps the sign of every entry
    and every ratio rhs_i / a_ie of the ratio test, so the entering column,
    the pivot row and each tie-break by basis index are the ones the
    rational tableau picks, and x_j = rhs_i / a_ij is read off exactly.

    Each equation is scaled once by the lcm of its denominators, and by -1
    if its rhs is negative.  A pivot on column e with pivot row p replaces
    every other row with a_ie != 0 by a_pe * row - a_ie * prow (a_pe > 0),
    divided by the gcd of its entries so the integers stay small.
    """
    m = len(eq_rows)
    n = len(eq_rows[0]) - 1 if m else 0
    width = n + m  # n structural + m artificial columns; then the rhs
    tab = []
    scales = []
    for i, eq in enumerate(eq_rows):
        d = lcm(*(v.denominator for v in eq))
        signed = -d if eq[-1] < 0 else d
        ints = [v.numerator * (signed // v.denominator) for v in eq]
        art = [0] * m
        art[i] = d  # the artificial column holds d * 1
        tab.append(ints[:-1] + art + ints[-1:])
        scales.append(d)
    basis = [n + i for i in range(m)]
    # every artificial starts basic: reduced cost z_j - c_j is the column sum
    # of the rational rows for a structural column and 1 - 1 for an
    # artificial one; scale that sum by the lcm of the row scales
    common = lcm(*scales)
    weights = [common // d for d in scales]
    red = ([sum(w * row[j] for w, row in zip(weights, tab)) for j in range(n)]
           + [0] * m + [sum(w * row[-1] for w, row in zip(weights, tab))])
    red = _primitive(red)

    while True:
        enter = next((j for j in range(width) if red[j] > 0), None)
        if enter is None:
            if red[-1] != 0:
                return None
            break
        # Bland ratio test: rhs_i / a_ie < rhs_p / a_pe by cross-multiplying
        pivot = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if pivot is None:
                    pivot = i
                    continue
                lhs, rhs = row[-1] * tab[pivot][enter], tab[pivot][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot]):
                    pivot = i
        if pivot is None:
            return None  # unbounded phase-1 cannot happen, defensive
        prow = tab[pivot]
        p = prow[enter]
        for i, row in enumerate(tab):
            f = row[enter]
            if i != pivot and f != 0:
                tab[i] = _primitive([p * a - f * b for a, b in zip(row, prow)])
        f = red[enter]
        red = _primitive([p * a - f * b for a, b in zip(red, prow)])
        basis[pivot] = enter

    x = [ZERO] * n
    for row, b in zip(tab, basis):
        if b < n:
            x[b] = Fraction(row[-1], row[b])
        elif row[-1] != 0:
            return None  # artificial stuck basic at nonzero level
    return x


@dataclass(frozen=True)
class Certificate:
    """Nonnegative multipliers reproducing a target row from system rows."""

    target_tag: str
    multipliers: tuple[tuple[str, Fraction], ...]  # (row tag, weight), weight > 0

    def __str__(self) -> str:
        combo = " + ".join(f"{w}*[{t}]" for t, w in self.multipliers) or "0"
        return f"{self.target_tag} = {combo}"


def _nonneg_rows(system: IneqSystem,
                 extra_nonneg: Sequence[str] = ()) -> list[Ineq]:
    rows = []
    for s in system.constants():
        rows.append(Ineq.make({s: Fraction(-1)}, ZERO, f"nonneg({s})"))
    for s in extra_nonneg:
        rows.append(Ineq.make({s: Fraction(-1)}, ZERO, f"nonneg({s})"))
    return rows


def certify(system: IneqSystem, target: Ineq,
            identities: IneqSystem | None = None,
            nonneg_vars: Sequence[str] = ()) -> Certificate | None:
    """Certificate that `target` follows from `system` (+ constant nonneg).

    `identities` contributes equality rows (already expanded to row pairs)
    usable in either direction, e.g. declared chain-rule collapses between
    information constants.  `nonneg_vars` lists rate variables additionally
    assumed nonnegative (retained rates of a region living in the
    nonnegative orthant); bookkeeping variables whose nonnegativity is a
    modeling fact must instead carry an explicit system row.
    """
    rows = list(system.rows)
    if identities is not None:
        rows.extend(identities.rows)
    pool = IneqSystem(tuple(rows))
    rows = list(pool.rows) + _nonneg_rows(pool.with_rows([target]), nonneg_vars)
    symbols = sorted(set(pool.with_rows([target]).symbols()))
    # equalities: for each symbol, sum_i y_i a_i[s] = c[s];
    # plus slack row: sum_i y_i b_i + slack = d
    index = {s: k for k, s in enumerate(symbols)}
    n = len(rows)
    eq_rows: list[list[Fraction | int]] = [[0] * (n + 2) for _ in symbols]
    for j, r in enumerate(rows):
        for s, c in r.coeffs:
            if s in index:  # a nonneg var absent elsewhere has no equation
                eq_rows[index[s]][j] = c
    for s, c in target.coeffs:
        eq_rows[index[s]][-1] = c
    eq_rows.append([r.rhs for r in rows] + [1, target.rhs])
    sol = _phase1_simplex(eq_rows)
    if sol is None:
        return None
    mults = tuple((rows[i].tag, sol[i]) for i in range(len(rows)) if sol[i] != 0)
    return Certificate(target.tag, mults)


def remove_redundant(system: IneqSystem,
                     nonneg_vars: Sequence[str] = ()) -> IneqSystem:
    """Drop rows implied by the remaining rows plus constant nonnegativity."""
    rows = list(system.dedupe().drop_trivial().rows)
    i = 0
    while i < len(rows):
        others = IneqSystem(tuple(rows[:i] + rows[i + 1:]))
        if certify(others, rows[i], nonneg_vars=nonneg_vars) is not None:
            del rows[i]
        else:
            # a row no superset implies stays unimplied as rows go, so one
            # sweep reaches the same rows as restarting after each deletion
            i += 1
    return IneqSystem(tuple(rows))


@dataclass(frozen=True)
class DirectionReport:
    """Certification of every row of `target` from `source`."""

    certified: tuple[Certificate, ...]
    redundancy_mismatches: tuple[str, ...]  # certified but not present verbatim
    errors: tuple[str, ...]                 # rows with no certificate

    @property
    def holds(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class EquivalenceReport:
    forward: DirectionReport   # A => B: every B row certified from A
    backward: DirectionReport  # B => A
    a_name: str = "A"
    b_name: str = "B"

    @property
    def equivalent(self) -> bool:
        return self.forward.holds and self.backward.holds

    def to_dict(self) -> dict:
        def d(rep: DirectionReport) -> dict:
            return {
                "holds": rep.holds,
                "certified": [str(c) for c in rep.certified],
                "redundancy_mismatches": list(rep.redundancy_mismatches),
                "errors": list(rep.errors),
            }
        return {"a": self.a_name, "b": self.b_name,
                "equivalent": self.equivalent,
                "forward": d(self.forward), "backward": d(self.backward)}


def _direction(source: IneqSystem, target: IneqSystem,
               identities: IneqSystem | None,
               nonneg_vars: Sequence[str]) -> DirectionReport:
    present = {r.normalized_key()[:2] for r in source.rows}
    certs, mismatches, errors = [], [], []
    for row in target.rows:
        cert = certify(source, row, identities, nonneg_vars)
        if cert is None:
            errors.append(row.tag)
            continue
        certs.append(cert)
        if row.normalized_key()[:2] not in present:
            mismatches.append(row.tag)
    return DirectionReport(tuple(certs), tuple(mismatches), tuple(errors))


def check_equivalence(a: IneqSystem, b: IneqSystem,
                      identities: IneqSystem | None = None,
                      a_name: str = "A", b_name: str = "B",
                      nonneg_vars: Sequence[str] = ()) -> EquivalenceReport:
    """Two-way row-by-row certification between systems A and B."""
    return EquivalenceReport(
        forward=_direction(a, b, identities, nonneg_vars),
        backward=_direction(b, a, identities, nonneg_vars),
        a_name=a_name, b_name=b_name)
