"""Exact implication certificates for inequality systems.

A target row `c . z <= d` is implied by a system `{a_i . z <= b_i}` together
with nonnegativity of the information constants iff there are rational
multipliers y >= 0 with  sum y_i a_i = c  and  sum y_i b_i <= d  (Farkas /
LP duality over the polyhedron; nonnegativity rows for the constants are
part of the system for this purpose).  Feasibility is decided by an exact
phase-1 simplex over `fractions.Fraction`, so every certificate reproduces
its target row identically, not approximately.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .system import Ineq, IneqSystem

ZERO = Fraction(0)


def _phase1_simplex(eq_matrix: list[list[Fraction]],
                    eq_rhs: list[Fraction]) -> list[Fraction] | None:
    """Find x >= 0 with M x = r, exactly; None if infeasible.

    Classic phase-1 with artificial variables and Bland's rule.  The
    reduced-cost row of the phase-1 objective (minimise the sum of the
    artificials) and its value are carried as one more tableau row and
    pivoted with the rest, so no pivot rebuilds them.  Every row operation
    touches only the nonzero columns of the pivot row.  Arithmetic is exact,
    so the carried row equals the from-scratch one and Bland's rule makes
    the same choices.
    """
    m = len(eq_matrix)
    n = len(eq_matrix[0]) if m else 0
    # make rhs nonnegative; columns: n structural + m artificial
    tab = []
    rhs = []
    for i in range(m):
        sign = -1 if eq_rhs[i] < 0 else 1
        tab.append([sign * v for v in eq_matrix[i]]
                   + [Fraction(1) if i == k else ZERO for k in range(m)])
        rhs.append(sign * eq_rhs[i])
    basis = [n + i for i in range(m)]
    # every artificial starts basic: reduced cost z_j - c_j is the column sum
    # for a structural column and 1 - 1 for an artificial one
    red = [sum((row[j] for row in tab), ZERO) for j in range(n)] + [ZERO] * m
    obj = sum(rhs, ZERO)

    while True:
        enter = next((j for j in range(n + m) if red[j] > 0), None)
        if enter is None:
            if obj != 0:
                return None
            break
        # Bland ratio test
        pivot = None
        best: Fraction | None = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = rhs[i] / tab[i][enter]
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[pivot]):
                    best, pivot = ratio, i
        if pivot is None:
            return None  # unbounded phase-1 cannot happen, defensive
        prow = tab[pivot]
        cols = [j for j in range(n + m) if prow[j] != 0]
        piv = prow[enter]
        for j in cols:
            prow[j] /= piv
        rhs[pivot] /= piv
        for i, row in enumerate(tab):
            f = row[enter]
            if i != pivot and f != 0:
                for j in cols:
                    row[j] -= f * prow[j]
                rhs[i] -= f * rhs[pivot]
        f = red[enter]
        for j in cols:
            red[j] -= f * prow[j]
        obj -= f * rhs[pivot]
        basis[pivot] = enter

    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rhs[i]
        elif rhs[i] != 0:
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
    n = len(rows) + 1
    matrix: list[list[Fraction]] = []
    rhs_vec: list[Fraction] = []
    for s in symbols:
        matrix.append([r.coeff(s) for r in rows] + [ZERO])
        rhs_vec.append(target.coeff(s))
    matrix.append([r.rhs for r in rows] + [Fraction(1)])
    rhs_vec.append(target.rhs)
    sol = _phase1_simplex(matrix, rhs_vec)
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
