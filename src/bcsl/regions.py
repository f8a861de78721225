"""Numeric evaluation of the rate-equivocation bounds on concrete channels.

Each bound is a list of inequalities over the rate symbols
(R0, R1, R1e, R2, R2e), read from the fixture files of the symbolic toolkit
(``bcsl/fme/fixtures``).  Right-hand sides are signed sums of mutual
information constants named "I(A;B|C)", instantiated from the joint
distribution induced by an auxiliary input pmf and the channel.

Outer bounds are conditioned on channel orderings; evaluation at a single
auxiliary is a single certificate point, never the region itself.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import linprog

from . import channel_core
from .channel_core import (HARD_TOL, JOINT_AXES, LP_FEAS_TOL, AuxJoint,
                           Channel3, JointPmf, conditional_mi, induced_joint,
                           mi_entropy_groups)
from .errors import (CapabilityError, PreconditionError, UsageError,
                     ValidationError)
from .fme import is_constant_symbol, load_fixture, parse_mi_name
from .orderings import OrderingReport

MARKOV_TOL = 1e-9
MATCH_TOL = 1e-9

RATE_SYMBOLS = ("R0", "R1", "R1e", "R2", "R2e")


# --------------------------------------------------------------------------
# auxiliary joints


@dataclass(frozen=True)
class FactorBlocks:
    """Parameterization of the admissible auxiliary family used for search:
    a point of a product of simplices, one per block.

    U2 and U3 symbols are partitioned among the U1 values (u1 = a owns the
    symbols a, a + m1, a + 2·m1, ...), so U1 is a deterministic function of
    U2 and of U3 and every required Markov chain holds exactly.  blocks:
    p(u1); then p(u2|u1) per u1, over the symbols it owns; then p(u3,x|u2)
    per u2, over the u3 symbols owned by the same u1 times X, flattened.
    A stack of auxiliaries of one size, one per restart of the frontier
    search, has the same blocks with a leading axis: block i of auxiliary r
    is blocks[i][r].
    """

    m1: int
    m2: int
    m3: int
    nx: int
    blocks: tuple[np.ndarray, ...]

    @classmethod
    def _build(cls, m1: int, m2: int, m3: int, nx: int,
               draw: Callable[[int], np.ndarray]) -> "FactorBlocks":
        """Draw the blocks in order; draw(k) is a pmf on k symbols."""
        if m2 < m1 or m3 < m1:
            raise UsageError(
                "auxiliary cardinalities must satisfy m2 >= m1 and m3 >= m1 "
                "(the coarse layer is embedded in the finer ones)")
        sizes = ([m1] + [len(range(a, m2, m1)) for a in range(m1)]
                 + [len(range(j % m1, m3, m1)) * nx for j in range(m2)])
        return cls(m1, m2, m3, nx, tuple(draw(k) for k in sizes))

    @classmethod
    def random(cls, rng: np.random.Generator, m1: int, m2: int, m3: int,
               nx: int) -> "FactorBlocks":
        """Sample an auxiliary with all required Markov chains holding by
        construction.

        The admissible joints factor simultaneously as p(u1)p(u2|u1)p(x,u3|u2)
        and p(u1)p(u3|u1)p(x,u2|u3), which forces U1 to be recoverable from U2
        and from U3 alone.  The sampler realizes this by partitioning the U2
        and U3 alphabets among the U1 values and drawing Dirichlet factors on
        each block.
        """
        return cls._build(m1, m2, m3, nx, lambda k: rng.dirichlet(np.ones(k)))

    @classmethod
    def uniform(cls, m1: int, m2: int, m3: int, nx: int) -> "FactorBlocks":
        return cls._build(m1, m2, m3, nx, lambda k: np.full(k, 1 / k))

    @classmethod
    def stack(cls, states: Sequence["FactorBlocks"]) -> "FactorBlocks":
        """The auxiliaries of `states`, all of one size, as one stack."""
        return dataclasses.replace(states[0], blocks=tuple(
            np.stack(b) for b in zip(*(s.blocks for s in states))))

    def __getitem__(self, r: int) -> "FactorBlocks":
        """Auxiliary r of a stack."""
        return dataclasses.replace(self,
                                   blocks=tuple(b[r] for b in self.blocks))

    def joint(self) -> np.ndarray:
        """p(u1,u2,u3,x) = p(u1) p(u2|u1) p(u3,x|u2), shape (m1, m2, m3, nx)
        after a stack's leading axis, unvalidated: zero off the owned
        symbols."""
        m1, m2, nx = self.m1, self.m2, self.nx
        lead = self.blocks[0].shape[:-1]
        p21 = np.zeros(lead + (m1, m2))
        p32 = np.zeros(lead + (m2, self.m3, nx))
        for a in range(m1):
            p21[..., a, a::m1] = self.blocks[1 + a]
        for j in range(m2):
            p32[..., j, j % m1::m1, :] = self.blocks[1 + m1 + j].reshape(
                lead + (-1, nx))
        return (self.blocks[0][..., :, None, None, None]
                * p21[..., None, None] * p32[..., None, :, :, :])

    def to_aux(self) -> AuxJoint:
        return AuxJoint(self.m1, self.m2, self.m3, self.nx, self.joint())

    def perturbed(self, rngs: Sequence[np.random.Generator], step: float
                  ) -> "FactorBlocks":
        """Copy of a stack with Gaussian noise added to one block of each
        auxiliary r, the block and the noise drawn from rngs[r]."""
        blocks = [b.copy() for b in self.blocks]
        for r, rng in enumerate(rngs):
            i = int(rng.integers(0, len(blocks)))
            b = blocks[i][r]
            blocks[i][r] = _renorm(b + step * rng.normal(size=b.shape))
        return dataclasses.replace(self, blocks=tuple(blocks))

    def where(self, take: np.ndarray, other: "FactorBlocks"
              ) -> "FactorBlocks":
        """The stack with auxiliary r taken from `other` where take[r]."""
        return dataclasses.replace(self, blocks=tuple(
            np.where(take[:, None], o, b)
            for b, o in zip(self.blocks, other.blocks)))


MARKOV_CHAINS = (
    ("U1->U2->(U3,X)", ("U1",), ("U3", "X"), ("U2",)),
    ("U1->U3->(U2,X)", ("U1",), ("U2", "X"), ("U3",)),
    ("U1->(U2,U3)->X", ("U1",), ("X",), ("U2", "U3")),
)


def check_markov(aux: AuxJoint) -> list[tuple[str, float]]:
    """Residual conditional MI (bits) for each required Markov chain."""
    j = aux.joint_pmf()
    return [(chain, conditional_mi(j, a, b, c))
            for chain, a, b, c in MARKOV_CHAINS]


# --------------------------------------------------------------------------
# rate tuples and polytopes


@dataclass(frozen=True)
class RateTuple:
    r0: float
    r1: float
    r1e: float
    r2: float
    r2e: float

    def __post_init__(self):
        eps = 1e-9
        for name, v in self.as_dict().items():
            if v < -eps:
                raise ValidationError(f"{name} = {v} is negative")
        if self.r1e > self.r1 + eps:
            raise ValidationError("R1e exceeds R1")
        if self.r2e > self.r2 + eps:
            raise ValidationError("R2e exceeds R2")

    def as_dict(self) -> dict[str, float]:
        return {"R0": self.r0, "R1": self.r1, "R1e": self.r1e,
                "R2": self.r2, "R2e": self.r2e}


@dataclass(frozen=True)
class PolytopeRow:
    tag: str
    coeffs: tuple[tuple[str, float], ...]   # (rate symbol, coefficient)
    rhs: float                              # bits


@dataclass(frozen=True)
class RatePolytope:
    bound: str
    rows: tuple[PolytopeRow, ...]
    free_symbols: tuple[str, ...] = RATE_SYMBOLS  # rates not pinned to zero
    notes: tuple[str, ...] = ()

    def row(self, tag: str) -> PolytopeRow:
        for r in self.rows:
            if r.tag == tag:
                return r
        raise KeyError(tag)

    @property
    def feasible(self) -> bool:
        """Whether r = 0 meets every row, which for a bound's rows (those
        with information constants have nonnegative rate coefficients) is
        whether the polytope is nonempty."""
        return all(r.rhs >= -LP_FEAS_TOL for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "rows": [{"tag": r.tag, "coeffs": dict(r.coeffs), "rhs_bits": r.rhs}
                     for r in self.rows],
            "feasible": self.feasible,
            "free_symbols": list(self.free_symbols),
            "notes": list(self.notes),
        }


class BoundId(Enum):
    """The six bound families: inner/outer three-message, the outer bound
    with secrecy rows removed, inner/outer two-message (type 1), and the
    matched two-message region (type 2, single auxiliary)."""

    INNER_3DM = "inner3dm"
    OUTER_3DM = "outer3dm"
    OUTER_NO_SECRECY = "outer_nosecrecy"
    INNER_TYPE1 = "inner_type1"
    OUTER_TYPE1 = "outer_type1"
    REGION_TYPE2 = "region_type2"


# Every family's inequality list is read from the fixture that the FME
# toolkit certifies, so the evaluated and the certified lists cannot drift
# apart.  The outer bound without secrecy rows is the three-message outer
# list minus every row with an R1e or R2e coefficient.
_FIXTURES = {
    BoundId.INNER_3DM: "inner_bound_target.txt",
    BoundId.OUTER_3DM: "outer3dm_bound.txt",
    BoundId.OUTER_NO_SECRECY: "outer3dm_bound.txt",
    BoundId.INNER_TYPE1: "type1_bound_target.txt",
    BoundId.OUTER_TYPE1: "outer_type1_bound.txt",
    BoundId.REGION_TYPE2: "region_type2_bound.txt",
}
_SECRECY_RATES = ("R1e", "R2e")

# signed sum of named MI constants: ((coefficient, "I(A;B|C)"), ...)
Terms = tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class BoundTemplate:
    """One bound family compiled from its fixture.

    rows: (tag, rate coefficients, RHS terms) per fixture row, a row with
    no rate terms (a side condition) having no rate coefficients;
    free_symbols: the rates the rows use (the others are pinned to zero);
    constants: the (A, B, C) groups of each MI constant the rows name.

    The search-path scorer's tables, over the rows then R1e <= R1 and
    R2e <= R2:
    entropy_sets: each axis set whose entropy some constant needs, in
    JOINT_AXES order;
    mi_from_h: constants (in ``constants`` order) = mi_from_h @ entropies;
    rhs_from_mi: the rhs of each row = rhs_from_mi @ constants;
    row_group: the group of each row, rows with equal free-rate
    coefficients forming one group;
    a_groups: each group's coefficients on the free rates.
    """

    rows: tuple[tuple[str, tuple[tuple[str, int], ...], Terms], ...]
    free_symbols: tuple[str, ...]
    constants: Mapping[str, tuple[tuple[str, ...], ...]]
    entropy_sets: tuple[tuple[str, ...], ...]
    mi_from_h: np.ndarray
    rhs_from_mi: np.ndarray
    row_group: np.ndarray
    a_groups: np.ndarray


def _int_coeff(tag: str, sym: str, c: Fraction) -> int:
    if c.denominator != 1:
        raise ValidationError(
            f"bound row {tag}: coefficient {c} of {sym} is not an integer")
    return int(c)


def _a_ub(rates: Iterable[Iterable[tuple[str, int]]]) -> np.ndarray:
    """Coefficients over RATE_SYMBOLS of the rows with these rate terms,
    then of R1e <= R1 and R2e <= R2."""
    ub = [dict(r) for r in rates] + [{"R1e": 1, "R1": -1}, {"R2e": 1, "R2": -1}]
    return np.array([[r.get(s, 0) for s in RATE_SYMBOLS] for r in ub], float)


@functools.cache
def _compile(bound: BoundId) -> BoundTemplate:
    rows = []
    for ineq in load_fixture(_FIXTURES[bound]).rows:
        if ineq.rhs != 0:
            raise ValidationError(
                f"bound row {ineq.tag}: numeric constant {ineq.rhs}")
        coeffs = [(s, _int_coeff(ineq.tag, s, c)) for s, c in ineq.coeffs]
        rates = tuple((s, c) for s, c in coeffs if not is_constant_symbol(s))
        terms = tuple((-c, s) for s, c in coeffs if is_constant_symbol(s))
        # the scorer's feasibility rule: r = 0 is feasible iff every rhs
        # is >= 0, which needs every row with constants to be nonnegative
        if terms and any(c < 0 for _, c in rates):
            raise ValidationError(
                f"bound row {ineq.tag}: negative rate coefficient in a row "
                "with information constants")
        if not (bound is BoundId.OUTER_NO_SECRECY
                and any(s in _SECRECY_RATES for s, _ in rates)):
            rows.append((ineq.tag, rates, terms))
    used = {s for _, rates, _ in rows for s, _ in rates}
    free = tuple(s for s in RATE_SYMBOLS if s in used)
    constants = {name: parse_mi_name(name)
                 for _, _, ts in rows for _, name in ts}

    a_ub = _a_ub(rates for _, rates, _ in rows)
    sets: dict[tuple[str, ...], int] = {}     # axis set -> entropy column
    entries = []                              # (constant, column, sign)
    for i, groups in enumerate(constants.values()):
        for group, sign in mi_entropy_groups(*groups):
            key = tuple(v for v in JOINT_AXES if v in group)
            entries.append((i, sets.setdefault(key, len(sets)), sign))
    mi_from_h = np.zeros((len(constants), len(sets)))
    for i, j, sign in entries:
        mi_from_h[i, j] += sign
    col = {name: j for j, name in enumerate(constants)}
    rhs_from_mi = np.zeros((len(a_ub), len(constants)))
    for i, (_, _, ts) in enumerate(rows):
        for c, name in ts:
            rhs_from_mi[i, col[name]] += c
    a_groups, row_group = np.unique(
        a_ub[:, [RATE_SYMBOLS.index(s) for s in free]], axis=0,
        return_inverse=True)

    for arr in (mi_from_h, rhs_from_mi, row_group, a_groups):
        arr.setflags(write=False)
    return BoundTemplate(tuple(rows), free, constants, tuple(sets),
                         mi_from_h, rhs_from_mi, row_group, a_groups)


# bases of the dual vertex enumeration solved per batch
_BASIS_CHUNK = 512


def _dual_vertices(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The vertices of {y >= 0 : a^T y >= w}, for a of shape (k, n), as rows.

    A vertex is a basic feasible solution of [a^T, -I] (y, s) = w with
    (y, s) >= 0.  An all-zero row of a (a group of rate-free rows) is a zero
    column, in no nonsingular basis, so its y is 0 at every vertex and it
    forms no bases.  The C(k' + n, n) bases over the k' other rows are
    solved in fixed-size chunks, so memory stays flat however many there
    are."""
    n = a.shape[1]
    rows = np.flatnonzero(a.any(axis=1))
    k = len(rows)
    m = np.hstack([a[rows].T, -np.eye(n)])
    tol = 1e-9 * max(1.0, float(np.abs(w).max(initial=0.0)))
    found = [np.zeros((0, k))]
    flat = itertools.chain.from_iterable(
        itertools.combinations(range(k + n), n))
    while len(idx := np.fromiter(itertools.islice(flat, _BASIS_CHUNK * n),
                                 np.intp)):
        idx = idx.reshape(-1, n)
        bases = m[:, idx].transpose(1, 0, 2)
        # integer matrices: a nonsingular basis has |det| >= 1
        keep = np.abs(np.linalg.det(bases)) > 0.5
        idx, bases = idx[keep], bases[keep]
        z = np.linalg.solve(bases, np.broadcast_to(w[:, None],
                                                   (len(bases), n, 1)))[..., 0]
        feasible = np.all(z >= -tol, axis=1)
        y = np.zeros((int(feasible.sum()), k + n))
        np.put_along_axis(y, idx[feasible], np.maximum(z[feasible], 0.0),
                          axis=1)
        found.append(y[:, :k])
    ys = np.zeros((sum(map(len, found)), len(a)))
    ys[:, rows] = np.concatenate(found)
    # degenerate vertices are reached from several bases; keep one each
    _, first = np.unique(np.round(ys, 9), axis=0, return_index=True)
    return ys[np.sort(first)]


class _Scorer:
    """The frontier search's score of a stack of auxiliaries for one
    (bound, channel, weights): per auxiliary, (True, max w . r over the
    bound's polytope) when the polytope is nonempty, else (False, the least
    rhs), so a search can climb an infeasible auxiliary toward feasibility.
    One auxiliary is a stack of one.

    Each MI constant comes from a table of the entropies the bound needs.
    The entropy of an axis set is taken from the aux marginal p(S_U, x)
    times the channel marginal p(S_Y | x), summed over x when X is not in
    the set, so the seven-axis joint is never built.  rhs = C @ mi, and g
    is the least rhs in each group of rows with equal rate coefficients.
    Every row with constants has nonnegative rate coefficients (a side
    condition has none), and the rest have rhs 0, so r = 0 is feasible iff
    no rhs is below zero (up to polytope_lp's tolerance).  Then the LP
    value is the least g . v over the vertices v of the dual polyhedron
    {y >= 0 : A^T y >= w}, which is enumerated once.  Scores agree with
    polytope_lp(_instantiate(...)) to about 1e-14, except where HiGHS
    returns a point that violates a row within its tolerance; the reported
    auxiliary goes through eval_bound and polytope_lp.

    The marginals, entropies and group minima are numpy reductions over the
    whole stack.  The products mi = M @ h, rhs = C @ mi and V @ g stay one
    matrix-vector product per auxiliary: a stacked matrix product sums in
    another order, and its scores differ from a lone auxiliary's in the
    last bits, up to 1.8e-15 on the benchmark's searches, which could move a
    step across the 1e-12 margin of `_beats`.  So an auxiliary's score does
    not depend on the stack it is scored in."""

    def __init__(self, bound: BoundId, ch: Channel3, w: np.ndarray):
        t = self.t = _compile(bound)
        free_cols = [RATE_SYMBOLS.index(s) for s in t.free_symbols]
        self.vertices = _dual_vertices(t.a_groups, w[free_cols])
        # (axes of U summed out of a stack, X kept, p(S_Y | x))
        self.sets = []
        for s in t.entropy_sets:
            drop_u = tuple(i for i, v in enumerate(JOINT_AXES[:3], 1)
                           if v not in s)
            drop_y = tuple(i for i, v in enumerate(JOINT_AXES[4:], 1)
                           if v not in s)
            py = (None if len(drop_y) == 3
                  else ch.p.sum(axis=drop_y).reshape(ch.nx, -1))
            self.sets.append((drop_u, "X" in s, py))
        self.nx = ch.nx
        self.calls = 0
        self.infeasible = 0

    def cells(self, m1: int, m2: int, m3: int) -> int:
        """Cells of the joint arrays whose entropies a score takes, per
        auxiliary of these sizes: the measure of a score's memory that
        sizes a lockstep block."""
        sizes = (m1, m2, m3)
        return sum(math.prod(sizes[i - 1] for i in (1, 2, 3)
                             if i not in drop_u)
                   * (self.nx if has_x else 1)
                   * (1 if py is None else py.shape[1])
                   for drop_u, has_x, py in self.sets)

    def __call__(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score the stack of auxiliary joints p(u1,u2,u3,x), shape
        (R, m1, m2, m3, nx), which are not checked: (feasible, score), both
        of shape (R,)."""
        stack, nx = len(p), p.shape[-1]
        self.calls += stack
        marginals: dict[tuple[int, ...], np.ndarray] = {}   # p(S_U, x)
        joints = []
        for drop_u, has_x, py in self.sets:
            pu = marginals.get(drop_u)
            if pu is None:
                pu = marginals[drop_u] = p.sum(axis=drop_u).reshape(
                    stack, -1, nx)
            joint = pu if py is None else pu[..., None] * py
            joints.append((joint if has_x else joint.sum(axis=2))
                          .reshape(stack, -1))
        starts = np.cumsum([0] + [j.shape[1] for j in joints[:-1]])
        flat = np.concatenate(joints, axis=1)
        plogp = flat * np.log2(flat, out=np.zeros_like(flat), where=flat > 0)
        h = -np.add.reduceat(plogp, starts, axis=1)
        mi = np.array([self.t.mi_from_h @ row for row in h])
        if mi.min() < -HARD_TOL:
            raise ValidationError(
                f"conditional mutual information = {mi.min()}: negative "
                "beyond tolerance")
        rhs = np.array([self.t.rhs_from_mi @ row
                        for row in np.maximum(mi, 0.0)])
        feasible, score = self.keys(rhs)
        self.infeasible += int(np.count_nonzero(~feasible))
        return feasible, score

    def keys(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(feasible, score) for each row of rhs, which holds the rhs of a
        bound's rows, then 0 for R1e <= R1 and R2e <= R2: the LP value where
        the polytope is nonempty, else the least rhs."""
        least = rhs.min(axis=1)
        feasible = ~(least < -LP_FEAS_TOL) & bool(len(self.vertices))
        g = np.full((len(rhs), len(self.t.a_groups)), np.inf)
        np.minimum.at(g, (slice(None), self.t.row_group), rhs)
        score = least.copy()
        for r in np.flatnonzero(feasible):
            score[r] = (self.vertices @ g[r]).min()
        return feasible, score


# --------------------------------------------------------------------------
# bound evaluation


def _require_report(reports: Iterable[OrderingReport] | None, ch: Channel3,
                    predicate: str, pair: tuple[int, int],
                    description: str, override: bool) -> list[str]:
    if override:
        return [f"condition unverified: {description} (override)"]
    for rep in reports or ():
        if rep.predicate == predicate and tuple(rep.pair) == pair:
            if rep.channel_sha256 != ch.sha256:
                raise PreconditionError(
                    f"ordering report for {description} was computed on "
                    f"channel {rep.channel_sha256[:12]}..., not on this "
                    f"channel {ch.sha256[:12]}...")
            if rep.verdict is True:
                return []
            raise PreconditionError(
                f"ordering report shows {description} does not hold "
                f"(gap {rep.gap:.3e} bits)")
    raise PreconditionError(
        f"bound requires that {description}; supply an ordering report "
        "for the pair or evaluate with override=True")


def _preconditions(bound: BoundId, ch: Channel3,
                   reports: Sequence[OrderingReport] | None,
                   override: bool) -> list[str]:
    """Check the channel orderings the bound assumes; return its notes."""
    notes: list[str] = []
    if bound in (BoundId.OUTER_3DM, BoundId.OUTER_TYPE1):
        notes += _require_report(reports, ch, "more_capable", (1, 3),
                                 "receiver 1 is more capable than receiver 3",
                                 override)
        notes.append("more-capable precondition applied to the whole bound, "
                     "not only the secrecy rows")
        notes.append("single-auxiliary outer-bound certificate point, "
                     "not the region")
    if bound is BoundId.REGION_TYPE2:
        notes += _require_report(reports, ch, "less_noisy", (1, 3),
                                 "receiver 1 is less noisy than receiver 3",
                                 override)
        notes += _require_report(reports, ch, "less_noisy", (2, 3),
                                 "receiver 2 is less noisy than receiver 3",
                                 override)
    return notes


def eval_bound(bound: BoundId, ch: Channel3, aux: AuxJoint, *,
               ordering_reports: Sequence[OrderingReport] | None = None,
               override: bool = False) -> RatePolytope:
    """Instantiate every inequality of the named bound at (ch, aux), after
    checking the input alphabet, every Markov chain and the orderings."""
    bound = BoundId(bound)
    if aux.nx != ch.nx:
        raise ValidationError(f"aux input alphabet {aux.nx} != channel {ch.nx}")
    residuals = check_markov(aux)
    bad = [(c, r) for c, r in residuals if r > MARKOV_TOL]
    if bad:
        chain, r = bad[0]
        raise ValidationError(
            f"auxiliary violates Markov chain {chain}: residual {r:.3e} bits")
    notes = _preconditions(bound, ch, ordering_reports, override)
    return _instantiate(bound, induced_joint(ch, aux), notes)


def _instantiate(bound: BoundId, joint: JointPmf, notes: Sequence[str] = ()
                 ) -> RatePolytope:
    """The bound's rows at `joint`, with no check of the auxiliary."""
    t = _compile(bound)
    mi = {name: conditional_mi(joint, *groups)
          for name, groups in t.constants.items()}
    rows = tuple(PolytopeRow(tag, rates, sum(c * mi[n] for c, n in terms))
                 for tag, rates, terms in t.rows)
    return RatePolytope(bound.value, rows, t.free_symbols, tuple(notes))


def type2_aux(p_ux: np.ndarray, nx: int) -> AuxJoint:
    """Embed a single-auxiliary joint p(u,x) as U1 = U3 = U, U2 = X.

    The embedding deliberately breaks the three-auxiliary Markov chains
    (U1 is a copy of U3), so it must not be passed through eval_bound's
    Markov gate; it exists for the matched-region comparison below.
    """
    p_ux = np.asarray(p_ux, float)
    mu = p_ux.shape[0]
    joint = np.zeros((mu, nx, mu, nx))
    for u in range(mu):
        for x in range(nx):
            joint[u, x, u, x] = p_ux[u, x]
    return AuxJoint(mu, nx, mu, nx, joint)


@dataclass(frozen=True)
class Cor3MatchRow:
    tag: str
    region_rhs: float
    inner_rhs: float
    outer_rhs: float

    @property
    def residual(self) -> float:
        return max(abs(self.inner_rhs - self.region_rhs),
                   abs(self.outer_rhs - self.region_rhs))


@dataclass(frozen=True)
class Cor3MatchReport:
    rows: tuple[Cor3MatchRow, ...]

    @property
    def matched(self) -> bool:
        return all(r.residual <= MATCH_TOL for r in self.rows)

    def to_dict(self) -> dict:
        return {"matched": self.matched, "tol": MATCH_TOL,
                "rows": [{"tag": r.tag, "region_rhs": r.region_rhs,
                          "inner_rhs": r.inner_rhs, "outer_rhs": r.outer_rhs,
                          "residual": r.residual} for r in self.rows]}


# Row correspondence for the single-auxiliary collapse: with R2 = R2e = 0,
# U2 = X, U3 = U1 = U, each region inequality is the specialization of one
# named row of the inner bound and one of the outer bound.  (Other bound rows
# do not disappear pointwise; they become redundant only once the union over
# auxiliaries is taken, which the converse establishes.)
_COR3_ROW_MAP = (
    # (region row, inner row, outer row)
    ("common", "common", "common_y3"),
    ("r1e_via_y1", "r1e_via_y1", "r1e_via_y1"),
    ("r1e_via_y2", "r1e_via_y2", "r1e_via_y2"),
    ("sum01_a", "sum012_b", "sum012_a"),
    ("sum01_b", "sum01_a", "sum01_b"),
)


def eval_cor3_match(ch: Channel3, p_ux: np.ndarray, *,
                    ordering_reports: Sequence[OrderingReport] | None = None,
                    override: bool = False) -> Cor3MatchReport:
    """Check that the inner and outer three-message bounds collapse to the
    matched single-auxiliary region when R2 = R2e = 0, U2 = X, U3 = U1 = U.

    Each region inequality is compared against its specialized counterpart
    row in both bounds; all RHS values must agree within ``MATCH_TOL``.
    """
    _preconditions(BoundId.REGION_TYPE2, ch, ordering_reports, override)
    joint = induced_joint(ch, type2_aux(p_ux, ch.nx))
    inner = _instantiate(BoundId.INNER_3DM, joint)
    outer = _instantiate(BoundId.OUTER_3DM, joint)
    region = _instantiate(BoundId.REGION_TYPE2, joint)

    out_rows = tuple(
        Cor3MatchRow(reg_tag, region.row(reg_tag).rhs,
                     inner.row(inn_tag).rhs, outer.row(out_tag).rhs)
        for reg_tag, inn_tag, out_tag in _COR3_ROW_MAP)
    return Cor3MatchReport(out_rows)


# --------------------------------------------------------------------------
# weighted-rate maximization


# scale of the Gaussian noise one hill-climbing step adds to a block
PERTURB_STEP = 0.25
# cells of the induced joint p(u1,u2,u3,x,y1,y2,y3) the search may score:
# 128 MiB of float64
JOINT_CELL_CAP = 2 ** 24


@dataclass(frozen=True)
class SearchConfig:
    m1: int | None = None     # default nx + 1
    m2: int | None = None
    m3: int | None = None
    restarts: int = 16
    iters: int = 60
    seed: int = 0

    def __post_init__(self):
        for name, low in (("m1", 1), ("m2", 1), ("m3", 1), ("restarts", 1),
                          ("iters", 0)):
            v = getattr(self, name)
            if v is not None and v < low:
                raise UsageError(f"{name} must be >= {low}, got {v}")

    def sizes(self, nx: int) -> tuple[int, int, int]:
        d = nx + 1
        return tuple(d if m is None else m
                     for m in (self.m1, self.m2, self.m3))


def polytope_lp(pol: RatePolytope, weights: Sequence[float]
                ) -> tuple[RateTuple, float] | None:
    """Maximize weights . r over the polytope plus the rate-tuple
    invariants (nonnegativity, R1e <= R1, R2e <= R2, pinned rates = 0).
    Returns None when infeasible."""
    w = np.asarray(weights, float)
    b_ub = np.array([row.rhs for row in pol.rows] + [0.0, 0.0])
    # a pinned rate is a fixed variable, so HiGHS returns it as exactly 0
    bounds = [(0, None if s in pol.free_symbols else 0) for s in RATE_SYMBOLS]
    res = linprog(-w, A_ub=_a_ub(r.coeffs for r in pol.rows), b_ub=b_ub,
                  bounds=bounds, method="highs")
    if not res.success:
        return None
    vals = np.maximum(res.x, 0.0)
    # clamp tiny LP slack in the coupled invariants, so the value is w . r
    vals[1], vals[3] = max(vals[1], vals[2]), max(vals[3], vals[4])
    return RateTuple(*vals), float(w @ vals)


@dataclass(frozen=True)
class SearchEffort:
    """What one frontier search did: auxiliaries scored, how many of them
    were infeasible, the restarts that never became feasible, the size of
    the dual vertex table, the restart whose auxiliary is reported, each
    restart's final score as (feasible, value) in restart order, and the
    restarts per lockstep block.  For the run manifest, never the output."""

    evaluations: int
    infeasible: int
    infeasible_restarts: int
    dual_vertices: int
    winning_restart: int
    restart_scores: tuple[tuple[bool, float], ...]
    block_restarts: int


def _beats(a: tuple, b: tuple) -> np.ndarray:
    """Whether score a = (feasible, value) beats b, elementwise on stacks:
    a feasible score beats an infeasible one, and otherwise the larger
    value wins by more than 1e-12."""
    return (a[0] > b[0]) | ((a[0] == b[0]) & (a[1] > b[1] + 1e-12))


def max_weighted_rate(bound: BoundId, ch: Channel3,
                      weights: Sequence[float],
                      cfg: SearchConfig = SearchConfig(), *,
                      ordering_reports: Sequence[OrderingReport] | None = None,
                      override: bool = False
                      ) -> tuple[RateTuple, AuxJoint, float, SearchEffort]:
    """Best weighted rate found by LP over the polytope at each auxiliary,
    with the auxiliary improved by random-restart coordinate perturbation.

    Searched auxiliaries are FactorBlocks, Markov by construction, whose
    joint arrays _Scorer scores; only the reported one becomes an AuxJoint
    and goes through eval_bound's gate and the HiGHS solve of polytope_lp.
    A step is taken when the candidate's score beats the current one: a
    feasible score beats an infeasible one, and otherwise the larger value
    wins by more than 1e-12.  So a restart whose start is infeasible climbs
    its least rhs until the polytope is nonempty, then climbs the LP value;
    only restarts that end feasible compete for the result, in restart
    order.

    Restart r draws from its own generator default_rng([seed, r]): its
    start, then per step the block to perturb and the noise.  The restarts
    run in lockstep blocks, one step of every restart of a block per
    _Scorer call on the stack of their candidates, and each restart takes
    or leaves its own candidate.  A block holds as many restarts as
    channel_core.ENUM_BLOCK_CELLS cells hold of their scores
    (_Scorer.cells), at least one, and its generators and states are made
    when it starts, so the search's working memory does not grow with the
    restarts; only the restart scores, one (feasible, value) pair per
    restart, do.  Since a score does not depend on its stack, the result
    is that of running the restarts one after another.

    Sizes whose induced joint would exceed JOINT_CELL_CAP cells are refused
    before the search.

    The result is a lower bound on the true optimum for inner bounds and a
    heuristic certificate point for outer bounds.
    """
    bound = BoundId(bound)
    w = np.asarray(weights, float)
    if (w.shape != (5,) or not np.all(np.isfinite(w)) or np.any(w < 0)
            or not np.any(w > 0)):
        raise UsageError(
            "weights must be 5 finite nonnegative reals, not all zero")
    m1, m2, m3 = cfg.sizes(ch.nx)
    cells = m1 * m2 * m3 * ch.p.size
    if cells > JOINT_CELL_CAP:
        raise CapabilityError(
            f"auxiliary sizes ({m1}, {m2}, {m3}) induce a joint of {cells} "
            f"cells > cap {JOINT_CELL_CAP}; shrink the auxiliary sizes")
    _preconditions(bound, ch, ordering_reports, override)
    evaluate = _Scorer(bound, ch, w)
    block = min(cfg.restarts, max(1, channel_core.ENUM_BLOCK_CELLS
                                  // evaluate.cells(m1, m2, m3)))
    feasible = np.empty(cfg.restarts, bool)
    score = np.empty(cfg.restarts)
    best: tuple[int, FactorBlocks] | None = None
    for lo in range(0, cfg.restarts, block):
        hi = min(lo + block, cfg.restarts)
        rngs = [np.random.default_rng([cfg.seed, r]) for r in range(lo, hi)]
        state = FactorBlocks.stack([
            FactorBlocks.uniform(m1, m2, m3, ch.nx) if r == 0
            else FactorBlocks.random(rng, m1, m2, m3, ch.nx)
            for r, rng in enumerate(rngs, lo)])
        key = evaluate(state.joint())
        for _ in range(cfg.iters):
            cand = state.perturbed(rngs, PERTURB_STEP)
            ckey = evaluate(cand.joint())
            take = _beats(ckey, key)
            state = state.where(take, cand)
            key = tuple(np.where(take, c, k) for c, k in zip(ckey, key))
        feasible[lo:hi], score[lo:hi] = key
        for r in range(lo, hi):
            if feasible[r] and (best is None or _beats(
                    (True, score[r]), (True, score[best[0]]))):
                best = (r, state[r - lo])
    if best is None:
        raise ValidationError(
            "polytope infeasible at every searched auxiliary")
    restart, state = best
    aux = state.to_aux()
    pol = eval_bound(bound, ch, aux, ordering_reports=ordering_reports,
                     override=override)
    solved = polytope_lp(pol, w)
    if solved is None:
        raise ValidationError(
            "HiGHS found no optimum at the reported auxiliary")
    rate, value = solved
    return rate, aux, value, SearchEffort(
        evaluate.calls, evaluate.infeasible,
        int(np.count_nonzero(~feasible)), len(evaluate.vertices), restart,
        tuple(zip(feasible.tolist(), score.tolist())), block)


def _renorm(v: np.ndarray) -> np.ndarray:
    v = np.maximum(v, 1e-9)
    return v / v.sum()
