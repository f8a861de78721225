"""Receiver-ordering predicates: degraded, less noisy, more capable.

All three predicates are oriented the same way: `predicate(ch, a, b)` asks
whether receiver `a` dominates receiver `b` in the respective sense.

* degraded: Y_b is a stochastic degradation of Y_a — decided exactly (up to
  1e-9) by a linear feasibility program; a row-stochastic factorization
  matrix is returned as witness.
* more capable: max over input pmfs of I(X;Y_b) − I(X;Y_a) is <= 0 — a
  nonconcave search, estimated by a deterministic simplex grid plus
  multi-start projected gradient ascent.
* less noisy: I(U;Y_a) >= I(U;Y_b) for all p(u,x), which holds iff
  I(X;Y_a) − I(X;Y_b) is concave in p(x) (van Dijk, IEEE Trans. IT 43(2),
  1997) — a scan of input pmfs for positive curvature; a positive-curvature
  direction v at p gives the binary-U witness p(x|u) = p ± δv.

Both searches work on the input simplex.  Their verdicts are certified
only up to search effort; reports carry the restart count and grid
resolution.  The pass/fail tolerances are asymmetric (pass at <= 1e-7
violation, fail above 1e-6, indeterminate in between) to avoid flaky
boundary verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import linprog

from .channel_core import Channel3
from .errors import CapabilityError, UsageError

DEGRADED_TOL = 1e-9
PASS_TOL = 1e-7
FAIL_TOL = 1e-6

GRID_RESOLUTION = 64
GRID_CAP = 3

_LOG2 = np.log(2.0)
# input pmfs per stacked step of the scans: no array grows with the grid or
# the restarts, and the line-search stack stays small enough for the heap
_CHUNK = 64
# line-search steps along a positive-curvature direction, up to the boundary
_STEPS = 32
# projected-gradient iterations per ascent start
_ASCENT_ITERS = 200


@dataclass(frozen=True)
class OrderingReport:
    """Outcome of one ordering predicate on a receiver pair.

    `verdict` is True/False, or None when the violation falls inside the
    indeterminate tolerance band.  `gap` is the signed violation in bits
    (positive = evidence against the predicate).  `witness` is a stochastic
    factorization matrix for the degraded predicate, and the worst
    input/auxiliary distribution found for the search-based ones.
    `channel_sha256` is the `Channel3.sha256` of the channel it was
    computed on.
    """

    predicate: str
    pair: tuple[int, int]
    verdict: bool | None
    gap: float
    witness: np.ndarray | None
    channel_sha256: str
    restarts: int = 0
    grid_resolution: int = 0
    note: str = ""

    @property
    def status(self) -> str:
        if self.verdict is None:
            return "indeterminate"
        return "true" if self.verdict else "false"

    def to_dict(self) -> dict:
        return {
            "predicate": self.predicate,
            "pair": list(self.pair),
            "verdict": self.status,
            "gap_bits": self.gap,
            "witness": None if self.witness is None else self.witness.tolist(),
            "channel_sha256": self.channel_sha256,
            "restarts": self.restarts,
            "grid_resolution": self.grid_resolution,
            "note": self.note,
        }


def _check_args(a: int, b: int, restarts: int = 0) -> None:
    for r in (a, b):
        if r not in (1, 2, 3):
            raise UsageError(f"receiver id must be 1, 2 or 3, got {r}")
    if restarts < 0:
        raise UsageError(f"restarts must be >= 0, got {restarts}")


def _mi(px: np.ndarray, w: np.ndarray) -> np.ndarray:
    """I(X;Y) in bits for a stack of input pmfs px (..., nx) through channel
    matrices w (..., nx, ny), broadcast against each other."""
    joint = px[..., :, None] * w
    py = joint.sum(axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(joint > 0, joint / np.maximum(
            px[..., :, None] * py[..., None, :], 1e-300), 1.0)
        terms = np.where(joint > 0, joint * np.log(ratio), 0.0)
    return terms.sum(axis=(-2, -1)) / _LOG2


def _chunks(points: np.ndarray):
    return (points[i:i + _CHUNK] for i in range(0, len(points), _CHUNK))


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _ascend(objective: Callable[[np.ndarray], float],
            gradient: Callable[[np.ndarray], np.ndarray],
            start: np.ndarray) -> tuple[np.ndarray, float]:
    """Projected gradient ascent on the simplex with backtracking steps."""
    p = start / start.sum()
    best = objective(p)
    step = 1.0
    for _ in range(_ASCENT_ITERS):
        g = gradient(p)
        improved = False
        s = step
        for _ in range(12):
            cand = _project_simplex(p + s * g)
            val = objective(cand)
            if val > best + 1e-15:
                p, best, step, improved = cand, val, min(s * 2.0, 4.0), True
                break
            s *= 0.5
        if not improved:
            break
    return p, best


def _simplex_grid(dim: int, resolution: int) -> np.ndarray:
    """All pmfs with entries k/resolution, one per row, lexicographic."""
    comps = [c + (resolution - sum(c),)
             for c in itertools.product(range(resolution + 1), repeat=dim - 1)
             if sum(c) <= resolution]
    return np.array(comps, dtype=float) / resolution


def is_degraded(ch: Channel3, a: int, b: int) -> OrderingReport:
    """Is Y_b a stochastic degradation of Y_a?

    Solves min_t { |(A W − B)[x, y_b]| <= t, W row-stochastic, W >= 0 } as
    an LP; verdict true iff the best t is within DEGRADED_TOL.
    """
    _check_args(a, b)
    wa = ch.marginal_to(a)
    wb = ch.marginal_to(b)
    nya, nyb = wa.shape[1], wb.shape[1]
    if a == b:
        return OrderingReport("degraded", (a, b), True, 0.0, np.eye(nya),
                              ch.sha256)

    # variables: W (nya*nyb, row-major) then t; rows (x, y_b), each
    # +(A W − B) − t <= 0 then −(A W − B) − t <= 0
    nvar = nya * nyb + 1
    cost = np.zeros(nvar)
    cost[-1] = 1.0
    aw = np.kron(wa, np.eye(nyb))
    t_col = np.ones((aw.shape[0], 1))
    rows_ub = np.stack([np.hstack([aw, -t_col]), np.hstack([-aw, -t_col])],
                       axis=1).reshape(-1, nvar)
    rhs_ub = np.stack([wb.ravel(), -wb.ravel()], axis=1).ravel()
    rows_eq = np.hstack([np.kron(np.eye(nya), np.ones(nyb)),
                         np.zeros((nya, 1))])
    res = linprog(cost, A_ub=rows_ub, b_ub=rhs_ub,
                  A_eq=rows_eq, b_eq=np.ones(nya),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise CapabilityError(f"degradedness LP failed: {res.message}")
    deviation = float(res.x[-1])
    holds = deviation <= DEGRADED_TOL
    witness = res.x[:-1].reshape(nya, nyb) if holds else None
    return OrderingReport("degraded", (a, b), holds,
                          deviation, witness, ch.sha256,
                          note=f"max marginal deviation {deviation:.3e}")


def _band_verdict(violation: float) -> bool | None:
    """Asymmetric tolerance band: pass / fail / indeterminate."""
    if violation <= PASS_TOL:
        return True
    if violation > FAIL_TOL:
        return False
    return None


def is_more_capable(ch: Channel3, a: int, b: int, restarts: int = 32,
                    seed: int = 0) -> OrderingReport:
    """Is receiver a more capable than b: I(X;Y_a) >= I(X;Y_b) for all p(x)?

    Maximizes I(X;Y_b) − I(X;Y_a) by a deterministic simplex grid (for
    nx <= GRID_CAP; larger inputs fall back to the ascent alone) plus
    multi-start projected gradient ascent.
    """
    _check_args(a, b, restarts)
    if a == b:
        return OrderingReport("more_capable", (a, b), True, 0.0,
                              np.full(ch.nx, 1.0 / ch.nx), ch.sha256)
    wa = ch.marginal_to(a)
    wb = ch.marginal_to(b)

    def objective(px: np.ndarray) -> np.ndarray:
        return _mi(px, wb) - _mi(px, wa)

    def gradient(px: np.ndarray) -> np.ndarray:
        # d I(X;Y)/d p(x) = D(W(.|x) || q) up to an additive constant
        def part(w: np.ndarray) -> np.ndarray:
            q = np.maximum(px @ w, 1e-300)
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(w > 0, w * np.log(np.maximum(w, 1e-300) / q), 0.0)
            return terms.sum(axis=1) / _LOG2
        return part(wb) - part(wa)

    starts: list[np.ndarray] = [np.full(ch.nx, 1.0 / ch.nx)]
    # past GRID_CAP inputs the grid is too large: multistart only, and the
    # report says so with grid_resolution 0
    used_resolution = GRID_RESOLUTION if ch.nx <= GRID_CAP else 0
    if used_resolution > 0:
        grid = _simplex_grid(ch.nx, used_resolution)
        values = np.concatenate([objective(c) for c in _chunks(grid)])
        starts.append(grid[np.argmax(values)])
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        starts.append(rng.dirichlet(np.ones(ch.nx)))

    best_p, best_val = None, -np.inf
    for p0 in starts:
        p, v = _ascend(objective, gradient, p0)
        if v > best_val:
            best_p, best_val = p, v
    best_val = float(best_val)
    return OrderingReport("more_capable", (a, b), _band_verdict(best_val),
                          best_val, best_p, ch.sha256, restarts=restarts,
                          grid_resolution=used_resolution,
                          note="numerically certified only up to search effort")


def _curvature(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """W diag(1/q) Wᵀ, q = p W, at each p (k, nx): −ln 2 · Hessian of H(Y)."""
    return np.einsum("xy,ky,zy->kxz", w, 1.0 / (p @ w), w)


def is_less_noisy(ch: Channel3, a: int, b: int, restarts: int = 32,
                  seed: int = 0) -> OrderingReport:
    """Is receiver a less noisy than b: I(U;Y_a) >= I(U;Y_b) for all p(u,x)?

    Scans input pmfs p (uniform, the simplex grid's interior for
    nx <= GRID_CAP, 16·restarts Dirichlet draws) for a positive top
    eigenvalue of the Hessian of I(X;Y_a) − I(X;Y_b) on the simplex's
    tangent space, (1/ln 2)[−W_a diag(1/q_a) W_aᵀ + W_b diag(1/q_b) W_bᵀ].
    Along each such eigenvector v, a line search over δ up to the simplex
    boundary scores p(u) = 1/2, p(x|u) = p ± δv by I(U;Y_b) − I(U;Y_a); the
    best score (0 if none is positive) is the gap, its p(u,x) the witness.
    """
    _check_args(a, b, restarts)
    nx = ch.nx
    gap, witness = 0.0, np.full((2, nx), 1.0 / (2 * nx))
    if a == b or nx == 1:
        return OrderingReport("less_noisy", (a, b), True, gap, witness,
                              ch.sha256)
    # outputs no input reaches carry no curvature and would divide 0 by 0
    wa, wb = (w[:, w.any(axis=0)]
              for w in (ch.marginal_to(a), ch.marginal_to(b)))
    used_resolution = GRID_RESOLUTION if nx <= GRID_CAP else 0
    rng = np.random.default_rng([seed, 0xABCD])
    draws = (rng.dirichlet(np.ones(nx), size=min(_CHUNK, 16 * restarts - k))
             for k in range(0, 16 * restarts, _CHUNK))
    points = [np.full((1, nx), 1.0 / nx)]
    if used_resolution > 0:
        grid = _simplex_grid(nx, used_resolution)
        points.append(grid[(grid > 0).all(axis=1)])
    # orthonormal basis of the tangent space {v : sum(v) = 0}
    basis = np.linalg.qr(np.eye(nx)[:, :-1] - 1.0 / nx)[0]
    half = np.full(2, 0.5)
    steps = np.arange(1, _STEPS + 1) / _STEPS
    scanned = 0
    for p in itertools.chain(_chunks(np.concatenate(points)), draws):
        scanned += len(p)
        hess = (_curvature(p, wb) - _curvature(p, wa)) / _LOG2
        lam, vec = np.linalg.eigh(basis.T @ hess @ basis)
        pos = lam[:, -1] > 0
        if not pos.any():
            continue
        p = p[pos]
        v = vec[pos, :, -1] @ basis.T
        reach = np.divide(p, np.abs(v), out=np.full_like(p, np.inf),
                          where=v != 0).min(axis=1)
        delta = (reach[:, None] * steps)[..., None, None]      # (m, S, 1, 1)
        # p(x|u) for u = 0, 1 at every step: (m, S, 2, nx)
        cond = np.maximum(p[:, None, None]
                          + delta * np.stack([v, -v], axis=1)[:, None], 0.0)
        score = _mi(half, cond @ wb) - _mi(half, cond @ wa)
        best = np.unravel_index(np.argmax(score), score.shape)
        if score[best] > gap:
            gap, witness = float(score[best]), 0.5 * cond[best]
    return OrderingReport("less_noisy", (a, b), _band_verdict(gap), gap,
                          witness, ch.sha256, restarts=restarts,
                          grid_resolution=used_resolution,
                          note="numerically certified only up to search "
                               f"effort; concavity scan of {scanned} "
                               "input pmfs, |U|=2")


@dataclass(frozen=True)
class ImplicationReport:
    """Joint verdicts of all three predicates with chain consistency."""

    degraded: OrderingReport
    less_noisy: OrderingReport
    more_capable: OrderingReport
    violations: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "degraded": self.degraded.to_dict(),
            "less_noisy": self.less_noisy.to_dict(),
            "more_capable": self.more_capable.to_dict(),
            "consistent": self.consistent,
            "violations": list(self.violations),
        }


def implication_check(ch: Channel3, a: int, b: int, restarts: int = 32,
                      seed: int = 0) -> ImplicationReport:
    """Evaluate all three predicates and check degraded => less noisy =>
    more capable; a violation indicates a numerical failure, since the
    implications are theorems."""
    deg = is_degraded(ch, a, b)
    ln = is_less_noisy(ch, a, b, restarts=restarts, seed=seed)
    mc = is_more_capable(ch, a, b, restarts=restarts, seed=seed)
    violations = []
    if deg.verdict is True and ln.verdict is False:
        violations.append("degraded holds but less_noisy fails")
    if ln.verdict is True and mc.verdict is False:
        violations.append("less_noisy holds but more_capable fails")
    if deg.verdict is True and mc.verdict is False:
        violations.append("degraded holds but more_capable fails")
    return ImplicationReport(deg, ln, mc, tuple(violations))
