"""Receiver-ordering predicates: degraded, less noisy, more capable.

All three predicates are oriented the same way: `predicate(ch, a, b)` asks
whether receiver `a` dominates receiver `b` in the respective sense.

* degraded: Y_b is a stochastic degradation of Y_a — decided exactly (up to
  1e-9) by a linear feasibility program; a row-stochastic factorization
  matrix is returned as witness.
* more capable: max over input pmfs of I(X;Y_b) − I(X;Y_a) is <= 0 — a
  nonconcave search, estimated by a deterministic simplex grid plus
  multi-start projected gradient ascent.
* less noisy: min over joint pmfs p(u,x) of I(U;Y_a) − I(U;Y_b) is >= 0 —
  estimated by random sampling plus multi-start projected gradient descent.

Search-based verdicts are certified only up to search effort; reports carry
the restart count and grid resolution.  The pass/fail tolerances are
asymmetric (pass at <= 1e-7 violation, fail above 1e-6, indeterminate in
between) to avoid flaky boundary verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import linprog

from .channel_core import Channel3
from .errors import CapabilityError, UsageError

DEGRADED_TOL = 1e-9
PASS_TOL = 1e-7
FAIL_TOL = 1e-6

_LOG2 = np.log(2.0)


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


def _check_pair(ch: Channel3, a: int, b: int) -> None:
    for r in (a, b):
        if r not in (1, 2, 3):
            raise UsageError(f"receiver id must be 1, 2 or 3, got {r}")


def _mi_input(px: np.ndarray, w: np.ndarray) -> float:
    """I(X;Y) in bits for input pmf px and channel matrix w[x][y]."""
    joint = px[:, None] * w
    py = joint.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(joint > 0, joint / np.maximum(px[:, None] * py, 1e-300), 1.0)
        terms = np.where(joint > 0, joint * np.log(ratio), 0.0)
    return float(terms.sum() / _LOG2)


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
            start: np.ndarray, iters: int = 200) -> tuple[np.ndarray, float]:
    """Projected gradient ascent on the simplex with backtracking steps."""
    p = start / start.sum()
    best = objective(p)
    step = 1.0
    for _ in range(iters):
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


def _simplex_grid(dim: int, resolution: int):
    """All pmfs with entries k/resolution (deterministic grid)."""
    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            yield prefix + [remaining]
            return
        for k in range(remaining + 1):
            yield from rec(prefix + [k], remaining - k, slots - 1)

    for comp in rec([], resolution, dim):
        yield np.array(comp, dtype=float) / resolution


def is_degraded(ch: Channel3, a: int, b: int,
                tol: float = DEGRADED_TOL) -> OrderingReport:
    """Is Y_b a stochastic degradation of Y_a?

    Solves min_t { |(A W − B)[x, y_b]| <= t, W row-stochastic, W >= 0 } as
    an LP; verdict true iff the best t is within `tol`.
    """
    _check_pair(ch, a, b)
    wa = ch.marginal_to(a)
    wb = ch.marginal_to(b)
    nya, nyb = wa.shape[1], wb.shape[1]
    if a == b:
        return OrderingReport("degraded", (a, b), True, 0.0, np.eye(nya),
                              ch.sha256)

    # variables: W (nya*nyb, row-major) then t
    nvar = nya * nyb + 1
    cost = np.zeros(nvar)
    cost[-1] = 1.0
    rows_ub, rhs_ub = [], []
    for x in range(ch.nx):
        for yb in range(nyb):
            coeff = np.zeros(nvar)
            for ya in range(nya):
                coeff[ya * nyb + yb] = wa[x, ya]
            coeff[-1] = -1.0
            rows_ub.append(coeff.copy())
            rhs_ub.append(wb[x, yb])
            rows_ub.append(-coeff)
            rows_ub[-1][-1] = -1.0
            rhs_ub.append(-wb[x, yb])
    rows_eq, rhs_eq = [], []
    for ya in range(nya):
        coeff = np.zeros(nvar)
        coeff[ya * nyb:(ya + 1) * nyb] = 1.0
        rows_eq.append(coeff)
        rhs_eq.append(1.0)
    res = linprog(cost, A_ub=np.array(rows_ub), b_ub=np.array(rhs_ub),
                  A_eq=np.array(rows_eq), b_eq=np.array(rhs_eq),
                  bounds=[(0, None)] * (nvar - 1) + [(0, None)],
                  method="highs")
    if not res.success:
        raise CapabilityError(f"degradedness LP failed: {res.message}")
    deviation = float(res.x[-1])
    witness = res.x[:-1].reshape(nya, nyb) if deviation <= tol else None
    return OrderingReport("degraded", (a, b), deviation <= tol,
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
                    grid_resolution: int = 64, grid_cap: int = 3,
                    seed: int = 0) -> OrderingReport:
    """Is receiver a more capable than b: I(X;Y_a) >= I(X;Y_b) for all p(x)?

    Maximizes I(X;Y_b) − I(X;Y_a) by a deterministic simplex grid (for
    nx <= grid_cap; larger inputs fall back to the ascent alone) plus
    multi-start projected gradient ascent.
    """
    _check_pair(ch, a, b)
    if a == b:
        return OrderingReport("more_capable", (a, b), True, 0.0,
                              np.full(ch.nx, 1.0 / ch.nx), ch.sha256)
    wa = ch.marginal_to(a)
    wb = ch.marginal_to(b)

    def objective(px: np.ndarray) -> float:
        return _mi_input(px, wb) - _mi_input(px, wa)

    def gradient(px: np.ndarray) -> np.ndarray:
        # d I(X;Y)/d p(x) = D(W(.|x) || q) up to an additive constant
        def part(w: np.ndarray) -> np.ndarray:
            q = np.maximum(px @ w, 1e-300)
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(w > 0, w * np.log(np.maximum(w, 1e-300) / q), 0.0)
            return terms.sum(axis=1) / _LOG2
        return part(wb) - part(wa)

    starts: list[np.ndarray] = [np.full(ch.nx, 1.0 / ch.nx)]
    # past grid_cap inputs the grid is too large: multistart only, and the
    # report says so with grid_resolution 0
    used_resolution = grid_resolution if ch.nx <= grid_cap else 0
    if used_resolution > 0:
        best_grid, best_val = None, -np.inf
        for p in _simplex_grid(ch.nx, used_resolution):
            v = objective(p)
            if v > best_val:
                best_grid, best_val = p, v
        starts.append(best_grid)
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        starts.append(rng.dirichlet(np.ones(ch.nx)))

    best_p, best_val = None, -np.inf
    for p0 in starts:
        p, v = _ascend(objective, gradient, p0)
        if v > best_val:
            best_p, best_val = p, v
    return OrderingReport("more_capable", (a, b), _band_verdict(best_val),
                          best_val, best_p, ch.sha256, restarts=restarts,
                          grid_resolution=used_resolution,
                          note="numerically certified only up to search effort")


def is_less_noisy(ch: Channel3, a: int, b: int, nu: int | None = None,
                  restarts: int = 32, samples: int = 512,
                  seed: int = 0) -> OrderingReport:
    """Is receiver a less noisy than b: I(U;Y_a) >= I(U;Y_b) for all p(u,x)?

    Minimizes I(U;Y_a) − I(U;Y_b) over joints p(u,x) with |U| = nu
    (default nx + 1), by random sampling plus multi-start projected
    gradient descent; the violation reported is the negative of the
    smallest value found.
    """
    _check_pair(ch, a, b)
    if nu is None:
        nu = ch.nx + 1
    if a == b:
        return OrderingReport("less_noisy", (a, b), True, 0.0,
                              np.full((nu, ch.nx), 1.0 / (nu * ch.nx)),
                              ch.sha256)
    wa = ch.marginal_to(a)
    wb = ch.marginal_to(b)

    def mi_aux(pux: np.ndarray, w: np.ndarray) -> float:
        puy = pux @ w               # p(u, y)
        pu = puy.sum(axis=1)
        py = puy.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = np.maximum(np.outer(pu, py), 1e-300)
            terms = np.where(puy > 0, puy * np.log(puy / denom), 0.0)
        return float(terms.sum() / _LOG2)

    def objective(flat: np.ndarray) -> float:
        pux = flat.reshape(nu, ch.nx)
        # ascend() maximizes; we seek the minimum of the signed difference
        return mi_aux(pux, wb) - mi_aux(pux, wa)

    def gradient(flat: np.ndarray) -> np.ndarray:
        pux = flat.reshape(nu, ch.nx)

        def part(w: np.ndarray) -> np.ndarray:
            puy = np.maximum(pux @ w, 1e-300)
            py = np.maximum(puy.sum(axis=0), 1e-300)
            # d I(U;Y)/d p(u,x) = sum_y w[x,y] log(p(y|u)/p(y)), up to const
            pu = np.maximum(puy.sum(axis=1), 1e-300)
            logratio = np.log(puy / (pu[:, None] * py[None, :]))
            return (logratio @ w.T) / _LOG2
        return (part(wb) - part(wa)).ravel()

    rng = np.random.default_rng([seed, 0xABCD])
    starts = [np.full(nu * ch.nx, 1.0 / (nu * ch.nx))]
    best_sample, best_sample_val = None, -np.inf
    for _ in range(samples):
        p = rng.dirichlet(np.ones(nu * ch.nx))
        v = objective(p)
        if v > best_sample_val:
            best_sample, best_sample_val = p, v
    if best_sample is not None:
        starts.append(best_sample)
    for r in range(restarts):
        rr = np.random.default_rng([seed, 1 + r])
        starts.append(rr.dirichlet(np.ones(nu * ch.nx)))

    best_p, best_val = None, -np.inf
    for p0 in starts:
        p, v = _ascend(objective, gradient, p0)
        if v > best_val:
            best_p, best_val = p, v
    witness = best_p.reshape(nu, ch.nx)
    return OrderingReport("less_noisy", (a, b), _band_verdict(best_val),
                          best_val, witness, ch.sha256, restarts=restarts,
                          note="numerically certified only up to search effort; "
                               f"|U|={nu}, samples={samples}")


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
