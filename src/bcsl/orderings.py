"""Receiver-ordering predicates: degraded, less noisy, more capable.

All three predicates are oriented the same way: `predicate(ch, a, b)` asks
whether receiver `a` dominates receiver `b` in the respective sense.

* degraded: Y_b is a stochastic degradation of Y_a — decided by a linear
  program whose row-stochastic factorization matrix is returned as witness
  and checked to 1e-9; where the LP's tolerance hides whether one exists,
  the verdict is indeterminate.
* more capable: I(X;Y_b) − I(X;Y_a) = φ(p) − p·(h_b − h_a) <= 0 for every
  input pmf p, as I(X;Y) = H(pW) − p·h(W), h(x) = H(W(·|x)) and φ(p) =
  H(pW_b) − H(pW_a) — the best scanned p, refined by gradient ascent.
  An exact face rule adds the edges from a unit pmf e_i along which the
  excess rises like t·log2(1/t), often closer in than the scan reaches.
* less noisy: I(U;Y_a) >= I(U;Y_b) for all p(u,x), which holds iff φ is
  convex (van Dijk, IEEE Trans. IT 43(2), 1997) — a scan of input pmfs for
  negative curvature of φ.  Such a direction v at p gives the binary-U
  witness p(x|u) = c± = p ± δv, and its gap I(U;Y_b) − I(U;Y_a) is the
  midpoint defect φ(p̄) − ½[φ(c₊) + φ(c₋)], p̄ the mean of c±.  Near the
  unit pmfs where the face rule finds a vanishing output, it adds
  log-spaced points closer in than the grid (`_face_corners`).

Both searches scan the same input pmfs (`_scan_points`): the uniform pmf,
a simplex grid for nx <= GRID_CAP and 16·restarts seeded Dirichlet draws.
Their kernel, `_entropy`, adds q·log2 q over the outputs in order.
Their verdicts are certified only up to search effort (reports carry the
restart count and grid resolution), with asymmetric tolerances against
flaky boundary verdicts: pass at <= 1e-7, fail above 1e-6, else neither.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np
from scipy.optimize import linprog

from .channel_core import LP_FEAS_TOL, Channel3
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
# projected-gradient iterations of the more-capable refinement
_ASCENT_ITERS = 200
# steps t = 10^(−k/4), k = 1..48, away from a vertex along a face-rule edge
_FACE_STEPS = 10.0 ** (-np.arange(1, 49) / 4)
# masses t = 10^(−k/4), k = 1..24, toward the other inputs, of the
# less-noisy scan's points near a vertex where an output vanishes
_CORNER_STEPS = _FACE_STEPS[:24]
# a report's verdict and its JSON spelling
_STATUS = {True: "true", False: "false", None: "indeterminate"}


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

    def to_dict(self) -> dict:
        return {
            "predicate": self.predicate,
            "pair": list(self.pair),
            "verdict": _STATUS[self.verdict],
            "gap_bits": self.gap,
            "witness": None if self.witness is None else self.witness.tolist(),
            "channel_sha256": self.channel_sha256,
            "restarts": self.restarts,
            "grid_resolution": self.grid_resolution,
            "note": self.note,
        }

    @staticmethod
    def from_dict(d: Mapping) -> "OrderingReport":
        """Inverse of `to_dict`: KeyError, TypeError or ValueError if bad."""
        if not isinstance(d["channel_sha256"], str):
            raise TypeError("channel_sha256 must be a string")
        witness = d.get("witness")
        return OrderingReport(
            d["predicate"], tuple(int(v) for v in d["pair"]),
            {s: v for v, s in _STATUS.items()}[d["verdict"]],
            float(d["gap_bits"]),
            None if witness is None else np.asarray(witness),
            d["channel_sha256"], d.get("restarts", 0),
            d.get("grid_resolution", 0), d.get("note", ""))


def _check_args(a: int, b: int, restarts: int = 0) -> None:
    for r in (a, b):
        if r not in (1, 2, 3):
            raise UsageError(f"receiver id must be 1, 2 or 3, got {r}")
    if restarts < 0:
        raise UsageError(f"restarts must be >= 0, got {restarts}")


def _log2(q: np.ndarray) -> np.ndarray:
    """log2 q, with q = 0 read as 1e-300: 0 log 0 = 0 in an entropy, and a
    finite stand-in for the gradient's −∞ where p first reaches an output."""
    return np.log2(np.where(q > 0, q, 1e-300))


def _entropy(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """H(pW) in bits at each input pmf of a stack p (..., nx).

    The terms q·log2 q are summed over the outputs in order, one column at
    a time, which costs far less than `.sum(axis=-1)` on a 2–3 wide axis.
    It is bitwise equal to that sum for fewer than 8 outputs: numpy adds a
    short axis in order, from its identity 0.0 (hence the `+ 0.0`, which
    only turns a −0.0 into 0.0), and sums 8 or more pairwise.
    """
    q = (p.reshape(-1, w.shape[0]) @ w).reshape(*p.shape[:-1], w.shape[1])
    t = q * _log2(q)
    s = t[..., 0] + 0.0
    for j in range(1, t.shape[-1]):
        s += t[..., j]
    return -s


def _phi(p: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """φ(p) = H(pW_b) − H(pW_a) at each input pmf of a stack p (..., nx)."""
    return _entropy(p, wb) - _entropy(p, wa)


def _excess(p: np.ndarray, wa: np.ndarray, wb: np.ndarray,
            dh: np.ndarray) -> np.ndarray:
    """I(X;Y_b) − I(X;Y_a) = φ(p) − p·Δh at each p of a stack."""
    return _phi(p, wa, wb) - p @ dh


def _excess_gradient(p: np.ndarray, wa: np.ndarray, wb: np.ndarray,
                     dh: np.ndarray) -> np.ndarray:
    """Gradient of `_excess` at one input pmf p (nx,)."""
    return wa @ _log2(p @ wa) - wb @ _log2(p @ wb) - dh


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
    # with dim = 1 there are no free coordinates and one row, [1.0]
    head = np.indices((resolution + 1,) * (dim - 1)).reshape(
        dim - 1, (resolution + 1) ** (dim - 1)).T
    head = head[head.sum(axis=1) <= resolution]
    return np.column_stack([head, resolution - head.sum(axis=1)]) / resolution


def _scan_points(nx: int, restarts: int, seed: int
                 ) -> tuple[int, Iterator[np.ndarray]]:
    """The input pmfs both search predicates scan, in stacks of at most
    _CHUNK rows: the uniform pmf, the GRID_RESOLUTION simplex grid when
    nx <= GRID_CAP (past that it is too large), then 16·restarts Dirichlet
    draws from one seeded stream.  Also returns the grid resolution used,
    0 for no grid."""
    resolution = GRID_RESOLUTION if nx <= GRID_CAP else 0
    fixed = np.full((1, nx), 1.0 / nx)
    if resolution > 0:
        fixed = np.concatenate([fixed, _simplex_grid(nx, resolution)])
    rng = np.random.default_rng([seed, 0xABCD])
    draws = (rng.dirichlet(np.ones(nx), size=min(_CHUNK, 16 * restarts - k))
             for k in range(0, 16 * restarts, _CHUNK))
    return resolution, itertools.chain(
        (fixed[k:k + _CHUNK] for k in range(0, len(fixed), _CHUNK)), draws)


def _face_edges(wa: np.ndarray, wb: np.ndarray) -> Iterator[np.ndarray]:
    """Input pmfs (1 − t)·e_i + t·e_j, t in _FACE_STEPS, on each edge (i, j)
    where the face rule finds that I(X;Y_b) − I(X;Y_a) rises from 0 at e_i.

    Along that edge I(X;Y_k) = S_k·t·log2(1/t) + O(t), where S_k sums
    W_k[j, y] over the outputs y with W_k[i, y] = 0.  So S_b > S_a makes the
    excess positive near e_i, closer in than the grid and the draws reach.
    """
    s_a, s_b = ((w == 0) @ w.T for w in (wa, wb))
    eye = np.eye(len(wa))
    for i, j in zip(*np.nonzero(s_b > s_a)):
        yield np.outer(1 - _FACE_STEPS, eye[i]) + np.outer(_FACE_STEPS, eye[j])


def _face_corners(wa: np.ndarray, wb: np.ndarray) -> Iterator[np.ndarray]:
    """Input pmfs near each unit pmf e_i at which an output of W_a or W_b
    vanishes that another input reaches, in stacks of at most _CHUNK rows:
    e_i moved by masses t in _CORNER_STEPS toward each other e_j, for
    nx <= GRID_CAP.

    These are the vertices where the face rule's S_a or S_b has a nonzero
    row.  Near e_i such an output's probability q is small, and the
    curvature of its H(pW), which grows like 1/q, can change the sign of
    φ's curvature closer in than the grid reaches.
    """
    nx = len(wa)
    if nx > GRID_CAP:
        return
    t = np.stack(np.meshgrid(*[_CORNER_STEPS] * (nx - 1), indexing="ij"),
                 axis=-1).reshape(-1, nx - 1)
    t = t[t.sum(axis=1) < 1]
    s_a, s_b = ((w == 0) @ w.T for w in (wa, wb))
    for i in np.flatnonzero((s_a + s_b).any(axis=1)):
        p = np.insert(t, i, 1 - t.sum(axis=1), axis=1)
        yield from (p[k:k + _CHUNK] for k in range(0, len(p), _CHUNK))


def is_degraded(ch: Channel3, a: int, b: int) -> OrderingReport:
    """Is Y_b a stochastic degradation of Y_a?

    Solves min_t { |(A W − B)[x, y_b]| <= t, W row-stochastic, W >= 0 } as
    an LP, then clips the returned W at 0 and renormalises its rows.  The
    gap is max |A W − B| at that W, the verdict true iff it is within
    DEGRADED_TOL (W is the witness), indeterminate if it is not but the
    LP's t is within DEGRADED_TOL + LP_FEAS_TOL, false otherwise.
    """
    _check_args(a, b)
    wa, wb = ch.marginal_to(a), ch.marginal_to(b)
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
    # HiGHS meets the rows only to LP_FEAS_TOL, so the verdict is decided on
    # the returned W made row-stochastic, not on the LP's t
    w = np.maximum(res.x[:-1].reshape(nya, nyb), 0.0)
    w /= w.sum(axis=1, keepdims=True)
    # A W summed in numpy, not by `@`: a first BLAS product raised the
    # peak RSS of a degraded check by about 0.3 MiB
    deviation = float(np.abs((wa[:, :, None] * w).sum(axis=1) - wb).max())
    holds = deviation <= DEGRADED_TOL
    verdict = (True if holds
               else None if res.x[-1] <= DEGRADED_TOL + LP_FEAS_TOL else False)
    return OrderingReport("degraded", (a, b), verdict,
                          deviation, w if holds else None, ch.sha256,
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

    Scores φ(p) − p·Δh, Δh = h_b − h_a = φ at the unit pmfs, on every
    `_scan_points` input pmf and every `_face_edges` point, then refines the
    best one by projected gradient ascent; the gap is the ascent's value,
    its input pmf the witness.
    """
    _check_args(a, b, restarts)
    if a == b:
        return OrderingReport("more_capable", (a, b), True, 0.0,
                              np.full(ch.nx, 1.0 / ch.nx), ch.sha256)
    wa, wb = ch.marginal_to(a), ch.marginal_to(b)
    dh = _phi(np.eye(ch.nx), wa, wb)
    used_resolution, points = _scan_points(ch.nx, restarts, seed)
    start, start_val = None, -np.inf
    for p in itertools.chain(points, _face_edges(wa, wb)):
        values = _excess(p, wa, wb, dh)
        if values.max() > start_val:
            start, start_val = p[np.argmax(values)], values.max()
    best_p, best_val = _ascend(lambda p: _excess(p, wa, wb, dh),
                               lambda p: _excess_gradient(p, wa, wb, dh),
                               start)
    return OrderingReport("more_capable", (a, b), _band_verdict(best_val),
                          float(best_val), best_p, ch.sha256,
                          restarts=restarts, grid_resolution=used_resolution,
                          note="numerically certified only up to search effort")


def _curvature(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """W diag(1/q) Wᵀ, q = p W, at each p (k, nx): −ln 2 · Hessian of H(Y)."""
    return np.einsum("xy,ky,zy->kxz", w, 1.0 / (p @ w), w)


def is_less_noisy(ch: Channel3, a: int, b: int, restarts: int = 32,
                  seed: int = 0) -> OrderingReport:
    """Is receiver a less noisy than b: I(U;Y_a) >= I(U;Y_b) for all p(u,x)?

    Scans the interior `_scan_points` and `_face_corners` input pmfs p for
    a positive top eigenvalue of the Hessian of −φ on the simplex's tangent
    space.  Along each such eigenvector v, a line search over δ up to the
    simplex boundary scores c± = max(p ± δv, 0) by the midpoint defect of
    φ; the best score (0 if none is positive) is the gap, p(u) = 1/2,
    p(x|u) = c± the witness.
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
    used_resolution, points = _scan_points(nx, restarts, seed)
    # orthonormal basis of the tangent space {v : sum(v) = 0}
    basis = np.linalg.qr(np.eye(nx)[:, :-1] - 1.0 / nx)[0]
    steps = np.arange(1, _STEPS + 1) / _STEPS
    scanned = 0
    for p in itertools.chain(points, _face_corners(wa, wb)):
        p = p[(p > 0).all(axis=1)]
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
        # c± = p(x|u) for u = 0, 1 at every step: (m, S, 2, nx)
        cond = np.maximum(p[:, None, None]
                          + delta * np.stack([v, -v], axis=1)[:, None], 0.0)
        # the means over u written out, bitwise what `.mean(axis=2)`
        # gives at a fraction of its cost
        phi = _phi(cond, wa, wb)
        score = (_phi((cond[:, :, 0] + cond[:, :, 1]) / 2, wa, wb)
                 - (phi[:, :, 0] + phi[:, :, 1]) / 2)
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
    violations = tuple(f"{s.predicate} holds but {w.predicate} fails"
                       for s, w in ((deg, ln), (ln, mc), (deg, mc))
                       if s.verdict is True and w.verdict is False)
    return ImplicationReport(deg, ln, mc, violations)
