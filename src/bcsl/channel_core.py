"""Exact probability and information computations on finite alphabets.

Everything is base-2: entropies and mutual informations are in bits, rates
in bits per channel use.  Joint distributions are name-addressed tensors so
that expressions over many variable subsets cannot silently transpose axes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import UsageError, ValidationError

# Normalization tolerance on ingest.
NORM_TOL = 1e-12
# Information quantities down to this far below zero are float noise and
# clamp to zero; anything lower indicates a real bug and raises.
HARD_TOL = 1e-6
# HiGHS's default primal feasibility tolerance: a row that HiGHS reports as
# met may be violated by this much (a bound's polytope is feasible when no
# rhs is below -LP_FEAS_TOL)
LP_FEAS_TOL = 1e-7
# cells of float64 in one block of stacked work, 1 MiB: a block of rows of
# codec_sim's equivocation table, a block of its Monte Carlo trials, or a
# lockstep block of the regions frontier search's restarts
ENUM_BLOCK_CELLS = 2 ** 17
# axes of the joint law that an auxiliary induces through the channel
JOINT_AXES = ("U1", "U2", "U3", "X", "Y1", "Y2", "Y3")


def _check_probs(p: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(p)):
        raise ValidationError(f"{what}: non-finite entry")
    if np.any(p < 0):
        raise ValidationError(f"{what}: negative entry {p.min()!r}")


def _clamp(value: float, what: str) -> float:
    """Clamp float noise below zero; hard-error on real negativity."""
    if value >= 0.0:
        return value
    if value >= -HARD_TOL:
        return 0.0
    raise ValidationError(f"{what} = {value}: negative beyond tolerance")


@dataclass(frozen=True)
class JointPmf:
    """Joint pmf over named axes, stored as a dense tensor."""

    axes: tuple[str, ...]
    probs: np.ndarray

    def __init__(self, axes: Sequence[str], probs: np.ndarray):
        axes = tuple(axes)
        if len(set(axes)) != len(axes):
            raise ValidationError(f"JointPmf: duplicate axis names in {axes}")
        p = np.asarray(probs, dtype=float)
        if p.ndim != len(axes):
            raise ValidationError(
                f"JointPmf: {len(axes)} axis names but tensor rank {p.ndim}")
        _check_probs(p, "JointPmf")
        if abs(p.sum() - 1.0) > NORM_TOL:
            raise ValidationError(f"JointPmf: sums to {p.sum()!r}, not 1")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "probs", p)
        p.setflags(write=False)

    def _axis_indices(self, names: Iterable[str]) -> list[int]:
        idx = []
        for name in names:
            if name not in self.axes:
                raise UsageError(f"unknown axis {name!r}; have {self.axes}")
            idx.append(self.axes.index(name))
        return idx

    def _project(self, keep: Sequence[str]) -> np.ndarray:
        """Unvalidated marginal array over the named axes, in that order."""
        keep = list(keep)
        if len(set(keep)) != len(keep):
            raise ValidationError(f"JointPmf: duplicate axis names in {keep}")
        self._axis_indices(keep)  # validates
        drop = [i for i, a in enumerate(self.axes) if a not in keep]
        reduced = self.probs.sum(axis=tuple(drop)) if drop else self.probs
        remaining = [a for a in self.axes if a in keep]
        return np.transpose(reduced, [remaining.index(a) for a in keep])

    def marginal(self, keep: Sequence[str]) -> "JointPmf":
        """Marginalize onto the named axes (in the given order)."""
        return JointPmf(keep, self._project(keep))

    def group_entropy(self, names: Sequence[str]) -> float:
        return tensor_entropy(self._project(names))


def tensor_entropy(p: np.ndarray) -> float:
    """Shannon entropy in bits of an arbitrary-shape probability tensor."""
    flat = np.asarray(p, dtype=float).ravel()
    nz = flat[flat > 0]
    return _clamp(float(-(nz * np.log2(nz)).sum()), "entropy")


def mutual_information(j: JointPmf, group_a: Sequence[str],
                       group_b: Sequence[str]) -> float:
    """I(A;B) in bits between two disjoint groups of axes."""
    return conditional_mi(j, group_a, group_b, ())


def mi_entropy_groups(group_a: Sequence[str], group_b: Sequence[str],
                      group_c: Sequence[str]) -> list[tuple[list[str], int]]:
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C) as signed axis groups,
    in that order; an empty C has no H(C) group, so H() = 0 exactly (the
    empty marginal's tensor sum need not be exactly 1)."""
    a, b, c = list(group_a), list(group_b), list(group_c)
    if not a or not b:
        raise UsageError("conditional_mi: empty A or B group")
    if len({*a, *b, *c}) < len(a) + len(b) + len(c):
        raise UsageError("conditional_mi: axis sets overlap")
    return [(a + c, 1), (b + c, 1), (a + b + c, -1)] + ([(c, -1)] if c else [])


def conditional_mi(j: JointPmf, group_a: Sequence[str], group_b: Sequence[str],
                   group_c: Sequence[str]) -> float:
    """I(A;B|C) in bits; C may be empty (plain mutual information)."""
    h = 0.0
    for group, sign in mi_entropy_groups(group_a, group_b, group_c):
        h += sign * j.group_entropy(group)
    return _clamp(h, "conditional mutual information")


@dataclass(frozen=True)
class Channel3:
    """Single-use 3-receiver DMC: p(y1,y2,y3|x) on finite alphabets."""

    nx: int
    ny1: int
    ny2: int
    ny3: int
    p: np.ndarray = field(repr=False)

    def __init__(self, nx: int, ny1: int, ny2: int, ny3: int, p: np.ndarray):
        sizes = (nx, ny1, ny2, ny3)
        if any(int(s) < 1 for s in sizes):
            raise ValidationError(f"Channel3: alphabet sizes {sizes} must be >= 1")
        t = np.asarray(p, dtype=float)
        if t.shape != sizes:
            raise ValidationError(
                f"Channel3: tensor shape {t.shape} does not match sizes {sizes}")
        _check_probs(t, "Channel3")
        if np.any(t > 1.0 + NORM_TOL):
            raise ValidationError("Channel3: entry above 1")
        row_sums = t.sum(axis=(1, 2, 3))
        bad = np.nonzero(np.abs(row_sums - 1.0) > NORM_TOL)[0]
        if bad.size:
            x = int(bad[0])
            raise ValidationError(
                f"Channel3: row x={x} sums to {row_sums[x]!r}, not 1")
        object.__setattr__(self, "nx", int(nx))
        object.__setattr__(self, "ny1", int(ny1))
        object.__setattr__(self, "ny2", int(ny2))
        object.__setattr__(self, "ny3", int(ny3))
        object.__setattr__(self, "p", t)
        t.setflags(write=False)

    @property
    def sha256(self) -> str:
        """Canonical digest of the channel: SHA-256 of the tensor shape
        (four little-endian int64) followed by its little-endian float64
        entries in C order."""
        h = hashlib.sha256(np.asarray(self.p.shape, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(self.p, dtype="<f8").tobytes())
        return h.hexdigest()

    # -- single-receiver marginals -------------------------------------
    def marginal_to(self, receiver: int) -> np.ndarray:
        """p(y_receiver|x) as an (nx, ny) matrix, receiver in {1,2,3}."""
        if receiver not in (1, 2, 3):
            raise UsageError(f"receiver must be 1, 2 or 3, got {receiver}")
        axes = {1: (2, 3), 2: (1, 3), 3: (1, 2)}[receiver]
        return self.p.sum(axis=axes)

    @classmethod
    def from_dict(cls, d: dict) -> "Channel3":
        try:
            return cls(d["nx"], d["ny1"], d["ny2"], d["ny3"], np.asarray(d["p"]))
        except KeyError as e:
            raise ValidationError(f"Channel3 JSON: missing key {e}") from e

    def to_dict(self) -> dict:
        return {"nx": self.nx, "ny1": self.ny1, "ny2": self.ny2,
                "ny3": self.ny3, "p": self.p.tolist()}


@dataclass(frozen=True)
class AuxJoint:
    """Joint pmf over the auxiliaries (U1, U2, U3) and the input X."""

    m1: int
    m2: int
    m3: int
    nx: int
    p: np.ndarray  # shape (m1, m2, m3, nx)

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.shape != (self.m1, self.m2, self.m3, self.nx):
            raise ValidationError(
                f"aux tensor shape {arr.shape} != {(self.m1, self.m2, self.m3, self.nx)}")
        _check_probs(arr, "aux joint")
        if abs(arr.sum() - 1.0) > NORM_TOL:
            raise ValidationError(f"aux joint sums to {arr.sum()!r}, not 1")
        object.__setattr__(self, "p", arr)

    def joint_pmf(self) -> JointPmf:
        return JointPmf(("U1", "U2", "U3", "X"), self.p)

    def to_dict(self) -> dict:
        return {"m1": self.m1, "m2": self.m2, "m3": self.m3, "nx": self.nx,
                "p": self.p.tolist()}

    @staticmethod
    def from_dict(d: Mapping) -> "AuxJoint":
        return AuxJoint(int(d["m1"]), int(d["m2"]), int(d["m3"]),
                        int(d["nx"]), np.asarray(d["p"], float))


def induced_joint(ch: Channel3, aux: AuxJoint) -> JointPmf:
    """Joint law of (U1,U2,U3,X,Y1,Y2,Y3) when `aux` drives the channel.

    p(u1,u2,u3,x,y1,y2,y3) = p(u1,u2,u3,x) * p(y1,y2,y3|x).
    """
    a = np.asarray(aux.p, dtype=float)
    if a.ndim != 4:
        raise UsageError("induced_joint: aux tensor must have rank 4")
    if a.shape[3] != ch.nx:
        raise UsageError(
            f"induced_joint: aux X alphabet {a.shape[3]} != channel nx {ch.nx}")
    joint = np.einsum("abcx,xijk->abcxijk", a, ch.p)
    return JointPmf(JOINT_AXES, joint)
