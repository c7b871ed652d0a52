"""Partial observations of a Markov process.

A trajectory is observed as a time-ordered sequence of subsystems
(non-empty subsets of the flat state space) with durations; zero-length
segments encode point evidence. Variable-level observations, including
the window-occlusion protocol used in the synthetic experiments, are
represented by :class:`ObservedTrajectory` and lowered onto the flat
space through a :class:`~ctbnlearn.statespace.StateSpace`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .markov import _TIME_EPS, CompleteTrajectory, IntensityMatrix
from .statespace import StateSpace

__all__ = [
    "EmptySubsystemError",
    "Subsystem",
    "Evidence",
    "ObservedTrajectory",
    "OcclusionPolicy",
    "restrict_intensity",
    "transition_restrict",
    "occlude",
    "occlude_observed",
    "is_completion",
]


class EmptySubsystemError(ValueError):
    pass


@dataclass(frozen=True)
class Subsystem:
    """A non-empty subset of the flat state space {0..n-1}."""

    n: int
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(int(i) for i in self.members))
        if not self.members:
            raise EmptySubsystemError("subsystem must be non-empty")
        if min(self.members) < 0 or max(self.members) >= self.n:
            raise ValueError(f"subsystem members out of range for n={self.n}")

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "Subsystem":
        return cls(n, frozenset(members))

    @classmethod
    def full(cls, n: int) -> "Subsystem":
        return cls(n, frozenset(range(n)))

    @classmethod
    def single(cls, n: int, i: int) -> "Subsystem":
        return cls(n, frozenset((i,)))

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Subsystem":
        mask = np.array(mask, dtype=bool)
        mask.setflags(write=False)
        sub = cls(mask.shape[0], frozenset(mask.nonzero()[0].tolist()))
        # Seed the cached mask: rebuilding it from the members is slower.
        sub.__dict__["mask"] = mask
        return sub

    @cached_property
    def mask(self) -> np.ndarray:
        m = np.zeros(self.n, dtype=bool)
        m[sorted(self.members)] = True
        m.setflags(write=False)
        return m

    def disjoint(self, other: "Subsystem") -> bool:
        return not (self.members & other.members)

    def __contains__(self, state: int) -> bool:
        return int(state) in self.members


class Evidence:
    """An observed trajectory: subsystems S_i over [t_i, t_{i+1}) covering
    [0, horizon] with no gaps. t_i == t_{i+1} encodes point evidence.

    It is held as read-only arrays: ``masks`` (segments x n, each subsystem
    as a boolean row), ``durations`` and ``boundaries`` (the start and every
    segment end). The tuple ``segments`` of (Subsystem, start, end) is a
    view built on first access; equality and hashing compare it and the
    horizon. ``ObservedTrajectory.to_evidence`` builds the arrays directly.
    """

    def __init__(self, segments, horizon: float):
        segs = tuple((s, float(a), float(b)) for s, a, b in segments)
        if not segs:
            raise ValueError("evidence needs at least one segment")
        n = segs[0][0].n
        if any(s.n != n for s, _, _ in segs):
            raise ValueError("all subsystems must share one state space")
        spans = np.array([(a, b) for _, a, b in segs])
        self._set(np.stack([s.mask for s, _, _ in segs]), spans[:, 0], spans[:, 1], horizon)
        self.__dict__["segments"] = segs

    @classmethod
    def _from_arrays(cls, masks: np.ndarray, starts: np.ndarray, ends: np.ndarray, horizon: float) -> "Evidence":
        """Evidence whose segment i holds the mask row masks[i] over
        [starts[i], ends[i]]; every mask must be non-empty."""
        ev = cls.__new__(cls)
        ev._set(masks, starts, ends, horizon)
        return ev

    def _set(self, masks: np.ndarray, starts: np.ndarray, ends: np.ndarray, horizon: float):
        horizon = float(horizon)
        tol = _TIME_EPS * max(1.0, horizon)
        if abs(starts[0]) > tol:
            raise ValueError("evidence must start at time 0")
        if abs(ends[-1] - horizon) > tol:
            raise ValueError("evidence must end at the horizon")
        if (ends < starts - tol).any():
            raise ValueError("segment end precedes its start")
        if (np.abs(starts[1:] - ends[:-1]) > tol).any():
            raise ValueError("evidence segments must be contiguous")
        arrays = {
            "masks": masks,
            "_starts": starts,
            "durations": np.clip(ends - starts, 0.0, None),
            "boundaries": np.concatenate((starts[:1], ends)),
        }
        for a in arrays.values():
            a.setflags(write=False)
        self.__dict__.update(arrays, horizon=horizon)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable Evidence")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.segments, self.horizon) == (other.segments, other.horizon)

    def __hash__(self):
        return hash((self.segments, self.horizon))

    def __repr__(self):
        return f"Evidence(segments={self.segments!r}, horizon={self.horizon!r})"

    @cached_property
    def segments(self) -> tuple[tuple[Subsystem, float, float], ...]:
        ends = self.boundaries[1:].tolist()
        return tuple((Subsystem.from_mask(m), a, b) for m, a, b in zip(self.masks, self._starts.tolist(), ends))

    @property
    def n(self) -> int:
        return self.masks.shape[1]

    @property
    def n_segments(self) -> int:
        return len(self.durations)

    @classmethod
    def vacuous(cls, n: int, horizon: float) -> "Evidence":
        return cls(((Subsystem.full(n), 0.0, horizon),), horizon)

    @classmethod
    def fully_observed(cls, traj: CompleteTrajectory, n: int) -> "Evidence":
        segs = tuple((Subsystem.single(n, s), a, b) for s, a, b in traj.segments)
        return cls(segs, traj.horizon)


def _masked(q: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Q with every entry outside rows x cols zeroed. Stacked masks of shape
    (m, n) give a stack of m matrices."""
    return np.where(rows[..., :, None] & cols[..., None, :], q, 0.0)


def restrict_intensity(q: IntensityMatrix, s: Subsystem) -> IntensityMatrix:
    """Zero every rate except transitions within s; diagonals of states in s
    are kept in full, so rows may leak (sum negative)."""
    if s.n != q.n:
        raise ValueError("subsystem dimension does not match the matrix")
    return IntensityMatrix(_masked(q.entries, s.mask, s.mask), "restricted")


def transition_restrict(q: IntensityMatrix, s1: Subsystem, s2: Subsystem) -> np.ndarray:
    """Rates of transitions from s1 into s2: entry (i, j) survives iff
    i in s1, j in s2 and i != j; the diagonal is zeroed. The result is a
    nonnegative matrix, not an intensity matrix."""
    if s1.n != q.n or s2.n != q.n:
        raise ValueError("subsystem dimension does not match the matrix")
    return _masked(q.off_diagonal, s1.mask, s2.mask)


@dataclass(frozen=True)
class OcclusionPolicy:
    """Hide each variable for randomly placed windows until at least
    ``fraction`` of the horizon is hidden (per variable)."""

    fraction: float | tuple[float, ...]
    window: float

    def __post_init__(self):
        frac = self.fraction
        if np.isscalar(frac):
            frac = float(frac)
            vals = (frac,)
        else:
            frac = tuple(float(f) for f in frac)
            vals = frac
        object.__setattr__(self, "fraction", frac)
        if any(f < 0.0 or f >= 1.0 for f in vals):
            raise ValueError("hidden fraction must lie in [0, 1)")
        if self.window <= 0.0:
            raise ValueError("window length must be positive")

    def fractions(self, k: int) -> tuple[float, ...]:
        if np.isscalar(self.fraction):
            return (self.fraction,) * k
        if len(self.fraction) != k:
            raise ValueError("per-variable fractions do not match variable count")
        return self.fraction


@dataclass(frozen=True)
class ObservedTrajectory:
    """Variable-level observations: contiguous (start, end, values) segments
    where values holds one state index per variable, or None when hidden."""

    segments: tuple[tuple[float, float, tuple], ...]
    horizon: float

    def __post_init__(self):
        segs = []
        for a, b, vals in self.segments:
            vals = tuple(None if v is None else int(v) for v in vals)
            segs.append((float(a), float(b), vals))
        object.__setattr__(self, "segments", tuple(segs))
        object.__setattr__(self, "horizon", float(self.horizon))
        if not segs:
            raise ValueError("need at least one segment")
        tol = _TIME_EPS * max(1.0, self.horizon)
        if abs(segs[0][0]) > tol or abs(segs[-1][1] - self.horizon) > tol:
            raise ValueError("segments must cover [0, horizon]")
        k = len(segs[0][2])
        prev = 0.0
        for a, b, vals in segs:
            if len(vals) != k:
                raise ValueError("all segments must cover the same variables")
            if b < a - tol or abs(a - prev) > tol:
                raise ValueError("segments must be contiguous and ordered")
            prev = b

    @property
    def n_variables(self) -> int:
        return len(self.segments[0][2])

    def to_evidence(self, space: StateSpace) -> Evidence:
        """Lower onto the joint space, merging adjacent segments whose
        subsystems coincide."""
        masks = space.observation_masks([vals for _, _, vals in self.segments])
        spans = np.array([(a, b) for a, b, _ in self.segments])
        first = np.ones(len(masks), dtype=bool)
        first[1:] = (masks[1:] != masks[:-1]).any(axis=1)
        last = np.append(first[1:], True)
        return Evidence._from_arrays(masks[first], spans[first, 0], spans[last, 1], self.horizon)

    @classmethod
    def fully_observed(cls, trajs: Sequence[CompleteTrajectory]) -> "ObservedTrajectory":
        return _merge_observations(trajs, [[] for _ in trajs])


def _interval_union_measure(intervals) -> float:
    total = 0.0
    last_end = -np.inf
    for a, b in sorted(intervals):
        if a > last_end:
            total += b - a
            last_end = b
        elif b > last_end:
            total += b - last_end
            last_end = b
    return total


def _hidden_at(intervals, t: float) -> bool:
    return any(a <= t < b for a, b in intervals)


def _merge_observations(trajs, hidden) -> ObservedTrajectory:
    horizon = trajs[0].horizon
    for tr in trajs:
        if abs(tr.horizon - horizon) > _TIME_EPS * max(1.0, horizon):
            raise ValueError("trajectories must share a common horizon")
    cuts = {0.0, horizon}
    for tr in trajs:
        cuts.update(a for _, a, _ in tr.segments)
    for windows in hidden:
        for a, b in windows:
            cuts.update((max(0.0, a), min(horizon, b)))
    times = sorted(cuts)
    segs = []
    for a, b in zip(times, times[1:]):
        if b - a <= _TIME_EPS * max(1.0, horizon):
            continue
        mid = 0.5 * (a + b)
        vals = tuple(
            None if _hidden_at(hidden[v], mid) else trajs[v].state_at(mid)
            for v in range(len(trajs))
        )
        if segs and segs[-1][2] == vals:
            segs[-1] = (segs[-1][0], b, vals)
        else:
            segs.append((a, b, vals))
    segs[-1] = (segs[-1][0], horizon, segs[-1][2])
    return ObservedTrajectory(tuple(segs), horizon)


def occlude_observed(
    trajs: Sequence[CompleteTrajectory], policy: OcclusionPolicy, seed
) -> ObservedTrajectory:
    """Hide windows of each variable's trajectory until the policy's target
    hidden measure is reached; the overshoot is below one window length."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    k = len(trajs)
    horizon = trajs[0].horizon
    fractions = policy.fractions(k)
    targets = [f * horizon for f in fractions]
    hidden: list[list[tuple[float, float]]] = [[] for _ in range(k)]

    def deficient():
        return [v for v in range(k) if _interval_union_measure(hidden[v]) < targets[v] - 1e-15]

    todo = deficient()
    while todo:
        v = todo[int(rng.integers(len(todo)))]
        start = float(rng.uniform(0.0, max(0.0, horizon - policy.window)))
        hidden[v].append((start, min(horizon, start + policy.window)))
        todo = deficient()
    return _merge_observations(trajs, hidden)


def occlude(
    trajs: Sequence[CompleteTrajectory],
    space: StateSpace,
    policy: OcclusionPolicy,
    seed,
) -> Evidence:
    """Window-occlude per-variable complete trajectories and lower the result
    onto the joint space of ``space``."""
    return occlude_observed(trajs, policy, seed).to_evidence(space)


def is_completion(traj: CompleteTrajectory, ev: Evidence) -> bool:
    """True iff the complete trajectory lies inside every evidence subsystem
    throughout its interval, treating the boundary instants exclusively.
    Point evidence requires membership on both sides of the instant."""
    tol = _TIME_EPS * max(1.0, ev.horizon)
    if abs(traj.horizon - ev.horizon) > tol:
        raise ValueError("horizons do not match")
    for sub, a, b in ev.segments:
        if b - a > tol:
            for s, t0, t1 in traj.segments:
                lo, hi = max(t0, a), min(t1, b)
                if hi - lo > tol and s not in sub:
                    return False
        else:
            if a > tol and traj.state_at(a, side="left") not in sub:
                return False
            if a < ev.horizon - tol and traj.state_at(a, side="right") not in sub:
                return False
    return True
