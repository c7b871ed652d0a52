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

from .markov import _TIME_EPS, CompleteTrajectory
from .statespace import StateSpace

__all__ = [
    "EmptySubsystemError",
    "Subsystem",
    "Evidence",
    "ObservedTrajectory",
    "OcclusionPolicy",
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
        mask = np.asarray(mask, dtype=bool)
        return cls(mask.shape[0], frozenset(np.flatnonzero(mask).tolist()))

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

    It is held as read-only arrays: each S_i as an index list, sizes[i]
    states of ``states`` in ascending order, segments one after the other;
    ``durations`` and ``boundaries`` (the start and every segment end); and
    the joint size ``n``. ``masks`` (segments x n boolean rows) is built
    from the lists on every access. The tuple ``segments`` of (Subsystem,
    start, end) is a view built on first access; equality and hashing
    compare it and the horizon. ``ObservedTrajectory.to_evidence`` builds
    the arrays directly.
    """

    def __init__(self, segments, horizon: float):
        segs = tuple((s, float(a), float(b)) for s, a, b in segments)
        if not segs:
            raise ValueError("evidence needs at least one segment")
        n = segs[0][0].n
        if any(s.n != n for s, _, _ in segs):
            raise ValueError("all subsystems must share one state space")
        spans = np.array([(a, b) for _, a, b in segs])
        states = np.array([i for s, _, _ in segs for i in sorted(s.members)], dtype=np.intp)
        sizes = np.array([len(s.members) for s, _, _ in segs], dtype=np.intp)
        self._set(states, sizes, n, spans[:, 0], spans[:, 1], horizon)
        self.__dict__["segments"] = segs

    @classmethod
    def _from_arrays(cls, states: np.ndarray, sizes: np.ndarray, n: int, starts: np.ndarray, ends: np.ndarray,
                     horizon: float) -> "Evidence":
        """Evidence on the joint space {0..n-1} whose segment i holds the
        sizes[i] states of ``states`` after those of the segments before it,
        ascending, over [starts[i], ends[i]]; every size must be positive."""
        ev = cls.__new__(cls)
        ev._set(states, sizes, n, starts, ends, horizon)
        return ev

    def _set(self, states: np.ndarray, sizes: np.ndarray, n: int, starts: np.ndarray, ends: np.ndarray,
             horizon: float):
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
            "states": states,
            "sizes": sizes,
            "_starts": starts,
            "durations": np.clip(ends - starts, 0.0, None),
            "boundaries": np.concatenate((starts[:1], ends)),
        }
        for a in arrays.values():
            a.setflags(write=False)
        self.__dict__.update(arrays, n=int(n), horizon=horizon)

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
        states, ends = self.states.tolist(), np.cumsum(self.sizes).tolist()
        spans = zip([0, *ends], ends, self._starts.tolist(), self.boundaries[1:].tolist())
        return tuple((Subsystem(self.n, frozenset(states[lo:hi])), a, b) for lo, hi, a, b in spans)

    @property
    def masks(self) -> np.ndarray:
        """The subsystems as boolean rows (segments x n), read-only, built
        on every access."""
        m = np.zeros((len(self.sizes), self.n), dtype=bool)
        m[np.repeat(np.arange(len(self.sizes)), self.sizes), self.states] = True
        m.setflags(write=False)
        return m

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
        if not all(0.0 <= f < 1.0 for f in vals):
            raise ValueError("hidden fraction must lie in [0, 1)")
        if not self.window > 0.0:
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
        segs = tuple((float(a), float(b), tuple(None if v is None else int(v) for v in vals))
                     for a, b, vals in self.segments)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "horizon", float(self.horizon))
        self._check()

    @classmethod
    def _converted(cls, segments: tuple, horizon: float) -> "ObservedTrajectory":
        """The record of segments whose times are floats and whose values
        are ints or None already, as ``_merge_observations`` and
        ``fileio.records_from_dict`` make them: the public constructor less
        its conversion of every value, checks kept."""
        rec = object.__new__(cls)
        object.__setattr__(rec, "segments", segments)
        object.__setattr__(rec, "horizon", float(horizon))
        rec._check()
        return rec

    def _check(self) -> None:
        segs = self.segments
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
        masks = masks[first]
        return Evidence._from_arrays(np.nonzero(masks)[1], np.count_nonzero(masks, axis=1), space.n_joint,
                                     spans[first, 0], spans[last, 1], self.horizon)

    @classmethod
    def fully_observed(cls, trajs: Sequence[CompleteTrajectory]) -> "ObservedTrajectory":
        return _merge_observations(trajs, [[] for _ in trajs])


def _interval_union(intervals) -> tuple[list[float], list[float], float]:
    """The union of half-open intervals [a, b) as its disjoint pieces, in
    sorted lists of starts and ends (touching intervals join), and its
    measure, summed piece by piece in order of start. Empty intervals add
    nothing."""
    starts: list[float] = []
    ends: list[float] = []
    total = 0.0
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if starts and a <= ends[-1]:
            if b > ends[-1]:
                total += b - ends[-1]
                ends[-1] = b
        else:
            starts.append(a)
            ends.append(b)
            total += b - a
    return starts, ends, total


def _merge_observations(trajs, hidden) -> ObservedTrajectory:
    """Variable v observed as ``trajs[v]`` except inside its windows
    ``hidden[v]``. The horizon is cut at every jump and window end; each
    piece longer than the time tolerance takes the values at its midpoint,
    and neighbouring pieces with equal values join. A shorter piece is
    dropped, and the segments still tile [0, horizon] without holes."""
    horizon = trajs[0].horizon
    tol = _TIME_EPS * max(1.0, horizon)
    for tr in trajs:
        if abs(tr.horizon - horizon) > tol:
            raise ValueError("trajectories must share a common horizon")
    window_cuts = [t for w in hidden for a, b in w for t in (max(0.0, a), min(horizon, b))]
    times = np.unique(np.concatenate([[0.0, horizon], *(tr._starts for tr in trajs), window_cuts]))
    keep = times[1:] - times[:-1] > tol
    lo, hi = times[:-1][keep], times[1:][keep]
    mid = 0.5 * (lo + hi)
    # One column per variable: its state at each midpoint, or -1 where hidden.
    vals = np.empty((len(mid), len(trajs)), dtype=np.int64)
    for v, (tr, w) in enumerate(zip(trajs, hidden)):
        states = np.fromiter((s for s, _, _ in tr.segments), dtype=np.int64, count=len(tr.segments))
        vals[:, v] = states[np.searchsorted(tr._starts, mid, side="right") - 1]
        w_lo, w_hi, _ = _interval_union(w)
        if w_lo:
            j = np.searchsorted(w_lo, mid, side="right") - 1
            vals[(j >= 0) & (mid < np.asarray(w_hi)[j]), v] = -1
    first = np.ones(len(mid), dtype=bool)
    first[1:] = (vals[1:] != vals[:-1]).any(axis=1)
    starts = np.append(0.0, lo[first][1:])
    ends = np.append(starts[1:], horizon).tolist()
    rows = (tuple(None if x < 0 else x for x in row) for row in vals[first].tolist())
    return ObservedTrajectory._converted(tuple(zip(starts.tolist(), ends, rows)), horizon)


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
    measure = [0.0] * k

    def deficient():
        return [v for v in range(k) if measure[v] < targets[v] - 1e-15]

    todo = deficient()
    while todo:
        v = todo[int(rng.integers(len(todo)))]
        start = float(rng.uniform(0.0, max(0.0, horizon - policy.window)))
        hidden[v].append((start, min(horizon, start + policy.window)))
        measure[v] = _interval_union(hidden[v])[2]
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
