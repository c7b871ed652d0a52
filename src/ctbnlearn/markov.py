"""Homogeneous continuous-time Markov process primitives.

Intensity (rate) matrix validation, matrix exponentials, transient
distributions and exact forward sampling of complete trajectories.
An intensity matrix is held as its exit rates and its list of positive
off-diagonal rates; its dense n x n form is a view built on request, read
only by the dense functions (``matrix_exponential``,
``transient_distribution`` and the phase-type helpers). All values are plain float64 numpy arrays;
validated wrappers are immutable and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "STOCHASTIC_TOL",
    "ROW_SUM_RTOL",
    "NEGATIVITY_SLACK",
    "DISTRIBUTION_TOL",
    "IntensityError",
    "NonSquareError",
    "NegativeOffDiagonalError",
    "RowSumViolationError",
    "IntensityMatrix",
    "CompleteTrajectory",
    "validate_intensity",
    "validate_distribution",
    "matrix_exponential",
    "expm",
    "transient_distribution",
    "sample_trajectory",
]

#: Row sums of exp(Q t) for a proper intensity matrix are 1 within this.
STOCHASTIC_TOL = 1e-9
#: Row-sum slack for intensity matrices, relative to the largest entry magnitude.
ROW_SUM_RTOL = 1e-12
#: Magnitude of negative rounding noise tolerated in probabilities and rates.
NEGATIVITY_SLACK = 1e-12
#: Probability vectors must sum to one within this.
DISTRIBUTION_TOL = 1e-9

# Two times closer than this times max(1, horizon) are one instant.
_TIME_EPS = 1e-12

# Degree-13 Pade approximant of exp; scale by powers of two until the
# 1-norm is below this threshold, then square back.
_PADE13_THETA = 5.371920351148152
_PADE13_B = np.array(
    [
        64764752532480000.0,
        32382376266240000.0,
        7771770303897600.0,
        1187353796428800.0,
        129060195264000.0,
        10559470521600.0,
        670442572800.0,
        33522128640.0,
        1323241920.0,
        40840800.0,
        960960.0,
        16380.0,
        182.0,
        1.0,
    ]
)


class IntensityError(ValueError):
    """An array does not satisfy the intensity-matrix invariants."""


class NonSquareError(IntensityError):
    def __init__(self, shape):
        self.shape = tuple(shape)
        super().__init__(f"intensity matrix must be square, got shape {self.shape}")


class NegativeOffDiagonalError(IntensityError):
    def __init__(self, row, col, value):
        self.row = int(row)
        self.col = int(col)
        self.value = float(value)
        super().__init__(f"negative off-diagonal rate {value!r} at ({row}, {col})")


class RowSumViolationError(IntensityError):
    def __init__(self, row, value, kind):
        self.row = int(row)
        self.value = float(value)
        self.kind = kind
        super().__init__(f"row {row} of a {kind} intensity matrix sums to {value!r}")


def _validated_entries(raw, kind: str) -> np.ndarray:
    if kind not in ("proper", "restricted"):
        raise ValueError(f"kind must be 'proper' or 'restricted', got {kind!r}")
    a = np.array(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(a.shape)
    if not np.all(np.isfinite(a)):
        raise IntensityError("intensity matrix has non-finite entries")
    n = a.shape[0]
    scale = max(np.abs(a).max(), 1.0)
    slack = NEGATIVITY_SLACK * scale

    off = a.copy()
    np.fill_diagonal(off, 0.0)
    if off.min() < -slack:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise NegativeOffDiagonalError(i, j, a[i, j])
    # Clip rounding noise so downstream code sees exact nonnegative rates.
    np.clip(off, 0.0, None, out=off)

    diag = np.diag(a).copy()
    if diag.max() > slack:
        i = int(np.argmax(diag))
        raise IntensityError(f"positive diagonal entry {a[i, i]!r} at row {i}")
    np.clip(diag, None, 0.0, out=diag)

    rows = off.sum(axis=1) + diag
    tol = ROW_SUM_RTOL * scale
    if kind == "proper":
        bad = np.abs(rows) > tol
    else:
        bad = rows > tol
    if bad.any():
        i = int(np.argmax(bad))
        raise RowSumViolationError(i, rows[i], kind)

    clean = off
    clean[np.arange(n), np.arange(n)] = diag
    clean.setflags(write=False)
    return clean


class IntensityMatrix:
    """A validated rate matrix, held as its exit rates and its transition
    list.

    ``proper`` matrices have zero row sums; ``restricted`` matrices may
    leak probability (row sums <= 0), as produced by restricting a
    proper matrix to a subsystem of states.

    ``exit_rates`` holds -q_ii for every state and ``transitions`` the
    off-diagonal rates as (src, dst, rate): every positive rate, sorted by
    source and then destination. A CTBN transition changes one variable,
    so the joint generator of n states lists n * sum(d_v - 1) rates at
    most. ``entries``, the dense n x n matrix, is a view built on first
    access; a matrix built from a dense array keeps its validated array as
    that view. Every array is read-only.
    """

    def __init__(self, entries, kind: str = "proper"):
        clean = _validated_entries(entries, kind)
        src, dst = np.nonzero(clean > 0.0)
        self._set(kind, -np.diagonal(clean), (src, dst, clean[src, dst]))
        # Seed the cached view: it is the array just validated.
        self.__dict__["entries"] = clean

    @classmethod
    def _from_transitions(cls, n: int, src: np.ndarray, dst: np.ndarray, rate: np.ndarray) -> "IntensityMatrix":
        """The proper matrix of n states whose off-diagonal rates are the
        list (src, dst, rate), sorted by source and then destination; each
        exit rate is its row's sum."""
        if not (np.isfinite(rate).all() and (rate >= 0.0).all()):
            raise IntensityError("transition rates must be finite and nonnegative")
        if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise IntensityError(f"transition index outside the {n} states")
        if (src == dst).any():
            raise IntensityError("transition list has a self-loop")
        if (np.diff(src * n + dst) <= 0).any():
            raise IntensityError("transition list is not sorted by source and destination")
        exit_rates = np.bincount(src, rate, n)
        if not np.isfinite(exit_rates).all():
            raise IntensityError("exit rates are not finite")
        q = cls.__new__(cls)
        q._set("proper", exit_rates, (src, dst, rate))
        return q

    def _set(self, kind: str, exit_rates: np.ndarray, transitions: tuple):
        for a in (exit_rates, *transitions):
            a.setflags(write=False)
        self.__dict__.update(kind=kind, exit_rates=exit_rates, transitions=transitions)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable IntensityMatrix")

    @property
    def n(self) -> int:
        return len(self.exit_rates)

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense n x n matrix, built from the list on first access."""
        src, dst, rate = self.transitions
        out = np.zeros((self.n, self.n))
        out[src, dst] = rate
        np.fill_diagonal(out, -self.exit_rates)
        out.setflags(write=False)
        return out


def validate_intensity(raw, kind: str = "proper") -> IntensityMatrix:
    """Validate a raw square array as an intensity matrix.

    Raises :class:`NonSquareError`, :class:`NegativeOffDiagonalError` or
    :class:`RowSumViolationError` naming the violated invariant.
    """
    return IntensityMatrix(raw, kind)


def validate_distribution(p, n: int | None = None) -> np.ndarray:
    """Validate a probability vector (finite, nonnegative, sums to 1)."""
    v = np.array(p, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"distribution must be a vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"distribution has length {v.shape[0]}, expected {n}")
    if not np.isfinite(v).all():
        raise ValueError("distribution has non-finite entries")
    if v.min() < -NEGATIVITY_SLACK:
        raise ValueError(f"negative probability {v.min()!r}")
    np.clip(v, 0.0, None, out=v)
    s = v.sum()
    if abs(s - 1.0) > DISTRIBUTION_TOL:
        raise ValueError(f"probabilities sum to {s!r}, expected 1")
    v.setflags(write=False)
    return v


def _pade13(a: np.ndarray) -> np.ndarray:
    b = _PADE13_B
    eye = np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    return np.linalg.solve(v - u, v + u)


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a degree-13 Pade
    approximant. Accepts a single matrix or a stacked batch (..., n, n);
    each element takes its own squaring count, so it equals the lone call
    on that element bitwise.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    flat = a.reshape(-1, *a.shape[-2:])
    norm = np.abs(flat).sum(axis=-2).max(axis=-1, initial=0.0)
    # Scale each matrix by powers of two until its 1-norm is below theta.
    squarings = np.ceil(np.log2(np.maximum(norm, _PADE13_THETA) / _PADE13_THETA)).astype(int)
    out = np.empty_like(flat)
    out[norm == 0.0] = np.eye(a.shape[-1])
    for s in np.unique(squarings[norm > 0.0]):
        rows = np.flatnonzero((squarings == s) & (norm > 0.0))
        e = _pade13(flat[rows] / (2.0**s) if s else flat[rows])
        for _ in range(s):
            e = e @ e
        out[rows] = e
    return out.reshape(a.shape)


def matrix_exponential(q: IntensityMatrix, t: float) -> np.ndarray:
    """exp(Q t) for a validated intensity matrix and t >= 0.

    Row-stochastic for proper Q; substochastic for restricted Q.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    return expm(q.entries * t)


def transient_distribution(p0, q: IntensityMatrix, t: float) -> np.ndarray:
    """Distribution at time t of the process started from p0: p0 @ exp(Q t)."""
    if q.kind != "proper":
        raise ValueError("transient distributions need a proper intensity matrix")
    p0 = validate_distribution(p0, q.n)
    out = p0 @ matrix_exponential(q, t)
    np.clip(out, 0.0, None, out=out)
    return out


@dataclass(frozen=True)
class CompleteTrajectory:
    """A fully observed sample path: contiguous (state, start, end) segments
    covering [0, horizon] with strictly positive durations and no repeated
    consecutive state.
    """

    segments: tuple[tuple[int, float, float], ...]
    horizon: float

    def __post_init__(self):
        segs = tuple((int(s), float(a), float(b)) for s, a, b in self.segments)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "horizon", float(self.horizon))
        if not segs:
            raise ValueError("trajectory needs at least one segment")
        if segs[0][1] != 0.0:
            raise ValueError("trajectory must start at time 0")
        if abs(segs[-1][2] - self.horizon) > _TIME_EPS * max(1.0, self.horizon):
            raise ValueError("trajectory must end at the horizon")
        prev = None
        for s, a, b in segs:
            if b <= a:
                raise ValueError(f"segment ({s}, {a}, {b}) has nonpositive duration")
            if prev is not None:
                if abs(a - prev[2]) > _TIME_EPS * max(1.0, self.horizon):
                    raise ValueError("segments must be contiguous")
                if s == prev[0]:
                    raise ValueError("consecutive segments must change state")
            prev = (s, a, b)

    @cached_property
    def _starts(self) -> np.ndarray:
        return np.array([a for _, a, _ in self.segments])

    def state_at(self, t: float, side: str = "right") -> int:
        """State at time t. ``side='left'`` returns the state just before t."""
        if t < 0 or t > self.horizon + _TIME_EPS * max(1.0, self.horizon):
            raise ValueError(f"time {t!r} outside [0, {self.horizon}]")
        if side == "right":
            i = int(np.searchsorted(self._starts, t, side="right")) - 1
        else:
            i = int(np.searchsorted(self._starts, t, side="left")) - 1
        return self.segments[max(0, min(i, len(self.segments) - 1))][0]

    def dwell_times(self, n: int) -> np.ndarray:
        """Total time spent in each of n states."""
        out = np.zeros(n)
        for s, a, b in self.segments:
            out[s] += b - a
        return out

    def transition_counts(self, n: int) -> np.ndarray:
        """Observed transition counts between the n states."""
        out = np.zeros((n, n))
        for (s, _, _), (s2, _, _) in zip(self.segments, self.segments[1:]):
            out[s, s2] += 1.0
        return out


def sample_trajectory(p0, q: IntensityMatrix, horizon: float, seed) -> CompleteTrajectory:
    """Sample one complete trajectory of the process over [0, horizon].

    Dwell times are exponential with the state's exit rate, successors are
    drawn from the state's transitions, normalized by that rate.
    Deterministic given seed.
    """
    if q.kind != "proper":
        raise ValueError("sampling needs a proper intensity matrix")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    p0 = validate_distribution(p0, q.n)
    exit_rates = q.exit_rates
    src, dst, rate = q.transitions
    # Successors and their CDF for the states visited so far, cut from the
    # source's slice of the transition list on first visit.
    successors: dict[int, tuple[list, np.ndarray]] = {}

    state = _draw(_cdf(p0 / p0.sum()), rng)
    t = 0.0
    segments = []
    while True:
        qx = exit_rates[state]
        if qx <= 0.0:
            segments.append((state, t, horizon))
            break
        dwell = rng.exponential(1.0 / qx)
        if t + dwell >= horizon:
            segments.append((state, t, horizon))
            break
        found = successors.get(state)
        if found is None:
            lo, hi = src.searchsorted(state), src.searchsorted(state, "right")
            found = successors[state] = (dst[lo:hi].tolist(), _cdf(rate[lo:hi] / qx))
        nxt = found[0][_draw(found[1], rng)]
        segments.append((state, t, t + dwell))
        t += dwell
        state = nxt
    return CompleteTrajectory(tuple(segments), horizon)


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The normalized cumulative sum that ``Generator.choice`` draws from."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """The index ``rng.choice(len(cdf), p=probs)`` draws, from the same
    single uniform, without validating the probabilities again."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def sample_trajectories(p0, q: IntensityMatrix, horizon: float, count: int, seed) -> list[CompleteTrajectory]:
    """Sample ``count`` independent trajectories, deterministically seeded."""
    seqs = np.random.SeedSequence(seed).spawn(count)
    return [sample_trajectory(p0, q, horizon, np.random.default_rng(s)) for s in seqs]
