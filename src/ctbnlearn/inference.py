"""Exact smoothing and expected sufficient statistics under subsystem evidence.

Evidence only restricts the joint process: while a segment holds it in a
subsystem S, its generator is Q masked to S x S. Between consecutive
segments whose subsystems are disjoint, the evidence asserts a transition
and the boundary factor is Q's off-diagonal W masked to S1 x S2, applied
as masked vector products; when the subsystems overlap, the boundary is a
projection onto the next subsystem (zero-length segments therefore act as
plain indicators). Many trajectories under one Q are swept in lockstep,
one row each, so the Python loop runs once per segment position of a
batch; one memory budget, ``_BATCH_ELEMENTS``, sizes the batches, and the
Pade exponentials and the integrals' kernel work in slices of an eighth
of it. A batch's segments are uniformized once (lambda = the largest exit
rate in S, P = I + Q_S / lambda, applied as a diagonal part plus one
product by W, which the joint ``IntensityMatrix`` builds once), and both
jobs read that: the sweeps carry the scaled messages across each segment's
exp(Q_S dt), by batched Pade ``expm`` below a joint size measured as the
crossover and by the series in P from it up; the expected dwell times and
transition counts are pairwise convolution integrals over each segment,
all n^2 of which come in closed form from the same series. One Poisson
routine weights both series, each row cut at its own tail bound.

One statistics kernel reads a batch's stacked messages and returns its
dwell times, transition counts and time-zero posteriors summed over groups
of trajectories, and every trajectory's log-likelihood. The E-step sums
each batch as one group and builds nothing per trajectory. The public
``forward_backward`` cuts one message cache per trajectory from the same
sweeps: the joint Q, the segment masks, durations and boundary kinds, and
the O(boundaries * n) scaled messages; ``expected_statistics_many`` stacks
caches back into a batch and runs the kernel with one group per cache.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .evidence import Evidence, _masked
from .markov import IntensityMatrix, expm, validate_distribution

__all__ = [
    "DEFAULT_QUAD_TOL",
    "FORWARD_BACKWARD_TOL",
    "ZeroProbabilityEvidenceError",
    "StepUnderflowError",
    "ForwardBackwardMismatchError",
    "MessageCache",
    "FlatStatistics",
    "forward_backward",
    "smoothed_marginal",
    "expected_dwell",
    "expected_transitions",
    "expected_statistics",
    "convolution_integrals",
]

#: Default bound on the Poisson tail where the uniformization series of the
#: convolution integrals is cut; the error of a segment's integrals is at
#: most this times dt * |f0|_1 * max(beta).
DEFAULT_QUAD_TOL = 1e-8

#: Largest relative gap |log p_fwd - log p_bwd| / max(1, |log p_fwd|)
#: between the two sweeps' log-likelihoods of one trajectory.
FORWARD_BACKWARD_TOL = 1e-8

# Boundary factor kinds.
_PROJECT = 0
_RATE = 1


class ZeroProbabilityEvidenceError(RuntimeError):
    """The evidence has probability zero under the current parameters."""

    def __init__(self, boundary_index: int | None = None, trajectory_index: int | None = None):
        self.boundary_index = boundary_index
        self.trajectory_index = trajectory_index
        where = ""
        if trajectory_index is not None:
            where += f" (trajectory {trajectory_index}"
            where += f", segment boundary {boundary_index})" if boundary_index is not None else ")"
        elif boundary_index is not None:
            where += f" (segment boundary {boundary_index})"
        super().__init__("evidence has probability zero under the model" + where)


class ForwardBackwardMismatchError(RuntimeError):
    """The forward and backward sweeps disagree on a trajectory's
    log-likelihood by more than ``FORWARD_BACKWARD_TOL`` relative."""

    def __init__(self, trajectory_index: int, log_prob: float, log_prob_backward: float):
        self.trajectory_index = trajectory_index
        self.log_prob = log_prob
        self.log_prob_backward = log_prob_backward
        super().__init__(
            f"forward log-likelihood {log_prob!r} and backward {log_prob_backward!r} of trajectory "
            f"{trajectory_index} differ by more than {FORWARD_BACKWARD_TOL:g} relative"
        )


class StepUnderflowError(RuntimeError, ValueError):
    """The quadrature tolerance is below double-precision epsilon, a Poisson
    tail bound the uniformization series cannot certify. (The name dates
    from the adaptive integrator the series replaced.)"""


@dataclass
class FlatStatistics:
    """Expected dwell times and transition counts of the flat process."""

    dwell: np.ndarray
    transitions: np.ndarray

    @property
    def total_time(self) -> float:
        return float(self.dwell.sum())


@dataclass
class MessageCache:
    """Scaled forward/backward messages at every evidence boundary.

    Boundary i carries four vectors: ``fwd`` includes every evidence factor
    at and before t_i, ``fwd_pre`` excludes the factor at t_i, ``bwd``
    includes the factor at t_i, ``bwd_post`` excludes it. Each is scaled to
    unit 1-norm with its log scale stored alongside; log p(sigma) is exact
    in log space regardless of trajectory length. ``bwd_post[i]`` is the
    backward message projected onto segment i's mask (the horizon's
    ``bwd_post`` is the all-ones message).

    Long constant-evidence segments are subdivided internally (a no-op
    projection boundary onto the same subsystem) so the messages renormalize
    often enough to stay inside the floating-point range; ``times`` holds
    the resulting boundary times, a refinement of the evidence boundaries.
    Segment i is described by its mask ``seg_masks[i]`` and duration
    ``seg_dt[i]`` only: its generator is ``q`` masked to the mask, and
    ``factor_kind[i]`` says whether the boundary after it asserts a
    transition or projects.
    """

    evidence: Evidence
    q: IntensityMatrix
    p0: np.ndarray
    times: np.ndarray
    seg_masks: np.ndarray
    seg_dt: np.ndarray
    factor_kind: np.ndarray
    fwd: np.ndarray
    fwd_log: np.ndarray
    fwd_pre: np.ndarray
    fwd_pre_log: np.ndarray
    bwd: np.ndarray
    bwd_log: np.ndarray
    bwd_post: np.ndarray
    bwd_post_log: np.ndarray
    log_prob: float
    log_prob_backward: float
    dead_boundary: int | None = None
    _stats: dict = field(default_factory=dict, repr=False)

    @property
    def impossible(self) -> bool:
        return not np.isfinite(self.log_prob)


# Subdivide constant-evidence segments so that max|diag(Q_S)| * dt stays
# below this; the split bounds the dynamic range the scaled messages have to
# traverse in one stretch and the length of the uniformization series.
_SEGMENT_STIFFNESS_CAP = 16.0


def _max_rate(q: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """max_{i in S} |q_ii| for every segment."""
    return np.where(masks, np.abs(np.diagonal(q)), 0.0).max(axis=1)


def _split_batch(q: np.ndarray, evs: list):
    """Split the evidence segments of a batch that are stiffer than the cap
    into equal pieces, all trajectories in one step. Returns the stacked
    split masks, durations and boundary times (trajectory t's boundaries
    start at seg_off[t] + t), the split-segment count of every trajectory,
    and the split segments entered through an asserted transition, where
    consecutive evidence subsystems are disjoint."""
    masks = np.concatenate([ev.masks for ev in evs])
    dts = np.concatenate([ev.durations for ev in evs])
    bounds = np.concatenate([ev.boundaries for ev in evs])
    n_orig = np.array([ev.n_segments for ev in evs])
    traj = np.repeat(np.arange(len(evs)), n_orig)
    start = np.arange(len(dts)) + traj
    chunks = np.maximum(1, np.ceil(_max_rate(q, masks) * dts / _SEGMENT_STIFFNESS_CAP).astype(int))
    src = np.repeat(np.arange(len(dts)), chunks)
    first_piece = np.cumsum(chunks) - chunks
    piece = np.arange(len(src)) - first_piece[src]
    c = chunks[src]
    ends = bounds[start[src]] + dts[src] * (piece + 1) / c
    # The last piece ends exactly at the evidence boundary.
    ends[first_piece + chunks - 1] = bounds[start + 1]
    counts = np.bincount(traj[src], minlength=len(evs))
    times = np.empty(len(src) + len(evs))
    times[np.arange(len(src)) + traj[src] + 1] = ends
    first = np.arange(len(evs))
    times[np.cumsum(counts) - counts + first] = bounds[np.cumsum(n_orig) - n_orig + first]
    disjoint = ~(masks[:-1] & masks[1:]).any(axis=1) & (traj[:-1] == traj[1:])
    rate_before = np.zeros(len(src), dtype=bool)
    rate_before[first_piece[1:][disjoint]] = True
    return masks[src], dts[src] / c, times, counts, rate_before


# From this joint size up the sweeps apply each segment's exponential to the
# messages as a uniformization series and build no n x n array per segment.
# Below it batched Pade expm calls over a batch's segments are cheaper: the series
# takes one Python-level step per term. Measured on a 6-state phase model
# the series E-step took 1.24x and scoring 1.75x the Pade time, on rings of
# n = 8 both were even, at n = 16 the series took half (CHANGES.md has the
# ladder).
_SERIES_MIN_N = 16

# The sweeps cut their series where the Poisson tail is at most this, so the
# messages are exact to rounding.
_SWEEP_TAIL = float(np.finfo(float).eps)

# Trajectories are swept in lockstep, one batch at a time, so the Python
# loop over segment positions runs once per batch rather than once per
# trajectory. This is the one memory knob: a batch is a run of consecutive
# trajectories whose estimate (``_entries``) stays within this many array
# entries, and the batched Pade expm and the convolution kernel work in
# slices of an eighth of it.
_BATCH_ELEMENTS = 1 << 19


def _entries(n_segments: int, n: int, width: int) -> int:
    """The array entries the sweeps hold for a trajectory of n_segments
    evidence segments. Below _SERIES_MIN_N: each segment's n x n
    exponential and four message rows (fwd, fwd_pre, bwd, bwd_post) per
    boundary. From it up: each segment's series rows ``keep`` and ``jump``
    and its Poisson weights, ``width`` of them at the stiffness cap; the
    message rows are left out there, as counting them would keep a few
    short trajectories of a mid-size model from sharing a batch."""
    if n < _SERIES_MIN_N:
        return n_segments * n * n + 4 * n * (n_segments + 1)
    return n_segments * (2 * n + width)


def _batches(evs: list, n: int):
    """Runs of consecutive trajectories whose ``_entries`` add up to at
    most _BATCH_ELEMENTS, always one trajectory at least, so a large joint
    space sweeps one trajectory at a time."""
    width = _series_width()
    lo, size = 0, 0
    for t, ev in enumerate(evs):
        need = _entries(ev.n_segments, n, width)
        size += need
        if size > _BATCH_ELEMENTS and t > lo:
            yield evs[lo:t]
            lo, size = t, need
    if lo < len(evs):
        yield evs[lo:]


def _normalize_rows(v: np.ndarray):
    """Clip the fresh array v to nonnegative and scale its rows to unit sum
    in place. Returns v and the log scales; a row without mass stays zero
    with log scale -inf, and so does everything swept from it."""
    np.maximum(v, 0.0, out=v)
    s = np.add.reduce(v, axis=1)
    ok = s > 0.0
    v /= np.where(ok, s, 1.0)[:, None]
    return v, np.log(s, out=np.full_like(s, -np.inf), where=ok)


def _rows_times(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The rows v[r] @ w, each its own vector-matrix product, so that a row's
    result does not depend on the rows swept beside it (one matrix product
    over the batch rounds differently from the product of a lone row)."""
    return (v[:, None, :] @ w)[:, 0]


def _poisson_terms(mu: np.ndarray, tol: float):
    """The Poisson(mu_r) pmf over a = 0, 1, ... in row r, and per row the
    number of terms K_r + 1, where K_r is the smallest K with
    P(X > K) <= tol (mu_r = 0 gives K_r = 0): the reference the cutoff
    thresholds are found from. The range of a leaves a tail far below
    epsilon and is the same for every mu <= _SEGMENT_STIFFNESS_CAP, so a
    row's cutoff then depends on its own mu alone, not on the rows beside
    it."""
    top = max(_SEGMENT_STIFFNESS_CAP, float(mu.max()))
    pmf = _poisson_weights(mu, np.full(len(mu), int(top + 15.0 * math.sqrt(top)) + 60))
    tail = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    return pmf, np.argmax(tail <= tol, axis=1)


def _check_tol(tol: float) -> None:
    """``ValueError`` unless the Poisson tail bound tol is finite and below
    1, ``StepUnderflowError`` (also a ``ValueError``) below epsilon."""
    if not (math.isfinite(tol) and tol < 1.0):
        raise ValueError(f"tolerance {tol!r} must be finite and below 1")
    if tol < _SWEEP_TAIL:
        raise StepUnderflowError(f"tolerance {tol!r} is below double-precision epsilon")


@lru_cache(maxsize=16)
def _cutoff_thresholds(tol: float) -> np.ndarray:
    """thresholds[K] for K below the cutoff at the stiffness cap: the
    largest mu, found by bisection, whose ``_poisson_terms`` series at tol
    has at most K + 1 terms."""
    _check_tol(tol)
    ks = np.arange(int(_poisson_terms(np.array([_SEGMENT_STIFFNESS_CAP]), tol)[1][0]) - 1)
    lo, hi = np.zeros(len(ks)), np.full(len(ks), _SEGMENT_STIFFNESS_CAP)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        fits = _poisson_terms(mid, tol)[1] <= ks + 1
        lo, hi = np.where(fits, mid, lo), np.where(fits, hi, mid)
    lo.setflags(write=False)
    return lo


def _series_terms(mu: np.ndarray, tol: float) -> np.ndarray:
    """The cutoffs of ``_poisson_terms`` without a full-width pmf per row:
    looked up in the thresholds up to the stiffness cap (the two agree
    but within rounding of a threshold) and computed above it. Either way
    a row's cutoff is a function of its own mu."""
    terms = np.searchsorted(_cutoff_thresholds(tol), mu) + 1
    big = mu > _SEGMENT_STIFFNESS_CAP
    if big.any():
        terms[big] = _poisson_terms(mu[big], tol)[1]
    return terms


def _poisson_weights(mu: np.ndarray, terms: np.ndarray, skip: int = 0) -> np.ndarray:
    """Row r's weights Pois(a + skip; mu_r) for a below its cutoff terms[r],
    zero past it. Summed in log space, so e^-mu underflowing does not zero
    them."""
    a = np.arange(int(terms.max()))
    log_mu = np.log(mu, out=np.full(mu.shape, -np.inf), where=mu > 0.0)
    log_pmf = np.multiply(a + skip, log_mu[:, None], out=np.zeros((len(mu), len(a))), where=a + skip > 0)
    pmf = np.exp(log_pmf - mu[:, None] - _log_factorials(len(a) + skip)[skip:])
    return np.where(a < terms[:, None], pmf, 0.0)


def _series_width() -> int:
    """The sweeps' series terms at the stiffness cap, the most any split
    segment needs: one reference row, so no table is built below 16 states."""
    return int(_poisson_terms(np.array([_SEGMENT_STIFFNESS_CAP]), _SWEEP_TAIL)[1][0])


class _Uniformization:
    """The split segments (mask S, dt) of a batch uniformized for the sweeps
    and the integrals alike: lambda = max_{i in S} |q_ii|, mu = lambda dt,
    P = I + Q_S / lambda and exp(Q_S s) = sum_a Pois(a; lambda s) P^a. A row
    v goes to v P = v * keep + (v @ w) * jump, with the joint off-diagonal
    W as w (W^T for columns), so every term is nonnegative."""

    def __init__(self, q: IntensityMatrix, masks: np.ndarray, dts: np.ndarray):
        lam = _max_rate(q.entries, masks)
        # Q_S vanishes where no state of S has an exit; any rate uniformizes it.
        lam[lam == 0.0] = 1.0
        self.masks, self.w, self.lam, self.mu = masks, q.off_diagonal, lam, lam * dts
        self.keep = masks * (lam[:, None] - np.abs(np.diagonal(q.entries))) / lam[:, None]
        self.jump = masks / lam[:, None]


class _Propagator(_Uniformization):
    """exp(Q_S dt) of every segment (mask, dt) of a batch, applied to message
    rows: ``forward(v, seg)`` gives the rows v[r] exp(Q_S dt) for segments
    seg[r], where each v[r] vanishes outside its mask, and
    ``backward(v, seg)`` the columns exp(Q_S dt) v[r] of v[r] projected onto
    its mask. Below _SERIES_MIN_N states batched Pade ``expm`` calls build
    the exponentials, each over a slice of at most _BATCH_ELEMENTS // 8
    entries; from it up the series in P is applied to the rows, each
    segment's cut where its own Poisson tail falls to _SWEEP_TAIL.
    """

    def __init__(self, q: IntensityMatrix, masks: np.ndarray, dts: np.ndarray):
        super().__init__(q, masks, dts)
        n = q.n
        if n < _SERIES_MIN_N:
            self.exps = np.empty((len(dts), n, n))
            step = max(1, _BATCH_ELEMENTS // 8 // (n * n))
            for lo in range(0, len(dts), step):
                rows = slice(lo, lo + step)
                self.exps[rows] = expm(_masked(q.entries, masks[rows], masks[rows]) * dts[rows, None, None])
            return
        self.exps = None
        self.terms = _series_terms(self.mu, _SWEEP_TAIL)
        self.weights = _poisson_weights(self.mu, self.terms)

    def forward(self, v: np.ndarray, seg: np.ndarray) -> np.ndarray:
        if self.exps is not None:
            return np.einsum("tj,tjk->tk", v, self.exps[seg])
        return self._series(v, seg, self.w)

    def backward(self, v: np.ndarray, seg: np.ndarray) -> np.ndarray:
        v = v * self.masks[seg]
        if self.exps is not None:
            return np.einsum("tjk,tk->tj", self.exps[seg], v)
        return self._series(v, seg, self.w.T)

    def _series(self, v: np.ndarray, seg: np.ndarray, w: np.ndarray) -> np.ndarray:
        """sum_a weights[r, a] v[r] P_r^a; a row past its own cutoff adds zeros."""
        keep, jump, weights = self.keep[seg], self.jump[seg], self.weights[seg]
        out = v * weights[:, :1]
        for a in range(1, int(self.terms[seg].max())):
            v = v * keep + _rows_times(v, w) * jump
            out += v * weights[:, a, None]
        return out


class _ForwardSweep(NamedTuple):
    """A batch of trajectories split into segments and swept forward.

    The rows of all trajectories are stacked: trajectory t owns segments
    ``seg_off[t]`` up to ``seg_off[t] + counts[t]`` and boundaries
    ``seg_off[t] + t`` up to ``seg_off[t] + t + counts[t]`` inclusive, so
    segment s of trajectory t starts at boundary s + t in global indices.
    ``times`` holds the boundary times, ``rate_before[k]`` marks a segment
    entered through an asserted transition; ``prop`` is their uniformization.
    """

    p0: np.ndarray
    times: np.ndarray
    masks: np.ndarray
    dts: np.ndarray
    rate_before: np.ndarray
    prop: _Uniformization
    counts: np.ndarray
    seg_off: np.ndarray
    fwd: np.ndarray
    fwd_log: np.ndarray
    fwd_pre: np.ndarray
    fwd_pre_log: np.ndarray

    @property
    def starts(self) -> np.ndarray:
        """The first boundary of every trajectory."""
        return self.seg_off + np.arange(len(self.counts))

    @property
    def log_probs(self) -> np.ndarray:
        return self.fwd_log[self.starts + self.counts]

    def bounds(self, t: int) -> slice:
        lo = self.seg_off[t] + t
        return slice(lo, lo + self.counts[t] + 1)

    def log_prob(self, t: int) -> float:
        return float(self.log_probs[t])

    def dead(self, t: int) -> int | None:
        """The first boundary whose forward message has no mass, if any."""
        hit = np.flatnonzero(np.isneginf(self.fwd_log[self.bounds(t)]))
        return int(hit[0]) if hit.size else None

    def raise_if_impossible(self, first: int = 0):
        """Raise ``ZeroProbabilityEvidenceError`` for the first trajectory
        whose evidence has no mass; its index counts from ``first``."""
        dead = np.flatnonzero(~np.isfinite(self.log_probs))
        if dead.size:
            t = int(dead[0])
            raise ZeroProbabilityEvidenceError(self.dead(t), first + t)


class _BackwardSweep(NamedTuple):
    """The backward messages of a swept batch, stacked like the forward
    ones, and each trajectory's backward log-likelihood."""

    bwd: np.ndarray
    bwd_log: np.ndarray
    bwd_post: np.ndarray
    bwd_post_log: np.ndarray
    log_probs: np.ndarray


def _lockstep(counts: np.ndarray, seg_off: np.ndarray):
    """Trajectory rows ordered by descending segment count, so the rows that
    still have a segment at position i are a prefix of length sizes[i]."""
    order = np.argsort(-counts, kind="stable")
    cnt = counts[order]
    sizes = np.searchsorted(-cnt, -np.arange(cnt[0] + 1), side="left")
    return cnt, seg_off[order], seg_off[order] + order, sizes


def _forward(q: IntensityMatrix, p0, evs: list) -> _ForwardSweep:
    """Split the evidence segments of a batch and run the scaled forward
    sweep. The segment propagator exists only here and in
    ``_backward_sweep``, which reuses it."""
    if q.kind != "proper":
        raise ValueError("forward-backward needs a proper intensity matrix")
    if any(ev.n != q.n for ev in evs):
        raise ValueError("evidence dimension does not match the matrix")
    p0 = validate_distribution(p0, q.n)
    n = q.n
    masks, dts, times, counts, rate_before = _split_batch(q.entries, evs)
    seg_off = np.cumsum(counts) - counts
    prop = _Propagator(q, masks, dts)

    nb = len(dts) + len(evs)
    fwd = np.zeros((nb, n))
    fwd_log = np.full(nb, -np.inf)
    fwd_pre = np.zeros((nb, n))
    fwd_pre_log = np.full(nb, -np.inf)
    cnt, soff, boff, sizes = _lockstep(counts, seg_off)

    # Boundary 0 projects p0 onto the first subsystem.
    fwd_pre[boff] = p0
    fwd_pre_log[boff] = 0.0
    v, lf = _normalize_rows(p0 * masks[soff])
    fwd[boff] = v
    fwd_log[boff] = lf
    for i in range(cnt[0]):
        # Segment i of every trajectory that has one; where it is the last,
        # the boundary after it carries no factor.
        a = sizes[i]
        seg = soff[:a] + i
        v, ls = _normalize_rows(prop.forward(v[:a], seg))
        lf = lf[:a] + ls
        b = boff[:a] + i + 1
        fwd_pre[b] = fwd[b] = v
        fwd_pre_log[b] = fwd_log[b] = lf
        a = sizes[i + 1]
        seg, b = seg[:a], b[:a]
        v = np.where(rate_before[seg + 1, None], _rows_times(v[:a] * masks[seg], prop.w), v[:a]) * masks[seg + 1]
        v, ls = _normalize_rows(v)
        lf = lf[:a] + ls
        fwd[b] = v
        fwd_log[b] = lf

    return _ForwardSweep(
        p0, times, masks, dts, rate_before, prop, counts, seg_off, fwd, fwd_log, fwd_pre, fwd_pre_log,
    )


def _backward_sweep(q: IntensityMatrix, f: _ForwardSweep, first: int = 0) -> _BackwardSweep:
    """The backward sweep of a forward-swept batch. Raises
    ``ForwardBackwardMismatchError`` where the two sweeps' log-likelihoods
    of a trajectory disagree; its index counts from ``first``."""
    n = q.n
    masks = f.masks
    nb = len(f.fwd)
    bwd = np.zeros((nb, n))
    bwd_log = np.full(nb, -np.inf)
    bwd_post = np.zeros((nb, n))
    bwd_post_log = np.full(nb, -np.inf)
    cnt, soff, boff, sizes = _lockstep(f.counts, f.seg_off)

    # At the horizon the message is all ones.
    v = np.full((len(cnt), n), 1.0 / n)
    lb = np.full(len(cnt), math.log(n))
    bwd[boff + cnt] = bwd_post[boff + cnt] = v
    bwd_log[boff + cnt] = bwd_post_log[boff + cnt] = lb
    for j in range(cnt[0]):
        # The j-th segment from the end of every trajectory that has one,
        # then the boundary before it; a first segment's boundary projects.
        a = sizes[j]
        i = cnt[:a] - 1 - j
        seg = soff[:a] + i
        b = boff[:a] + i
        v, ls = _normalize_rows(f.prop.backward(v[:a], seg))
        lb = lb[:a] + ls
        bwd_post[b] = v
        bwd_post_log[b] = lb
        v, ls = _normalize_rows(np.where(f.rate_before[seg, None], masks[seg - 1] * _rows_times(v, f.prop.w.T), v))
        lb = lb + ls
        bwd[b] = v
        bwd_log[b] = lb

    b0 = f.starts
    mass = np.einsum("tj,j->t", bwd[b0], f.p0)
    log_probs = np.log(mass, out=np.full(len(mass), -np.inf), where=mass > 0.0) + bwd_log[b0]
    forward = f.log_probs
    with np.errstate(invalid="ignore"):
        ok = np.abs(forward - log_probs) <= FORWARD_BACKWARD_TOL * np.maximum(1.0, np.abs(forward))
    bad = np.flatnonzero(np.isfinite(forward) & ~ok)
    if bad.size:
        t = int(bad[0])
        raise ForwardBackwardMismatchError(first + t, float(forward[t]), float(log_probs[t]))
    return _BackwardSweep(bwd, bwd_log, bwd_post, bwd_post_log, log_probs)


def _backward(q: IntensityMatrix, evs: list, f: _ForwardSweep, first: int = 0) -> list[MessageCache]:
    """The backward sweep of a forward-swept batch, cut into one message
    cache per trajectory; mismatch errors count trajectories from ``first``."""
    b = _backward_sweep(q, f, first)
    log_probs = f.log_probs
    caches = []
    for t, ev in enumerate(evs):
        segs = slice(f.seg_off[t], f.seg_off[t] + f.counts[t])
        bounds = f.bounds(t)
        caches.append(
            MessageCache(
                evidence=ev,
                q=q,
                p0=f.p0,
                times=f.times[bounds].copy(),
                seg_masks=f.masks[segs].copy(),
                seg_dt=f.dts[segs].copy(),
                factor_kind=np.where(f.rate_before[segs][1:], _RATE, _PROJECT),
                fwd=f.fwd[bounds].copy(),
                fwd_log=f.fwd_log[bounds].copy(),
                fwd_pre=f.fwd_pre[bounds].copy(),
                fwd_pre_log=f.fwd_pre_log[bounds].copy(),
                bwd=b.bwd[bounds].copy(),
                bwd_log=b.bwd_log[bounds].copy(),
                bwd_post=b.bwd_post[bounds].copy(),
                bwd_post_log=b.bwd_post_log[bounds].copy(),
                log_prob=float(log_probs[t]),
                log_prob_backward=float(b.log_probs[t]),
                dead_boundary=f.dead(t),
            )
        )
    return caches


def _forward_backward_many(q: IntensityMatrix, p0, evs) -> list[MessageCache]:
    """``forward_backward`` over many trajectories, swept a batch at a time."""
    evs = list(evs)
    caches: list[MessageCache] = []
    for batch in _batches(evs, q.n):
        caches.extend(_backward(q, batch, _forward(q, p0, batch), len(caches)))
    return caches


def forward_backward(q: IntensityMatrix, p0, ev: Evidence) -> MessageCache:
    """Run the scaled forward-backward sweep over the evidence."""
    return _forward_backward_many(q, p0, [ev])[0]


def smoothed_marginal(cache: MessageCache, t: float) -> np.ndarray:
    """Posterior distribution over the state at time t given all evidence.

    At an evidence boundary the marginal describes the state just after any
    factor asserted there, so a fully observed instant yields a point mass.
    """
    if cache.impossible:
        raise ZeroProbabilityEvidenceError(cache.dead_boundary)
    ev = cache.evidence
    tol = 1e-12 * max(1.0, ev.horizon)
    if not -tol <= t <= ev.horizon + tol:
        raise ValueError(f"query time {t!r} outside [0, {ev.horizon}]")
    bounds = cache.times
    hits = np.flatnonzero(np.abs(bounds - t) <= tol)
    if hits.size:
        i = int(hits[-1])
        raw = cache.fwd[i] * cache.bwd_post[i]
    else:
        # The segment's propagator over [bounds[i], t] carries fwd[i] to t,
        # the one over [t, bounds[i + 1]] carries bwd[i + 1] back to it.
        i = int(np.searchsorted(bounds, t)) - 1
        prop = _Propagator(cache.q, cache.seg_masks[[i, i]], np.array([t - bounds[i], bounds[i + 1] - t]))
        a = prop.forward(cache.fwd[i : i + 1], np.array([0]))[0]
        b = prop.backward(cache.bwd[i + 1 : i + 2], np.array([1]))[0]
        raw = np.clip(a, 0.0, None) * np.clip(b, 0.0, None)
    s = raw.sum()
    if s <= 0.0:
        raise ZeroProbabilityEvidenceError(i)
    return raw / s


def _log_factorials(count: int) -> np.ndarray:
    """log k! for k = 0 .. count - 1."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, count)))))


# The integrals' series of a row stops where its own Poisson tail falls to
# this share of the tolerance. A trajectory's truncation errors all have one
# sign and add up over its segments: cut at the tolerance itself (1e-8), the
# dwell of 600 occluded chain records summed to their horizons only within
# 1.2e-9 to 3.7e-9 relative; at a hundredth, within 3e-11, for about as many
# series terms per E-step as one cut at the largest mu of each batch (three
# data seeds).
_ROW_TAIL_SHARE = 0.01


def _convolution_batch(
    u: _Uniformization,
    rows: np.ndarray,
    f0: np.ndarray,
    beta: np.ndarray,
    ends: np.ndarray,
    tol: float,
):
    """Sums over row groups of the pairwise integrals
    J[j, k] = int_0^dt f_j(s) b_k(s) ds for the segments ``rows`` of the
    uniformization u, where row r has f(s) = f0[r] exp(Q_S s),
    b(s) = exp(Q_S (dt - s)) beta[r] and Q_S is Q masked to the segment's
    mask S; f0 and beta are first projected onto S, so J vanishes outside
    S x S, and a row with dt = 0 contributes zero. Group g is the rows
    ``ends[g - 1]`` up to ``ends[g]``; yields pairs (g, part) whose parts
    add up to the group's sum.

    In the series of exp(Q_S s) in P, J = sum_{a,b} c_{a+b} F_a^T G_b with
    F_a = f0 P^a, G_b = P^b beta and c_k = Pois(k + 1; mu) / lambda. Each
    row's series stops where its own Poisson tail is below
    tol * _ROW_TAIL_SHARE (at least epsilon), which bounds the error of
    every column of J by tol * dt * |f0|_1 * max(beta). Rows go in slices
    whose stacks of F, G and the weighted sums H_a = sum_b c_{a+b} G_b stay
    within _BATCH_ELEMENTS // 8 entries, so no (rows x n x n) array is built.
    """
    m, n = f0.shape
    if m == 0:
        return
    ends = np.asarray(ends)
    mu, lam = u.mu[rows], u.lam[rows]
    # Slices are sized for the longest series of the call; within one, the
    # series runs to the slice's longest and each row's weights stop at its
    # own cutoff, so a row's result does not depend on the rows beside it.
    terms = _series_terms(mu, max(tol * _ROW_TAIL_SHARE, _SWEEP_TAIL))
    step = max(1, _BATCH_ELEMENTS // 8 // (int(terms.max()) * n))
    for lo in range(0, m, step):
        sl = slice(lo, min(lo + step, m))
        r = rows[sl]
        kk = int(terms[sl].max()) - 1
        masks, keep, jump = u.masks[r], u.keep[r], u.jump[r]
        f = _powers(f0[sl] * masks, u.w, keep, jump, kk)
        g = _powers(beta[sl] * masks, u.w.T, keep, jump, kk)
        # H_a = sum_b c_{a+b} G_b for every a in one product: the window
        # view of c padded with kk zeros is the Hankel matrix of each row.
        c = np.pad(_poisson_weights(mu[sl], terms[sl], 1) / lam[sl, None], ((0, 0), (0, kk)))
        h = sliding_window_view(c, kk + 1, axis=1) @ g
        yield from _grouped_products(f.reshape(-1, n), h.reshape(-1, n), ends * (kk + 1), lo * (kk + 1))


def _powers(v: np.ndarray, w: np.ndarray, keep: np.ndarray, jump: np.ndarray, kk: int) -> np.ndarray:
    """The rows v P^a for a = 0 .. kk, stacked as (rows, kk + 1, n), where
    row r has v P = v * keep[r] + (v @ w) * jump[r]."""
    out = np.empty((len(v), kk + 1, v.shape[1]))
    out[:, 0] = v
    for a in range(kk):
        v = v * keep + (v @ w) * jump
        out[:, a + 1] = v
    return out


def convolution_integrals(alpha, q_s, beta, dt: float, tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """J[j, k] = int_0^dt (alpha exp(Q_S s))_j (exp(Q_S (dt - s)) beta)_k ds.

    The diagonal feeds expected dwell times, off-diagonals feed expected
    transition counts after multiplication by the corresponding rates.
    dt == 0 yields the zero matrix. ``tol``, finite and below 1, bounds the
    Poisson tail where the uniformization series is cut; below
    double-precision epsilon it raises ``StepUnderflowError``. A segment
    with max|q_ii| dt above the sweeps' stiffness cap is cut into equal
    pieces below it, so the work grows linearly in max|q_ii| dt.
    """
    q_s = q_s if isinstance(q_s, IntensityMatrix) else IntensityMatrix(q_s, "restricted")
    q = q_s.entries
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    _check_tol(tol)
    n = q.shape[0]
    pieces = max(1, math.ceil(float(np.abs(np.diagonal(q)).max(initial=0.0)) * dt / _SEGMENT_STIFFNESS_CAP))
    # Piece p runs from alpha exp(Q_S p h) to exp(Q_S (dt - (p + 1) h)) beta:
    # alpha is carried forward and beta backward by one piece exponential,
    # with their scales kept in log space.
    f0 = np.empty((pieces, n))
    b1 = np.empty((pieces, n))
    f0[0], b1[-1] = alpha, beta
    if pieces > 1:
        # exp(Q_S h) of a generator is nonnegative; clip the Pade rounding.
        e = np.maximum(expm(q * (dt / pieces)), 0.0)
        lf = np.zeros(pieces)
        lb = np.zeros(pieces)
        for p in range(1, pieces):
            f0[p], lf[p] = _rescaled(f0[p - 1] @ e, lf[p - 1])
            b1[-1 - p], lb[-1 - p] = _rescaled(e @ b1[-p], lb[-p])
        f0 *= np.exp(lf + lb)[:, None]
    u = _Uniformization(q_s, np.ones((pieces, n), dtype=bool), np.full(pieces, dt / pieces))
    parts = _convolution_batch(u, np.arange(pieces), f0, b1, [pieces], tol)
    return sum((part for _, part in parts), np.zeros((n, n)))


def _rescaled(v: np.ndarray, log_scale: float):
    """v scaled to unit max-norm and its log scale plus log_scale; a zero v
    stays zero with log scale -inf."""
    m = float(np.abs(v).max())
    return (v / m, log_scale + math.log(m)) if m > 0.0 else (v, -np.inf)


class _Statistics(NamedTuple):
    """A swept batch's expected statistics summed over row groups of
    trajectories, and each trajectory's log-likelihood."""

    dwell: np.ndarray
    transitions: np.ndarray
    initial: np.ndarray
    log_probs: np.ndarray


def _statistics(
    f: _ForwardSweep,
    b: _BackwardSweep,
    horizons: np.ndarray,
    ends: np.ndarray,
    tol: float,
    first: int = 0,
) -> _Statistics:
    """Expected dwell times, transition counts and time-zero posteriors of
    the stacked segments and boundaries of a swept batch, summed over the
    groups of trajectories ``ends[g - 1]`` up to ``ends[g]``.

    A positive-length segment restricted to one state adds its duration
    where it carries mass (the integrand is constant). The factor of an
    asserted transition into segment k acts at its first boundary i, from
    mask k - 1 into mask k; its posterior counts are W o outer(a, b) /
    (a W b) with a = fwd_pre[i] and b = bwd_post[i] on the two masks. Every
    other positive-length segment runs from fwd[i] to the end-of-segment
    message bwd[i + 1]; scaled by exp(bwd_log[i + 1] - bwd_post_log[i]),
    exp(Q_S dt) carries that to bwd_post[i], and dividing by the segment's
    evidence mass fwd[i] . bwd_post[i] (zero where it has none) makes it
    the right vector of the segment's convolution integrals, all of which
    go through one call of the uniformization kernel. The time-zero
    posterior is fwd * bwd_post, normalized, at the last boundary at t = 0.
    Raises ``ZeroProbabilityEvidenceError`` for a trajectory without mass,
    its index counted from ``first``.
    """
    f.raise_if_impossible(first)
    n = f.fwd.shape[1]
    groups = len(ends)
    traj_group = np.repeat(np.arange(groups), np.diff(ends, prepend=0))
    seg_traj = np.repeat(np.arange(len(f.counts)), f.counts)
    seg_group = traj_group[seg_traj]
    start = np.arange(len(f.dts)) + seg_traj
    w = f.prop.w
    dwell = np.zeros((groups, n))
    trans = np.zeros((groups, n, n))
    sizes = f.masks.sum(axis=1)
    pos = f.dts > 0.0

    sing = np.flatnonzero(pos & (sizes == 1))
    jj = f.masks[sing].argmax(axis=1)
    alive = f.fwd[start[sing], jj] * b.bwd_post[start[sing], jj] > 0.0
    np.add.at(dwell, (seg_group[sing][alive], jj[alive]), f.dts[sing][alive])

    rate = np.flatnonzero(f.rate_before)
    i = start[rate]
    left = f.fwd_pre[i] * f.masks[rate - 1]
    right = b.bwd_post[i] * f.masks[rate]
    totals = ((left @ w) * right).sum(axis=1)
    alive = totals > 0.0
    rows = np.searchsorted(seg_group[rate][alive], np.arange(groups), side="right")
    for g, part in _grouped_products(left[alive] / totals[alive, None], right[alive], rows):
        trans[g] += w * part

    general = np.flatnonzero(pos & (sizes > 1))
    i = start[general]
    inner = np.einsum("mi,mi->m", f.fwd[i], b.bwd_post[i])
    ok = inner > 0.0
    log_scale = b.bwd_log[i + 1] - np.where(ok, b.bwd_post_log[i], 0.0)
    beta = b.bwd[i + 1] * np.where(ok, np.exp(log_scale) / np.where(ok, inner, 1.0), 0.0)[:, None]
    seg_ends = np.concatenate(([0], np.cumsum(f.counts)))[ends]
    parts = _convolution_batch(f.prop, general, f.fwd[i], beta, np.searchsorted(general, seg_ends), tol)
    for g, part in parts:
        dwell[g] += np.diagonal(part)
        trans[g] += w * part

    at_zero = np.abs(f.times) <= 1e-12 * np.maximum(1.0, np.repeat(horizons, f.counts + 1))
    i = np.maximum.reduceat(np.where(at_zero, np.arange(len(f.times)), -1), f.starts)
    raw = f.fwd[i] * b.bwd_post[i]
    mass = raw.sum(axis=1)
    if not (mass > 0.0).all():
        t = int(np.flatnonzero(~(mass > 0.0))[0])
        raise ZeroProbabilityEvidenceError(int(i[t] - f.starts[t]), first + t)
    initial = np.zeros((groups, n))
    np.add.at(initial, traj_group, raw / mass[:, None])
    return _Statistics(dwell, trans, initial, f.log_probs)


def _grouped_products(a: np.ndarray, b: np.ndarray, ends: np.ndarray, lo: int = 0):
    """Pairs (g, a[rows].T @ b[rows]) over the groups g with rows in a, where
    a and b hold rows lo up to lo + len(a) and group g ends at row ends[g]."""
    hi = lo + len(a)
    first = int(np.searchsorted(ends, lo, side="right"))
    last = int(np.searchsorted(ends, hi - 1, side="right"))
    for grp in range(first, last + 1):
        r0 = max(ends[grp - 1] if grp else 0, lo) - lo
        r1 = min(ends[grp], hi) - lo
        if r1 > r0:
            yield grp, a[r0:r1].T @ b[r0:r1]


def _e_step_batches(q: IntensityMatrix, p0, evs: list, tol: float):
    """The E-step over many trajectories: per lockstep batch, its expected
    statistics summed over the batch (one group) and its log-likelihoods.
    Trajectory indices in errors count across batches."""
    _check_tol(tol)
    first = 0
    for batch in _batches(evs, q.n):
        f = _forward(q, p0, batch)
        b = _backward_sweep(q, f, first)
        horizons = np.array([ev.horizon for ev in batch])
        yield _statistics(f, b, horizons, np.array([len(batch)]), tol, first)
        first += len(batch)


def expected_statistics_many(caches, tol: float = DEFAULT_QUAD_TOL) -> list[FlatStatistics]:
    """Expected statistics for many trajectories at once. The caches under
    one joint generator are stacked as one swept batch, one group per
    cache, and go through the same statistics kernel as the E-step."""
    _check_tol(tol)
    results: list = [None] * len(caches)
    pending: dict = {}
    for idx, cache in enumerate(caches):
        if cache.impossible:
            raise ZeroProbabilityEvidenceError(cache.dead_boundary, idx)
        hit = cache._stats.get(tol)
        if hit is not None:
            results[idx] = hit
        else:
            pending.setdefault(id(cache.q), []).append(idx)

    for idxs in pending.values():
        batch = [caches[i] for i in idxs]

        def cat(name):
            return np.concatenate([getattr(c, name) for c in batch])

        counts = np.array([len(c.seg_dt) for c in batch])
        rate_before = np.concatenate([np.append(False, c.factor_kind == _RATE) for c in batch])
        masks, dts = cat("seg_masks"), cat("seg_dt")
        f = _ForwardSweep(
            batch[0].p0, cat("times"), masks, dts, rate_before, _Uniformization(batch[0].q, masks, dts), counts,
            np.cumsum(counts) - counts, cat("fwd"), cat("fwd_log"), cat("fwd_pre"), cat("fwd_pre_log"),
        )
        b = _BackwardSweep(
            cat("bwd"), cat("bwd_log"), cat("bwd_post"), cat("bwd_post_log"),
            np.array([c.log_prob_backward for c in batch]),
        )
        horizons = np.array([c.evidence.horizon for c in batch])
        s = _statistics(f, b, horizons, np.arange(1, len(batch) + 1), tol)
        for g, idx in enumerate(idxs):
            results[idx] = caches[idx]._stats[tol] = FlatStatistics(s.dwell[g], s.transitions[g])
    return results


def expected_statistics(cache: MessageCache, tol: float = DEFAULT_QUAD_TOL) -> FlatStatistics:
    """Expected dwell-time vector and transition-count matrix under the
    posterior over completions of the cached evidence.

    Segments restricted to a single state use the closed form of the
    integral (the integrand is constant), which keeps fully observed
    statistics exact; all other segments share one batched pass of the
    uniformization series, cut where its Poisson tail falls below ``tol``.
    Results are cached per tolerance.
    """
    return expected_statistics_many([cache], tol)[0]


def expected_dwell(cache: MessageCache, tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """Expected time spent in each flat state; sums to the horizon."""
    return expected_statistics(cache, tol).dwell


def expected_transitions(cache: MessageCache, tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """Expected transition counts between flat states; zero wherever the
    corresponding rate is zero."""
    return expected_statistics(cache, tol).transitions
