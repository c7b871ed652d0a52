"""Exact smoothing and expected sufficient statistics under subsystem evidence.

Evidence only restricts the joint process: while a segment holds it in a
subsystem S, its generator is Q_S, Q gathered to the |S| x |S| block of S.
Between consecutive segments whose subsystems are disjoint, the evidence
asserts a transition and the boundary factor is the block W[S1, S2] of
Q's off-diagonal W; when the subsystems overlap, the boundary is a
projection onto the next subsystem (zero-length segments therefore act as
plain indicators). The scaled boundary messages are n-length rows over
the joint space; every segment gathers its rows to S, works on |S|-length
rows and |S| x |S| blocks, and scatters the result back, so a segment costs
O(|S|^2) per product plus O(n) at its boundaries.

Many trajectories under one Q are swept in lockstep, one row each, so the
Python loop runs once per segment position of a batch; a step pads its
rows to the largest |S| among them. One memory budget,
``_BATCH_ELEMENTS``, sizes the batches, and the Pade exponentials and the
integrals' kernel work in slices of an eighth of it. A batch's split
segments are uniformized once (lambda = the largest exit rate in S,
P = I + Q_S / lambda), and both jobs read that: the sweeps carry the
messages across each segment's exp(Q_S dt), by Pade ``expm`` of the block
up to ``_PADE_MAX_STATES`` states and by the series in P above it; the
expected dwell times and transition counts are pairwise convolution
integrals over each segment, all |S|^2 of which come in closed form from
the same series and are scattered into the joint sums. One Poisson routine
weights both series, each row cut at its own tail bound. Every per-row
product sums its terms in a fixed order that zero padding does not change,
so a trajectory's sweeps do not depend on the rows swept beside it.

A swept batch has one layout: its segments, boundaries and messages
stacked in one set of arrays. One statistics kernel reads them and
returns the batch's dwell times, transition counts and time-zero
posteriors summed over groups of its trajectories, and every trajectory's
log-likelihood. The E-step sums each batch as one group and builds nothing
per trajectory. The public ``forward_backward`` returns a message cache
that is a read-only view of one trajectory's rows of its batch, so caches
cut from one batch share its arrays; ``expected_statistics_many`` runs the
kernel once per batch on those arrays, one group per trajectory asked for.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .evidence import Evidence
from .markov import _TIME_EPS, IntensityMatrix, expm, validate_distribution

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


def _rows(name: str, part: str) -> property:
    """A cache field: its trajectory's rows of the sweep's stacked array
    ``name`` at its boundaries or segments (``part``), as a read-only view."""

    def get(self) -> np.ndarray:
        v = getattr(self._sweep, name)[getattr(self._sweep, part)(self._t)]
        v.flags.writeable = False
        return v

    return property(get)


class MessageCache:
    """Scaled forward/backward messages at every evidence boundary of one
    trajectory: a read-only view of trajectory ``t``'s rows of the swept
    batch ``sweep``, so caches cut from one batch share its arrays.

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

    def __init__(self, evidence: Evidence, q: IntensityMatrix, sweep: _Sweep, t: int):
        self.evidence, self.q, self.p0 = evidence, q, sweep.p0
        self._sweep, self._t, self._stats = sweep, t, {}

    times = _rows("times", "bounds")
    seg_masks = _rows("masks", "segments")
    seg_dt = _rows("dts", "segments")
    fwd = _rows("fwd", "bounds")
    fwd_log = _rows("fwd_log", "bounds")
    fwd_pre = _rows("fwd_pre", "bounds")
    fwd_pre_log = _rows("fwd_pre_log", "bounds")
    bwd = _rows("bwd", "bounds")
    bwd_log = _rows("bwd_log", "bounds")
    bwd_post = _rows("bwd_post", "bounds")
    bwd_post_log = _rows("bwd_post_log", "bounds")

    @property
    def factor_kind(self) -> np.ndarray:
        return np.where(self._sweep.rate_before[self._sweep.segments(self._t)][1:], _RATE, _PROJECT)

    @property
    def log_prob(self) -> float:
        return self._sweep.log_prob(self._t)

    @property
    def log_prob_backward(self) -> float:
        return float(self._sweep.log_probs_backward[self._t])

    @property
    def dead_boundary(self) -> int | None:
        return self._sweep.dead(self._t)

    @property
    def impossible(self) -> bool:
        return not np.isfinite(self.log_prob)


# Subdivide constant-evidence segments so that max|diag(Q_S)| * dt stays
# below this; the split bounds the dynamic range the scaled messages have to
# traverse in one stretch and the length of the uniformization series.
_SEGMENT_STIFFNESS_CAP = 16.0


def _max_rate(exit: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """max_{i in S} |q_ii| for every segment, from the exit rates |q_ii|."""
    return np.where(masks, exit, 0.0).max(axis=1)


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
    chunks = np.maximum(1, np.ceil(_max_rate(np.abs(np.diagonal(q)), masks) * dts / _SEGMENT_STIFFNESS_CAP).astype(int))
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


# A segment whose subsystem has at most this many states takes its
# exponential by batched Pade ``expm`` of the |S| x |S| block; a larger one
# is applied to the messages as a uniformization series, which builds no
# exponential but takes one Python-level step per term. Measured on rings
# whose every segment has one |S| (30 segments per trajectory): Pade
# scored 1.05-1.8x faster up to |S| = 16, at 32 it was 1.1x faster for one
# trajectory and 1.4x slower for ten, at 64 and up slower throughout
# (CHANGES.md has the table).
_PADE_MAX_STATES = 16

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


def _entries(sizes: np.ndarray, segments: np.ndarray, n: int, width: int) -> np.ndarray:
    """The array entries the sweeps hold for each of the trajectories of
    ``segments`` evidence segments, whose subsystems have ``sizes`` states
    one after the other: each segment's n-length mask row and its Pade
    block (|S|^2), or its series weights, ``width`` of them at the
    stiffness cap, and its |S|-length ``keep`` and ``jump`` rows. Where
    every subsystem takes the Pade form (n up to _PADE_MAX_STATES) the four
    n-length message rows per boundary are counted too. Segments split for
    stiffness count once, and larger models count the mask row in place of
    the message rows, as counting either in full would keep a few short
    trajectories of a mid-size model from sharing a batch; the message
    rows stay within four times the mask rows."""
    rows = 4 * n if n <= _PADE_MAX_STATES else 0
    blocks = np.where(sizes <= _PADE_MAX_STATES, sizes * sizes, width + 2 * sizes) + n + rows
    return np.add.reduceat(blocks, np.cumsum(segments) - segments) + rows


def _batches(evs: list, n: int):
    """Runs of consecutive trajectories whose ``_entries`` add up to at
    most _BATCH_ELEMENTS, always one trajectory at least. The subsystem
    sizes are counted over runs of trajectories whose masks together hold
    about _BATCH_ELEMENTS entries."""
    width = _series_width()
    segments = np.array([ev.n_segments for ev in evs], dtype=np.int64)
    need = []
    for run in np.split(np.arange(len(evs)), np.flatnonzero(np.diff(np.cumsum(segments) * n // _BATCH_ELEMENTS)) + 1):
        if run.size:
            sizes = np.concatenate([evs[t].masks for t in run]).sum(axis=1)
            need.extend(_entries(sizes, segments[run], n, width).tolist())
    lo, size = 0, 0
    for t, entries in enumerate(need):
        size += entries
        if size > _BATCH_ELEMENTS and t > lo:
            yield evs[lo:t]
            lo, size = t, entries
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


class _Layout(NamedTuple):
    """Segments ``seg`` in subsystem coordinates, one row each: column c of
    row r is the joint state idx[r, c], ascending, for c below |S_r|; past
    it the row is padded to the widest subsystem (valid False, idx 0).
    ``cells`` are the valid (row, column) pairs and ``states`` their joint
    states."""

    seg: np.ndarray
    idx: np.ndarray
    valid: np.ndarray
    cells: tuple
    states: np.ndarray

    def gather(self, v: np.ndarray) -> np.ndarray:
        """The n-length rows v, one per segment, restricted to S: zero past
        |S|."""
        x = np.zeros(self.idx.shape)
        x[self.cells] = v[self.cells[0], self.states]
        return x

    def scatter(self, x: np.ndarray, n: int) -> np.ndarray:
        """The rows x back in n-length form, zero outside S."""
        out = np.zeros((len(x), n))
        out[self.cells[0], self.states] = x[self.cells]
        return out


def _layout(masks: np.ndarray, seg: np.ndarray) -> _Layout:
    """The layout of the segments seg, whose subsystems are masks[seg]."""
    r, states = np.nonzero(masks[seg])
    sizes = np.bincount(r, minlength=len(seg))
    c = np.arange(len(r)) - (np.cumsum(sizes) - sizes)[r]
    idx = np.zeros((len(seg), int(sizes.max(initial=1))), dtype=np.intp)
    valid = np.zeros(idx.shape, dtype=bool)
    idx[r, c] = states
    valid[r, c] = True
    return _Layout(seg, idx, valid, (r, c), states)


def _block(m: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The blocks m[rows[t]][:, cols[t]] of an n x n matrix, stacked: every
    subsystem block of Q and W is gathered here."""
    return m[rows[:, :, None], cols[:, None, :]]


def _rows_dot(x: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The rows x[t] @ blocks[t]. Each sum runs over j in order, so zero
    padding past a row's subsystem, or zeros between its states, leave its
    result bitwise as it is on its own."""
    return np.einsum("tj,tjk->tk", x, blocks)


def _add_blocks(out: np.ndarray, groups: np.ndarray, rows: _Layout, cols: _Layout, blocks: np.ndarray) -> None:
    """out[groups[t]][S_rows[t] x S_cols[t]] += blocks[t] over the valid
    entries, so an (n x n) array per group is touched only on each block's
    |S_rows| x |S_cols| cells."""
    n = out.shape[-1]
    t, j, k = np.nonzero(rows.valid[:, :, None] & cols.valid[:, None, :])
    np.add.at(out.reshape(-1), (groups[t] * n + rows.idx[t, j]) * n + cols.idx[t, k], blocks[t, j, k])


def _transfer(w: np.ndarray, masks: np.ndarray, v: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The rows v[t] on S_src[t] times the block w[S_src, S_dst] (W at a
    forward rate boundary, W^T at a backward one), n-length again."""
    a, b = _layout(masks, src), _layout(masks, dst)
    return b.scatter(_rows_dot(a.gather(v), _block(w, a.idx, b.idx)), v.shape[1])


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
    segment needs: one reference row, so no table is built where every
    subsystem takes the Pade form."""
    return int(_poisson_terms(np.array([_SEGMENT_STIFFNESS_CAP]), _SWEEP_TAIL)[1][0])


class _Uniformization:
    """The split segments (mask S, dt) of a batch uniformized for the sweeps
    and the integrals alike: lambda = max_{i in S} |q_ii|, mu = lambda dt,
    P = I + Q_S / lambda and exp(Q_S s) = sum_a Pois(a; lambda s) P^a. A row
    v on S goes to v P = v * keep + (v @ W_S) * jump, with W_S the block of
    the joint off-diagonal W (its transpose for columns), so every term is
    nonnegative."""

    def __init__(self, q: IntensityMatrix, masks: np.ndarray, dts: np.ndarray):
        self.exit = np.abs(np.diagonal(q.entries))
        lam = _max_rate(self.exit, masks)
        # Q_S vanishes where no state of S has an exit; any rate uniformizes it.
        lam[lam == 0.0] = 1.0
        self.masks, self.w, self.lam, self.mu = masks, q.off_diagonal, lam, lam * dts
        self.sizes = masks.sum(axis=1)

    def keep_jump(self, lay: _Layout):
        """The rows ``keep`` and ``jump`` of P in the layout, zero past |S|."""
        lam = self.lam[lay.seg, None]
        return np.where(lay.valid, (lam - self.exit[lay.idx]) / lam, 0.0), lay.valid / lam


# How a split segment's exponential is applied: Pade block, series on the
# |S| x |S| block of W, or series on W itself where S is the joint space.
_PADE, _SERIES, _SERIES_FULL = 0, 1, 2


class _Propagator(_Uniformization):
    """exp(Q_S dt) of every segment (mask, dt) of a batch, applied to
    n-length message rows: ``forward(v, seg)`` gives the rows
    v[r] exp(Q_S dt) for segments seg[r], where each v[r] vanishes outside
    its mask, and ``backward(v, seg)`` the columns exp(Q_S dt) v[r] of v[r]
    projected onto its mask. Up to _PADE_MAX_STATES states batched Pade
    ``expm`` calls build each segment's |S| x |S| exponential once, one call
    per subsystem size over a slice of at most _BATCH_ELEMENTS // 8
    entries, kept flat in ``blocks``; above it the series in P is applied to
    the rows, each segment's cut where its own Poisson tail falls to
    _SWEEP_TAIL.
    """

    def __init__(self, q: IntensityMatrix, masks: np.ndarray, dts: np.ndarray):
        super().__init__(q, masks, dts)
        sizes = self.sizes
        self.kind = np.where(sizes <= _PADE_MAX_STATES, _PADE, np.where(sizes == q.n, _SERIES_FULL, _SERIES))
        pade = np.flatnonzero(self.kind == _PADE)
        pade = pade[np.argsort(sizes[pade], kind="stable")]
        area = sizes[pade] ** 2
        self.block_at = np.zeros(len(dts), dtype=np.intp)
        self.block_at[pade] = np.cumsum(area) - area
        # One zero past the blocks, read by the padding.
        self.blocks = np.zeros(int(area.sum()) + 1)
        for s in np.unique(sizes[pade]):
            segs = pade[sizes[pade] == s]
            idx = np.nonzero(masks[segs])[1].reshape(-1, s)
            step = max(1, _BATCH_ELEMENTS // 8 // (s * s))
            for lo in range(0, len(segs), step):
                k, ix = segs[lo : lo + step], idx[lo : lo + step]
                at = self.block_at[k[0]]
                self.blocks[at : at + len(k) * s * s] = expm(_block(q.entries, ix, ix) * dts[k, None, None]).ravel()
        series = np.flatnonzero(self.kind != _PADE)
        self.terms = np.ones(len(dts), dtype=int)
        self.weight_row = np.zeros(len(dts), dtype=np.intp)
        if series.size:
            self.terms[series] = _series_terms(self.mu[series], _SWEEP_TAIL)
            self.weight_row[series] = np.arange(series.size)
            self.weights = _poisson_weights(self.mu[series], self.terms[series])

    def forward(self, v: np.ndarray, seg: np.ndarray) -> np.ndarray:
        return self._apply(v, seg, False)

    def backward(self, v: np.ndarray, seg: np.ndarray) -> np.ndarray:
        return self._apply(v * self.masks[seg], seg, True)

    def _apply(self, v: np.ndarray, seg: np.ndarray, columns: bool) -> np.ndarray:
        """Each kind of segment on its own layout, padded to its widest S."""
        out = np.zeros_like(v)
        kinds = self.kind[seg]
        for kind in np.unique(kinds):
            rows = np.flatnonzero(kinds == kind)
            lay = _layout(self.masks, seg[rows])
            x = lay.gather(v[rows])
            x = self._pade(x, lay, columns) if kind == _PADE else self._series(x, lay, columns, kind == _SERIES_FULL)
            out[rows] = lay.scatter(x, v.shape[1])
        return out

    def _pade(self, x: np.ndarray, lay: _Layout, columns: bool) -> np.ndarray:
        """x[r] times segment r's exponential block, or its transpose for
        columns, gathered from ``blocks`` zero-padded to the layout."""
        ar = np.arange(lay.idx.shape[1])
        j, k = (ar, ar[:, None]) if columns else (ar[:, None], ar)
        at = self.block_at[lay.seg][:, None, None] + j * self.sizes[lay.seg][:, None, None] + k
        return _rows_dot(x, self.blocks[np.where(lay.valid[:, :, None] & lay.valid[:, None, :], at, -1)])

    def _series(self, x: np.ndarray, lay: _Layout, columns: bool, full: bool) -> np.ndarray:
        """sum_a weights[r, a] x[r] P_r^a; a row past its own cutoff adds
        zeros. Where S is the joint space, W_S is W itself and each row
        takes its own product by it."""
        w = self.w.T if columns else self.w
        if full:
            def times(v):
                return (v[:, None, :] @ w)[:, 0]
        else:
            blocks = _block(w, lay.idx, lay.idx)

            def times(v):
                return _rows_dot(v, blocks)

        keep, jump = self.keep_jump(lay)
        weights = self.weights[self.weight_row[lay.seg]]
        out = x * weights[:, :1]
        for a in range(1, int(self.terms[lay.seg].max())):
            x = x * keep + times(x) * jump
            out += x * weights[:, a, None]
        return out


class _Sweep(NamedTuple):
    """A batch of trajectories split into segments and swept forward, and
    once ``_backward_sweep`` has filled in its backward fields, backward.

    The rows of all trajectories are stacked: trajectory t owns segments
    ``seg_off[t]`` up to ``seg_off[t] + counts[t]`` and boundaries
    ``seg_off[t] + t`` up to ``seg_off[t] + t + counts[t]`` inclusive, so
    segment s of trajectory t starts at boundary s + t in global indices.
    ``times`` holds the boundary times, ``rate_before[k]`` marks a segment
    entered through an asserted transition; ``prop`` is their uniformization.
    ``log_probs_backward`` are the backward sweep's log-likelihoods.
    """

    p0: np.ndarray
    times: np.ndarray
    masks: np.ndarray
    dts: np.ndarray
    rate_before: np.ndarray
    prop: _Uniformization | None
    counts: np.ndarray
    seg_off: np.ndarray
    fwd: np.ndarray
    fwd_log: np.ndarray
    fwd_pre: np.ndarray
    fwd_pre_log: np.ndarray
    bwd: np.ndarray | None = None
    bwd_log: np.ndarray | None = None
    bwd_post: np.ndarray | None = None
    bwd_post_log: np.ndarray | None = None
    log_probs_backward: np.ndarray | None = None

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

    def segments(self, t: int) -> slice:
        return slice(self.seg_off[t], self.seg_off[t] + self.counts[t])

    def log_prob(self, t: int) -> float:
        return float(self.fwd_log[self.bounds(t).stop - 1])

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


def _lockstep(counts: np.ndarray, seg_off: np.ndarray):
    """Trajectory rows ordered by descending segment count, so the rows that
    still have a segment at position i are a prefix of length sizes[i]."""
    order = np.argsort(-counts, kind="stable")
    cnt = counts[order]
    sizes = np.searchsorted(-cnt, -np.arange(cnt[0] + 1), side="left")
    return cnt, seg_off[order], seg_off[order] + order, sizes


def _forward(q: IntensityMatrix, p0, evs: list) -> _Sweep:
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
        nxt = v[:a] * masks[seg + 1]
        rate = np.flatnonzero(rate_before[seg + 1])
        if rate.size:
            nxt[rate] = _transfer(prop.w, masks, v[rate], seg[rate], seg[rate] + 1)
        v, ls = _normalize_rows(nxt)
        lf = lf[:a] + ls
        fwd[b] = v
        fwd_log[b] = lf

    return _Sweep(
        p0, times, masks, dts, rate_before, prop, counts, seg_off, fwd, fwd_log, fwd_pre, fwd_pre_log,
    )


def _backward_sweep(q: IntensityMatrix, f: _Sweep, first: int = 0) -> _Sweep:
    """The batch f with its backward fields filled in. Raises
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
        rate = np.flatnonzero(f.rate_before[seg])
        if rate.size:
            v[rate] = _transfer(f.prop.w.T, masks, v[rate], seg[rate], seg[rate] - 1)
        v, ls = _normalize_rows(v)
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
    return f._replace(bwd=bwd, bwd_log=bwd_log, bwd_post=bwd_post, bwd_post_log=bwd_post_log,
                      log_probs_backward=log_probs)


def _backward(q: IntensityMatrix, evs: list, f: _Sweep, first: int = 0) -> list[MessageCache]:
    """The backward sweep of a forward-swept batch, cut into one message
    cache per trajectory that shares the batch, less its propagator;
    mismatch errors count trajectories from ``first``."""
    swept = _backward_sweep(q, f, first)._replace(prop=None)
    return [MessageCache(ev, q, swept, t) for t, ev in enumerate(evs)]


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
    tol = _TIME_EPS * max(1.0, ev.horizon)
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
    groups: np.ndarray,
    tol: float,
    dwell: np.ndarray,
    out: np.ndarray,
    rates: bool = True,
) -> None:
    """Add the pairwise integrals J[j, k] = int_0^dt f_j(s) b_k(s) ds of
    the segments ``rows`` of the uniformization u to group groups[r]: the
    diagonal to dwell[g] and W o J (J itself where ``rates`` is false) to
    out[g]. Row r has f(s) = f0[r] exp(Q_S s), b(s) = exp(Q_S (dt - s))
    beta[r] and Q_S is Q's block on the segment's subsystem S; f0 and beta
    are n-length, and only their entries on S are read, so J vanishes
    outside S x S, and a row with dt = 0 contributes zero.

    In the series of exp(Q_S s) in P, J = sum_{a,b} c_{a+b} F_a^T G_b with
    F_a = f0 P^a, G_b = P^b beta and c_k = Pois(k + 1; mu) / lambda. Each
    row's series stops where its own Poisson tail is below
    tol * _ROW_TAIL_SHARE (at least epsilon), which bounds the error of
    every column of J by tol * dt * |f0|_1 * max(beta). Rows go by size of
    S and then by series length, so that a slice's rows need about as many
    terms as its longest, in slices whose stacks of F, G, the weighted sums
    H_a = sum_b c_{a+b} G_b and the |S| x |S| blocks J stay within
    _BATCH_ELEMENTS // 8 entries; a slice of rows whose S is the joint
    space sums F^T H over each group's rows in one product instead.
    """
    m, n = f0.shape
    if m == 0:
        return
    mu, lam, sizes = u.mu[rows], u.lam[rows], u.sizes[rows]
    # Within a slice the series runs to the slice's longest and each row's
    # weights stop at its own cutoff, so a row's J does not depend on the
    # rows beside it.
    terms = _series_terms(mu, max(tol * _ROW_TAIL_SHARE, _SWEEP_TAIL))
    order = np.lexsort((terms, sizes))
    ordered = sizes[order]
    full = int(np.searchsorted(ordered, n))
    width = int(terms.max())

    def step(s):
        return max(1, _BATCH_ELEMENTS // 8 // (width * s + (s * s if s < n else 0)))

    lo = 0
    while lo < m:
        hi = min(full if lo < full else m, lo + step(ordered[lo]))
        hi = min(hi, lo + step(ordered[hi - 1]))
        s = int(ordered[hi - 1])
        sl = order[lo:hi]
        lo = hi
        r = rows[sl]
        kk = int(terms[sl].max()) - 1
        # H_a = sum_b c_{a+b} G_b for every a in one product: the window
        # view of c padded with kk zeros is the Hankel matrix of each row.
        c = np.pad(_poisson_weights(mu[sl], terms[sl], 1) / lam[sl, None], ((0, 0), (0, kk)))
        lay = _layout(u.masks, r)
        keep, jump = u.keep_jump(lay)
        if s == n:
            f = _powers(f0[sl], u.w, keep, jump, kk)
            h = sliding_window_view(c, kk + 1, axis=1) @ _powers(beta[sl], u.w.T, keep, jump, kk)
            for g, part in _grouped_products(f.reshape(-1, n), h.reshape(-1, n), np.repeat(groups[sl], kk + 1)):
                dwell[g] += np.diagonal(part)
                out[g] += u.w * part if rates else part
            continue
        w = _block(u.w, lay.idx, lay.idx)
        f = _powers(lay.gather(f0[sl]), w, keep, jump, kk)
        h = sliding_window_view(c, kk + 1, axis=1) @ _powers(lay.gather(beta[sl]), w.transpose(0, 2, 1), keep, jump, kk)
        j = f.transpose(0, 2, 1) @ h
        rr, cc = lay.cells
        np.add.at(dwell.reshape(-1), groups[sl][rr] * n + lay.states, j[rr, cc, cc])
        _add_blocks(out, groups[sl], lay, lay, w * j if rates else j)


def _powers(v: np.ndarray, w: np.ndarray, keep: np.ndarray, jump: np.ndarray, kk: int) -> np.ndarray:
    """The rows v P^a for a = 0 .. kk, stacked as (rows, kk + 1, width),
    where row r has v P = v * keep[r] + (v @ w_r) * jump[r]; w is one
    matrix for every row or a stack of per-row blocks."""
    out = np.empty((len(v), kk + 1, v.shape[1]))
    out[:, 0] = v
    for a in range(kk):
        v = v * keep + (v @ w if w.ndim == 2 else _rows_dot(v, w)) * jump
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
    n = q.shape[0]
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if not (alpha.shape == beta.shape == (n,) and np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise ValueError(f"alpha and beta must be finite vectors of length {n}")
    if not (math.isfinite(dt) and dt >= 0):
        raise ValueError(f"dt must be finite and nonnegative, got {dt!r}")
    _check_tol(tol)
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
    j = np.zeros((1, n, n))
    _convolution_batch(u, np.arange(pieces), f0, b1, np.zeros(pieces, dtype=np.intp), tol, np.zeros((1, n)), j, False)
    return j[0]


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


def _statistics(f: _Sweep, tol: float, groups: np.ndarray, first: int = 0) -> _Statistics:
    """Expected dwell times, transition counts and time-zero posteriors of
    the stacked segments and boundaries of a swept batch, summed per
    group: trajectory t adds to group groups[t], and a trajectory whose
    group is negative is skipped.

    A positive-length segment restricted to one state adds its duration
    where it carries mass (the integrand is constant). The factor of an
    asserted transition into segment k acts at its first boundary i, from
    S1 = mask k - 1 into S2 = mask k; its posterior counts are the block
    W[S1, S2] o outer(a, b) / (a W[S1, S2] b) with a = fwd_pre[i] on S1 and
    b = bwd_post[i] on S2. Every
    other positive-length segment runs from fwd[i] to the end-of-segment
    message bwd[i + 1]; scaled by exp(bwd_log[i + 1] - bwd_post_log[i]),
    exp(Q_S dt) carries that to bwd_post[i], and dividing by the segment's
    evidence mass fwd[i] . bwd_post[i] (zero where it has none) makes it
    the right vector of the segment's convolution integrals, all of which
    go through one call of the uniformization kernel. The time-zero
    posterior is fwd * bwd_post, normalized, at the last boundary at t = 0.
    The trajectories of the groups must have mass (the callers check);
    ``ZeroProbabilityEvidenceError`` is raised for one whose time-zero
    posterior has none, its index counted from ``first``.
    """
    asked = groups >= 0
    n = f.fwd.shape[1]
    n_groups = int(groups.max(initial=-1)) + 1
    seg_traj = np.repeat(np.arange(len(f.counts)), f.counts)
    seg_group = groups[seg_traj]
    seg_asked = asked[seg_traj]
    start = np.arange(len(f.dts)) + seg_traj
    dwell = np.zeros((n_groups, n))
    trans = np.zeros((n_groups, n, n))
    sizes = f.prop.sizes
    pos = (f.dts > 0.0) & seg_asked

    sing = np.flatnonzero(pos & (sizes == 1))
    jj = f.masks[sing].argmax(axis=1)
    alive = f.fwd[start[sing], jj] * f.bwd_post[start[sing], jj] > 0.0
    np.add.at(dwell, (seg_group[sing][alive], jj[alive]), f.dts[sing][alive])

    rates = np.flatnonzero(f.rate_before & seg_asked)
    step = max(1, _BATCH_ELEMENTS // 8 // int((sizes[rates - 1] * sizes[rates]).max(initial=1)))
    for lo in range(0, len(rates), step):
        rate = rates[lo : lo + step]
        src, dst = _layout(f.masks, rate - 1), _layout(f.masks, rate)
        i = start[rate]
        counts = (_block(f.prop.w, src.idx, dst.idx) * src.gather(f.fwd_pre[i])[:, :, None]
                  * dst.gather(f.bwd_post[i])[:, None, :])
        totals = counts.sum(axis=(1, 2))
        # A boundary without mass has no counts, all zero already.
        counts /= np.where(totals > 0.0, totals, 1.0)[:, None, None]
        _add_blocks(trans, seg_group[rate], src, dst, counts)

    general = np.flatnonzero(pos & (sizes > 1))
    i = start[general]
    inner = np.einsum("mi,mi->m", f.fwd[i], f.bwd_post[i])
    ok = inner > 0.0
    log_scale = f.bwd_log[i + 1] - np.where(ok, f.bwd_post_log[i], 0.0)
    beta = f.bwd[i + 1] * np.where(ok, np.exp(log_scale) / np.where(ok, inner, 1.0), 0.0)[:, None]
    _convolution_batch(f.prop, general, f.fwd[i], beta, seg_group[general], tol, dwell, trans)

    horizons = f.times[f.starts + f.counts]
    at_zero = np.abs(f.times) <= _TIME_EPS * np.maximum(1.0, np.repeat(horizons, f.counts + 1))
    who = np.flatnonzero(asked)
    i = np.maximum.reduceat(np.where(at_zero, np.arange(len(f.times)), -1), f.starts)[who]
    raw = f.fwd[i] * f.bwd_post[i]
    mass = raw.sum(axis=1)
    if not (mass > 0.0).all():
        k = int(np.flatnonzero(~(mass > 0.0))[0])
        t = int(who[k])
        raise ZeroProbabilityEvidenceError(int(i[k] - f.starts[t]), first + t)
    initial = np.zeros((n_groups, n))
    np.add.at(initial, groups[who], raw / mass[:, None])
    return _Statistics(dwell, trans, initial, f.log_probs)


def _grouped_products(a: np.ndarray, b: np.ndarray, groups: np.ndarray):
    """Pairs (g, a[rows].T @ b[rows]) over the runs of rows with one group
    g = groups[row]."""
    cuts = np.flatnonzero(np.diff(groups)) + 1
    for lo, hi in zip(np.concatenate(([0], cuts)), np.concatenate((cuts, [len(a)]))):
        yield groups[lo], a[lo:hi].T @ b[lo:hi]


def _e_step_batches(q: IntensityMatrix, p0, evs: list, tol: float):
    """The E-step over many trajectories: per lockstep batch, its expected
    statistics summed over the batch (one group) and its log-likelihoods.
    Trajectory indices in errors count across batches."""
    _check_tol(tol)
    first = 0
    for batch in _batches(evs, q.n):
        f = _backward_sweep(q, _forward(q, p0, batch), first)
        f.raise_if_impossible(first)
        yield _statistics(f, tol, np.zeros(len(batch), dtype=np.intp), first)
        first += len(batch)


def expected_statistics_many(caches, tol: float = DEFAULT_QUAD_TOL) -> list[FlatStatistics]:
    """Expected statistics for many trajectories at once. The caches cut
    from one swept batch go through the same statistics kernel as the
    E-step, once, on that batch's arrays, one group per trajectory; the
    batch's other trajectories are skipped."""
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
            pending.setdefault(id(cache._sweep), []).append(idx)

    for idxs in pending.values():
        q, sweep = caches[idxs[0]].q, caches[idxs[0]]._sweep
        rows = [caches[idx]._t for idx in idxs]
        # A trajectory asked for twice takes the group of its last entry.
        groups = np.full(len(sweep.counts), -1)
        groups[rows] = np.arange(len(rows))
        s = _statistics(sweep._replace(prop=_Uniformization(q, sweep.masks, sweep.dts)), tol, groups)
        for idx, t in zip(idxs, rows):
            g = groups[t]
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
