"""Exact smoothing and expected sufficient statistics under subsystem evidence.

Evidence only restricts the joint process: while a segment holds it in a
subsystem S, its generator is Q_S, Q restricted to S. Between consecutive
segments whose subsystems are disjoint, the evidence asserts a transition
and the boundary factor is W[S1, S2], the rates of Q's off-diagonal W from
S1 into S2; when the subsystems overlap, the boundary is a projection onto
the next subsystem (zero-length segments therefore act as plain
indicators). W is Q's transition list, (src, dst, rate) sorted by source
and destination, n * sum(d_v - 1) entries for a CTBN; every product by W
reads the transitions ``_restrict`` cuts from it in subsystem coordinates,
each with its index in the list.
The scaled boundary messages are n-length rows over the joint space; every
segment gathers its rows to S, works on |S|-length rows, and scatters the
result back, so a segment costs O(|S|^2) per product plus O(n) at its
boundaries.

Many trajectories under one Q are swept in lockstep, one row each, and
both sweeps in one loop: step i carries every forward message across its
trajectory's i-th segment and every backward message across its i-th
segment from the end, so the Python loop runs once per segment position of
a batch. A plan built once per batch (``_Plan``) holds each step's rows,
grouped by kind, where their exponential blocks sit, the message slots
they fill and the transitions of the rate boundaries they cross. A step
pads its table rows, forward and backward, to the largest |S| among them
and takes one product for them all (``_Propagator.propagate``, the one
kernel, which also serves ``smoothed_marginal`` and
``convolution_integrals`` as one-step plans).
One memory budget, ``_BATCH_ELEMENTS``, sizes the batches, and the
power tables, the exponentials and the integrals' kernel work in slices of
an eighth of it. A batch's split segments are uniformized once (lambda =
the largest exit rate in S, P = I + Q_S / lambda, both fixed by the mask
alone), and both jobs read that: exp(Q_S dt) = sum_a Pois(a; lambda dt)
P^a carries the messages across each segment, and the expected dwell times
and transition counts are pairwise convolution integrals over each
segment, read at the diagonal and at the transitions of S. Up to
``_TABLE_MAX_STATES`` states the sweeps table the powers P^a once per
distinct mask, so the segments of one mask take their exponential blocks
from one product; the integrals, linear in each segment's outer product of
its end vectors, sum those products per bucket of one mask and one group,
weighted per series term, and run the double series once per bucket,
from the top term down by Horner in P. Above it, the joint space included,
both series are applied to the rows term by term. One Poisson routine
weights both series, each row cut at its own tail bound. Every
product of the sweeps sums its terms in a fixed order that zero padding
does not change, so a trajectory's sweeps do not depend on the rows swept
beside it.

One loop, ``_sweeps``, batches the trajectories for the E-step, scoring
and ``forward_backward_many`` and sweeps each batch with ``_sweep``. A
swept batch has one layout: its segments, boundaries and messages
stacked in one set of arrays. One statistics kernel reads them and returns the batch's dwell
times, transition counts and time-zero posteriors summed over groups of
its trajectories, and every trajectory's log-likelihood; a count is
nonzero only on a transition of W, so the counts are kept by transition,
one per entry of W's list. The E-step sums each batch as one group and
builds nothing per trajectory. ``forward_backward_many`` cuts each batch
into message caches, read-only views of one trajectory's rows that share
the batch's arrays; ``expected_statistics_many`` runs the kernel once per
batch on those arrays, one group per trajectory asked for, and scatters
each one's counts onto an n x n matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .evidence import Evidence
from .markov import _TIME_EPS, IntensityMatrix, validate_distribution

__all__ = [
    "DEFAULT_QUAD_TOL",
    "FORWARD_BACKWARD_TOL",
    "ZeroProbabilityEvidenceError",
    "StepUnderflowError",
    "ForwardBackwardMismatchError",
    "MessageCache",
    "FlatStatistics",
    "forward_backward",
    "forward_backward_many",
    "smoothed_marginal",
    "expected_statistics",
    "expected_statistics_many",
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
    """Expected dwell times (an n-vector) and transition counts (an n x n
    matrix) of the flat process; the E-step keeps its counts by transition."""

    dwell: np.ndarray
    transitions: np.ndarray


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
        self._sweep, self._t = sweep, t

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


def _split_batch(exit: np.ndarray, evs: list):
    """Split the evidence segments of a batch that are stiffer than the cap,
    by the joint generator's exit rates ``exit``, into equal pieces, all
    trajectories in one step. Returns the stacked
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
    chunks = np.maximum(1, np.ceil(_max_rate(exit, masks) * dts / _SEGMENT_STIFFNESS_CAP).astype(int))
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


# The largest subsystem served from the shared power tables: a segment of
# at most this many states takes its |S| x |S| exponential block from its
# mask's table of P^a, and its integrals from its bucket's recursion in the
# dense P; a larger one is applied to the rows as a uniformization series,
# which builds no block but takes one Python-level step per term. The
# crossover was measured for per-segment dense blocks, before the tables,
# on rings whose every segment has one |S| (30 segments per trajectory):
# blocks scored 1.05-1.8x faster up to |S| = 16, at 32 they were 1.1x
# faster for one trajectory and 1.4x slower for ten, at 64 and up slower
# throughout (CHANGES.md has the table).
_TABLE_MAX_STATES = 16

# The sweeps cut their series where the Poisson tail is at most this, so the
# messages are exact to rounding.
_SWEEP_TAIL = float(np.finfo(float).eps)

# Trajectories are swept in lockstep, one batch at a time, so the Python
# loop over segment positions runs once per batch rather than once per
# trajectory. This is the one memory knob: a batch is a run of consecutive
# trajectories whose estimate (``_entries``) stays within this many array
# entries, and the power tables, the exponential blocks and the convolution
# kernel work in slices of an eighth of it.
_BATCH_ELEMENTS = 1 << 19


def _entries(sizes: np.ndarray, segments: np.ndarray, n: int, width: int) -> np.ndarray:
    """The array entries the sweeps hold for each of the trajectories of
    ``segments`` evidence segments, whose subsystems have ``sizes`` states
    one after the other: each segment's n-length mask row and its
    exponential block (|S|^2), or its series weights, ``width`` of them at
    the stiffness cap, and its |S|-length ``keep`` and ``jump`` rows. Where
    every subsystem takes a block (n up to _TABLE_MAX_STATES) the four
    n-length message rows per boundary are counted too. Segments split for
    stiffness count once, and larger models count the mask row in place of
    the message rows, as counting either in full would keep a few short
    trajectories of a mid-size model from sharing a batch; the message
    rows stay within four times the mask rows. The batch's state rows, one
    row of at most n indices per segment, count as the mask row. The
    lockstep plan (``_Plan``), a dozen indices per split segment, is not
    counted apart; on the tests' data it held under half of this
    count."""
    rows = 4 * n if n <= _TABLE_MAX_STATES else 0
    blocks = np.where(sizes <= _TABLE_MAX_STATES, sizes * sizes, width + 2 * sizes) + n + rows
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
    it the row is padded to the widest subsystem (valid False, idx 0)."""

    seg: np.ndarray
    idx: np.ndarray
    valid: np.ndarray

    def gather(self, v: np.ndarray) -> np.ndarray:
        """The n-length rows v, one per segment, restricted to S: zero past
        |S|."""
        return np.where(self.valid, v[np.arange(len(v))[:, None], self.idx], 0.0)

    def at(self, rows: np.ndarray, n: int) -> np.ndarray:
        """Where the layout's entries sit in a message buffer (``_buffer``)
        of n-length rows, segment r's in row rows[r]; _FAR past |S|."""
        return np.where(self.valid, self.idx + rows[:, None] * n, _FAR)


# Padding of the segments' state rows, the sweeps' gather indices and the
# block templates: far past any array, so a clipped take reads, and a
# clipped put writes, the zero that every message buffer and block store
# keeps at its end. Even times n, or times a row count, it stays within 64
# bits.
_FAR = 1 << 40


def _states(masks: np.ndarray) -> np.ndarray:
    """The states of every segment, whose subsystems are the masks,
    ascending, one row each, padded with _FAR to the widest subsystem."""
    r, states = np.nonzero(masks)
    sizes = np.bincount(r, minlength=len(masks))
    c = np.arange(len(r)) - (np.cumsum(sizes) - sizes)[r]
    out = np.full((len(masks), int(sizes.max(initial=1))), _FAR, dtype=np.intp)
    out[r, c] = states
    return out


def _mask_ids(masks: np.ndarray):
    """A number per mask, shared by equal masks, and the first mask of each
    number: the masks packed into 64-bit words and numbered by sorting."""
    packed = np.packbits(masks, axis=1)
    words = np.zeros((len(masks), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    keys = words.view(np.uint64)
    _, first, ids = np.unique(keys[:, 0] if keys.shape[1] == 1 else keys, axis=None if keys.shape[1] == 1 else 0,
                              return_index=True, return_inverse=True)
    return ids.reshape(-1), first


def _ranges(lo: np.ndarray, count: np.ndarray):
    """The runs lo[r] .. lo[r] + count[r] - 1 one after the other, as a
    running sum of steps, and the r of each of their entries."""
    has = np.flatnonzero(count)
    lo, count = lo[has], count[has]
    at = np.cumsum(count) - count
    e = np.ones(int(count.sum()), dtype=np.intp)
    e[at] = lo
    e[at[1:]] -= lo[:-1] + count[:-1] - 1
    return np.cumsum(e), np.repeat(has, count)


def _restrict(joint: tuple, a: _Layout, b: _Layout, masks: np.ndarray):
    """The transitions (src, dst, rate) of the joint list from row r of the
    layout a into row r of b, whose segments' masks are ``masks``, in their
    coordinates: (r, j, k, e) for a.idx[r, j] -> b.idx[r, k], the joint
    list's entry e, sorted by r, j and k."""
    src, dst, _ = joint
    r, j = np.nonzero(a.valid)
    state = a.idx[r, j]
    start = np.searchsorted(src, np.arange(int(state.max(initial=0)) + 2))
    e, at = _ranges(start[state], np.diff(start)[state])
    inside = masks[b.seg[r[at]], dst[e]]
    r, j, e = r[at][inside], j[at][inside], e[inside]
    # Each destination's place in its row of b, whose keys ascend.
    br, k = np.nonzero(b.valid)
    return r, j, k[np.searchsorted(br * _FAR + b.idx[br, k], r * _FAR + dst[e])], e


def _rows_dot(x: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The rows x[t] @ blocks[t]. Each sum runs over j in order, so zero
    padding past a row's subsystem, or zeros between its states, leave its
    result bitwise as it is on its own. einsum sums over j in order only
    where blocks have two columns or more: one column is summed in an
    order set by the row length, so it takes a zero column beside it."""
    if blocks.shape[2] == 1:
        return np.einsum("tj,tjk->tk", x, np.concatenate([blocks, np.zeros_like(blocks)], axis=2))[:, :1]
    return np.einsum("tj,tjk->tk", x, blocks)


def _runs_dot(x: np.ndarray, mats: np.ndarray, starts: list, ordered: bool = False,
              out: np.ndarray | None = None) -> np.ndarray:
    """The rows x[r] @ mats[g] for the rows of run g, starts[g] <= r <
    starts[g + 1]: one product per run. ``ordered`` sums over j in order,
    as ``_rows_dot`` does, so a row's result does not depend on the rows
    beside it nor on zeros past its own columns of x; otherwise each run is
    one GEMM."""
    out = np.empty((len(x), mats.shape[-1])) if out is None else out
    for g, (lo, hi) in enumerate(zip(starts, starts[1:])):
        if ordered:
            np.einsum("rj,jk->rk", x[lo:hi], mats[g], out=out[lo:hi])
        else:
            np.matmul(x[lo:hi], mats[g], out=out[lo:hi])
    return out


def _power_tables(p: np.ndarray, count: int) -> np.ndarray:
    """The powers P^a of each matrix of the stack p (k x s x s), a below
    count rounded up to a power of two, stacked (k, a, s, s), by doubling:
    P^(h + j) = P^j P^h for j below h, one stacked product per doubling.
    Every product has the shape of its doubling step alone, so each power
    comes out bitwise the same however long the table or deep the stack."""
    k, s = len(p), p.shape[-1]
    span = 1 << max(0, count - 1).bit_length()
    out = np.empty((k, span, s, s))
    out[:, 0] = np.eye(s)
    h = 1
    while h < span:
        ph = p if h == 1 else out[:, h // 2] @ out[:, h // 2]
        out[:, h : 2 * h] = (out[:, :h].reshape(k, h * s, s) @ ph).reshape(k, h, s, s)
        h *= 2
    return out


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
    them; log 0 is taken as -1e300, so that 0 log 0 is 0 and every higher
    power of mu = 0 has a weight of 0."""
    a = np.arange(int(terms.max()))
    log_mu = np.log(mu, out=np.full(mu.shape, -1e300), where=mu > 0.0)
    pmf = np.multiply.outer(log_mu, a + skip)
    pmf -= mu[:, None]
    pmf -= _log_factorials(len(a) + skip)[skip:]
    np.exp(pmf, out=pmf)
    pmf[a >= terms[:, None]] = 0.0
    return pmf


def _series_width() -> int:
    """The sweeps' series terms at the stiffness cap, the most any split
    segment needs: one reference row, so no pmf table is built where
    every subsystem takes a block."""
    return int(_poisson_terms(np.array([_SEGMENT_STIFFNESS_CAP]), _SWEEP_TAIL)[1][0])


class _Uniformization:
    """The split segments (mask S, dt) of a batch uniformized for the sweeps
    and the integrals alike: lambda = max_{i in S} |q_ii|, mu = lambda dt,
    P = I + Q_S / lambda and exp(Q_S s) = sum_a Pois(a; lambda s) P^a. A row
    v on S goes to v P = v * keep + (v W_S) * jump, with W_S the rates of W
    within S (W_S^T for columns), so every term is nonnegative. lambda and P
    depend on the mask alone: each distinct mask (``mask_id``) has its
    lambda taken, from Q's exit rates, and its transitions cut from Q's
    list ``joint`` once, with their indices in it,
    which every product by W_S reads (``transitions``, ``times``) and from
    which ``matrices`` builds the dense P of segments of 2 to
    _TABLE_MAX_STATES states (``tabled``): the sweeps' power tables and the
    integrals' recursion start from it.
    ``states`` lists every segment's states once; ``cut`` lays out any
    segments from it."""

    def __init__(self, q: IntensityMatrix, masks: np.ndarray, dts: np.ndarray):
        self.exit = q.exit_rates
        self.mask_id, heads = _mask_ids(masks)
        lam = _max_rate(self.exit, masks[heads])[self.mask_id]
        # Q_S vanishes where no state of S has an exit; any rate uniformizes it.
        lam[lam == 0.0] = 1.0
        self.masks, self.joint, self.lam, self.mu = masks, q.transitions, lam, lam * dts
        self.sizes = masks.sum(axis=1)
        self.states = _states(masks)
        self.tabled = (self.sizes > 1) & (self.sizes <= _TABLE_MAX_STATES)
        lay = self.cut(heads)
        d, *self.edges = _restrict(self.joint, lay, lay, masks)
        self.edge_count = np.bincount(d, minlength=len(heads))
        self.edge_at = np.cumsum(self.edge_count) - self.edge_count

    def cut(self, seg: np.ndarray) -> _Layout:
        """The layout of the segments seg, padded to their widest S."""
        states = self.states.take(seg, axis=0)[:, : int(self.sizes.take(seg).max(initial=1))]
        valid = states != _FAR
        return _Layout(seg, np.where(valid, states, 0), valid)

    def transitions(self, seg: np.ndarray):
        """The transitions within the subsystem of each segment seg, from
        its mask's list: (r, j, k, e), e indexing the joint list, sorted by
        r, j and k."""
        ids = self.mask_id.take(seg)
        e, r = _ranges(self.edge_at.take(ids), self.edge_count.take(ids))
        return (r, *(a.take(e) for a in self.edges))

    def between(self, a: np.ndarray, b: np.ndarray):
        """The transitions from the subsystem of segment a[r] into that of
        b[r]: (r, e), e indexing the joint list, sorted by r and e, cut once
        per distinct pair of masks."""
        _, first, pair = np.unique(self.mask_id[a] * (self.mask_id.max(initial=0) + 1) + self.mask_id[b],
                                   return_index=True, return_inverse=True)
        p, _, _, e = _restrict(self.joint, self.cut(a[first]), self.cut(b[first]), self.masks)
        count = np.bincount(p, minlength=len(first))
        at, r = _ranges((np.cumsum(count) - count)[pair], count[pair])
        return r, e[at]

    def times(self, lay: _Layout, columns: np.ndarray):
        """u -> the layout's rows u times their W_S (W_S^T where columns[r]),
        each entry summed over its row's transitions in (j, k) order."""
        r, j, k, e = self.transitions(lay.seg)
        rate, c, width = self.joint[2].take(e), columns.take(r), lay.idx.shape[1]
        frm, to = r * width + np.where(c, k, j), r * width + np.where(c, j, k)
        return lambda u: np.bincount(to, u.reshape(-1).take(frm) * rate, u.size).reshape(-1, width)

    def keep_jump(self, lay: _Layout):
        """The rows ``keep`` and ``jump`` of P in the layout, zero past |S|."""
        lam = self.lam[lay.seg, None]
        return np.where(lay.valid, (lam - self.exit[lay.idx]) / lam, 0.0), lay.valid / lam

    def matrices(self, seg: np.ndarray) -> np.ndarray:
        """P of each segment seg, whose subsystems all have s states:
        stacked (len(seg), s, s)."""
        lay = self.cut(seg)
        s = lay.idx.shape[1]
        lam = self.lam[seg, None]
        r, j, k, e = self.transitions(seg)
        p = np.zeros((len(seg), s, s))
        p[r, j, k] = self.joint[2].take(e) / lam[r, 0]
        p[:, np.arange(s), np.arange(s)] = (lam - self.exit[lay.idx]) / lam
        return p


def _slices(pos: np.ndarray, sizes: np.ndarray, run: np.ndarray, terms: np.ndarray, run_entries):
    """Cut the rows pos, sorted by size and, within a size, into runs of one
    key ``run``, into slices of one size. Yields, per slice, its rows and
    the starts of its runs (and the slice's length). A slice's rows,
    width + s * s entries each at |S| = s and ``width`` terms, the most
    among its rows and those after it of its size, and its runs,
    ``run_entries(s, width)`` entries each, stay within _BATCH_ELEMENTS // 8
    entries where one row and one run fit; a slice that opens inside a run
    counts that run too."""
    for grp in np.split(pos, np.flatnonzero(np.diff(sizes[pos])) + 1):
        if not grp.size:
            continue
        s = int(sizes[grp[0]])
        widths = np.maximum.accumulate(terms[grp][::-1])[::-1]
        new = np.r_[True, run[grp][1:] != run[grp][:-1]]
        opened = np.cumsum(new)
        lo = 0
        while lo < len(grp):
            width = int(widths[lo])
            # No more rows than this fit, so the slicing stays linear in rows.
            end = min(len(grp), lo + _BATCH_ELEMENTS // 8 // (s * s) + 1)
            cost = (np.arange(1, end - lo + 1) * (width + s * s)
                    + (opened[lo:end] - opened[lo] + 1) * run_entries(s, width))
            hi = lo + max(1, int(np.searchsorted(cost, _BATCH_ELEMENTS // 8, side="right")))
            part = grp[lo:hi]
            lo = hi
            yield part, [*np.flatnonzero(np.r_[True, run[part][1:] != run[part][:-1]]).tolist(), len(part)]


@lru_cache(maxsize=2)
def _templates(p: int) -> np.ndarray:
    """Where entry (j, k) of a padded s x s exponential block sits past the
    block's start, for s up to p states, in row s of a row message and row
    p + 1 + s of a column message (the transposed block): j s + k or
    k s + j inside the block, _FAR in the padding. Called with
    _TABLE_MAX_STATES as it stands when a step runs, which tests vary."""
    j, k, s = np.arange(p)[:, None], np.arange(p), np.arange(p + 1)[:, None, None]
    inside = (j < s) & (k < s)
    out = np.concatenate([np.where(inside, j * s + k, _FAR), np.where(inside, k * s + j, _FAR)])
    out.flags.writeable = False
    return out


class _Step(NamedTuple):
    """The rows of one propagation: row r carries row src[r] of the input
    across its segment seg[r], by the columns of the exponential where
    ``columns[r]`` (a backward message), to row dst[r] of the output; a
    table row finds its padded block in the templates' row tmpl[r] from
    blocks[at[r]] on. Input and output are message buffers (``_buffer``).
    The first ``tables`` rows are table rows, the rest series rows, row and
    column messages mixed in each; ``width`` is the widest table row's S."""

    seg: np.ndarray
    columns: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    tmpl: np.ndarray
    at: np.ndarray
    tables: int
    width: int


def _buffer(rows: int, n: int):
    """A message buffer: ``rows`` n-length rows one after the other and one
    zero past them, which every padded gather reads and every padded
    result, a zero, is written to. Returns the flat buffer and its rows."""
    flat = np.zeros(rows * n + 1)
    return flat, flat[:-1].reshape(rows, n)


class _Propagator(_Uniformization):
    """exp(Q_S dt) of every segment (mask, dt) of a batch, applied to
    message rows by one kernel, ``propagate``: a row message v goes to
    v exp(Q_S dt), a column message to exp(Q_S dt) v projected onto the
    mask. Up to _TABLE_MAX_STATES states each segment's |S| x |S|
    exponential is built once, kept flat in ``blocks`` before one zero: one
    state takes e^(q_ii dt), and the segments of one mask take
    sum_a Pois(a; mu) P^a from its power table in one product, cut where
    each segment's own Poisson tail falls to _SWEEP_TAIL. Above it the
    series in P is applied to the rows, each segment's cut alike.
    """

    def __init__(self, q: IntensityMatrix, masks: np.ndarray, dts: np.ndarray):
        super().__init__(q, masks, dts)
        sizes = self.sizes
        self.series = sizes > _TABLE_MAX_STATES
        table = np.flatnonzero(~self.series)
        one = table[sizes[table] == 1]
        self.blocks = np.zeros(int((sizes[table] ** 2).sum()) + 1)
        self.block_at = np.zeros(len(dts), dtype=np.intp)
        self.block_at[one] = np.arange(len(one))
        self.blocks[: len(one)] = np.exp(-self.exit[self.states[one, 0]] * dts[one])
        at = len(one)
        # The tabled segments by size and mask, each slice's runs of one
        # mask sharing one power table P^a, a below its longest series.
        tabled = np.flatnonzero(self.tabled)
        terms = _series_terms(self.mu[tabled], _SWEEP_TAIL)
        ids = self.mask_id[tabled]
        pos = np.lexsort((terms, ids, sizes[tabled]))
        for part, starts in _slices(pos, sizes[tabled], ids, terms,
                                    lambda s, width: (1 << (width - 1).bit_length()) * s * s):
            seg = tabled[part]
            s = int(sizes[seg[0]])
            powers = _power_tables(self.matrices(seg[starts[:-1]]), int(terms[part].max()))
            weights = _poisson_weights(self.mu[seg], terms[part])
            self.block_at[seg] = at + np.arange(len(seg)) * s * s
            out = self.blocks[at : at + len(seg) * s * s].reshape(len(seg), s * s)
            mats = powers.reshape(len(powers), -1, s * s)[:, : weights.shape[1]]
            _runs_dot(weights, mats, starts, ordered=True, out=out)
            at += len(seg) * s * s
        series = np.flatnonzero(self.series)
        self.terms = np.ones(len(dts), dtype=int)
        self.weight_row = np.zeros(len(dts), dtype=np.intp)
        if series.size:
            self.terms[series] = _series_terms(self.mu[series], _SWEEP_TAIL)
            self.weight_row[series] = np.arange(series.size)
            self.weights = _poisson_weights(self.mu[series], self.terms[series])

    def step(self, seg: np.ndarray, columns: np.ndarray) -> _Step:
        """A one-step plan: row r of the input across segment seg[r] to row r
        of the output."""
        order = np.argsort(self.series[seg], kind="stable")
        seg, columns = seg[order], columns[order]
        table = ~self.series[seg]
        return _Step(seg, columns, order, order, *self.blocks_of(seg, columns), int(table.sum()),
                     int(self.sizes[seg][table].max(initial=0)))

    def blocks_of(self, seg: np.ndarray, columns: np.ndarray):
        """The template rows and block starts of the table rows seg."""
        return self.sizes[seg] + (_TABLE_MAX_STATES + 1) * columns, self.block_at[seg]

    def apply(self, v: np.ndarray, seg: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """The n-length rows v[r] carried across segments seg[r], as column
        messages where columns[r]."""
        flat, rows = _buffer(*v.shape)
        rows[:] = v
        out, out_rows = _buffer(*v.shape)
        self.propagate(flat, self.step(seg, columns), out)
        return out_rows

    def forward(self, v: np.ndarray, seg: np.ndarray) -> np.ndarray:
        return self.apply(v, seg, np.zeros(len(seg), dtype=bool))

    def backward(self, v: np.ndarray, seg: np.ndarray) -> np.ndarray:
        # Kept beside ``forward`` for the tests of the exponential blocks.
        return self.apply(v, seg, np.ones(len(seg), dtype=bool))

    def propagate(self, v: np.ndarray, step: _Step, out: np.ndarray) -> None:
        """The one propagation kernel: writes the rows of ``step`` from the
        message buffer v to the buffer out. The table rows take one
        product, row and column messages together, the series rows one per
        term alike; the gather to S projects a column message. Table rows
        read their padded blocks from ``blocks`` through the templates,
        zero past |S|, and every sum runs over j in order, so a row's result
        does not depend on the rows beside it."""
        n = self.masks.shape[1]
        tables, ends, tw = step.tables, len(step.seg), step.width
        if tables:
            seg = step.seg[:tables]
            idx = self.states[seg, :tw]
            x = v.take(idx + step.src[:tables, None] * n, mode="clip")
            at = _templates(_TABLE_MAX_STATES)[step.tmpl[:tables], :tw, :tw]
            at += step.at[:tables, None, None]
            y = _rows_dot(x, self.blocks.take(at, mode="clip"))
            np.put(out, idx + step.dst[:tables, None] * n, y, mode="clip")
        if ends > tables:
            lay = self.cut(step.seg[tables:ends])
            x = v.take(lay.at(step.src[tables:ends], n), mode="clip")
            y = self._series(x, lay, self.times(lay, step.columns[tables:ends]))
            np.put(out, lay.at(step.dst[tables:ends], n), y, mode="clip")

    def cross(self, out: np.ndarray, row: np.ndarray, back: np.ndarray, r: np.ndarray, e: np.ndarray) -> None:
        """Carry the rows ``row`` of the message buffer out across rate
        boundaries, in place: transition i, entry e[i] (src, dst, rate) of
        the joint list, takes rate times entry src of row row[r[i]] to dst
        (the other way where back[r[i]])."""
        n = self.masks.shape[1]
        r = r.astype(np.intp)
        src, dst, rate = (a.take(e) for a in self.joint)
        flip = back.take(r)
        frm, to = np.where(flip, dst, src), np.where(flip, src, dst)
        x = out.take(row.astype(np.intp).take(r) * n + frm) * rate
        out[:-1].reshape(-1, n)[row] = np.bincount(r * n + to, x, len(row) * n).reshape(-1, n)

    def _series(self, x: np.ndarray, lay: _Layout, times) -> np.ndarray:
        """sum_a weights[r, a] x[r] P_r^a, with x P = x * keep + times(x) * jump;
        a row past its own cutoff adds zeros."""
        keep, jump = self.keep_jump(lay)
        weights = self.weights[self.weight_row[lay.seg]]
        out = x * weights[:, :1]
        for a in range(1, int(self.terms[lay.seg].max())):
            x = x * keep + times(x) * jump
            out += x * weights[:, a, None]
        return out


class _Sweep(NamedTuple):
    """A batch of trajectories split into segments and swept forward and,
    where ``_sweep`` ran both sweeps, backward.

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


class _Plan:
    """The steps of a batch's lockstep loop, planned once and shared by its
    two sweeps. Step i carries the forward messages of every trajectory
    with a segment i across it, and with ``backward`` the backward messages
    across the i-th segment from the end, a row each: the backward rows
    first, then the forward ones, in lockstep order (``_lockstep``). After
    the step, every backward row and the forward rows of trajectories with
    a segment i + 1 cross the boundary to their next segment, and those
    rows, in that order, are the next step's input.

    Per row, in step order and by kind within a step (``_Step``): its
    segment, direction, input and output rows; per step, the count and the
    width of its table rows and the offsets of its rows in ``rows``. The
    boundaries whose messages each step writes after its exponentials
    (``after``: ``bwd_post`` of a backward row, ``fwd_pre`` of a forward
    one) and after its boundary (``crossed``: ``bwd`` and ``fwd``), in the
    order of its output rows, and the segment whose mask projects
    each forward row across the boundary (``project``). The rate
    boundaries crossed at each step: the row, the segments it leaves and
    enters and the transitions between them, as indices into the joint
    list (``_Propagator.cross``). Every
    array is O(segments) long, the transitions O(|S1|) per boundary and
    state's exits; no padded index or block is kept.
    """

    def __init__(self, prop: _Propagator, counts: np.ndarray, seg_off: np.ndarray, rate_before: np.ndarray,
                 backward: bool):
        cnt, soff, boff, sizes = _lockstep(counts, seg_off)
        steps = int(cnt[0])
        a, cont = sizes[:steps], sizes[1:]
        back = a if backward else np.zeros_like(a)
        # Every (step k, lockstep row t) pair, step by step. A forward row's
        # input follows the backward rows of the step before.
        k = np.repeat(np.arange(steps), a)
        t = np.arange(len(k)) - np.repeat(np.cumsum(a) - a, a)
        fseg = soff[t] + k
        fdst = back[k] + t
        going = t < cont[k]
        seg, cols, src, dst, step = [fseg], [np.zeros(len(k), dtype=bool)], [np.r_[back[:1], back[:-1]][k] + t], [fdst], [k]
        if backward:
            bseg = soff[t] + cnt[t] - 1 - k
            seg.append(bseg)
            cols.append(np.ones(len(k), dtype=bool))
            src.append(t)
            dst.append(t)
            step.append(k)
        seg, cols, src, dst, step = (np.concatenate(x) for x in (seg, cols, src, dst, step))
        kind = prop.series[seg]
        order = np.argsort(2 * step + kind, kind="stable")
        self.steps = steps
        self.rows = np.r_[0, np.cumsum(back + a)]
        self.seg, self.columns, self.src, self.dst, kind, step = (x[order] for x in (seg, cols, src, dst, kind, step))
        del seg, cols, src, dst, order
        self.tmpl, self.at = prop.blocks_of(self.seg, self.columns)
        # The input row of each output row, for the log scales.
        self.carry = np.empty(len(kind), dtype=np.intp)
        self.carry[self.rows[step] + self.dst] = self.src
        # Per step (one row at least), its table rows, which come first, and
        # the widest of them.
        self.tables = np.add.reduceat(~kind, self.rows[:-1], dtype=np.intp).tolist()
        self.widths = np.maximum.reduceat(np.where(kind, 0, prop.sizes[self.seg]), self.rows[:-1]).tolist()
        self.back = back.tolist()
        del kind, step

        # Message slots, in output-row order within each step.
        fb, bb = boff[t] + k + 1, boff[t] + cnt[t] - 1 - k
        self.after = np.empty(len(self.seg), dtype=np.intp)
        self.after[self.rows[k] + fdst] = fb
        self.crossed_at = np.r_[0, np.cumsum(back + cont)]
        self.crossed = np.empty(self.crossed_at[-1], dtype=np.intp)
        self.crossed[(self.crossed_at[k] + fdst)[going]] = fb[going]
        if backward:
            self.after[self.rows[k] + t] = bb
            self.crossed[self.crossed_at[k] + t] = bb
        self.project = fseg[going] + 1
        self.project_at = np.r_[0, np.cumsum(cont)]

        # Rate boundaries: forward rows entering segment fseg + 1, backward
        # rows leaving segment bseg backward through the boundary before it.
        fr = np.flatnonzero(going)
        fr = fr[rate_before[fseg[fr] + 1]]
        row, leave, enter, rstep = [fdst[fr]], [fseg[fr]], [fseg[fr] + 1], [k[fr]]
        if backward:
            br = np.flatnonzero(rate_before[bseg])
            row.append(t[br])
            leave.append(bseg[br])
            enter.append(bseg[br] - 1)
            rstep.append(k[br])
        row, leave, enter, rstep = (np.concatenate(x) for x in (row, leave, enter, rstep))
        order = np.argsort(rstep, kind="stable")
        self.rate_row, self.rate_leave, self.rate_enter = row[order], leave[order], enter[order]
        self.rate_at = np.r_[0, np.cumsum(np.bincount(rstep, minlength=steps))]
        # Each rate row's transitions from the earlier segment's subsystem
        # into the later one's, which a backward row crosses against.
        self.rate_back = self.rate_leave > self.rate_enter
        self.rate_edge, self.rate_e = prop.between(np.minimum(self.rate_leave, self.rate_enter),
                                                   np.maximum(self.rate_leave, self.rate_enter))
        self.rate_edge_at = np.searchsorted(self.rate_edge, self.rate_at)
        # Offsets are read one at a time; the index arrays are kept in 32
        # bits.
        self.rows, self.crossed_at, self.project_at, self.rate_at, self.rate_edge_at = (
            a.tolist() for a in (self.rows, self.crossed_at, self.project_at, self.rate_at, self.rate_edge_at))
        for name in ("seg", "src", "dst", "tmpl", "at", "carry", "after", "crossed", "project", "rate_row",
                     "rate_leave", "rate_enter", "rate_edge", "rate_e"):
            setattr(self, name, getattr(self, name).astype(np.int32))

    def step(self, i: int) -> _Step:
        """The rows of step i."""
        lo, hi = self.rows[i], self.rows[i + 1]
        return _Step(self.seg[lo:hi], self.columns[lo:hi], self.src[lo:hi], self.dst[lo:hi], self.tmpl[lo:hi],
                     self.at[lo:hi], self.tables[i], self.widths[i])

    def rates(self, i: int):
        """The rate rows of step i, whether each crosses backward, and their
        transitions: the rate row of each in the step and its index in the
        joint list."""
        rows, lo, hi = slice(self.rate_at[i], self.rate_at[i + 1]), self.rate_edge_at[i], self.rate_edge_at[i + 1]
        return (self.rate_row[rows], self.rate_back[rows], self.rate_edge[lo:hi] - self.rate_at[i],
                self.rate_e[lo:hi])


def _sweep(q: IntensityMatrix, p0, evs: list, backward: bool = True, first: int = 0) -> _Sweep:
    """Split the evidence segments of a batch and sweep them forward and,
    with ``backward``, backward, both in one loop over the steps of the
    batch's plan: per step one ``_Propagator.propagate`` of all its rows,
    one normalization, the boundary factors (a projection onto the next
    mask, or the rates into it) and one more normalization. Raises
    ``ForwardBackwardMismatchError`` where the two sweeps' log-likelihoods
    of a trajectory disagree; its index counts from ``first``."""
    if q.kind != "proper":
        raise ValueError("forward-backward needs a proper intensity matrix")
    if any(ev.n != q.n for ev in evs):
        raise ValueError("evidence dimension does not match the matrix")
    p0 = validate_distribution(p0, q.n)
    n = q.n
    masks, dts, times, counts, rate_before = _split_batch(q.exit_rates, evs)
    seg_off = np.cumsum(counts) - counts
    prop = _Propagator(q, masks, dts)
    plan = _Plan(prop, counts, seg_off, rate_before, backward)
    cnt, soff, boff, _ = _lockstep(counts, seg_off)

    nb = len(dts) + len(evs)
    # One array per message slot: one array of all four, freed as one large
    # block after each batch, raised the peak RSS of the sweeps of 20 ring
    # records at n = 1024 from 76 to 92 MB, with equal traced peaks (an
    # effect of the allocator).
    fwd, fwd_pre = np.zeros((nb, n)), np.zeros((nb, n))
    bwd, bwd_post = (np.zeros((nb, n)), np.zeros((nb, n))) if backward else (None, None)
    fwd_log, fwd_pre_log, bwd_log, bwd_post_log = (np.full(nb, -np.inf) for _ in range(4))
    # Boundary 0 projects p0 onto the first subsystem; at the horizon the
    # backward message is all ones.
    fwd_pre[boff] = p0
    fwd_pre_log[boff] = 0.0
    first_rows, lf = _normalize_rows(p0 * masks[soff])
    fwd[boff] = first_rows
    fwd_log[boff] = lf
    back = plan.back[0]
    v, v_rows = _buffer(back + len(cnt), n)
    v_rows[back:] = first_rows
    lv = np.r_[np.full(back, math.log(n)), lf]
    if backward:
        v_rows[:back] = 1.0 / n
        bwd[boff + cnt] = bwd_post[boff + cnt] = 1.0 / n
        bwd_log[boff + cnt] = bwd_post_log[boff + cnt] = math.log(n)

    # Each step's log scales, written to their slots after the loop.
    after_logs, crossed_logs = [], []
    for i in range(plan.steps):
        step = plan.step(i)
        out, p = _buffer(len(step.seg), n)
        prop.propagate(v, step, out)
        p, ls = _normalize_rows(p)
        lo, hi = plan.rows[i], plan.rows[i + 1]
        lp = lv.take(plan.carry[lo:hi]) + ls
        after_logs.append(lp)
        back = plan.back[i]
        after = plan.after[lo:hi]
        fwd_pre[after[back:]] = p[back:]
        if back:
            bwd_post[after[:back]] = p[:back]

        # Across the boundary: the rate rows first, then every forward row
        # projected onto its next mask, which leaves a rate row as it is.
        if plan.rate_at[i + 1] > plan.rate_at[i]:
            prop.cross(out, *plan.rates(i))
        keep = plan.crossed_at[i + 1] - plan.crossed_at[i]
        p[back:keep] *= masks[plan.project[plan.project_at[i] : plan.project_at[i + 1]]]
        p, ls = _normalize_rows(p[:keep])
        lv = lp[:keep] + ls
        crossed_logs.append(lv)
        crossed = plan.crossed[plan.crossed_at[i] : plan.crossed_at[i + 1]]
        fwd[crossed[back:]] = p[back:]
        if back:
            bwd[crossed[:back]] = p[:back]
        v = out

    for logs, at, starts, (f_log, b_log) in ((after_logs, plan.after, plan.rows, (fwd_pre_log, bwd_post_log)),
                                             (crossed_logs, plan.crossed, plan.crossed_at, (fwd_log, bwd_log))):
        # Each step's first rows are its backward ones.
        within = np.arange(len(at)) - np.repeat(starts[:-1], np.diff(starts))
        back = within < np.repeat(plan.back, np.diff(starts))
        logs = np.concatenate(logs)
        f_log[at[~back]] = logs[~back]
        b_log[at[back]] = logs[back]
    # A trajectory's last message is not crossed over.
    end = boff + cnt
    fwd[end] = fwd_pre[end]
    fwd_log[end] = fwd_pre_log[end]
    f = _Sweep(p0, times, masks, dts, rate_before, prop, counts, seg_off, fwd, fwd_log, fwd_pre, fwd_pre_log)
    if not backward:
        return f

    b0 = f.starts
    mass = np.einsum("tj,j->t", bwd[b0], p0)
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


def _sweeps(q: IntensityMatrix, p0, evs: list, backward: bool = True, possible: bool = True):
    """The one lockstep loop: the trajectories evs cut into batches, each
    swept by ``_sweep``, forward and, with ``backward``, backward. Yields
    (first, batch, sweep), first being the index in evs of the batch's
    first trajectory. With ``possible``, evidence without mass raises.
    Every error counts trajectories across batches."""
    first = 0
    for batch in _batches(evs, q.n):
        f = _sweep(q, p0, batch, backward, first)
        if possible:
            f.raise_if_impossible(first)
        yield first, batch, f
        # No batch is held here while the next one is swept.
        del f
        first += len(batch)


def forward_backward_many(q: IntensityMatrix, p0, evidences) -> list[MessageCache]:
    """``forward_backward`` over many trajectories, swept a lockstep batch at
    a time; each cache equals its lone sweep bitwise."""
    caches: list[MessageCache] = []
    for _, batch, f in _sweeps(q, p0, list(evidences), possible=False):
        swept = f._replace(prop=None)
        caches.extend(MessageCache(ev, q, swept, t) for t, ev in enumerate(batch))
        del f, swept  # nor is the swept batch, with its propagator, held here
    return caches


def forward_backward(q: IntensityMatrix, p0, ev: Evidence) -> MessageCache:
    """Run the scaled forward-backward sweep over the evidence."""
    return forward_backward_many(q, p0, [ev])[0]


def smoothed_marginal(cache: MessageCache, t) -> np.ndarray:
    """Posterior distribution over the state at time t given all evidence:
    an n-vector for a scalar t, one row per time for a 1-D array of times.

    At an evidence boundary the marginal describes the state just after any
    factor asserted there, so a fully observed instant yields a point mass.
    """
    if cache.impossible:
        raise ZeroProbabilityEvidenceError(cache.dead_boundary)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim != 1:
        raise ValueError("query times must be a scalar or a 1-D array")
    horizon = cache.evidence.horizon
    tol = _TIME_EPS * max(1.0, horizon)
    outside = np.flatnonzero(~((times >= -tol) & (times <= horizon + tol)))
    if outside.size:
        raise ValueError(f"query time {float(times[outside[0]])!r} outside [0, {horizon}]")
    bounds = cache.times
    # Each time's last boundary within tol, or else the segment it is in.
    i = np.maximum(np.searchsorted(bounds, times + tol, side="right") - 1, 0)
    raw = cache.fwd[i] * cache.bwd_post[i]
    inner = np.flatnonzero(bounds[i] < times - tol)
    if inner.size:
        # One propagator: the piece over [bounds[k], t] carries fwd[k] to t,
        # the one over [t, bounds[k + 1]] carries bwd[k + 1] back to it.
        k, m, ti = i[inner], len(inner), times[inner]
        dts = np.concatenate((ti - bounds[k], bounds[k + 1] - ti))
        prop = _Propagator(cache.q, cache.seg_masks[np.concatenate((k, k))], dts)
        ab = prop.apply(np.concatenate((cache.fwd[k], cache.bwd[k + 1])), np.arange(2 * m), np.arange(2 * m) >= m)
        raw[inner] = np.clip(ab[:m], 0.0, None) * np.clip(ab[m:], 0.0, None)
    s = raw.sum(axis=1)
    dead = np.flatnonzero(~(s > 0.0))
    if dead.size:
        raise ZeroProbabilityEvidenceError(int(i[dead[0]]))
    return raw / s[:, None] if np.ndim(t) else raw[0] / s[0]


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
    diagonal to the n-length row dwell[g], and J at the transitions of S
    times their rates to the group's expected counts, transition e of the
    joint list at out.reshape(-1)[g * E + e] for E transitions in the list
    (where ``rates`` is false, all of J to the n x n out[g]). Row r has
    f(s) = f0[r] exp(Q_S s), b(s) = exp(Q_S (dt - s)) beta[r] and Q_S is Q
    restricted to the segment's subsystem S; f0 and beta are n-length, and
    only their entries on S are read, so J vanishes outside S x S, and a
    row with dt = 0 contributes zero.

    In the series of exp(Q_S s) in P, with u = f0 (x) beta (on S x S),
    J = sum_{a, b} c_{a+b} (P^T)^a u (P^T)^b and c_k = Pois(k + 1; mu) /
    lambda, the sweeps' Poisson weights shifted by one. Each row's series
    stops where its own Poisson tail is below tol * _ROW_TAIL_SHARE (at
    least epsilon), which bounds the error of every column of J by
    tol * dt * |f0|_1 * max(beta).

    Rows of 2 to _TABLE_MAX_STATES states go by bucket, the rows of one
    mask and one group: J is linear in u, so a bucket's sum needs only
    E_k = sum_r c_k(r) u_r, one product C^T U per bucket, and then the
    double series once, from the top term down by Horner in P:
    V_a = E_a + V_{a+1} P^T and Z_a = V_a + P^T Z_{a+1}, Z_0 being the
    bucket's summed J. A slice's buckets run the recursion together. The
    other rows, the joint space included, go by size of S and then by
    series length, so that a slice's rows need about as many terms as its
    longest: J = sum_a F_a^T H_a with F_a = f0 P^a and
    H_a = c_a beta + P H_{a+1}, one product by their transitions per term
    (``_powers``). Either way a slice's temporaries (the rows' weights C
    and products U, its buckets' E and recursion; or the stacks F and H
    and the blocks J) stay within _BATCH_ELEMENTS // 8 entries where one
    row and its bucket fit, and a bucket cut across slices adds its J in
    parts.
    """
    m, n = f0.shape
    if m == 0:
        return
    mu, lam, sizes = u.mu[rows], u.lam[rows], u.sizes[rows]
    # Within a slice the series runs to the slice's longest and each row's
    # weights stop at its own cutoff, so a row's J does not depend on the
    # rows beside it.
    terms = _series_terms(mu, max(tol * _ROW_TAIL_SHARE, _SWEEP_TAIL))

    def weights(sl):
        """c_k of the rows sl, zero past each row's cutoff."""
        c = _poisson_weights(mu[sl], terms[sl], 1)
        c /= lam[sl, None]
        return c

    def add(lay, g, integrals):
        """Add the |S| x |S| integrals of the layout's segments to their
        groups g, at the diagonal and at the transitions of S (at every
        entry where ``rates`` is false)."""
        diagonal = np.where(lay.valid, np.diagonal(integrals, axis1=1, axis2=2), 0.0)
        np.add.at(dwell.reshape(-1), g[:, None] * n + lay.idx, diagonal)
        if rates:
            r, j, k, e = u.transitions(lay.seg)
            np.add.at(out.reshape(-1), g[r] * len(u.joint[0]) + e, u.joint[2].take(e) * integrals[r, j, k])
        else:
            r, j, k = np.nonzero(lay.valid[:, :, None] & lay.valid[:, None, :])
            np.add.at(out.reshape(-1), (g[r] * n + lay.idx[r, j]) * n + lay.idx[r, k], integrals[r, j, k])

    bucket = u.mask_id[rows] * (int(groups.max(initial=0)) + 1) + groups
    pos = np.flatnonzero(u.tabled[rows])
    pos = pos[np.lexsort((bucket[pos], sizes[pos]))]
    # The buckets by descending series length within a size, so that a
    # slice's series run about as long as its first bucket's.
    if pos.size:
        heads = np.flatnonzero(np.r_[True, bucket[pos][1:] != bucket[pos][:-1]])
        top = np.repeat(np.maximum.reduceat(terms[pos], heads), np.diff(np.r_[heads, len(pos)]))
        pos = pos[np.lexsort((-top, sizes[pos]))]
    # Per bucket its E and its share of the recursion's three stacks, a
    # quarter more for the padding of the stacks' matrices.
    for sl, starts in _slices(pos, sizes, bucket, terms, lambda s, width: (5 * width + 15) * s * s // 4):
        heads, count = np.array(starts[:-1]), np.diff(starts)
        top = np.maximum.reduceat(terms[sl], heads)
        # One matrix of the recursion holds up to ``size`` buckets of one
        # mask side by side, rows j first: they share P, so its products by
        # P^T, on the right and on the left, are one each. A mask's last
        # matrix is padded with zero buckets, a quarter of the buckets at
        # most. The matrices go by descending series length, so that those
        # still summing at term a are a prefix, live[a] long; bucket i sits
        # at slot[i] // size, column block slot[i] % size.
        mask = u.mask_id[rows[sl[heads]]]
        order = np.lexsort((-top, mask))
        new = np.r_[True, mask[order][1:] != mask[order][:-1]]
        size = max(1, len(order) // (4 * int(new.sum())))
        within = np.arange(len(order)) - np.flatnonzero(new)[np.cumsum(new) - 1]
        opens = within % size == 0
        rank = np.argsort(-top[order[opens]], kind="stable")
        place = np.empty_like(rank)
        place[rank] = np.arange(len(rank))
        slot = np.empty_like(order)
        slot[order] = place[np.cumsum(opens) - 1] * size + within % size
        live = np.searchsorted(-top[order[opens][rank]], -np.arange(int(top.max())))
        # The rows by bucket size, for ``_bucket_sums``.
        by = np.argsort(count, kind="stable")
        seg = sl[_ranges(heads[by], count[by])[0]]
        lay = u.cut(rows[seg])
        s = lay.idx.shape[1]
        prod = (lay.gather(f0[seg])[:, :, None] * lay.gather(beta[seg])[:, None, :]).reshape(len(seg), s * s)
        e = _bucket_sums(weights(seg), prod, count[by], slot[by], len(rank) * size)
        width = e.shape[1]
        e = e.reshape(len(rank), size, width, s, s).transpose(2, 0, 3, 1, 4)
        pt = u.matrices(rows[sl[heads[order[opens][rank]]]]).transpose(0, 2, 1)
        v, z, tmp = np.zeros((3, len(rank), s, size * s))
        v_rows, tmp_rows = v.reshape(len(rank), s * size, s), tmp.reshape(len(rank), s * size, s)
        for a in range(width - 1, -1, -1):
            k = live[a]
            np.matmul(v_rows[:k], pt[:k], out=tmp_rows[:k])
            np.add(tmp[:k], e[a, :k].reshape(k, s, size * s), out=v[:k])
            np.matmul(pt[:k], z[:k], out=tmp[:k])
            np.add(tmp[:k], v[:k], out=z[:k])
        z = z.reshape(len(rank), s, size, s).transpose(0, 2, 1, 3).reshape(-1, s, s)
        add(u.cut(rows[sl[heads]]), groups[sl[heads]], z[slot])

    rest = np.flatnonzero(~u.tabled[rows])
    if not rest.size:
        return
    order = rest[np.lexsort((terms[rest], sizes[rest]))]
    # Per row: its weights, its stacks F and H and its block J.
    ends = np.cumsum((2 * sizes[order] + 1) * int(terms[rest].max()) + sizes[order] ** 2)
    lo = 0
    while lo < len(order):
        hi = max(lo + 1, int(np.searchsorted(ends, _BATCH_ELEMENTS // 8 + (ends[lo - 1] if lo else 0), side="right")))
        sl = order[lo:hi]
        lo = hi
        lay = u.cut(rows[sl])
        keep, jump = u.keep_jump(lay)
        c = weights(sl)
        f = _powers(lay.gather(f0[sl]), u.times(lay, np.zeros(len(sl), dtype=bool)), keep, jump, c.shape[1] - 1)
        b, times = lay.gather(beta[sl]), u.times(lay, np.ones(len(sl), dtype=bool))
        h = np.empty_like(f)
        h[:, -1] = c[:, -1, None] * b
        for a in range(c.shape[1] - 2, -1, -1):
            x = h[:, a + 1]
            h[:, a] = c[:, a, None] * b + x * keep + times(x) * jump
        add(lay, groups[sl], f.transpose(0, 2, 1) @ h)


def _bucket_sums(c: np.ndarray, prod: np.ndarray, count: np.ndarray, slot: np.ndarray, slots: int) -> np.ndarray:
    """E[slot[i]] = C_i^T U_i, stacked (slots, terms, |S|^2) and zero at
    the other slots: bucket i owns the next count[i] rows of the weights c
    and of the products prod, and the buckets of one row count follow each
    other, so that all their products are one."""
    e = np.zeros((slots, c.shape[1], prod.shape[1]))
    lo = b = 0
    for rows, many in zip(*np.unique(count, return_counts=True)):
        hi = lo + rows * many
        e[slot[b : b + many]] = np.matmul(c[lo:hi].reshape(many, rows, -1).transpose(0, 2, 1),
                                          prod[lo:hi].reshape(many, rows, -1))
        lo, b = hi, b + many
    return e


def _powers(v: np.ndarray, times, keep: np.ndarray, jump: np.ndarray, kk: int) -> np.ndarray:
    """The rows v P^a for a = 0 .. kk, stacked as (rows, kk + 1, width),
    where row r has v P = v * keep[r] + times(v)[r] * jump[r]."""
    out = np.empty((len(v), kk + 1, v.shape[1]))
    out[:, 0] = v
    for a in range(kk):
        v = v * keep + times(v) * jump
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
    n = q_s.n
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if not (alpha.shape == beta.shape == (n,) and np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise ValueError(f"alpha and beta must be finite vectors of length {n}")
    if not (math.isfinite(dt) and dt >= 0):
        raise ValueError(f"dt must be finite and nonnegative, got {dt!r}")
    _check_tol(tol)
    pieces = max(1, math.ceil(float(q_s.exit_rates.max(initial=0.0)) * dt / _SEGMENT_STIFFNESS_CAP))
    # Piece p runs from alpha exp(Q_S p h) to exp(Q_S (dt - (p + 1) h)) beta:
    # alpha is carried forward and beta backward by one piece exponential,
    # with their scales kept in log space.
    f0 = np.empty((pieces, n))
    b1 = np.empty((pieces, n))
    f0[0], b1[-1] = alpha, beta
    if pieces > 1:
        # exp(Q_S h), the unit rows carried across a piece by uniformization,
        # as many at a time as hold about _BATCH_ELEMENTS // 8 transitions.
        piece = _Propagator(q_s, np.ones((1, n), dtype=bool), np.array([dt / pieces]))
        rows = max(1, _BATCH_ELEMENTS // 8 // max(1, len(piece.edges[2])))
        e = np.concatenate([piece.forward(unit, np.zeros(len(unit), dtype=np.intp))
                            for unit in np.split(np.eye(n), range(rows, n, rows))])
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
    trajectories, and each trajectory's log-likelihood: per group an
    n-length row of dwell times and of time-zero posteriors, and a row of
    transition counts, one per entry of the joint list ``q.transitions``."""

    dwell: np.ndarray
    transitions: np.ndarray
    initial: np.ndarray
    log_probs: np.ndarray


def _statistics(f: _Sweep, tol: float, groups: np.ndarray, first: int = 0) -> _Statistics:
    """Expected dwell times, transition counts and time-zero posteriors of
    the stacked segments and boundaries of a swept batch, summed per
    group: trajectory t adds to group groups[t], and a trajectory whose
    group is negative is skipped. Counts are added by their transition's
    index in the joint list.

    A positive-length segment restricted to one state adds its duration
    where it carries mass (the integrand is constant). The factor of an
    asserted transition into segment k acts at its first boundary i, from
    S1 = mask k - 1 into S2 = mask k; its posterior counts are
    W[S1, S2] o outer(a, b) / (a W[S1, S2] b) with a = fwd_pre[i] on S1 and
    b = bwd_post[i] on S2, read at the transitions from S1 into S2. Every
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
    trans = np.zeros((n_groups, len(f.prop.joint[0])))
    sizes = f.prop.sizes
    pos = (f.dts > 0.0) & seg_asked

    sing = np.flatnonzero(pos & (sizes == 1))
    jj = f.masks[sing].argmax(axis=1)
    alive = f.fwd[start[sing], jj] * f.bwd_post[start[sing], jj] > 0.0
    np.add.at(dwell, (seg_group[sing][alive], jj[alive]), f.dts[sing][alive])

    into = np.flatnonzero(f.rate_before & seg_asked)
    r, e = f.prop.between(into - 1, into)
    seg = into[r]
    src, dst, rate = (a.take(e) for a in f.prop.joint)
    counts = rate * f.fwd_pre[start[seg], src] * f.bwd_post[start[seg], dst]
    totals = np.bincount(r, counts, len(into))
    # A boundary without mass has no counts, all zero already.
    counts /= np.where(totals > 0.0, totals, 1.0)[r]
    np.add.at(trans, (seg_group[seg], e), counts)

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


def _e_step_batches(q: IntensityMatrix, p0, evs: list, tol: float):
    """The E-step over many trajectories: per lockstep batch, its expected
    statistics summed over the batch (one group) and its log-likelihoods."""
    _check_tol(tol)
    for first, batch, f in _sweeps(q, p0, evs):
        yield _statistics(f, tol, np.zeros(len(batch), dtype=np.intp), first)
        del f


def expected_statistics_many(caches, tol: float = DEFAULT_QUAD_TOL) -> list[FlatStatistics]:
    """Expected statistics for many trajectories at once. The caches cut
    from one swept batch go through the same statistics kernel as the
    E-step, once, on that batch's arrays, one group per trajectory; the
    batch's other trajectories are skipped. Each trajectory's counts are
    scattered from the joint list onto its n x n matrix."""
    _check_tol(tol)
    results: list = [None] * len(caches)
    pending: dict = {}
    for idx, cache in enumerate(caches):
        if cache.impossible:
            raise ZeroProbabilityEvidenceError(cache.dead_boundary, idx)
        pending.setdefault(id(cache._sweep), []).append(idx)

    for idxs in pending.values():
        q, sweep = caches[idxs[0]].q, caches[idxs[0]]._sweep
        rows = [caches[idx]._t for idx in idxs]
        # A trajectory asked for twice takes the group of its last entry.
        groups = np.full(len(sweep.counts), -1)
        groups[rows] = np.arange(len(rows))
        s = _statistics(sweep._replace(prop=_Uniformization(q, sweep.masks, sweep.dts)), tol, groups)
        for idx, g in zip(idxs, groups[rows]):
            trans = np.zeros((q.n, q.n))
            trans[q.transitions[:2]] = s.transitions[g]
            results[idx] = FlatStatistics(s.dwell[g], trans)
    return results


def expected_statistics(cache: MessageCache, tol: float = DEFAULT_QUAD_TOL) -> FlatStatistics:
    """Expected dwell-time vector and transition-count matrix under the
    posterior over completions of the cached evidence.

    Segments restricted to a single state use the closed form of the
    integral (the integrand is constant), which keeps fully observed
    statistics exact; all other segments share one batched pass of the
    uniformization series, cut where its Poisson tail falls below ``tol``.
    The dwell times sum to the horizon; a transition count is zero wherever
    its rate is.
    """
    return expected_statistics_many([cache], tol)[0]

