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
A subsystem is an index list, its states in ascending order, as the
evidence holds it (``Evidence.states``). Every message a sweep stores
is a row on the subsystem of the segment it enters or leaves, in that
subsystem's coordinates, so a segment costs O(|S|^2) per product and
O(|S|) at its boundaries, never O(n).

Many trajectories under one Q are swept in lockstep, one row each, and
both sweeps in one loop: step i carries every forward message across its
trajectory's i-th segment and every backward message across its i-th
segment from the end, so the Python loop runs once per segment position of
a batch. A plan built once per batch (``_Plan``) holds each step's rows,
grouped by kind, where their exponential blocks sit, where their messages
are stored, and the maps that carry them across their boundaries: the
transitions between the subsystems at a rate boundary, the common states
at a projection. A step pads its rows, forward and backward, to the
largest |S| among them and takes one product for them all
(``_Propagator.propagate``, the one kernel, which also serves
``smoothed_marginal`` and ``convolution_integrals`` as one-step plans).
One memory budget, ``_BATCH_ELEMENTS``, sizes the batches, and the
power tables, the exponentials and the integrals' kernel work in slices of
an eighth of it. A segment stiffer than a cap is split into equal pieces,
which share its list; each evidence segment is uniformized once (lambda =
the largest exit rate in S, P = I + Q_S / lambda, both fixed by the list
alone), and both jobs read that: exp(Q_S dt) = sum_a Pois(a; lambda dt)
P^a carries the messages across each piece, and the expected dwell times
and transition counts are pairwise convolution integrals over each
piece, read at the diagonal and at the transitions of S. Up to
``_TABLE_MAX_STATES`` states the sweeps table the powers P^a once per
distinct subsystem, so the segments of one subsystem take their
exponential blocks from one product; the integrals, linear in each
segment's outer product of its end vectors, sum those products per bucket
of one subsystem and one group, weighted per series term, and run the
double series once per bucket, from the top term down by Horner in P.
Above it, the joint space included, both series are applied to the rows
term by term, and the integrals are read at the transitions of S term by
term. One Poisson routine weights both series, each row cut at its own
tail bound. Every product and every normalizing sum of the sweeps runs in
a fixed order that zero padding does not change, so a trajectory's sweeps
do not depend on the rows swept beside it.

One loop, ``_sweeps``, batches the trajectories for the E-step, scoring
and ``forward_backward_many`` and sweeps each batch with ``_sweep``. A
swept batch has one layout: its subsystems' lists, and the message rows
of its pieces one after the other in two stores. One statistics kernel
reads them and returns the batch's dwell times, transition counts and
time-zero posteriors summed over groups of its trajectories, and every
trajectory's log-likelihood; a count is nonzero only on a transition of
W, so the counts are kept by transition, one per entry of W's list. The
E-step sums each batch as one group and builds nothing per trajectory.
``forward_backward_many`` cuts each batch into message caches, which
build a trajectory's n-length messages from the batch's rows on access;
``expected_statistics_many`` runs the kernel once per batch on those rows,
one group per trajectory asked for, and scatters each one's counts onto an
n x n matrix.
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


def _read_only(v: np.ndarray) -> np.ndarray:
    v.flags.writeable = False
    return v


def _message(name: str) -> property:
    """A cache field: its trajectory's n-length message ``name`` at every
    boundary, built from the batch's subsystem rows on access."""
    return property(lambda self: _read_only(self._sweep.message(self._t, name)))


def _log(name: str) -> property:
    """A cache field: the log scales of its trajectory's message ``name``."""
    return property(lambda self: _read_only(self._sweep.message_logs(self._t, name)))


class MessageCache:
    """Scaled forward/backward messages at every evidence boundary of one
    trajectory, read from trajectory ``t``'s rows of the swept batch
    ``sweep``; caches cut from one batch share its rows.

    Boundary i carries four vectors: ``fwd`` includes every evidence factor
    at and before t_i, ``fwd_pre`` excludes the factor at t_i, ``bwd``
    includes the factor at t_i, ``bwd_post`` excludes it. Each is scaled to
    unit 1-norm with its log scale stored alongside; log p(sigma) is exact
    in log space regardless of trajectory length. ``bwd_post[i]`` is the
    backward message projected onto segment i's mask (the horizon's
    ``bwd_post`` is the all-ones message); ``fwd_pre[0]`` is ``p0``.

    The sweep keeps each message on the subsystem of the segment it enters
    or leaves. The fields are read-only n-length arrays, built from those
    rows on every access; ``seg_masks`` is built from the evidence's lists.

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

    fwd = _message("fwd")
    fwd_log = _log("fwd")
    fwd_pre = _message("fwd_pre")
    fwd_pre_log = _log("fwd_pre")
    bwd = _message("bwd")
    bwd_log = _log("bwd")
    bwd_post = _message("bwd_post")
    bwd_post_log = _log("bwd_post")

    @property
    def times(self) -> np.ndarray:
        return _read_only(self._sweep.times[self._sweep.bounds(self._t)])

    @property
    def seg_dt(self) -> np.ndarray:
        return _read_only(self._sweep.dts[self._sweep.segments(self._t)])

    @property
    def seg_masks(self) -> np.ndarray:
        origin = self._sweep.origin[self._sweep.segments(self._t)]
        return _read_only(self.evidence.masks[origin - origin[0]])

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

# Padding of the sweeps' gather indices and the block templates: far past
# any array, so a clipped take reads, and a clipped put writes, the zero
# that every store of rows and blocks keeps at its end. Times a row count
# plus a state it stays within 64 bits.
_FAR = 1 << 40


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


def _find(states: np.ndarray, sizes: np.ndarray, r: np.ndarray, want: np.ndarray):
    """Whether the state want[i] is in row r[i] of the lists (states,
    sizes), rows one after the other and each ascending, and its place in
    the row where it is."""
    keys = np.repeat(np.arange(len(sizes)), sizes) * _FAR + states
    pos = np.searchsorted(keys, r * _FAR + want)
    found = keys.take(pos, mode="clip") == r * _FAR + want if len(keys) else np.zeros(len(r), dtype=bool)
    return found, pos - (np.cumsum(sizes) - sizes)[r]


def _restrict(joint: tuple, a: tuple, b: tuple):
    """The transitions (src, dst, rate) of the joint list from row r of the
    lists a into row r of b, each (states, sizes) with rows one after the
    other and ascending: (r, j, k, e) for the j-th state of a's row r to the
    k-th of b's, the joint list's entry e, sorted by r, j and k. The rows go
    in runs whose states have about _BATCH_ELEMENTS // 8 exits in all."""
    src, dst, _ = joint
    (sa, za), (sb, zb) = a, b
    start = np.searchsorted(src, np.arange(int(sa.max(initial=0)) + 2))
    exits = np.diff(start)[sa]
    lo_a, lo_b = np.cumsum(za) - za, np.cumsum(zb) - zb
    runs = np.cumsum(np.add.reduceat(exits, lo_a)) // (_BATCH_ELEMENTS // 8) if len(za) else np.zeros(0)
    cuts = [0, *(np.flatnonzero(np.diff(runs)) + 1).tolist(), len(za)] if len(za) else [0]
    out = []
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        a0, a1, b0, b1 = lo_a[r0], lo_a[r1 - 1] + za[r1 - 1], lo_b[r0], lo_b[r1 - 1] + zb[r1 - 1]
        e, at = _ranges(start[sa[a0:a1]], exits[a0:a1])
        r = np.repeat(np.arange(r1 - r0), za[r0:r1])[at]
        j = at - (lo_a[r0:r1] - a0)[r]
        found, k = _find(sb[b0:b1], zb[r0:r1], r, dst[e])
        out.append((r[found] + r0, j[found], k[found], e[found]))
    return tuple(np.concatenate(x) for x in zip(*out)) if out else tuple(np.zeros(0, dtype=np.intp) for _ in range(4))


def _some(states: np.ndarray, sizes: np.ndarray, rows: np.ndarray):
    """Rows ``rows`` of the lists (states, sizes)."""
    i, _ = _ranges((np.cumsum(sizes) - sizes)[rows], sizes[rows])
    return states[i], sizes[rows]


class _Lists(NamedTuple):
    """Subsystems as index lists, a row each. Row r holds sizes[r] states,
    ascending, rows one after the other in ``states``; ids[r], a number
    shared by equal rows; and lam[r], the largest exit rate among its
    states. The transitions are kept once per number: edge_count[i] within
    the rows numbered i, numbers one after the other in ``edges``: (j, k, e)
    from the j-th state to the k-th, e indexing Q's list, sorted by j and
    k."""

    states: np.ndarray
    sizes: np.ndarray
    ids: np.ndarray
    lam: np.ndarray
    edge_count: np.ndarray
    edges: tuple

    @classmethod
    def read(cls, q: IntensityMatrix, masks: np.ndarray) -> _Lists:
        """The subsystems of q given as boolean masks, a row each, read
        once by ``np.nonzero``."""
        r, states = np.nonzero(masks)
        sizes = np.bincount(r, minlength=len(masks))
        del r
        return cls.of(q, states, sizes)

    @classmethod
    def of(cls, q: IntensityMatrix, states: np.ndarray, sizes: np.ndarray) -> _Lists:
        """The lists (states, sizes) of subsystems of q, numbered, with their
        lambdas and their transitions, found once per distinct list."""
        ids, heads = _mask_ids(states, sizes)
        hs, hz = _some(states, sizes, heads)
        lam = np.maximum.reduceat(q.exit_rates[hs], np.cumsum(hz) - hz) if len(hz) else np.zeros(0)
        r, *edges = _restrict(q.transitions, (hs, hz), (hs, hz))
        return cls(states, sizes, ids, lam[ids], np.bincount(r, minlength=len(heads)),
                   tuple(a.astype(np.int32) for a in edges))

    def join(self, other: _Lists) -> _Lists:
        """These lists, then other's, numbered as ``of`` numbers them: equal
        lists of either share one number and its transitions."""
        ids = np.concatenate((self.ids, other.ids + len(self.edge_count)))
        states, sizes = np.concatenate((self.states, other.states)), np.concatenate((self.sizes, other.sizes))
        _, rows = np.unique(ids, return_index=True)
        number, heads = _mask_ids(*_some(states, sizes, rows))
        count = np.concatenate((self.edge_count, other.edge_count))
        e, _ = _ranges((np.cumsum(count) - count)[heads], count[heads])
        return _Lists(states, sizes, number[ids], np.concatenate((self.lam, other.lam)), count[heads],
                      tuple(np.concatenate(x)[e] for x in zip(self.edges, other.edges)))


def _mask_ids(states: np.ndarray, sizes: np.ndarray):
    """A number per list of the lists (states, sizes), shared by equal
    lists, and a list of each number: each size's lists numbered in
    lexicographic order."""
    lo = np.cumsum(sizes) - sizes
    ids = np.empty(len(sizes), dtype=np.intp)
    heads, at = [], 0
    order = np.argsort(sizes, kind="stable")
    for grp in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        if grp.size:
            block = states[lo[grp][:, None] + np.arange(sizes[grp[0]])]
            first = np.lexsort(block.T[::-1])
            new = np.r_[True, (block[first[1:]] != block[first[:-1]]).any(axis=1)]
            ids[grp[first]] = np.cumsum(new) - 1 + at
            at += int(new.sum())
            heads.append(grp[first[new]])
    return ids, np.concatenate(heads) if heads else np.zeros(0, dtype=np.intp)


class _Split(NamedTuple):
    """The evidence segments of a batch of trajectories ``evs``, split for
    stiffness. ``lists`` holds every evidence segment's subsystem, as the
    evidence lists it. Segment i is cut into chunks[i] equal pieces of duration
    dts[i], which share its list; rate[i] marks a segment entered through an
    asserted transition, where consecutive subsystems of a trajectory are
    disjoint. link_count[i] entries of ``links``, (j, k, e), tie the j-th
    state of the segment before to the k-th of segment i: the transitions
    between them at a rate boundary (e indexing Q's list), their common
    states at a projection (e = -1). ``times`` holds the boundary times of
    the pieces, trajectory t's from seg_off[t] + t on, seg_off being the
    running sum of the piece counts ``counts``."""

    evs: list
    lists: _Lists
    chunks: np.ndarray
    dts: np.ndarray
    rate: np.ndarray
    link_count: np.ndarray
    links: tuple
    times: np.ndarray
    counts: np.ndarray


def _split_batch(q: IntensityMatrix, evs: list) -> _Split:
    """Number the evidence lists of a batch and split the segments stiffer
    than the cap, by the joint generator's exit rates, into equal pieces,
    all trajectories in one step (``_Split``)."""
    if any(ev.n != q.n for ev in evs):
        raise ValueError("evidence dimension does not match the matrix")
    lists = _Lists.of(q, np.concatenate([ev.states for ev in evs]), np.concatenate([ev.sizes for ev in evs]))
    states, sizes = lists.states, lists.sizes
    dts = np.concatenate([ev.durations for ev in evs])
    bounds = np.concatenate([ev.boundaries for ev in evs])
    n_orig = np.array([ev.n_segments for ev in evs])
    traj = np.repeat(np.arange(len(evs)), n_orig)
    start = np.arange(len(dts)) + traj
    chunks = np.maximum(1, np.ceil(lists.lam * dts / _SEGMENT_STIFFNESS_CAP).astype(int))
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

    # Each segment's link to the one before, found once per distinct pair
    # of lists: their common states, or the transitions from one into the
    # other where they have none and the evidence asserts a transition.
    pairs = np.flatnonzero(traj[1:] == traj[:-1])
    _, heads, pair = np.unique(lists.ids[pairs] * (len(sizes) + 1) + lists.ids[pairs + 1], return_index=True,
                               return_inverse=True)
    pair = pair.reshape(-1)
    a, b = _some(states, sizes, pairs[heads]), _some(states, sizes, pairs[heads] + 1)
    rows = np.repeat(np.arange(len(heads)), b[1])
    found, j = _find(*a, rows, b[0])
    k = np.arange(len(rows)) - (np.cumsum(b[1]) - b[1])[rows]
    disjoint = np.flatnonzero(np.bincount(rows[found], minlength=len(heads)) == 0)
    tr, tj, tk, te = _restrict(q.transitions, _some(*a, disjoint), _some(*b, disjoint))
    row = np.concatenate((rows[found], disjoint[tr]))
    order = np.argsort(row, kind="stable")
    per = tuple(np.concatenate(x)[order] for x in ((j[found], tj), (k[found], tk), (np.full(int(found.sum()), -1), te)))
    count = np.bincount(row, minlength=len(heads))
    at, _ = _ranges((np.cumsum(count) - count)[pair], count[pair])
    link_count = np.zeros(len(sizes), dtype=np.intp)
    link_count[pairs + 1] = count[pair]
    rate = np.zeros(len(sizes), dtype=bool)
    rate[pairs + 1] = np.isin(pair, disjoint)
    return _Split(list(evs), lists, chunks, dts / chunks, rate, link_count, tuple(x[at].astype(np.int32) for x in per),
                  times, counts)


def _cut(s: _Split, a: int, b: int) -> _Split:
    """Trajectories a up to b of the split, as a split of their own."""
    segs = np.r_[0, np.cumsum([ev.n_segments for ev in s.evs])]
    lo, hi = segs[a], segs[b]
    at = {name: np.r_[0, np.cumsum(c)][[lo, hi]] for name, c in (("states", s.lists.sizes), ("links", s.link_count))}
    bd = np.r_[0, np.cumsum(s.counts + 1)][[a, b]]
    cut = lambda x, name: x[at[name][0] : at[name][1]]  # noqa: E731
    # The numbers of the cut's lists, renumbered, with their transitions.
    kept, ids = np.unique(s.lists.ids[lo:hi], return_inverse=True)
    count = s.lists.edge_count
    e, _ = _ranges((np.cumsum(count) - count)[kept], count[kept])
    lists = _Lists(cut(s.lists.states, "states"), s.lists.sizes[lo:hi], ids.reshape(-1), s.lists.lam[lo:hi],
                   count[kept], tuple(x[e] for x in s.lists.edges))
    return _Split(s.evs[a:b], lists, *(x[lo:hi] for x in (s.chunks, s.dts, s.rate, s.link_count)),
                  tuple(cut(x, "links") for x in s.links), s.times[bd[0] : bd[1]], s.counts[a:b])


def _join(x, y):
    """Two splits, or two of their fields, one after the other; the lists
    are numbered anew (``_Lists.join``), so a batch cut from the joined
    split equals its own split."""
    if isinstance(x, _Lists):
        return x.join(y)
    if isinstance(x, np.ndarray):
        return np.concatenate((x, y))
    if isinstance(x, list):
        return x + y
    joined = [_join(a, b) for a, b in zip(x, y)]
    return type(x)(*joined) if hasattr(x, "_fields") else tuple(joined)


def _pieces(s: _Split):
    """The evidence segment of every piece of the split, the first piece of
    every evidence segment, and whether each piece is entered through an
    asserted transition."""
    origin = np.repeat(np.arange(len(s.chunks)), s.chunks)
    first = np.cumsum(s.chunks) - s.chunks
    rate_before = np.zeros(len(origin), dtype=bool)
    rate_before[first[s.rate]] = True
    return origin, first, rate_before


# The largest subsystem served from the shared power tables: a segment of
# at most this many states takes its |S| x |S| exponential block from its
# subsystem's table of P^a, and its integrals from its bucket's recursion
# in the dense P; a larger one is applied to the rows as a uniformization
# series, which builds no block but takes one Python-level step per term.
# The crossover was measured for per-segment dense blocks, before the
# tables, on rings whose every segment has one |S| (30 segments per
# trajectory): blocks scored 1.05-1.8x faster up to |S| = 16, at 32 they
# were 1.1x faster for one trajectory and 1.4x slower for ten, at 64 and up
# slower throughout (CHANGES.md has the table).
_TABLE_MAX_STATES = 16

# The sweeps cut their series where the Poisson tail is at most this, so the
# messages are exact to rounding.
_SWEEP_TAIL = float(np.finfo(float).eps)

# Trajectories are swept in lockstep, one batch at a time, so the Python
# loop over segment positions runs once per batch rather than once per
# trajectory. This is the one memory knob: a batch is a run of consecutive
# trajectories whose arrays (``_entries``) hold at most this many entries,
# and the power tables, the exponential blocks and the convolution kernel
# work in slices of an eighth of it.
_BATCH_ELEMENTS = 1 << 19


def _entries(split: _Split, width: int) -> np.ndarray:
    """The array entries the split and its sweep hold for each trajectory,
    plan and propagator included. Per evidence segment: its states, the
    transitions within its list (three entries each) if it is its
    trajectory's first of that list, its links to the segment before
    (nine each: three in the split, three per direction in the plan), its
    exponential block (|S|^2, one entry for one state) or its series
    weights (``width`` terms, the most any piece needs), and a score of
    numbers. Per piece: its four message rows (|S| each), the plan's maps
    across the boundary from the piece before of the same segment (two
    entries per state and direction) and two dozen numbers. On occluded
    records of the n = 1024 ring the count is 3-5% above what they hold."""
    lists = split.lists
    segments = np.array([ev.n_segments for ev in split.evs])
    traj = np.repeat(np.arange(len(segments)), segments)
    _, first = np.unique(traj * len(lists.edge_count) + lists.ids, return_index=True)
    edges = np.zeros(len(lists.sizes), dtype=np.intp)
    edges[first] = lists.edge_count[lists.ids[first]]
    per = _segment_entries(lists.sizes, width, split.chunks, edges, split.link_count)
    return np.add.reduceat(per, np.cumsum(segments) - segments) + 1


def _segment_entries(s: np.ndarray, width: int, c=1, edges=0, links=0) -> np.ndarray:
    """``_entries``' count of an evidence segment of |S| = s states cut into
    c pieces, with ``edges`` transitions and ``links`` links counted."""
    block = np.where(s == 1, 1, np.where(s <= _TABLE_MAX_STATES, s * s, width))
    return s + 3 * edges + 9 * links + block + 20 + c * (4 * s + 26) + 4 * s * (c - 1)


def _batches(q: IntensityMatrix, evs: list):
    """Runs of consecutive trajectories whose entries (``_entries``) add up
    to at most _BATCH_ELEMENTS, always one trajectory at least, each as its
    split (``_split_batch``). The evidence lists are split in runs of
    trajectories whose count from the lists alone, each segment one piece
    without transitions or links (a lower bound of ``_entries``), is at
    most _BATCH_ELEMENTS where one trajectory fits. While what is held,
    read and split, fits in one batch, the next run is split; otherwise
    the first batch of it is yielded."""
    if not evs:
        return
    width = _series_width()
    segments = [ev.n_segments for ev in evs]
    per = _segment_entries(np.concatenate([ev.sizes for ev in evs]), width)
    read = np.cumsum(np.add.reduceat(per, np.cumsum(segments) - segments) + 1)
    held, lo = None, 0
    while held is not None or lo < len(evs):
        entries = np.cumsum(_entries(held, width)) if held is not None else np.zeros(1)
        if entries[-1] <= _BATCH_ELEMENTS and lo < len(evs):
            hi = max(lo + 1, int(np.searchsorted(read, (read[lo - 1] if lo else 0) + _BATCH_ELEMENTS, side="right")))
            part = _split_batch(q, evs[lo:hi])
            held, lo = part if held is None else _join(held, part), hi
            del part
            continue
        b = max(1, int(np.searchsorted(entries, _BATCH_ELEMENTS, side="right")))
        yield _cut(held, 0, b)
        held = _cut(held, b, len(held.evs)) if b < len(held.evs) else None


def _normalize_rows(v: np.ndarray, valid: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Clip the fresh padded rows v to nonnegative and scale each to unit
    sum in place. Row r's entries are those where valid[r]; in ``v[valid]``
    they start at starts[r]. Returns the log scales; a row without mass
    stays zero with log scale -inf, and so does everything swept from it.
    Each sum runs over its row's own entries (``np.add.reduceat``), so
    neither padding nor the rows beside it change it."""
    np.maximum(v, 0.0, out=v)
    s = np.add.reduceat(v[valid], starts)
    ok = s > 0.0
    v /= np.where(ok, s, 1.0)[:, None]
    return np.log(s, out=np.full_like(s, -np.inf), where=ok)


class _Layout(NamedTuple):
    """Segments ``seg`` in subsystem coordinates, one row each: column c of
    row r is the joint state idx[r, c], ascending, for c below |S_r|; past
    it the row is padded to the widest subsystem (valid False, idx that of
    some state)."""

    seg: np.ndarray
    idx: np.ndarray
    valid: np.ndarray


class _Rows(NamedTuple):
    """Rows of varying length one after the other: row r from flat[at[r]]
    on, and one zero past them all, which every padded gather reads."""

    flat: np.ndarray
    at: np.ndarray

    @classmethod
    def of(cls, rows) -> _Rows:
        """The rows of a 2-D array."""
        rows = np.asarray(rows, dtype=float)
        return cls(np.append(rows.reshape(-1), 0.0), np.arange(len(rows)) * rows.shape[1])

    def padded(self, r: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Rows r, entry c of row i where valid[i, c] and zero elsewhere."""
        at = self.at[r][:, None] + np.arange(valid.shape[1])
        return self.flat.take(np.where(valid, at, _FAR), mode="clip")


def _rows_dot(x: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The rows x[t] @ blocks[t]. Each sum runs over j in order, so zero
    padding past a row's subsystem, or zeros between its states, leave its
    result bitwise as it is on its own. einsum sums over j in order only
    where blocks have two columns or more: one column is summed in an
    order set by the row length, so it takes a zero column beside it."""
    if blocks.shape[2] == 1:
        return np.einsum("tj,tjk->tk", x, np.concatenate([blocks, np.zeros_like(blocks)], axis=2))[:, :1]
    return np.einsum("tj,tjk->tk", x, blocks)


def _runs_dot(x: np.ndarray, mats: np.ndarray, starts: list, out: np.ndarray | None = None) -> np.ndarray:
    """The rows x[r] @ mats[g] for the rows of run g, starts[g] <= r <
    starts[g + 1]: one product per run, summed over j in order as
    ``_rows_dot`` does, so a row's result does not depend on the rows beside
    it nor on zeros past its own columns of x."""
    out = np.empty((len(x), mats.shape[-1])) if out is None else out
    for g, (lo, hi) in enumerate(zip(starts, starts[1:])):
        np.einsum("rj,jk->rk", x[lo:hi], mats[g], out=out[lo:hi])
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
    """Subsystems S, each held for a time dt, uniformized for the sweeps and
    the integrals alike: lambda = max_{i in S} |q_ii|, mu = lambda dt,
    P = I + Q_S / lambda and exp(Q_S s) = sum_a Pois(a; lambda s) P^a. A row
    v on S goes to v P = v * keep + (v W_S) * jump, with W_S the rates of W
    within S (W_S^T for columns), so every term is nonnegative. lambda and P
    depend on the subsystem alone. The subsystems are boolean ``masks``, a
    row each, or index lists with their lambdas and transitions
    (``_Lists``), which the batch path passes; equal lists share a number
    (``mask_id``). Every
    product by W_S reads a subsystem's transitions (``transitions``,
    ``times``), and ``matrices`` builds from them the dense P of subsystems
    of 2 to _TABLE_MAX_STATES states (``tabled``): the sweeps' power tables
    and the integrals' recursion start from it. ``cut`` lays out any
    subsystems in their coordinates, padded to the widest."""

    def __init__(self, q: IntensityMatrix, masks, dts: np.ndarray):
        lists = masks if isinstance(masks, _Lists) else _Lists.read(q, masks)
        self.exit, self.joint = q.exit_rates, q.transitions
        self.sizes = lists.sizes
        self.lo = np.cumsum(self.sizes) - self.sizes
        self.states = lists.states
        self.cols = np.arange(int(self.sizes.max(initial=1)))
        self.mask_id = lists.ids
        # Q_S vanishes where no state of S has an exit; any rate uniformizes it.
        lam = np.where(lists.lam == 0.0, 1.0, lists.lam)
        self.lam, self.mu = lam, lam * dts
        self.tabled = (self.sizes > 1) & (self.sizes <= _TABLE_MAX_STATES)
        self.edges, self.edge_count = lists.edges, lists.edge_count
        self.edge_at = np.cumsum(self.edge_count) - self.edge_count

    def cut(self, seg: np.ndarray) -> _Layout:
        """The layout of the subsystems seg, padded to their widest S."""
        sizes = self.sizes.take(seg)
        cols = self.cols[: int(sizes.max(initial=1))]
        valid = cols < sizes[:, None]
        idx = self.states.take(np.where(valid, self.lo.take(seg)[:, None] + cols, 0), mode="clip")
        return _Layout(seg, idx, valid)

    def transitions(self, seg: np.ndarray):
        """The transitions within each subsystem seg: (r, j, k, e), e
        indexing the joint list, sorted by r, j and k."""
        ids = self.mask_id.take(seg)
        e, r = _ranges(self.edge_at.take(ids), self.edge_count.take(ids))
        return (r, *(a.take(e) for a in self.edges))

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
        """P of each subsystem seg, all of s states: stacked
        (len(seg), s, s)."""
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
    """The rows of one propagation: row r carries row dst[r] of the input
    across the subsystem seg[r] to row dst[r] of the output, by the columns
    of the exponential where ``columns[r]`` (a backward message); a table
    row finds its padded block in the templates' row tmpl[r] from
    blocks[at[r]] on. Input and output rows are on their subsystems, padded
    with zeros. The first ``tables`` rows are table rows, the rest series
    rows, row and column messages mixed in each; ``width`` is the widest
    table row's S."""

    seg: np.ndarray
    columns: np.ndarray
    dst: np.ndarray
    tmpl: np.ndarray
    at: np.ndarray
    tables: int
    width: int


class _Propagator(_Uniformization):
    """exp(Q_S dt) of every subsystem (mask, dt) of a batch, applied to
    message rows by one kernel, ``propagate``: a row message v goes to
    v exp(Q_S dt), a column message to exp(Q_S dt) v, both on S. Up to
    _TABLE_MAX_STATES states each segment's |S| x |S| exponential is built
    once, kept flat in ``blocks`` before one zero: one state takes
    e^(q_ii dt), and the segments of one subsystem take
    sum_a Pois(a; mu) P^a from its power table in one product, cut where
    each segment's own Poisson tail falls to _SWEEP_TAIL. Above it the
    series in P is applied to the rows, each segment's cut alike.
    """

    def __init__(self, q: IntensityMatrix, masks, dts: np.ndarray):
        super().__init__(q, masks, dts)
        sizes = self.sizes
        self.series = sizes > _TABLE_MAX_STATES
        table = np.flatnonzero(~self.series)
        one = table[sizes[table] == 1]
        self.blocks = np.zeros(int((sizes[table] ** 2).sum()) + 1)
        self.block_at = np.zeros(len(dts), dtype=np.intp)
        self.block_at[one] = np.arange(len(one))
        self.blocks[: len(one)] = np.exp(-self.exit[self.states[self.lo[one]]] * dts[one])
        at = len(one)
        # The tabled segments by size and subsystem, each slice's runs of
        # one subsystem sharing one power table P^a, a below its longest
        # series.
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
            _runs_dot(weights, mats, starts, out=out)
            at += len(seg) * s * s
        series = np.flatnonzero(self.series)
        self.terms = np.ones(len(dts), dtype=int)
        self.weight_row = np.zeros(len(dts), dtype=np.intp)
        if series.size:
            self.terms[series] = _series_terms(self.mu[series], _SWEEP_TAIL)
            self.weight_row[series] = np.arange(series.size)
            self.weights = _poisson_weights(self.mu[series], self.terms[series])

    def step(self, seg: np.ndarray, columns: np.ndarray) -> _Step:
        """A one-step plan: row r of the input across subsystem seg[r] to
        row r of the output."""
        order = np.argsort(self.series[seg], kind="stable")
        seg, columns = seg[order], columns[order]
        table = ~self.series[seg]
        return _Step(seg, columns, order, *self.blocks_of(seg, columns), int(table.sum()),
                     int(self.sizes[seg][table].max(initial=0)))

    def blocks_of(self, seg: np.ndarray, columns: np.ndarray):
        """The template rows and block starts of the table rows seg."""
        return self.sizes[seg] + (_TABLE_MAX_STATES + 1) * columns, self.block_at[seg]

    def apply(self, v: np.ndarray, seg: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """The n-length rows v[r] carried across subsystems seg[r], as column
        messages where columns[r]; zero off each subsystem."""
        lay = self.cut(seg)
        x = np.where(lay.valid, v[np.arange(len(v))[:, None], lay.idx], 0.0)
        out = np.zeros_like(x)
        self.propagate(x, self.step(seg, columns), out)
        res = np.zeros(np.shape(v))
        r, j = np.nonzero(lay.valid)
        res[r, lay.idx[r, j]] = out[r, j]
        return res

    def forward(self, v: np.ndarray, seg: np.ndarray) -> np.ndarray:
        return self.apply(v, seg, np.zeros(len(seg), dtype=bool))

    def backward(self, v: np.ndarray, seg: np.ndarray) -> np.ndarray:
        # Kept beside ``forward`` for the tests of the exponential blocks.
        return self.apply(v, seg, np.ones(len(seg), dtype=bool))

    def propagate(self, v: np.ndarray, step: _Step, out: np.ndarray) -> None:
        """The one propagation kernel: writes the rows of ``step`` from the
        padded rows v to the padded rows out, both on the rows' subsystems
        and zero past them. The table rows take one product, row and column
        messages together, the series rows one per term alike. Table rows
        read their padded blocks from ``blocks`` through the templates,
        zero past |S|, and every sum runs over j in order, so a row's result
        does not depend on the rows beside it."""
        tables, tw = step.tables, step.width
        if tables:
            dst = step.dst[:tables]
            at = _templates(_TABLE_MAX_STATES)[step.tmpl[:tables], :tw, :tw]
            at += step.at[:tables, None, None]
            out[dst, :tw] = _rows_dot(v[dst, :tw], self.blocks.take(at, mode="clip"))
        if len(step.seg) > tables:
            dst = step.dst[tables:]
            lay = self.cut(step.seg[tables:])
            w = lay.idx.shape[1]
            out[dst, :w] = self._series(v[dst, :w], lay, self.times(lay, step.columns[tables:]))

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
    """A batch of trajectories split into pieces and swept forward and,
    where ``_sweep`` ran both sweeps, backward.

    Trajectory t owns pieces ``seg_off[t]`` up to ``seg_off[t] + counts[t]``
    and boundaries ``seg_off[t] + t`` up to ``seg_off[t] + t + counts[t]``
    inclusive, so piece s of trajectory t starts at boundary s + t in
    global indices. ``times`` holds the boundary times, ``dts`` the piece
    durations, ``origin`` each piece's evidence segment (its row of the
    split's lists and of the propagator ``prop``), ``rate_before[s]`` marks a
    piece entered through an asserted transition.

    Each piece has four message rows on its subsystem: the forward message
    at its start (in ``ins``) and at its end (in ``outs``), both at row
    frow[s], and the backward message at its end (``ins``) and at its start
    (``outs``), both at row brow[s]; row r starts at at[r] in its store, and
    its log scale is in_log[r] or out_log[r]. So ``fwd`` is the forward
    input, ``fwd_pre`` the forward output, ``bwd_post`` the backward output
    and ``bwd`` at a rate boundary the backward input of the piece before
    (at a projection it is ``bwd_post``). ``log_probs_backward`` are the
    backward sweep's log-likelihoods.
    """

    p0: np.ndarray
    split: _Split
    prop: _Uniformization | None
    times: np.ndarray
    dts: np.ndarray
    origin: np.ndarray
    rate_before: np.ndarray
    counts: np.ndarray
    seg_off: np.ndarray
    frow: np.ndarray
    brow: np.ndarray | None
    at: np.ndarray
    ins: np.ndarray
    outs: np.ndarray
    in_log: np.ndarray
    out_log: np.ndarray
    log_probs_backward: np.ndarray | None = None

    @property
    def starts(self) -> np.ndarray:
        """The first boundary of every trajectory."""
        return self.seg_off + np.arange(len(self.counts))

    @property
    def log_probs(self) -> np.ndarray:
        return self.out_log[self.frow[self.seg_off + self.counts - 1]]

    def bounds(self, t: int) -> slice:
        lo = self.seg_off[t] + t
        return slice(lo, lo + self.counts[t] + 1)

    def segments(self, t: int) -> slice:
        return slice(self.seg_off[t], self.seg_off[t] + self.counts[t])

    def log_prob(self, t: int) -> float:
        return float(self.log_probs[t])

    def dead(self, t: int) -> int | None:
        """The first boundary whose forward message has no mass, if any."""
        hit = np.flatnonzero(np.isneginf(self.message_logs(t, "fwd")))
        return int(hit[0]) if hit.size else None

    def raise_if_impossible(self, first: int = 0):
        """Raise ``ZeroProbabilityEvidenceError`` for the first trajectory
        whose evidence has no mass; its index counts from ``first``."""
        dead = np.flatnonzero(~np.isfinite(self.log_probs))
        if dead.size:
            t = int(dead[0])
            raise ZeroProbabilityEvidenceError(self.dead(t), first + t)

    def slots(self, t: int, name: str):
        """Where trajectory t's message ``name`` sits at each of its
        boundaries: the store (0 for ``ins``, 1 for ``outs``, -1 for p0 and
        -2 for the uniform 1/n), the row in it and the piece whose subsystem
        the row is on."""
        s = np.arange(self.seg_off[t], self.seg_off[t] + self.counts[t])
        last, one, zero = s[-1:], np.ones(len(s), dtype=int), np.zeros(len(s), dtype=int)
        if name == "fwd":
            return np.r_[zero, 1], self.frow[np.r_[s, last]], np.r_[s, last]
        if name == "fwd_pre":
            return np.r_[-1, one], self.frow[np.r_[s[:1], s]], np.r_[s[:1], s]
        if name == "bwd_post":
            return np.r_[one, -2], self.brow[np.r_[s, last]], np.r_[s, last]
        rate = self.rate_before[s]
        piece = np.where(rate, s - 1, s)
        return np.r_[np.where(rate, 0, 1), -2], self.brow[np.r_[piece, last]], np.r_[piece, last]

    def message_logs(self, t: int, name: str) -> np.ndarray:
        """The log scales of trajectory t's message ``name``."""
        store, row, _ = self.slots(t, name)
        logs = np.where(store == 0, self.in_log[row], self.out_log[row])
        logs[store == -1] = 0.0
        logs[store == -2] = math.log(len(self.p0))
        return logs

    def states_of(self, piece: np.ndarray):
        """Every state of each piece's subsystem, piece by piece: (r, j,
        state) for the j-th state of piece[r]."""
        lists = self.split.lists
        lo = (np.cumsum(lists.sizes) - lists.sizes)[self.origin[piece]]
        i, r = _ranges(lo, lists.sizes[self.origin[piece]])
        return r, i - lo[r], lists.states[i]

    def message(self, t: int, name: str) -> np.ndarray:
        """Trajectory t's message ``name``, one n-length row per boundary."""
        store, row, piece = self.slots(t, name)
        out = np.zeros((len(store), len(self.p0)))
        kept = np.flatnonzero(store >= 0)
        r, j, state = self.states_of(piece[kept])
        at = self.at[row[kept]][r] + j
        out[kept[r], state] = np.where(store[kept][r] == 0, self.ins.take(at), self.outs.take(at))
        out[store == -1] = self.p0
        out[store == -2] = 1.0 / len(self.p0)
        return out

    def posterior(self, piece: np.ndarray, end: np.ndarray):
        """fwd * bwd_post at the first boundary of each piece, or at its
        last where ``end``, on the piece's subsystem: (r, state, value) for
        every state of each piece[r]."""
        r, j, state = self.states_of(piece)
        at = self.at[self.frow[piece]][r] + j
        fwd = np.where(end[r], self.outs.take(at), self.ins.take(at))
        bwd = np.where(end[r], 1.0 / len(self.p0), self.outs.take(self.at[self.brow[piece]][r] + j))
        return r, state, fwd * bwd


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
    with a piece i across it, and with ``backward`` the backward messages
    across the i-th piece from the end, a row each: the backward rows first,
    then the forward ones, in lockstep order (``_lockstep``). This is the
    step's row order, in which its messages are stored. After the step,
    the rows of trajectories with a piece i + 1 cross the boundary to their
    next piece, and in that order are the next step's input.

    Per row, in step order and by kind within a step (``_Step``): its
    subsystem, direction, row in the step and block; per step, the count
    and the width of its table rows, the width of all its rows and the
    offsets of its rows in ``rows``. Per row in step order: its size, where
    it is stored (``at``) and where that is from its step's first row
    (``within``); per piece, its forward row and backward row. The crossing
    of each step as flat indices into the step's padded rows and the next
    step's: at rate boundaries ``rate_frm``, ``rate_to`` and the transition
    ``rate_e`` (the rows leave subsystem ``rate_leave`` and enter
    ``rate_enter``), elsewhere the common states (``copy_frm``,
    ``copy_to``). Every array is O(pieces) long, or O(|S|) per boundary and
    the transitions across it; no padded index or block is kept.
    """

    def __init__(self, prop: _Propagator, split: _Split, backward: bool):
        counts = split.counts
        cnt, soff, _, sizes = _lockstep(counts, np.cumsum(counts) - counts)
        steps = int(cnt[0])
        a, cont = sizes[:steps], sizes[1:]
        back = a if backward else np.zeros_like(a)
        origin, first, _ = _pieces(split)
        # Every (step k, lockstep row t) pair, step by step, and the row of
        # each forward and backward message in step order.
        k = np.repeat(np.arange(steps), a)
        t = np.arange(len(k)) - np.repeat(np.cumsum(a) - a, a)
        rows = np.r_[0, np.cumsum(back + a)]
        fpiece = soff[t] + k
        piece = np.empty(rows[-1], dtype=np.intp)
        piece[rows[k] + back[k] + t] = fpiece
        columns = np.zeros(rows[-1], dtype=bool)
        self.frow = np.empty(len(origin), dtype=np.intp)
        self.frow[fpiece] = rows[k] + back[k] + t
        self.brow = None
        if backward:
            bpiece = soff[t] + cnt[t] - 1 - k
            piece[rows[k] + t] = bpiece
            columns[rows[k] + t] = True
            self.brow = np.empty(len(origin), dtype=np.intp)
            self.brow[bpiece] = rows[k] + t
        seg = origin[piece]
        self.sizes = prop.sizes[seg]
        self.at = np.cumsum(self.sizes) - self.sizes
        step = np.repeat(np.arange(steps), back + a)
        self.within = self.at - self.at[rows[step]]
        kind = prop.series[seg]
        order = np.argsort(2 * step + kind, kind="stable")
        self.seg, self.columns = seg[order], columns[order]
        self.dst = (np.arange(rows[-1]) - rows[step])[order]
        self.tmpl, self.block = prop.blocks_of(self.seg, self.columns)
        self.steps = steps
        # Past the last step, one step without rows.
        self.rows = rows.tolist() + [rows[-1]]
        self.stored = np.r_[self.at[rows[:-1]], self.at[-1] + self.sizes[-1]].tolist()
        self.stored.append(self.stored[-1])
        self.tables = np.add.reduceat(~kind, rows[:-1], dtype=np.intp).tolist()
        self.widths = np.maximum.reduceat(np.where(kind, 0, self.sizes), rows[:-1]).tolist()
        self.wide = np.maximum.reduceat(self.sizes, rows[:-1]).tolist() + [0]
        self.back, self.cont = back.tolist(), cont[:steps].tolist()
        del seg, kind, step, order, columns

        # The crossings: every row of a trajectory with a next piece, its
        # row in the step and in the next, and the later piece of the two,
        # whose first piece of its evidence segment starts at a link.
        go = np.flatnonzero(t < cont[k])
        kk, tt = k[go], t[go]
        nxt = np.r_[back[1:], 0][kk]
        step, orow, vrow, later, flip = [kk], [back[kk] + tt], [nxt + tt], [fpiece[go] + 1], [np.zeros(len(go), bool)]
        if backward:
            step.append(kk)
            orow.append(tt)
            vrow.append(tt)
            later.append(bpiece[go])
            flip.append(np.ones(len(go), bool))
        step, orow, vrow, later, flip = (np.concatenate(x) for x in (step, orow, vrow, later, flip))
        order = np.argsort(step, kind="stable")
        step, later, flip = step[order], later[order], flip[order]
        wide = np.asarray(self.wide)
        frm, to = (orow[order] * wide[step]).astype(np.int32), (vrow[order] * wide[step + 1]).astype(np.int32)
        # Each row's entries, as flat indices into its step's padded rows
        # and the next step's: its link's, or at a boundary between pieces
        # of one segment its states themselves.
        seg = origin[later]
        link = first[seg] == later
        rows = np.flatnonzero(link)
        at, r = _ranges((np.cumsum(split.link_count) - split.link_count)[seg[rows]], split.link_count[seg[rows]])
        r = rows[r]
        j, k, e = (x[at] for x in split.links)
        del at
        f = flip[r]
        src, dst = np.where(f, k, j), np.where(f, j, k)
        del j, k, f
        src += frm[r]
        dst += to[r]
        rate = e >= 0
        self.rate_frm, self.rate_to, self.rate_e = src[rate], dst[rate], e[rate]
        self.rate_at = np.searchsorted(step[r[rate]], np.arange(steps + 1)).tolist()
        rows = np.flatnonzero(~link)
        i, ir = _ranges(np.zeros(len(rows), dtype=np.intp), prop.sizes[seg[rows]])
        ir = rows[ir]
        cstep = np.concatenate((step[r[~rate]], step[ir]))
        order = np.argsort(cstep, kind="stable")
        self.copy_frm = np.concatenate((src[~rate], frm[ir] + i))[order]
        self.copy_to = np.concatenate((dst[~rate], to[ir] + i))[order]
        self.copy_at = np.searchsorted(cstep[order], np.arange(steps + 1)).tolist()
        del r, e, src, dst, rate, i, ir, cstep, order
        crossing = np.flatnonzero(split.rate[seg] & link)
        self.rate_leave = origin[np.where(flip[crossing], later[crossing], later[crossing] - 1)]
        self.rate_enter = origin[np.where(flip[crossing], later[crossing] - 1, later[crossing])]
        # Offsets are read one at a time; the index arrays are kept in 32
        # bits where they fit.
        for name in ("seg", "dst", "tmpl", "block", "sizes", "within", "frow", "brow", "rate_frm", "rate_to", "rate_e",
                     "copy_frm", "copy_to", "rate_leave", "rate_enter"):
            if getattr(self, name) is not None:
                setattr(self, name, getattr(self, name).astype(np.int32))

    def step(self, i: int) -> _Step:
        """The rows of step i."""
        lo, hi = self.rows[i], self.rows[i + 1]
        return _Step(self.seg[lo:hi], self.columns[lo:hi], self.dst[lo:hi], self.tmpl[lo:hi], self.block[lo:hi],
                     self.tables[i], self.widths[i])

    def valid(self, i: int, cols: np.ndarray) -> np.ndarray:
        """Which entries of step i's padded rows are on their subsystems."""
        return cols[: self.wide[i]] < self.sizes[self.rows[i] : self.rows[i + 1], None]


def _sweep(q: IntensityMatrix, p0, split: _Split, backward: bool = True, first: int = 0) -> _Sweep:
    """Sweep the pieces of a split batch forward and, with ``backward``,
    backward, both in one loop over the steps of the batch's plan: per step
    one ``_Propagator.propagate`` of all its rows, one normalization, the
    boundary factors (the common states of the next subsystem, or the rates
    into it) and one more normalization. Every row is on its subsystem,
    padded to the step's widest. Raises ``ForwardBackwardMismatchError``
    where the two sweeps' log-likelihoods of a trajectory disagree; its
    index counts from ``first``."""
    if q.kind != "proper":
        raise ValueError("forward-backward needs a proper intensity matrix")
    p0 = validate_distribution(p0, q.n)
    n = q.n
    prop = _Propagator(q, split.lists, split.dts)
    plan = _Plan(prop, split, backward)
    rates, cols = prop.joint[2], prop.cols
    ins, outs = np.zeros(plan.stored[-1] + 1), np.zeros(plan.stored[-1] + 1)

    # Step 0's input: the backward rows all 1/n at the horizon, the forward
    # rows p0 projected onto the first subsystem.
    back = plan.back[0]
    valid = plan.valid(0, cols)
    v = np.zeros(valid.shape)
    v[:back] = valid[:back] / n
    seg = np.empty(plan.rows[1], dtype=np.intp)
    seg[plan.dst[: plan.rows[1]]] = plan.seg[: plan.rows[1]]
    lay = prop.cut(seg[back:])
    v[back:, : lay.idx.shape[1]] = np.where(lay.valid, p0[lay.idx], 0.0)
    within = plan.within[back : plan.rows[1]]
    lv = np.r_[np.full(back, math.log(n)), _normalize_rows(v[back:], valid[back:], within - within[:1])]
    ins[plan.stored[0] : plan.stored[1]] = v[valid]
    in_logs, out_logs = [lv], []

    for i in range(plan.steps):
        lo, hi = plan.rows[i], plan.rows[i + 1]
        out = np.zeros(valid.shape)
        prop.propagate(v, plan.step(i), out)
        lp = lv + _normalize_rows(out, valid, plan.within[lo:hi])
        outs[plan.stored[i] : plan.stored[i + 1]] = out[valid]
        out_logs.append(lp)

        # Across the boundary: the rates into the next subsystem, or its
        # states found in this one.
        back, c = plan.back[i], plan.cont[i]
        valid = plan.valid(i + 1, cols)
        flat = out.reshape(-1)
        r0, r1, c0, c1 = plan.rate_at[i], plan.rate_at[i + 1], plan.copy_at[i], plan.copy_at[i + 1]
        v = (np.bincount(plan.rate_to[r0:r1], flat.take(plan.rate_frm[r0:r1]) * rates.take(plan.rate_e[r0:r1]),
                         valid.size) if r1 > r0 else np.zeros(valid.size))
        v[plan.copy_to[c0:c1]] = flat.take(plan.copy_frm[c0:c1])
        v = v.reshape(valid.shape)
        ls = _normalize_rows(v, valid, plan.within[hi : plan.rows[i + 2]])
        ins[plan.stored[i + 1] : plan.stored[i + 2]] = v[valid]
        lv = (np.concatenate((lp[:c], lp[back : back + c])) if backward else lp[:c]) + ls
        in_logs.append(lv)

    origin, _, rate_before = _pieces(split)
    seg_off = np.cumsum(split.counts) - split.counts
    f = _Sweep(p0, split, prop, split.times, split.dts[origin], origin, rate_before, split.counts, seg_off,
               plan.frow, plan.brow, plan.at, ins, outs, np.concatenate(in_logs), np.concatenate(out_logs))
    if not backward:
        return f

    # Boundary 0 never asserts a transition: its ``bwd`` is ``bwd_post``.
    r, j, state = f.states_of(seg_off)
    sizes = prop.sizes[origin[seg_off]]
    mass = np.add.reduceat(p0[state] * outs.take(plan.at[plan.brow[seg_off]][r] + j), np.cumsum(sizes) - sizes)
    log_probs = np.log(mass, out=np.full(len(mass), -np.inf), where=mass > 0.0) + f.out_log[f.brow[seg_off]]
    forward = f.log_probs
    with np.errstate(invalid="ignore"):
        ok = np.abs(forward - log_probs) <= FORWARD_BACKWARD_TOL * np.maximum(1.0, np.abs(forward))
    bad = np.flatnonzero(np.isfinite(forward) & ~ok)
    if bad.size:
        t = int(bad[0])
        raise ForwardBackwardMismatchError(first + t, float(forward[t]), float(log_probs[t]))
    return f._replace(log_probs_backward=log_probs)


def _sweeps(q: IntensityMatrix, p0, evs: list, backward: bool = True, possible: bool = True):
    """The one lockstep loop: the trajectories evs cut into batches, each
    swept by ``_sweep``, forward and, with ``backward``, backward. Yields
    (first, batch, sweep), first being the index in evs of the batch's
    first trajectory. With ``possible``, evidence without mass raises.
    Every error counts trajectories across batches."""
    first = 0
    for split in _batches(q, evs):
        f = _sweep(q, p0, split, backward, first)
        if possible:
            f.raise_if_impossible(first)
        yield first, split.evs, f
        # No batch is held here while the next one is swept.
        del f
        first += len(split.evs)


def forward_backward_many(q: IntensityMatrix, p0, evidences) -> list[MessageCache]:
    """``forward_backward`` over many trajectories, swept a lockstep batch at
    a time; each cache equals its lone sweep bitwise."""
    caches: list[MessageCache] = []
    for _, batch, f in _sweeps(q, p0, list(evidences), possible=False):
        # The caches keep the lists but not their transitions, which the
        # statistics and the marginals cut again.
        swept = f._replace(prop=None, split=f.split._replace(lists=f.split.lists._replace(edge_count=None, edges=None)))
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
    f = cache._sweep
    bounds = cache.times
    # Each time's last boundary within tol, or else the segment it is in.
    i = np.maximum(np.searchsorted(bounds, times + tol, side="right") - 1, 0)
    last = len(bounds) - 1
    piece = f.seg_off[cache._t] + np.minimum(i, last - 1)
    raw = np.zeros((len(times), cache.q.n))
    r, state, value = f.posterior(piece, i == last)
    raw[r, state] = value
    inner = np.flatnonzero(bounds[i] < times - tol)
    if inner.size:
        # One propagator: the piece over [bounds[k], t] carries the forward
        # message at its start to t, the one over [t, bounds[k + 1]] the
        # backward message at its end back to t.
        k, m, ti = i[inner], len(inner), times[inner]
        dts = np.concatenate((ti - bounds[k], bounds[k + 1] - ti))
        s = np.concatenate((piece[inner], piece[inner]))
        lists = f.split.lists
        prop = _Propagator(cache.q, _Lists.of(cache.q, *_some(lists.states, lists.sizes, f.origin[s])), dts)
        seg = np.arange(2 * m)
        lay = prop.cut(seg)
        x = _Rows(f.ins, f.at).padded(np.concatenate((f.frow[s[:m]], f.brow[s[m:]])), lay.valid)
        ab = np.zeros_like(x)
        prop.propagate(x, prop.step(seg, seg >= m), ab)
        raw[inner] = 0.0
        rr, jj = np.nonzero(lay.valid[:m])
        raw[inner[rr], lay.idx[rr, jj]] = np.clip(ab[rr, jj], 0.0, None) * np.clip(ab[m + rr, jj], 0.0, None)
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
    f0,
    beta,
    groups: np.ndarray,
    tol: float,
    dwell: np.ndarray,
    out: np.ndarray,
    rates: bool = True,
) -> None:
    """Add the pairwise integrals J[j, k] = int_0^dt f_j(s) b_k(s) ds of
    the subsystems ``rows`` of the uniformization u to group groups[r]: the
    diagonal to the n-length row dwell[g], and J at the transitions of S
    times their rates to the group's expected counts, transition e of the
    joint list at out.reshape(-1)[g * E + e] for E transitions in the list
    (where ``rates`` is false, all of J to the n x n out[g]). Row r has
    f(s) = f0[r] exp(Q_S s), b(s) = exp(Q_S (dt - s)) beta[r] and Q_S is Q
    restricted to the row's subsystem S. f0 and beta are in S's
    coordinates: row r holds the end vectors in its first |S| entries, of a
    2-D array (the rest is not read) or of ``_Rows``. So J vanishes outside
    S x S, and a row with dt = 0 contributes zero.

    In the series of exp(Q_S s) in P, with u = f0 (x) beta (on S x S),
    J = sum_{a, b} c_{a+b} (P^T)^a u (P^T)^b and c_k = Pois(k + 1; mu) /
    lambda, the sweeps' Poisson weights shifted by one. Each row's series
    stops where its own Poisson tail is below tol * _ROW_TAIL_SHARE (at
    least epsilon), which bounds the error of every column of J by
    tol * dt * |f0|_1 * max(beta).

    Rows of 2 to _TABLE_MAX_STATES states go by bucket, the rows of one
    subsystem and one group: J is linear in u, so a bucket's sum needs only
    E_k = sum_r c_k(r) u_r, one product C^T U per bucket, and then the
    double series once, from the top term down by Horner in P:
    V_a = E_a + V_{a+1} P^T and Z_a = V_a + P^T Z_{a+1}, Z_0 being the
    bucket's summed J. A slice's buckets run the recursion together. The
    other rows, the joint space included, go by size of S and then by
    series length, so that a slice's rows need about as many terms as its
    longest: J = sum_a F_a^T H_a with F_a = f0 P^a and
    H_a = c_a beta + P H_{a+1}, one product by their transitions per term
    (``_powers``); the dwell is sum_a F_a o H_a and a transition (j, k)
    takes sum_a F_a[j] H_a[k], term by term, so no |S| x |S| J is formed
    but where ``rates`` is false. Either way a slice's temporaries (the
    rows' weights C and products U, its buckets' E and recursion; or the
    stacks F and H and three numbers per transition) stay within
    _BATCH_ELEMENTS // 8 entries where one row and its bucket fit, and a
    bucket cut across slices adds its J in parts.
    """
    f0, beta = (x if isinstance(x, _Rows) else _Rows.of(x) for x in (f0, beta))
    m, n = len(rows), dwell.shape[1]
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

    def add(lay, g, diagonal, value):
        """Add the integrals of the layout's rows to their groups g: the
        diagonal to the dwell times, and value(r, j, k), J of row r at
        (j, k), at the transitions of S times their rates (at every entry
        where ``rates`` is false)."""
        np.add.at(dwell.reshape(-1), g[:, None] * n + lay.idx, np.where(lay.valid, diagonal, 0.0))
        if rates:
            r, j, k, e = u.transitions(lay.seg)
            np.add.at(out.reshape(-1), g[r] * len(u.joint[0]) + e, u.joint[2].take(e) * value(r, j, k))
        else:
            r, j, k = np.nonzero(lay.valid[:, :, None] & lay.valid[:, None, :])
            np.add.at(out.reshape(-1), (g[r] * n + lay.idx[r, j]) * n + lay.idx[r, k], value(r, j, k))

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
        # subsystem side by side, rows j first: they share P, so its
        # products by P^T, on the right and on the left, are one each. A
        # subsystem's last matrix is padded with zero buckets, a quarter of
        # the buckets at most. The matrices go by descending series length,
        # so that those still summing at term a are a prefix, live[a] long;
        # bucket i sits at slot[i] // size, column block slot[i] % size.
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
        prod = (f0.padded(seg, lay.valid)[:, :, None] * beta.padded(seg, lay.valid)[:, None, :]).reshape(len(seg), s * s)
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
        z = z.reshape(len(rank), s, size, s).transpose(0, 2, 1, 3).reshape(-1, s, s)[slot]
        add(u.cut(rows[sl[heads]]), groups[sl[heads]], np.diagonal(z, axis1=1, axis2=2), lambda r, j, k: z[r, j, k])

    rest = np.flatnonzero(~u.tabled[rows])
    if not rest.size:
        return
    order = rest[np.lexsort((terms[rest], sizes[rest]))]
    # Per row: its weights and its stacks F and H, and its J at the
    # transitions of S with two per transition read from F and H per term
    # (its block J where ``rates`` is false).
    at_pairs = 3 * u.edge_count[u.mask_id[rows[order]]] if rates else sizes[order] ** 2
    ends = np.cumsum((2 * sizes[order] + 1) * int(terms[rest].max()) + at_pairs)
    lo = 0
    while lo < len(order):
        hi = max(lo + 1, int(np.searchsorted(ends, _BATCH_ELEMENTS // 8 + (ends[lo - 1] if lo else 0), side="right")))
        sl = order[lo:hi]
        lo = hi
        lay = u.cut(rows[sl])
        keep, jump = u.keep_jump(lay)
        c = weights(sl)
        f = _powers(f0.padded(sl, lay.valid), u.times(lay, np.zeros(len(sl), dtype=bool)), keep, jump, c.shape[1] - 1)
        b, times = beta.padded(sl, lay.valid), u.times(lay, np.ones(len(sl), dtype=bool))
        h = np.empty_like(f)
        h[:, -1] = c[:, -1, None] * b
        for a in range(c.shape[1] - 2, -1, -1):
            x = h[:, a + 1]
            h[:, a] = c[:, a, None] * b + x * keep + times(x) * jump
        if rates:
            add(lay, groups[sl], np.einsum("rak,rak->rk", f, h), lambda r, j, k: _pair_sums(f, h, r, j, k))
        else:
            jj = f.transpose(0, 2, 1) @ h
            add(lay, groups[sl], np.diagonal(jj, axis1=1, axis2=2), lambda r, j, k: jj[r, j, k])


def _pair_sums(f: np.ndarray, h: np.ndarray, r: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """sum_a f[r, a, j] h[r, a, k] for every (r, j, k), term by term, so
    that no more than one term's entries are gathered at a time."""
    terms, width = f.shape[1:]
    at_f, at_h = r * (terms * width) + j, r * (terms * width) + k
    ff, hh = f.reshape(-1), h.reshape(-1)
    out = np.zeros(len(r))
    for a in range(terms):
        out += ff.take(at_f + a * width) * hh.take(at_h + a * width)
    return out


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
    the pieces of a swept batch, summed per group: trajectory t adds to
    group groups[t], and a trajectory whose group is negative is skipped.
    Counts are added by their transition's index in the joint list. Every
    message is read on its piece's subsystem.

    A positive-length piece restricted to one state adds its duration
    where it carries mass (the integrand is constant). The factor of an
    asserted transition into piece s acts at its first boundary, from S1,
    the subsystem of piece s - 1, into S2, piece s's; its posterior counts
    are W[S1, S2] o outer(a, b) / (a W[S1, S2] b) with a the forward
    message at the end of piece s - 1 and b the backward message at the
    start of piece s, read at the split's links, the transitions from S1
    into S2. Every other positive-length piece runs from its forward input
    to its backward input, the backward message at its end; scaled by
    exp(in_log - out_log) of its backward row, exp(Q_S dt) carries that to
    the backward message at its start, and dividing by the piece's
    evidence mass (the dot product of the forward input and that message,
    zero where it has none) makes it the right vector of the piece's
    convolution integrals, all of which go through one call of the
    uniformization kernel. The time-zero posterior is fwd * bwd_post,
    normalized, at the last boundary at t = 0. The trajectories of the
    groups must have mass (the callers check);
    ``ZeroProbabilityEvidenceError`` is raised for one whose time-zero
    posterior has none, its index counted from ``first``.
    """
    asked = groups >= 0
    n = len(f.p0)
    n_groups = int(groups.max(initial=-1)) + 1
    u = f.prop
    seg_traj = np.repeat(np.arange(len(f.counts)), f.counts)
    seg_group = groups[seg_traj]
    seg_asked = asked[seg_traj]
    dwell = np.zeros((n_groups, n))
    trans = np.zeros((n_groups, len(u.joint[0])))
    sizes = u.sizes[f.origin]
    pos = (f.dts > 0.0) & seg_asked

    sing = np.flatnonzero(pos & (sizes == 1))
    alive = f.ins[f.at[f.frow[sing]]] * f.outs[f.at[f.brow[sing]]] > 0.0
    np.add.at(dwell, (seg_group[sing][alive], u.states[u.lo[f.origin[sing]]][alive]), f.dts[sing][alive])

    into = np.flatnonzero(f.rate_before & seg_asked)
    link_count = f.split.link_count
    li, r = _ranges((np.cumsum(link_count) - link_count)[f.origin[into]], link_count[f.origin[into]])
    seg = into[r]
    j, k, e = (a[li] for a in f.split.links)
    counts = u.joint[2].take(e) * f.outs[f.at[f.frow[seg - 1]] + j] * f.outs[f.at[f.brow[seg]] + k]
    totals = np.bincount(r, counts, len(into))
    # A boundary without mass has no counts, all zero already.
    counts /= np.where(totals > 0.0, totals, 1.0)[r]
    np.add.at(trans, (seg_group[seg], e), counts)

    general = np.flatnonzero(pos & (sizes > 1))
    held = f.origin[general]
    r, j, _ = f.states_of(general)
    fwd, bwd = f.at[f.frow[general]], f.at[f.brow[general]]
    starts = np.cumsum(sizes[general]) - sizes[general]
    inner = np.add.reduceat(f.ins[fwd[r] + j] * f.outs[bwd[r] + j], starts)
    ok = inner > 0.0
    log_scale = f.in_log[f.brow[general]] - np.where(ok, f.out_log[f.brow[general]], 0.0)
    scale = np.where(ok, np.exp(log_scale) / np.where(ok, inner, 1.0), 0.0)
    beta = _Rows(np.append(f.ins[bwd[r] + j] * scale[r], 0.0), starts)
    _convolution_batch(u, held, _Rows(f.ins, fwd), beta, seg_group[general], tol, dwell, trans)

    horizons = f.times[f.starts + f.counts]
    at_zero = np.abs(f.times) <= _TIME_EPS * np.maximum(1.0, np.repeat(horizons, f.counts + 1))
    who = np.flatnonzero(asked)
    i = np.maximum.reduceat(np.where(at_zero, np.arange(len(f.times)), -1), f.starts)[who] - f.starts[who]
    end = i == f.counts[who]
    r, state, raw = f.posterior(f.seg_off[who] + i - end, end)
    mass = np.bincount(r, raw, len(who))
    if not (mass > 0.0).all():
        k = int(np.flatnonzero(~(mass > 0.0))[0])
        raise ZeroProbabilityEvidenceError(int(i[k]), first + int(who[k]))
    initial = np.zeros((n_groups, n))
    np.add.at(initial, (groups[who][r], state), raw / mass[r])
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
    E-step, once, on that batch's rows, one group per trajectory; the
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
        lists = sweep.split.lists
        u = _Uniformization(q, _Lists.of(q, lists.states, lists.sizes), sweep.split.dts)
        s = _statistics(sweep._replace(prop=u), tol, groups)
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
