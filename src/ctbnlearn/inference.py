"""Exact smoothing and expected sufficient statistics under subsystem evidence.

Evidence only restricts the joint process: while a segment holds it in a
subsystem S, its generator is Q masked to S x S. A forward-backward sweep
propagates scaled messages across evidence segments. Between consecutive
segments whose subsystems are disjoint, the evidence asserts a transition
and the boundary factor is Q's off-diagonal masked to S1 x S2, applied as
masked vector products with the one shared off-diagonal; when the
subsystems overlap, the boundary is a projection onto the next subsystem
(zero-length segments therefore act as plain indicators). Many
trajectories under one Q are swept in lockstep, one row each, so the
Python loop runs once per segment position of a batch. The message
cache keeps the joint Q, the segment masks, durations and boundary kinds,
and the O(boundaries * n) scaled messages; each restricted generator is
derived from (Q, mask) where it is used. Expected dwell times and
transition counts reduce to pairwise convolution integrals over each
segment, all n^2 of which are computed in one adaptive Runge-Kutta pass
per segment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .evidence import Evidence, _masked, _off_diagonal
from .markov import IntensityMatrix, expm, validate_distribution

__all__ = [
    "DEFAULT_QUAD_TOL",
    "ZeroProbabilityEvidenceError",
    "StepUnderflowError",
    "MessageCache",
    "FlatStatistics",
    "forward_backward",
    "smoothed_marginal",
    "expected_dwell",
    "expected_transitions",
    "expected_statistics",
    "convolution_integrals",
]

#: Default relative tolerance of the adaptive quadrature.
DEFAULT_QUAD_TOL = 1e-8

_SCALE_FLOOR = 1e-30
_MIN_STEP = 1e-12
# Per-step acceptance is tightened by this factor so the accumulated global
# quadrature error stays within the caller's tolerance with margin.
_STEP_SAFETY = 0.125
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


class StepUnderflowError(RuntimeError):
    """The adaptive step controller drove the step below dt * 1e-12."""


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
    in log space regardless of trajectory length.

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
# below this; the split bounds the dynamic range the scaled messages and the
# quadrature transport have to traverse in one stretch.
_SEGMENT_STIFFNESS_CAP = 16.0


def _stiffness(q: np.ndarray, masks: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """max_{i in S} |q_ii| * dt for every segment."""
    return np.where(masks, np.abs(np.diagonal(q)), 0.0).max(axis=1) * dts


def _split_segments(q: np.ndarray, masks, dts, times):
    """Split segments stiffer than the cap into equal pieces. Returns the
    split masks, durations and boundary times, and the split-level index of
    every original boundary."""
    chunks = np.maximum(1, np.ceil(_stiffness(q, masks, dts) / _SEGMENT_STIFFNESS_CAP).astype(int))
    if (chunks == 1).all():
        return masks, dts, times, np.arange(len(dts) + 1)
    new_masks, new_dts, new_times = [], [], [times[0]]
    orig_boundary = [0]
    for i in range(len(dts)):
        c = int(chunks[i])
        for piece in range(c):
            new_masks.append(masks[i])
            new_dts.append(dts[i] / c)
            new_times.append(times[i] + dts[i] * (piece + 1) / c)
        new_times[-1] = times[i + 1]
        orig_boundary.append(len(new_dts))
    return np.stack(new_masks), np.asarray(new_dts), np.asarray(new_times), np.asarray(orig_boundary)


# Trajectories are swept in lockstep, one batch at a time, so the Python
# loop over segment positions runs once per batch rather than once per
# trajectory. A batch is a run of consecutive trajectories whose evidence
# segments need at most this many entries of n x n exponentials in all
# (always at least one trajectory), which keeps large joint spaces at one
# trajectory's worth of memory.
_BATCH_ELEMENTS = 1 << 16


def _batches(evs: list, n: int):
    lo, size = 0, 0
    for t, ev in enumerate(evs):
        size += ev.n_segments * n * n
        if size > _BATCH_ELEMENTS and t > lo:
            yield evs[lo:t]
            lo, size = t, ev.n_segments * n * n
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


class _ForwardSweep(NamedTuple):
    """A batch of trajectories split into segments and swept forward.

    The rows of all trajectories are stacked: trajectory t owns segments
    ``seg_off[t]`` up to ``seg_off[t] + counts[t]`` and boundaries
    ``seg_off[t] + t`` up to ``seg_off[t] + t + counts[t]`` inclusive.
    ``rate_before[k]`` marks a segment entered through an asserted
    transition.
    """

    p0: np.ndarray
    times: list
    masks: np.ndarray
    dts: np.ndarray
    rate_before: np.ndarray
    exps: np.ndarray
    counts: np.ndarray
    seg_off: np.ndarray
    fwd: np.ndarray
    fwd_log: np.ndarray
    fwd_pre: np.ndarray
    fwd_pre_log: np.ndarray

    def bounds(self, t: int) -> slice:
        lo = self.seg_off[t] + t
        return slice(lo, lo + self.counts[t] + 1)

    def log_prob(self, t: int) -> float:
        return float(self.fwd_log[self.bounds(t)][-1])

    def dead(self, t: int) -> int | None:
        """The first boundary whose forward message has no mass, if any."""
        hit = np.flatnonzero(np.isneginf(self.fwd_log[self.bounds(t)]))
        return int(hit[0]) if hit.size else None


def _lockstep(counts: np.ndarray, seg_off: np.ndarray):
    """Trajectory rows ordered by descending segment count, so the rows that
    still have a segment at position i are a prefix of length sizes[i]."""
    order = np.argsort(-counts, kind="stable")
    cnt = counts[order]
    sizes = np.searchsorted(-cnt, -np.arange(cnt[0] + 1), side="left")
    return cnt, seg_off[order], seg_off[order] + order, sizes


def _forward(q: IntensityMatrix, p0, evs: list) -> _ForwardSweep:
    """Split the evidence segments of a batch and run the scaled forward
    sweep. The restricted generators and their exponentials exist only here
    and in ``_backward``, which reuses them."""
    if q.kind != "proper":
        raise ValueError("forward-backward needs a proper intensity matrix")
    if any(ev.n != q.n for ev in evs):
        raise ValueError("evidence dimension does not match the matrix")
    p0 = validate_distribution(p0, q.n)
    n = q.n
    parts = [_split_segments(q.entries, ev.masks, ev.durations, ev.boundaries) for ev in evs]
    counts = np.array([len(p[1]) for p in parts])
    seg_off = np.concatenate(([0], np.cumsum(counts)[:-1]))
    masks = np.concatenate([p[0] for p in parts])
    dts = np.concatenate([p[1] for p in parts])
    exps = expm(_masked(q.entries, masks, masks) * dts[:, None, None])
    w = _off_diagonal(q.entries)
    # The factor between original segments i and i + 1 enters split-level
    # segment orig_boundary[i + 1].
    rate_before = np.zeros(len(dts), dtype=bool)
    for ev, (_, _, _, orig_boundary), off in zip(evs, parts, seg_off):
        disjoint = ~(ev.masks[:-1] & ev.masks[1:]).any(axis=1)
        rate_before[off + orig_boundary[1:-1][disjoint]] = True

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
        v, ls = _normalize_rows(np.einsum("tj,tjk->tk", v[:a], exps[seg]))
        lf = lf[:a] + ls
        b = boff[:a] + i + 1
        fwd_pre[b] = fwd[b] = v
        fwd_pre_log[b] = fwd_log[b] = lf
        a = sizes[i + 1]
        seg, b = seg[:a], b[:a]
        v = np.where(rate_before[seg + 1, None], (v[:a] * masks[seg]) @ w, v[:a]) * masks[seg + 1]
        v, ls = _normalize_rows(v)
        lf = lf[:a] + ls
        fwd[b] = v
        fwd_log[b] = lf

    return _ForwardSweep(
        p0, [p[2] for p in parts], masks, dts, rate_before, exps, counts, seg_off,
        fwd, fwd_log, fwd_pre, fwd_pre_log,
    )


def _backward(q: IntensityMatrix, evs: list, f: _ForwardSweep) -> list[MessageCache]:
    """The backward sweep of a forward-swept batch; returns one message
    cache per trajectory."""
    n = q.n
    masks = f.masks
    w = _off_diagonal(q.entries)
    nb = len(f.dts) + len(evs)
    bwd = np.zeros((nb, n))
    bwd_log = np.full(nb, -np.inf)
    bwd_post = np.zeros((nb, n))
    bwd_post_log = np.full(nb, -np.inf)
    cnt, soff, boff, sizes = _lockstep(f.counts, f.seg_off)

    # At the horizon the message is all ones.
    v = np.full((len(evs), n), 1.0 / n)
    lb = np.full(len(evs), math.log(n))
    bwd[boff + cnt] = bwd_post[boff + cnt] = v
    bwd_log[boff + cnt] = bwd_post_log[boff + cnt] = lb
    for j in range(cnt[0]):
        # The j-th segment from the end of every trajectory that has one,
        # then the boundary before it; a first segment's boundary projects.
        a = sizes[j]
        i = cnt[:a] - 1 - j
        seg = soff[:a] + i
        b = boff[:a] + i
        v, ls = _normalize_rows(np.einsum("tjk,tk->tj", f.exps[seg], v[:a]))
        lb = lb[:a] + ls
        bwd_post[b] = v
        bwd_post_log[b] = lb
        v = v * masks[seg]
        v, ls = _normalize_rows(np.where(f.rate_before[seg, None], masks[seg - 1] * (v @ w.T), v))
        lb = lb + ls
        bwd[b] = v
        bwd_log[b] = lb

    caches = []
    for t, ev in enumerate(evs):
        segs = slice(f.seg_off[t], f.seg_off[t] + f.counts[t])
        bounds = f.bounds(t)
        b0 = bounds.start
        mass = float(f.p0 @ bwd[b0])
        caches.append(
            MessageCache(
                evidence=ev,
                q=q,
                p0=f.p0,
                times=f.times[t],
                seg_masks=masks[segs].copy(),
                seg_dt=f.dts[segs].copy(),
                factor_kind=np.where(f.rate_before[segs][1:], _RATE, _PROJECT),
                fwd=f.fwd[bounds].copy(),
                fwd_log=f.fwd_log[bounds].copy(),
                fwd_pre=f.fwd_pre[bounds].copy(),
                fwd_pre_log=f.fwd_pre_log[bounds].copy(),
                bwd=bwd[bounds].copy(),
                bwd_log=bwd_log[bounds].copy(),
                bwd_post=bwd_post[bounds].copy(),
                bwd_post_log=bwd_post_log[bounds].copy(),
                log_prob=f.log_prob(t),
                log_prob_backward=math.log(mass) + bwd_log[b0] if mass > 0.0 else -np.inf,
                dead_boundary=f.dead(t),
            )
        )
    return caches


def _forward_backward_many(q: IntensityMatrix, p0, evs) -> list[MessageCache]:
    """``forward_backward`` over many trajectories, swept a batch at a time."""
    evs = list(evs)
    caches: list[MessageCache] = []
    for batch in _batches(evs, q.n):
        caches.extend(_backward(q, batch, _forward(q, p0, batch)))
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
    if t < -tol or t > ev.horizon + tol:
        raise ValueError(f"query time {t!r} outside [0, {ev.horizon}]")
    bounds = cache.times
    hits = np.flatnonzero(np.abs(bounds - t) <= tol)
    if hits.size:
        i = int(hits[-1])
        raw = cache.fwd[i] * cache.bwd_post[i]
    else:
        i = int(np.searchsorted(bounds, t)) - 1
        mask = cache.seg_masks[i]
        gen = _masked(cache.q.entries, mask, mask)
        a = cache.fwd[i] @ expm(gen * (t - bounds[i]))
        b = expm(gen * (bounds[i + 1] - t)) @ cache.bwd[i + 1]
        raw = np.clip(a, 0.0, None) * np.clip(b, 0.0, None)
    s = raw.sum()
    if s <= 0.0:
        raise ZeroProbabilityEvidenceError(i)
    return raw / s


class _Transport:
    """Derivative of the forward/backward transport pair of a segment batch
    on the normalized interval [0, 1]: row r evolves under Q masked to its
    mask S_r, as (f Q)_S dt and -(Q b)_S dt, with one product by the shared
    Q for the whole batch. Rows start inside their masks and stay there."""

    def __init__(self, q: np.ndarray, masks: np.ndarray, dts: np.ndarray):
        self.q = q
        self.dts = dts
        self.scale = masks * dts[:, None]

    def deriv(self, f, b):
        return (f @ self.q) * self.scale, -((b @ self.q.T) * self.scale)


def _rk4_step(gen: _Transport, f, b, h, k1=None):
    if k1 is None:
        k1 = gen.deriv(f, b)
    k2 = gen.deriv(f + 0.5 * h * k1[0], b + 0.5 * h * k1[1])
    k3 = gen.deriv(f + 0.5 * h * k2[0], b + 0.5 * h * k2[1])
    k4 = gen.deriv(f + h * k3[0], b + h * k3[1])
    sixth = h / 6.0
    fn = f + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
    bn = b + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
    return fn, bn


def _convolution_core(gen: _Transport, stiff: np.ndarray, f0: np.ndarray, b0: np.ndarray, tol: float) -> np.ndarray:
    m, n = f0.shape
    f = f0.astype(float).copy()
    b = b0.astype(float).copy()
    j = np.zeros((m, n, n))
    tol = tol * _STEP_SAFETY

    with np.errstate(divide="ignore"):
        h0 = np.where(stiff > 0.0, 0.1 / np.where(stiff > 0, stiff, 1.0), 1.0)
    h = float(min(1.0, h0.min()))

    s = 0.0
    while s < 1.0 - 1e-15:
        h = min(h, 1.0 - s)
        k1 = gen.deriv(f, b)
        f1, b1 = _rk4_step(gen, f, b, h, k1=k1)
        fh, bh = _rk4_step(gen, f, b, 0.5 * h, k1=k1)
        f2, b2 = _rk4_step(gen, fh, bh, 0.5 * h)

        err = 0.0
        for y, dy, y1, y2 in zip((f, b), k1, (f1, b1), (f2, b2)):
            scale = np.abs(y) + np.abs(h * dy) + _SCALE_FLOOR
            err = max(err, float((np.abs(y2 - y1) / scale).max()))
        err /= 15.0

        if err <= tol:
            fe = f2 + (f2 - f1) / 15.0
            be = b2 + (b2 - b1) / 15.0
            # Simpson rule over the accepted step (same fifth-order local
            # accuracy as the state update), using the half-step midpoint.
            fw = np.stack((f, 4.0 * fh, fe))
            bw = np.stack((b, bh, be))
            j += (h / 6.0) * gen.dts[:, None, None] * np.einsum("smi,smj->mij", fw, bw)
            f, b = fe, be
            s += h
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * (tol / err) ** 0.2)
            h *= grow
        else:
            h *= max(0.1, 0.9 * (tol / err) ** 0.25)
            if h < _MIN_STEP:
                raise StepUnderflowError(f"step fell to {h!r} of the segment length")
    return j


def _convolution_batch(
    q: np.ndarray,
    masks: np.ndarray,
    dts: np.ndarray,
    f0: np.ndarray,
    b0: np.ndarray,
    tol: float,
) -> np.ndarray:
    """All pairwise integrals J[m, j, k] = int_0^dt f_j(s) b_k(s) ds per
    segment m, where f(s) = f0 exp(Q_S s), b(s) = exp(-Q_S s) b0 and Q_S
    is Q masked to the segment's mask S; f0 and b0 are first projected
    onto S, so J vanishes outside S x S.

    The transport pair (df = f Q_S, db = -Q_S b) is advanced on the
    normalized interval [0, 1] by fourth-order Runge-Kutta with
    step-doubling error control shared across the batch, and dJ = outer(f,
    b) is accumulated along the accepted steps by Simpson quadrature of
    matching order. Segments are bucketed by stiffness so slow segments do
    not pay for stiff ones.
    """
    m, n = f0.shape
    j = np.zeros((m, n, n))
    if m == 0:
        return j
    f0 = f0 * masks
    b0 = b0 * masks
    stiffness = _stiffness(q, masks, dts)
    order = np.argsort(stiffness, kind="stable")
    bounds = np.quantile(stiffness, [0.25, 0.5, 0.75]) if m > 1 else []
    lo = 0
    for cut in list(bounds) + [np.inf]:
        hi = int(np.searchsorted(stiffness[order], cut, side="right"))
        if hi > lo:
            idx = order[lo:hi]
            gen = _Transport(q, masks[idx], dts[idx])
            j[idx] = _convolution_core(gen, stiffness[idx], f0[idx], b0[idx], tol)
        lo = hi
    return j


def convolution_integrals(alpha, q_s, beta, dt: float, tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """J[j, k] = int_0^dt (alpha exp(Q_S s))_j (exp(Q_S (dt - s)) beta)_k ds.

    The diagonal feeds expected dwell times, off-diagonals feed expected
    transition counts after multiplication by the corresponding rates.
    dt == 0 yields the zero matrix.
    """
    q = q_s.entries if isinstance(q_s, IntensityMatrix) else np.asarray(q_s, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    n = q.shape[0]
    if dt == 0.0:
        return np.zeros((n, n))
    b0 = expm(q * dt) @ beta
    return _convolution_batch(q, np.ones((1, n), dtype=bool), np.array([dt]), alpha[None], b0[None], tol)[0]


def _closed_form_stats(cache: MessageCache):
    """Singleton-segment dwell (exact closed form: the integrand is
    constant) plus asserted-transition boundary counts; returns the indices
    of the general segments still needing quadrature."""
    n = cache.evidence.n
    tbar = np.zeros(n)
    mbar = np.zeros((n, n))
    masks = cache.seg_masks
    sizes = masks.sum(axis=1)
    dts = cache.seg_dt
    pos = dts > 0.0

    sing = np.flatnonzero(pos & (sizes == 1))
    if sing.size:
        jj = masks[sing].argmax(axis=1)
        alive = cache.fwd[sing, jj] * cache.bwd_post[sing, jj] > 0.0
        np.add.at(tbar, jj[alive], dts[sing][alive])

    # The factor after segment i acts at boundary i + 1, from mask i into
    # mask i + 1; its posterior counts are W o outer(a, b) / (a W b).
    rate = np.flatnonzero(cache.factor_kind == _RATE)
    if rate.size:
        w = _off_diagonal(cache.q.entries)
        a = cache.fwd_pre[rate + 1] * masks[rate]
        b = cache.bwd_post[rate + 1] * masks[rate + 1]
        totals = ((a @ w) * b).sum(axis=1)
        alive = totals > 0.0
        if alive.any():
            mbar += w * ((a[alive] / totals[alive, None]).T @ b[alive])

    return tbar, mbar, np.flatnonzero(pos & (sizes > 1))


def _scatter_quadrature(cache, tbar, mbar, general, j):
    """Fold quadrature results back into one trajectory's statistics,
    normalizing each segment by its own evidence mass. The right vector of
    segment i is bwd_post[i], exp(Q_S dt) bwd[i + 1] up to a scale that the
    normalization cancels."""
    inner = np.einsum("mi,mi->m", cache.fwd[general], cache.bwd_post[general])
    w = np.where(inner > 0.0, 1.0 / np.where(inner > 0.0, inner, 1.0), 0.0)
    jw = np.einsum("m,mjk->jk", w, j)
    tbar += np.diagonal(jw)
    mbar += _off_diagonal(cache.q.entries) * jw
    np.clip(tbar, 0.0, None, out=tbar)
    np.clip(mbar, 0.0, None, out=mbar)
    return FlatStatistics(tbar, mbar)


def expected_statistics_many(caches, tol: float = DEFAULT_QUAD_TOL) -> list[FlatStatistics]:
    """Expected statistics for many trajectories at once; all segments that
    need quadrature under one joint generator share a handful of batched
    integrator passes, which is what keeps dataset-scale E-steps fast."""
    results: list = [None] * len(caches)
    pending: dict = {}
    for idx, cache in enumerate(caches):
        if cache.impossible:
            raise ZeroProbabilityEvidenceError(cache.dead_boundary, idx)
        hit = cache._stats.get(tol)
        if hit is not None:
            results[idx] = hit
            continue
        tbar, mbar, general = _closed_form_stats(cache)
        if general.size == 0:
            np.clip(tbar, 0.0, None, out=tbar)
            np.clip(mbar, 0.0, None, out=mbar)
            results[idx] = FlatStatistics(tbar, mbar)
            cache._stats[tol] = results[idx]
            continue
        pending.setdefault(id(cache.q), []).append((idx, cache, tbar, mbar, general))

    for batch in pending.values():
        j_all = _convolution_batch(
            batch[0][1].q.entries,
            np.concatenate([c.seg_masks[g] for _, c, _, _, g in batch]),
            np.concatenate([c.seg_dt[g] for _, c, _, _, g in batch]),
            np.concatenate([c.fwd[g] for _, c, _, _, g in batch]),
            np.concatenate([c.bwd_post[g] for _, c, _, _, g in batch]),
            tol,
        )
        offset = 0
        for idx, cache, tbar, mbar, general in batch:
            j = j_all[offset : offset + general.size]
            offset += general.size
            results[idx] = cache._stats[tol] = _scatter_quadrature(cache, tbar, mbar, general, j)
    return results


def expected_statistics(cache: MessageCache, tol: float = DEFAULT_QUAD_TOL) -> FlatStatistics:
    """Expected dwell-time vector and transition-count matrix under the
    posterior over completions of the cached evidence.

    Segments restricted to a single state use the closed form of the
    integral (the integrand is constant), which keeps fully observed
    statistics exact; all other segments share one adaptive quadrature
    pass. Results are cached per tolerance.
    """
    if cache.impossible:
        raise ZeroProbabilityEvidenceError(cache.dead_boundary)
    return expected_statistics_many([cache], tol)[0]


def expected_dwell(cache: MessageCache, tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """Expected time spent in each flat state; sums to the horizon."""
    return expected_statistics(cache, tol).dwell


def expected_transitions(cache: MessageCache, tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """Expected transition counts between flat states; zero wherever the
    corresponding rate is zero."""
    return expected_statistics(cache, tol).transitions
