"""Independent oracles and random-instance factories shared by the tests.

The oracles deliberately avoid the library's own computational paths:
matrix exponentials by scaled Taylor series, expected statistics by a
discrete-time chain with transition I + Q h, convolution integrals by
trapezoid quadrature on a dense grid.
"""
from __future__ import annotations

import numpy as np

from ctbnlearn import (
    Cim,
    CtbnModel,
    Evidence,
    ObservedTrajectory,
    Subsystem,
    Variable,
)
from ctbnlearn.markov import _TIME_EPS


def taylor_expm(a: np.ndarray, tol: float = 1e-18) -> np.ndarray:
    """Truncated power series with argument scaling and repeated squaring."""
    a = np.asarray(a, dtype=float)
    norm = np.abs(a).sum(axis=0).max()
    s = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = a / (2.0**s)
    term = np.eye(a.shape[0])
    out = term.copy()
    k = 0
    while np.abs(term).max() > tol * max(1.0, np.abs(out).max()):
        k += 1
        term = term @ b / k
        out += term
        if k > 200:
            break
    for _ in range(s):
        out = out @ out
    return out


def random_proper(rng: np.random.Generator, n: int, lo: float = 0.1, hi: float = 10.0) -> np.ndarray:
    a = np.exp(rng.uniform(np.log(lo), np.log(hi), (n, n)))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


def random_distribution(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n))


def random_evidence(
    rng: np.random.Generator,
    n: int,
    tau: float,
    max_segments: int = 8,
    grid: float | None = None,
    point_prob: float = 0.25,
) -> Evidence:
    """Random subsystem sequence over [0, tau]; breakpoints snap to ``grid``
    when given so discrete-time oracles see the same evidence. Point
    segments always intersect their successor, so at most one transition is
    asserted per instant (the only pattern a fixed-step chain can encode).
    """
    n_seg = int(rng.integers(1, max_segments + 1))
    cuts = np.sort(rng.uniform(0.0, tau, n_seg - 1))
    if grid is not None:
        cuts = np.unique(np.round(cuts / grid) * grid)
        cuts = cuts[(cuts > 0) & (cuts < tau)]
    times = np.concatenate(([0.0], cuts, [tau]))

    def rand_sub():
        size = int(rng.integers(1, n + 1))
        return Subsystem.of(n, rng.choice(n, size=size, replace=False).tolist())

    intervals = [(rand_sub(), float(a), float(b)) for a, b in zip(times, times[1:])]
    segments = []
    for i, (sub, a, b) in enumerate(intervals):
        segments.append((sub, a, b))
        if i + 1 < len(intervals) and rng.uniform() < point_prob:
            nxt = sorted(intervals[i + 1][0].members)
            anchor = int(nxt[rng.integers(len(nxt))])
            extra = rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist()
            segments.append((Subsystem.of(n, {anchor, *extra}), b, b))
    return Evidence(tuple(segments), tau)


def observed_evidence(
    rng: np.random.Generator,
    q: np.ndarray,
    p0: np.ndarray,
    tau: float,
    grid: float | None = None,
    point_prob: float = 0.5,
) -> Evidence:
    """Evidence generated the way the artifact produces it: sample a
    trajectory, hide it over random windows (fully, or up to a random
    superset of the true state), and add occasional point observations.
    All breakpoints snap to ``grid`` so discrete-time oracles can replay
    the identical pattern.
    """
    from ctbnlearn import sample_trajectory, validate_intensity

    n = q.shape[0]
    snap = (lambda t: float(np.clip(round(t / grid) * grid, 0.0, tau))) if grid else float
    traj = sample_trajectory(p0, validate_intensity(q), tau, rng)

    n_windows = int(rng.integers(1, 4))
    windows = []
    for _ in range(n_windows):
        w = float(rng.uniform(0.1, 0.4)) * tau
        s = float(rng.uniform(0.0, tau - w))
        a, b = snap(s), snap(s + w)
        if bool(rng.uniform() < 0.6):
            members = frozenset(range(n))
        else:
            # A constant superset of every state visited inside the window,
            # so the window has no breakpoints tied to hidden transitions.
            visited = {st for st, t0, t1 in traj.segments if t0 < b and t1 > a}
            extras = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            members = frozenset(visited) | {int(e) for e in extras}
        windows.append((a, b, members))

    def subsystem_at(t: float) -> frozenset:
        state = traj.state_at(min(t, tau - 1e-9))
        members = {state}
        for a, b, window_members in windows:
            if a <= t < b:
                members |= window_members
        return frozenset(members)

    cuts = {0.0, tau}
    cuts.update(snap(a) for _, a, _ in traj.segments)
    for a, b, _ in windows:
        cuts.update((a, b))
    times = sorted(t for t in cuts if 0.0 <= t <= tau)
    segments = []
    for a, b in zip(times, times[1:]):
        if b - a <= 1e-12:
            continue
        sub = Subsystem.of(n, subsystem_at(0.5 * (a + b)))
        if segments and segments[-1][0].members == sub.members:
            prev = segments[-1]
            segments[-1] = (prev[0], prev[1], b)
        else:
            segments.append((sub, a, b))
    if rng.uniform() < point_prob and len(segments) > 1:
        # Only at boundaries where no transition is asserted (overlapping
        # neighbors); a point observation exactly at an asserted transition
        # instant would be a measure-zero assertion.
        candidates = [
            i
            for i in range(len(segments) - 1)
            if segments[i][0].members & segments[i + 1][0].members
        ]
        if candidates:
            i = candidates[int(rng.integers(len(candidates)))]
            t = segments[i][2]
            common = sorted(segments[i][0].members & segments[i + 1][0].members)
            anchor = int(common[rng.integers(len(common))])
            extras = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
            point = Subsystem.of(n, {anchor, *(int(e) for e in extras)})
            segments.insert(i + 1, (point, t, t))
    return Evidence(tuple(segments), tau)


def chain_oracle(q: np.ndarray, p0: np.ndarray, ev: Evidence, h: float):
    """Discrete-time approximation with transition I + Q h.

    Returns (log_prob_offset_free, dwell, transitions, gamma) where gamma[m]
    is the posterior at grid node m. Point evidence must sit on the grid.
    """
    n = q.shape[0]
    tau = ev.horizon
    m_steps = int(round(tau / h))
    p = np.eye(n) + q * h

    node_masks = [np.ones(n, dtype=bool) for _ in range(m_steps + 1)]
    positive = [(s.mask, a, b) for (s, a, b) in ev.segments if b - a > 1e-12]
    for sub, a, b in ev.segments:
        if b - a <= 1e-12:
            node = int(round(a / h))
            node_masks[node] &= sub.mask

    def interval_mask(m):
        mid = (m + 0.5) * h
        for mask, a, b in positive:
            if a <= mid < b or (mid >= a and b >= tau and mid < tau + h):
                return mask
        return np.ones(n, dtype=bool)

    imasks = [interval_mask(m) for m in range(m_steps)]
    cmask = [node_masks[0] & imasks[0]]
    for m in range(1, m_steps):
        cmask.append(node_masks[m] & imasks[m])
    cmask.append(node_masks[m_steps] & imasks[m_steps - 1])

    alphas = np.zeros((m_steps + 1, n))
    lognorm = 0.0
    a_vec = p0 * cmask[0]
    s = a_vec.sum()
    alphas[0] = a_vec / s
    lognorm += np.log(s)
    for m in range(1, m_steps + 1):
        a_vec = (alphas[m - 1] @ p) * cmask[m]
        s = a_vec.sum()
        if s <= 0:
            raise ValueError("oracle hit zero probability")
        alphas[m] = a_vec / s
        lognorm += np.log(s)

    betas = np.zeros((m_steps + 1, n))
    betas[m_steps] = 1.0 / n
    for m in range(m_steps - 1, -1, -1):
        b_vec = p @ (betas[m + 1] * cmask[m + 1])
        betas[m] = b_vec / b_vec.sum()

    gam = alphas * betas
    gam /= gam.sum(axis=1, keepdims=True)

    dwell = gam[:-1].sum(axis=0) * h

    w = betas[1:] * np.stack(cmask[1:])
    z = np.einsum("mj,jk,mk->m", alphas[:-1], p, w)
    trans = np.einsum("mj,mk->jk", alphas[:-1] / z[:, None], w) * p
    np.fill_diagonal(trans, 0.0)
    return lognorm, dwell, trans, gam


def trapezoid_convolution(q: np.ndarray, alpha: np.ndarray, beta: np.ndarray, dt: float, m: int = 1_000_000, block: int = 1000):
    """Trapezoid quadrature of the pairwise convolution integrals on an
    (m+1)-point grid, with the propagators built by exact stepping in a
    two-level power table."""
    n = q.shape[0]
    assert m % block == 0
    nblk = m // block
    h = dt / m
    step = taylor_expm(q * h)
    powers = np.empty((block, n, n))
    powers[0] = np.eye(n)
    for i in range(1, block):
        powers[i] = powers[i - 1] @ step
    p_big = powers[-1] @ step

    f_starts = np.empty((nblk + 1, n))
    f_starts[0] = np.asarray(alpha, dtype=float)
    for blk in range(nblk):
        f_starts[blk + 1] = f_starts[blk] @ p_big
    f = np.empty((m + 1, n))
    f[:m] = np.einsum("bi,oij->boj", f_starts[:-1], powers).reshape(m, n)
    f[m] = f_starts[nblk]

    b_blocks = np.empty((nblk + 1, n))
    b_blocks[0] = np.asarray(beta, dtype=float)
    for blk in range(nblk):
        b_blocks[blk + 1] = p_big @ b_blocks[blk]
    b = np.empty((m + 1, n))
    # grid index m - (blk * block + o) holds powers[o] @ b_blocks[blk]
    tab = np.einsum("oij,bj->obi", powers, b_blocks[:-1])
    grid = m - (np.arange(block)[:, None] + np.arange(nblk)[None, :] * block)
    b[grid.ravel()] = tab.reshape(-1, n)
    b[0] = b_blocks[nblk]

    weights = np.full(m + 1, h)
    weights[0] = weights[-1] = h / 2.0
    return np.einsum("t,ti,tj->ij", weights, f, b)


def binary_chain_model(rates=None) -> CtbnModel:
    """Three binary variables in a chain a -> b -> c with parent-dependent
    rates; the default parameterization keeps dwell times order one."""
    if rates is None:
        rates = {"a": (0.8, 1.4), "b": ((0.6, 1.8), (2.2, 0.9)), "c": ((0.5, 2.0), (1.6, 0.7))}
    va = Variable("a", ("a0", "a1"))
    vb = Variable("b", ("b0", "b1"))
    vc = Variable("c", ("c0", "c1"))

    def mat(q01, q10):
        return [[-q01, q01], [q10, -q10]]

    cims = {
        "a": Cim((), (), np.array([mat(*rates["a"])])),
        "b": Cim(("a",), (2,), np.array([mat(*rates["b"][0]), mat(*rates["b"][1])])),
        "c": Cim(("b",), (2,), np.array([mat(*rates["c"][0]), mat(*rates["c"][1])])),
    }
    initial = {"a": [0.5, 0.5], "b": [0.6, 0.4], "c": [0.3, 0.7]}
    return CtbnModel((va, vb, vc), cims, initial)


def independent_binary_model(names=("x", "y"), rates=((1.0, 2.0), (0.5, 1.5))) -> CtbnModel:
    variables = tuple(Variable(n, (f"{n}0", f"{n}1")) for n in names)
    cims = {
        n: Cim((), (), np.array([[[-r0, r0], [r1, -r1]]]))
        for n, (r0, r1) in zip(names, rates)
    }
    initial = {n: [0.5, 0.5] for n in names}
    return CtbnModel(variables, cims, initial)


def binary_ring_model(k: int, seed: int = 0) -> CtbnModel:
    """k binary variables in a ring, each driven by its predecessor, with
    rates drawn log-uniformly from 0.5..2 (joint n = 2^k)."""
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(k)]
    cims = {}
    for i, name in enumerate(names):
        rates = np.exp(rng.uniform(np.log(0.5), np.log(2.0), (2, 2)))
        cims[name] = Cim((names[i - 1],), (2,), np.array([[[-a, a], [b, -b]] for a, b in rates]))
    return CtbnModel(tuple(Variable(n, ("0", "1")) for n in names), cims, {n: [0.5, 0.5] for n in names})


def taylor_log_prob(q: np.ndarray, p0: np.ndarray, ev: Evidence) -> float:
    """log p(evidence) by a plain forward pass over the unsplit segments,
    each segment's exponential from ``taylor_expm``."""
    w = q - np.diag(np.diag(q))
    masks, dts = ev.masks, ev.durations
    alpha = p0 * masks[0]
    for i, (m, dt) in enumerate(zip(masks, dts)):
        alpha = alpha @ taylor_expm(np.where(np.outer(m, m), q, 0.0) * dt)
        if i + 1 < len(masks):
            nxt = masks[i + 1]
            alpha = (alpha if (m & nxt).any() else (alpha * m) @ w) * nxt
    return float(np.log(alpha.sum()))


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(float(np.abs(b).max()), 1e-12)
    return float(np.abs(a - b).max()) / scale


def choice_sample_trajectory(p0: np.ndarray, q: np.ndarray, horizon: float, seed) -> tuple:
    """The segments of one sampled trajectory, drawn the plain way: each
    state and successor by ``Generator.choice`` with explicit probabilities,
    in the order the library draws them."""
    rng = np.random.default_rng(seed)
    p0 = np.asarray(p0, dtype=float)
    state = int(rng.choice(len(p0), p=p0 / p0.sum()))
    t = 0.0
    segments = []
    while True:
        rate = -q[state, state]
        if rate <= 0.0:
            return tuple(segments) + ((state, t, horizon),)
        dwell = rng.exponential(1.0 / rate)
        if t + dwell >= horizon:
            return tuple(segments) + ((state, t, horizon),)
        row = q[state].copy()
        row[state] = 0.0
        nxt = int(rng.choice(len(row), p=row / row.sum()))
        segments.append((state, t, t + dwell))
        t += dwell
        state = nxt


def subsystem_segments(record, space) -> tuple:
    """The segments of ``record.to_evidence(space)`` built one segment at a
    time: each segment's subsystem from the states of every observed
    variable, merged with its predecessor when the subsystems coincide."""
    merged = []
    for a, b, vals in record.segments:
        mask = np.ones(space.n_joint, dtype=bool)
        for v, val in enumerate(vals):
            if val is not None:
                mask &= space.state_of[v][space.coords[:, v]] == val
        sub = Subsystem.of(space.n_joint, np.flatnonzero(mask).tolist())
        if merged and merged[-1][0].members == sub.members:
            merged[-1] = (merged[-1][0], merged[-1][1], b)
        else:
            merged.append((sub, a, b))
    return tuple(merged)


def merge_observations_loop(trajs, hidden):
    """Per-variable complete trajectories ``trajs``, variable v hidden on the
    half-open windows ``hidden[v]``, merged the plain way: cut at every
    jump and clamped window end, drop pieces no longer than the time
    tolerance, read every variable at each piece's midpoint and join
    neighbours whose values are equal. Each segment ends where the next
    one starts, the first at 0 and the last at the horizon, so a dropped
    piece leaves no hole."""
    horizon = trajs[0].horizon
    tol = _TIME_EPS * max(1.0, horizon)
    cuts = {0.0, horizon}
    for tr in trajs:
        cuts.update(a for _, a, _ in tr.segments)
    for windows in hidden:
        for a, b in windows:
            cuts.update((max(0.0, a), min(horizon, b)))
    times = sorted(cuts)
    segs = []
    for a, b in zip(times, times[1:]):
        if b - a <= tol:
            continue
        mid = 0.5 * (a + b)
        vals = tuple(
            None if any(lo <= mid < hi for lo, hi in hidden[v]) else trajs[v].state_at(mid)
            for v in range(len(trajs))
        )
        if segs and segs[-1][2] == vals:
            segs[-1] = (segs[-1][0], b, vals)
        else:
            segs.append((a, b, vals))
    starts = [0.0] + [a for a, _, _ in segs[1:]]
    ends = starts[1:] + [horizon]
    return ObservedTrajectory(tuple(zip(starts, ends, (vals for _, _, vals in segs))), horizon)
