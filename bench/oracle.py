"""Output checks computed apart from the program.

The joint generator, the observation masks and the forward pass are built
here from the CIMs and the variable-level records, with
``scipy.linalg.expm`` in place of the program's own exponential. The
complete-data log-density is the CTBN closed form. Every check returns
``(ok, detail)``.
"""
from __future__ import annotations

import itertools
import math

import numpy as np


def _state_of_local(var) -> np.ndarray:
    return np.repeat(np.arange(var.n_states), var.phases)


def joint_process(model):
    """Dense joint generator, initial distribution and the observable
    state of every variable in every joint state (one row per state)."""
    variables = model.variables
    dims = [v.dim for v in variables]
    locals_ = list(itertools.product(*(range(d) for d in dims)))
    index = {s: i for i, s in enumerate(locals_)}
    state_maps = [_state_of_local(v) for v in variables]
    pos = {v.name: i for i, v in enumerate(variables)}
    n = len(locals_)
    q = np.zeros((n, n))
    p0 = np.ones(n)
    observable = np.zeros((n, len(variables)), dtype=int)
    for i, s in enumerate(locals_):
        for vi, var in enumerate(variables):
            observable[i, vi] = state_maps[vi][s[vi]]
            cim = model.cims[var.name]
            u = 0
            for p, card in zip(cim.parents, cim.parent_cards):
                u = u * card + int(state_maps[pos[p]][s[pos[p]]])
            row = cim.matrices[u, s[vi]]
            for x2 in range(var.dim):
                if x2 != s[vi] and row[x2] != 0.0:
                    t = list(s)
                    t[vi] = x2
                    q[i, index[tuple(t)]] += row[x2]
            state = state_maps[vi][s[vi]]
            phase = s[vi] - int(np.flatnonzero(state_maps[vi] == state)[0])
            p0[i] *= model.initial[var.name][state] * model.entries[var.name][state][phase]
    np.fill_diagonal(q, -q.sum(axis=1))
    return q, p0, observable


def forward_loglik(joint, record) -> float:
    """log p(record) by a scaled forward pass: within a segment the process
    stays in the observed set (restricted generator), and between segments
    whose sets are disjoint the record asserts a transition (rate factor);
    otherwise the boundary projects onto the next set."""
    from scipy.linalg import expm

    q, p0, observable = joint
    masks = []
    for _, _, vals in record.segments:
        m = np.ones(q.shape[0], dtype=bool)
        for vi, val in enumerate(vals):
            if val is not None:
                m &= observable[:, vi] == val
        masks.append(m)
    alpha = p0 * masks[0]
    total = 0.0
    for i, (a, b, _) in enumerate(record.segments):
        if i:
            if (masks[i - 1] & masks[i]).any():
                alpha = alpha * masks[i]
            else:
                w = q * np.outer(masks[i - 1], masks[i])
                np.fill_diagonal(w, 0.0)
                alpha = alpha @ w
            s = alpha.sum()
            total += math.log(s)
            alpha = alpha / s
        keep = np.outer(masks[i], masks[i])
        alpha = alpha @ expm(np.where(keep, q, 0.0) * (b - a))
    return total + math.log(alpha.sum())


def complete_loglik(model, record) -> float:
    """Closed-form CTBN log-density of a fully observed record: initial
    marginals, minus exit rate times dwell and plus the log rate of every
    jump, each read from the CIM row of the parents' current states."""
    variables = model.variables
    pos = {v.name: i for i, v in enumerate(variables)}
    vals0 = record.segments[0][2]
    ll = math.fsum(math.log(model.initial[v.name][vals0[i]]) for i, v in enumerate(variables))
    terms = []
    for k, (a, b, vals) in enumerate(record.segments):
        for vi, var in enumerate(variables):
            if var.dim != var.n_states:
                raise ValueError("closed form needs one phase per state")
            cim = model.cims[var.name]
            u = 0
            for p, card in zip(cim.parents, cim.parent_cards):
                u = u * card + vals[pos[p]]
            terms.append(cim.matrices[u, vals[vi], vals[vi]] * (b - a))
            if k + 1 < len(record.segments):
                nxt = record.segments[k + 1][2][vi]
                if nxt != vals[vi]:
                    terms.append(math.log(cim.matrices[u, vals[vi], nxt]))
    return ll + math.fsum(terms)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def scores_match(records, scores, rtol, oracle) -> tuple[bool, str]:
    """The program's per-record scores against an oracle's, record by record."""
    worst = 0.0
    for rec, got in zip(records, scores):
        want = oracle(rec)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst <= rtol, f"{len(records)} records, worst relative gap {worst:.2e} (bar {rtol:g})"


def trace_monotone(trace, slack=1e-9) -> tuple[bool, str]:
    drops = [b - a for a, b in zip(trace, trace[1:]) if b - a < -slack * max(1.0, abs(a))]
    return not drops, f"{len(trace)} log-likelihoods, {len(drops)} drops beyond {slack:g}"


def family_stats_valid(model, stats, total_time) -> tuple[bool, str]:
    """Expected dwell of every family sums to the observed time, and no
    expected transition falls outside a CIM's support."""
    worst = 0.0
    outside = 0.0
    for var in model.variables:
        t = stats.time[var.name]
        worst = max(worst, abs(t.sum() - total_time) / total_time)
        support = model.cims[var.name].support
        outside = max(outside, float(np.abs(stats.trans[var.name][:, ~support]).max(initial=0.0)))
    ok = worst <= 1e-9 and outside == 0.0
    return ok, f"dwell gap {worst:.2e} of {total_time:g}, largest off-support count {outside:g}"
