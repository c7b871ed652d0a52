"""Parameter and structure learning from partially observed trajectories.

EM alternates exact expected-statistics computation on the flattened
process with closed-form maximization (rates M/T, transition splits
M[x,x']/M[x]). Structural EM interleaves parameter updates with a full
per-variable parent-set search under a BIC score evaluated on expected
statistics; because cycles are allowed, the search decomposes over
variables and is exact for a bounded parent count.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .evidence import Evidence
from .inference import (
    DEFAULT_QUAD_TOL,
    _check_tol,
    _e_step_batches,
    _sweeps,
)
from .model import (
    DEFAULT_JOINT_CAP,
    Cim,
    CtbnModel,
    FamilyStatistics,
    _xlogy,
    amalgamate,
    family_tables,
)
from .statespace import StateSpace

__all__ = [
    "DEGENERATE_EPS",
    "EmConfig",
    "SemConfig",
    "FitResult",
    "random_parameters",
    "e_step",
    "m_step",
    "em",
    "score_dataset",
    "bic_score",
    "FlatFamilyProvider",
    "structure_search",
    "sem",
]

#: Statistic cells below this are treated as unvisited by the M-step.
DEGENERATE_EPS = 1e-12


@dataclass(frozen=True)
class EmConfig:
    """Settings for EM runs.

    ``init`` chooses between starting from the provided model ("given") or
    from randomized parameters ("random": rates log-uniform over
    ``rate_range``, exit splits symmetric-Dirichlet), with ``restarts``
    independent starts keeping the best final likelihood.
    """

    max_iter: int = 200
    tol: float = 1e-6
    seed: int = 0
    rate_range: tuple[float, float] = (0.1, 10.0)
    freeze_initial: bool = False
    restarts: int = 3
    init: str = "random"
    quad_tol: float = DEFAULT_QUAD_TOL
    joint_cap: int = DEFAULT_JOINT_CAP

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("convergence threshold must be finite and positive")
        if self.max_iter < 0 or self.restarts < 1:
            raise ValueError("max_iter must be nonnegative and restarts at least 1")
        _check_tol(self.quad_tol)
        lo, hi = self.rate_range
        if not (math.isfinite(hi) and 0 < lo <= hi):
            raise ValueError("rate range must be finite, positive and ordered")
        if self.init not in ("given", "random"):
            raise ValueError("init must be 'given' or 'random'")


@dataclass(frozen=True)
class SemConfig:
    """Settings for structural EM: EM iterations between structure steps,
    the parent-count bound, and an optional per-variable candidate pool
    (default: all other variables)."""

    em: EmConfig = field(default_factory=EmConfig)
    max_parents: int = 2
    em_iters: int = 5
    candidates: Mapping[str, Sequence[str]] | None = None
    max_rounds: int = 30

    def __post_init__(self):
        if self.max_parents < 0:
            raise ValueError("max parents must be nonnegative")
        if self.em_iters < 1 or self.max_rounds < 1:
            raise ValueError("iteration counts must be positive")


@dataclass
class FitResult:
    """A fitted model with its observed-data log-likelihood trace (one entry
    per E-step, non-decreasing up to numerical slack), the final expected
    statistics and a convergence flag."""

    model: CtbnModel
    trace: tuple[float, ...]
    stats: FamilyStatistics
    converged: bool
    n_iter: int
    bic_trace: tuple[float, ...] | None = None

    @property
    def log_likelihood(self) -> float:
        return self.trace[-1]


def random_parameters(model: CtbnModel, rng: np.random.Generator, rate_range=(0.1, 10.0)) -> CtbnModel:
    """Randomize every CIM on its structural support: exit rates log-uniform
    over ``rate_range``, exit splits Dirichlet(1). Initial marginals are kept."""
    lo, hi = rate_range
    new_cims = {}
    for name in model.names:
        cim = model.cims[name]
        mats = np.zeros_like(cim.matrices)
        for u in range(cim.n_instantiations):
            for x in range(cim.dim):
                allowed = np.flatnonzero(cim.support[x])
                if allowed.size == 0:
                    continue
                q = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                theta = rng.dirichlet(np.ones(allowed.size))
                mats[u, x, allowed] = q * theta
                mats[u, x, x] = -mats[u, x].sum()
        new_cims[name] = Cim(cim.parents, cim.parent_cards, mats, cim.support)
    return model.with_cims(new_cims)


def _flat_e_step(model: CtbnModel, dataset: Sequence[Evidence], quad_tol: float, cap: int):
    """One pass over the dataset: summed flat dwell times and transition
    counts, listed as (src, dst, count) over the joint generator's
    transitions, summed smoothed time-zero state marginals, and
    per-trajectory log-likelihoods. Every lockstep batch of trajectories
    adds its own sums."""
    q, space, p0 = amalgamate(model, cap)
    src, dst, _ = q.transitions
    tbar = np.zeros(space.n_joint)
    mbar = np.zeros(len(src))
    g0 = np.zeros(space.n_joint)
    lls: list[float] = []
    for batch in _e_step_batches(q, p0, list(dataset), quad_tol):
        tbar += batch.dwell[0]
        mbar += batch.transitions[0]
        g0 += batch.initial[0]
        lls.extend(batch.log_probs.tolist())
    init_sums = {var.name: space.variable_state_marginal(g0, vi) for vi, var in enumerate(model.variables)}
    return space, tbar, (src, dst, mbar), init_sums, lls


def _e_step(model: CtbnModel, dataset: Sequence[Evidence], quad_tol: float, cap: int):
    """One E-step: the family statistics, the total log-likelihood and a
    provider that aggregates the same flat pass for any parent sets, the
    model's own included."""
    space, tbar, transitions, init_sums, lls = _flat_e_step(model, dataset, quad_tol, cap)
    provider = FlatFamilyProvider(space, tbar, transitions)
    time, trans = {}, {}
    for name in model.names:
        time[name], trans[name] = provider.family(name, model.parents(name))
    return FamilyStatistics(time, trans, init_sums, len(dataset)), math.fsum(lls), provider


def e_step(
    model: CtbnModel,
    dataset: Sequence[Evidence],
    quad_tol: float = DEFAULT_QUAD_TOL,
    joint_cap: int = DEFAULT_JOINT_CAP,
):
    """Expected per-family sufficient statistics of the dataset under the
    model's posterior over completions, plus the total observed-data
    log-likelihood."""
    stats, ll, _ = _e_step(model, dataset, quad_tol, joint_cap)
    return stats, ll


def score_dataset(
    model: CtbnModel, dataset: Sequence[Evidence], joint_cap: int = DEFAULT_JOINT_CAP
) -> list[float]:
    """Per-trajectory observed-data log-likelihoods (forward pass only)."""
    q, _, p0 = amalgamate(model, joint_cap)
    out: list[float] = []
    for _, _, sweep in _sweeps(q, p0, list(dataset), backward=False):
        out.extend(sweep.log_probs.tolist())
        del sweep  # no swept batch is held here while the next one is swept
    return out


def _mstep_matrices(previous: np.ndarray, support: np.ndarray, t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Maximize the expected transition likelihood: rates M[x,x'|u]/T[x|u].
    Unvisited rows (T below eps) keep their ``previous`` rates; rows with
    dwell but no exits get a uniform split of the (near-zero) exit rate."""
    new = np.zeros(m.shape)
    exits = m.sum(axis=2)
    for u in range(m.shape[0]):
        for x in range(m.shape[1]):
            allowed = support[x]
            if not allowed.any():
                continue
            if t[u, x] < DEGENERATE_EPS:
                new[u, x, allowed] = previous[u, x, allowed]
            elif exits[u, x] < DEGENERATE_EPS:
                new[u, x, allowed] = (exits[u, x] / t[u, x]) / allowed.sum()
            else:
                new[u, x, allowed] = m[u, x, allowed] / t[u, x]
            new[u, x, x] = -new[u, x].sum()
    return new


def m_step(stats: FamilyStatistics, model: CtbnModel, freeze_initial: bool = False) -> CtbnModel:
    """Closed-form maximization given expected statistics. Also re-estimates
    the independent initial marginals from smoothed time-zero marginals
    unless frozen or absent."""
    new_cims = {}
    for name in model.names:
        cim = model.cims[name]
        new_cims[name] = Cim(
            cim.parents,
            cim.parent_cards,
            _mstep_matrices(cim.matrices, cim.support, stats.time[name], stats.trans[name]),
            cim.support,
        )
    out = model.with_cims(new_cims)
    if not freeze_initial and stats.initial is not None and stats.n_records > 0:
        initial = {}
        for name in model.names:
            sums = stats.initial[name]
            total = sums.sum()
            initial[name] = sums / total if total > 0 else model.initial[name]
        out = out.with_initial(initial)
    return out


def _em_run(model: CtbnModel, dataset: Sequence[Evidence], config: EmConfig) -> FitResult:
    trace = []
    prev = None
    converged = False
    m_steps = 0
    while True:
        stats, ll = e_step(model, dataset, config.quad_tol, config.joint_cap)
        trace.append(ll)
        if prev is not None and (ll - prev) < config.tol * max(1.0, abs(prev)):
            converged = True
            break
        if m_steps >= config.max_iter:
            break
        model = m_step(stats, model, config.freeze_initial)
        m_steps += 1
        prev = ll
    return FitResult(model, tuple(trace), stats, converged, m_steps)


def em(model0: CtbnModel, dataset: Sequence[Evidence], config: EmConfig = EmConfig()) -> FitResult:
    """EM from the given model, or from ``config.restarts`` random
    parameterizations of its structure, keeping the best final likelihood.
    The likelihood trace is non-decreasing up to numerical slack."""
    if config.init == "given":
        return _em_run(model0, dataset, config)
    best = None
    for seq in np.random.SeedSequence(config.seed).spawn(config.restarts):
        start = random_parameters(model0, np.random.default_rng(seq), config.rate_range)
        fit = _em_run(start, dataset, config)
        if best is None or fit.log_likelihood > best.log_likelihood:
            best = fit
    return best


def _family_max_ll(t: np.ndarray, m: np.ndarray) -> float:
    """Expected transition log-likelihood of a family at its own maximizing
    parameters (rates M/T, splits M[x,x']/M[x])."""
    exits = m.sum(axis=-1)
    safe_t = np.where(t > 0, t, 1.0)
    ll = _xlogy(exits, np.where(t > 0, exits / safe_t, 0.0)).sum()
    ll -= exits.sum()
    safe_e = np.where(exits > 0, exits, 1.0)
    ll += _xlogy(m, m / safe_e[..., None]).sum()
    return float(ll)


def _family_bic(t: np.ndarray, m: np.ndarray, support_count: int, n_eff: float) -> float:
    """A family's BIC term: its maximized expected log-likelihood minus
    (ln n_eff)/2 per free parameter, one per allowed exit per parent
    instantiation."""
    return _family_max_ll(t, m) - 0.5 * math.log(n_eff) * t.shape[0] * support_count


def _effective_sample_size(w: int) -> float:
    if w < 1:
        raise ValueError("sample size must be at least 1")
    return float(w)


def bic_score(stats: FamilyStatistics, model: CtbnModel, w: int):
    """BIC on expected statistics: for each family, the maximized expected
    transition log-likelihood minus (ln w)/2 times its free-parameter count,
    w the number of trajectories. Returns (total, per-variable breakdown)."""
    n_eff = _effective_sample_size(w)
    per_family = {}
    for name in model.names:
        support_count = int(model.cims[name].support.sum())
        per_family[name] = _family_bic(stats.time[name], stats.trans[name], support_count, n_eff)
    return math.fsum(per_family.values()), per_family


@dataclass
class FlatFamilyProvider:
    """Re-aggregates one flat expected-statistics pass into the family tables
    of arbitrary candidate parent sets; this is what makes a full structure
    search per step affordable. It holds the flat dwell times and the
    counts listed as (src, dst, count) that ``family_tables`` reads."""

    space: StateSpace
    dwell: np.ndarray
    transitions: tuple[np.ndarray, np.ndarray, np.ndarray]

    def family(self, name: str, parents: tuple[str, ...]):
        v = self.space.index_of[name]
        parent_ids = tuple(self.space.index_of[p] for p in parents)
        return family_tables(self.space, self.dwell, self.transitions, v, parent_ids)


def _search(
    provider: FlatFamilyProvider,
    model: CtbnModel,
    max_parents: int,
    w: int,
    candidates: Mapping[str, Sequence[str]] | None,
) -> tuple[dict, float]:
    """``structure_search``'s graph and the sum of its chosen families'
    BIC terms, added from 0.0 in ``model.names`` order."""
    n_eff = _effective_sample_size(w)
    graph = {}
    total = 0.0
    for name in model.names:
        cim = model.cims[name]
        support_count = int(cim.support.sum())
        pool = sorted(candidates[name]) if candidates and name in candidates else sorted(
            n for n in model.names if n != name
        )
        best_set = None
        best_score = -math.inf
        for size in range(min(max_parents, len(pool)) + 1):
            for combo in itertools.combinations(pool, size):
                score = _family_bic(*provider.family(name, combo), support_count, n_eff)
                if score > best_score:
                    best_score = score
                    best_set = combo
        graph[name] = best_set
        total += best_score
    return graph, total


def structure_search(
    provider: FlatFamilyProvider,
    model: CtbnModel,
    max_parents: int,
    w: int,
    candidates: Mapping[str, Sequence[str]] | None = None,
) -> dict:
    """Exact per-variable parent-set search maximizing the family BIC, w the
    number of trajectories.

    Cycles are allowed, so each variable's choice is independent. Ties break
    toward the smaller set, then lexicographically.
    """
    return _search(provider, model, max_parents, w, candidates)[0]


def _rebuild_for_graph(model: CtbnModel, graph: Mapping[str, tuple], provider: FlatFamilyProvider) -> CtbnModel:
    """Swap parent sets, parameterizing each new family by the M-step rule on
    its re-aggregated statistics (unvisited rows fall back to unit rates)."""
    new_cims = {}
    for name in model.names:
        parents = tuple(graph[name])
        old = model.cims[name]
        if parents == old.parents:
            new_cims[name] = old
            continue
        cards = tuple(model.by_name[p].n_states for p in parents)
        t, m = provider.family(name, parents)
        unit = old.support / np.maximum(old.support.sum(axis=1, keepdims=True), 1)
        mats = _mstep_matrices(np.broadcast_to(unit, m.shape), old.support, t, m)
        new_cims[name] = Cim(parents, cards, mats, old.support)
    return model.with_cims(new_cims)


def sem(model0: CtbnModel, dataset: Sequence[Evidence], config: SemConfig = SemConfig()) -> FitResult:
    """Structural EM: alternate parameter updates with one full structure
    search per round. Each round runs ``em_iters`` EM iterations; the last
    iteration's flat expected statistics are re-aggregated to score every
    candidate parent set, so parameters and structure are maximized against
    the same posterior. Stops when the structure step no longer improves the
    BIC score (the recorded trace is non-decreasing) and finishes with a
    full EM pass on the selected structure."""
    em_cfg = config.em
    w = len(dataset)
    _effective_sample_size(w)  # refuses an empty dataset before any E-step
    if em_cfg.init == "random":
        rng = np.random.default_rng(np.random.SeedSequence(em_cfg.seed))
        model = random_parameters(model0, rng, em_cfg.rate_range)
    else:
        model = model0
    graph = {name: model.parents(name) for name in model.names}
    bic_trace: list[float] = []
    converged = False

    for _ in range(config.max_rounds):
        for _ in range(config.em_iters):
            stats, _, provider = _e_step(model, dataset, em_cfg.quad_tol, em_cfg.joint_cap)
            model = m_step(stats, model, em_cfg.freeze_initial)
        new_graph, score = _search(provider, model, config.max_parents, w, config.candidates)
        if bic_trace and score <= bic_trace[-1] + em_cfg.tol * max(1.0, abs(bic_trace[-1])):
            converged = True
            break
        bic_trace.append(score)
        if new_graph != graph:
            model = _rebuild_for_graph(model, new_graph, provider)
            graph = new_graph

    final = _em_run(model, dataset, replace(em_cfg, init="given"))
    return FitResult(
        final.model, final.trace, final.stats, converged and final.converged, final.n_iter,
        bic_trace=tuple(bic_trace),
    )
