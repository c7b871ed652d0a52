"""Phase-type duration distributions and phase expansion of model variables.

A phase distribution is the absorption time of a transient Markov
subsystem, specified by a restricted intensity matrix over the phases
(the negative row-sum slack is the exit intensity) and an entry
distribution. Variables gain non-exponential dwell times either by
expanding each state into a block of phases, or by amalgamating a hidden
parent into phases of its child.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .markov import IntensityMatrix, expm, validate_distribution
from .model import Cim, CtbnModel, Variable, _full_support

__all__ = [
    "SingularTransientMatrixError",
    "InconsistentPhaseCountsError",
    "PhaseDistribution",
    "PhaseSpec",
    "erlang",
    "phase_density",
    "phase_mean",
    "expand_phases",
    "hidden_parent_to_phase",
]


class SingularTransientMatrixError(RuntimeError):
    """Absorption is unreachable, so the mean duration does not exist."""


class InconsistentPhaseCountsError(ValueError):
    """Phase counts disagree with an existing expansion of the variable."""


@dataclass(frozen=True)
class PhaseDistribution:
    """Transient phases with exit intensities encoded as negative row sums."""

    matrix: IntensityMatrix
    entry: np.ndarray

    def __post_init__(self):
        if self.matrix.kind != "restricted":
            raise ValueError("phase generator must be a restricted intensity matrix")
        rows = self.matrix.entries.sum(axis=1)
        if rows.min() >= -1e-15:
            raise ValueError("no phase exits the system; absorption unreachable")
        object.__setattr__(self, "entry", validate_distribution(self.entry, self.matrix.n))

    @property
    def n_phases(self) -> int:
        return self.matrix.n

    @property
    def exit_rates(self) -> np.ndarray:
        return -self.matrix.entries.sum(axis=1)


def erlang(p: int, q: float) -> PhaseDistribution:
    """Chain of p phases with a common exit intensity q; the duration is
    Gamma(p, q) distributed with mean p / q."""
    if p < 1:
        raise ValueError("phase count must be at least 1")
    if q <= 0:
        raise ValueError("rate must be positive")
    m = -q * np.eye(p)
    for i in range(p - 1):
        m[i, i + 1] = q
    entry = np.zeros(p)
    entry[0] = 1.0
    return PhaseDistribution(IntensityMatrix(m, "restricted"), entry)


def phase_density(dist: PhaseDistribution, t) -> np.ndarray | float:
    """Density of the absorption time: entry exp(Q_P t) exit_rates."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if (ts < 0).any():
        raise ValueError("durations are nonnegative")
    exit_rates = dist.exit_rates
    out = np.array([float(dist.entry @ expm(dist.matrix.entries * ti) @ exit_rates) for ti in ts])
    np.clip(out, 0.0, None, out=out)
    return out if np.ndim(t) else float(out[0])


def phase_mean(dist: PhaseDistribution) -> float:
    """Mean absorption time entry (-Q_P)^{-1} 1."""
    try:
        m = np.linalg.solve(-dist.matrix.entries, np.ones(dist.n_phases))
    except np.linalg.LinAlgError as exc:
        raise SingularTransientMatrixError(str(exc)) from None
    if not np.all(np.isfinite(m)) or m.min() < 0:
        raise SingularTransientMatrixError("absorption unreachable from some phase")
    return float(dist.entry @ m)


@dataclass(frozen=True)
class PhaseSpec:
    """Phase counts per variable (an int for all states, or a mapping from
    state label to count; unnamed states keep one phase), the block topology,
    and whether a parent change re-enters the phase distribution."""

    counts: Mapping[str, int | Mapping[str, int]]
    topology: str = "unrestricted"
    reset_on_parent_change: bool = False

    def __post_init__(self):
        if self.topology not in ("chain", "unrestricted"):
            raise ValueError("topology must be 'chain' or 'unrestricted'")

    def counts_for(self, var: Variable) -> tuple[int, ...]:
        raw = self.counts.get(var.name)
        if raw is None:
            return var.phases
        if isinstance(raw, Mapping):
            out = [int(raw.get(label, 1)) for label in var.states]
        else:
            out = [int(raw)] * var.n_states
        if any(c < 1 for c in out):
            raise ValueError(f"phase counts for {var.name!r} must be positive")
        return tuple(out)


def _expanded_entry(counts, topology) -> tuple[np.ndarray, ...]:
    out = []
    for p in counts:
        if topology == "chain" or p == 1:
            e = np.zeros(p)
            e[0] = 1.0
        else:
            e = np.full(p, 1.0 / p)
        out.append(e)
    return tuple(out)


def _expand_matrix(base: np.ndarray, counts, offsets, dim, topology, entries) -> np.ndarray:
    n_states = base.shape[0]
    out = np.zeros((dim, dim))
    for x in range(n_states):
        p = counts[x]
        lo = offsets[x]
        q = -base[x, x]
        if topology == "chain":
            for i in range(p):
                out[lo + i, lo + i] = -q
                if i + 1 < p:
                    out[lo + i, lo + i + 1] = q
            exit_rows = [lo + p - 1]
        else:
            churn = q / p
            for i in range(p):
                for i2 in range(p):
                    if i != i2:
                        out[lo + i, lo + i2] = churn
            exit_rows = [lo + i for i in range(p)]
        for x2 in range(n_states):
            if x2 == x:
                continue
            rate = base[x, x2]
            if rate == 0.0:
                continue
            land = entries[x2]
            lo2 = offsets[x2]
            for row in exit_rows:
                for e, weight in enumerate(land):
                    if weight > 0.0:
                        out[row, lo2 + e] += rate * weight
        for i in range(p):
            row = lo + i
            out[row, row] = 0.0
            out[row, row] = -out[row].sum()
    return out


def _expanded_support(counts, offsets, dim, topology) -> np.ndarray:
    if topology == "unrestricted":
        return _full_support(dim)
    s = np.zeros((dim, dim), dtype=bool)
    n_states = len(counts)
    for x in range(n_states):
        p = counts[x]
        lo = offsets[x]
        for i in range(p - 1):
            s[lo + i, lo + i + 1] = True
        for x2 in range(n_states):
            if x2 != x:
                s[lo + p - 1, offsets[x2]] = True
    s.setflags(write=False)
    return s


def expand_phases(model: CtbnModel, spec: PhaseSpec):
    """Expand each named variable's states into phase blocks.

    Chain blocks reproduce Erlang dwell times with the base exit rate per
    phase and enter at the first phase; unrestricted blocks allow every
    off-diagonal entry (loops included) and start from an even split of the
    base rates, which EM then reshapes. Returns the expanded model together
    with the map from each variable's local indices to its observable
    states (phases themselves are never observed).
    """
    if spec.reset_on_parent_change:
        raise NotImplementedError(
            "resetting the phase on parent changes requires correlated joint "
            "transitions, which the flattened process does not represent"
        )
    new_vars = []
    new_cims = {}
    new_entries = dict(model.entries)
    for var in model.variables:
        counts = spec.counts_for(var)
        if counts == var.phases:
            new_vars.append(var)
            new_cims[var.name] = model.cims[var.name]
            continue
        if any(p != 1 for p in var.phases):
            raise InconsistentPhaseCountsError(
                f"{var.name!r} already carries phases {var.phases}, cannot re-expand to {counts}"
            )
        new_var = Variable(var.name, var.states, counts)
        dim = new_var.dim
        offsets = new_var.state_offsets
        entries = _expanded_entry(counts, spec.topology)
        cim = model.cims[var.name]
        mats = np.stack(
            [_expand_matrix(cim.matrices[u], counts, offsets, dim, spec.topology, entries)
             for u in range(cim.n_instantiations)]
        )
        support = _expanded_support(counts, offsets, dim, spec.topology)
        new_vars.append(new_var)
        new_cims[var.name] = Cim(cim.parents, cim.parent_cards, mats, support)
        new_entries[var.name] = entries
    expanded = CtbnModel(tuple(new_vars), new_cims, model.initial, new_entries)
    obs_map = {v.name: v.state_of_local for v in expanded.variables}
    return expanded, obs_map


def hidden_parent_to_phase(model: CtbnModel, x_name: str, h_name: str):
    """Amalgamate a hidden parent H into phases of its child X.

    The combined variable keeps X's name and states, with one phase per
    value of H; transitions that would change the state and the phase at
    once are structural zeros. Returns the new model and the permutation
    sending each joint index of the input to its image in the output, under
    which the flattened processes coincide.
    """
    if x_name == h_name:
        raise ValueError("child and hidden parent must differ")
    for var in model.variables:
        if any(p != 1 for p in var.phases):
            raise ValueError("hidden-parent amalgamation expects an unexpanded model")
    if h_name not in model.parents(x_name):
        raise ValueError(f"{h_name!r} is not a parent of {x_name!r}")
    for name in model.names:
        if name != x_name and h_name in model.parents(name):
            raise ValueError(f"{h_name!r} also feeds {name!r}; it can only be absorbed into its sole child")

    x_var = model.by_name[x_name]
    h_var = model.by_name[h_name]
    n_x, n_h = x_var.n_states, h_var.n_states
    x_cim, h_cim = model.cims[x_name], model.cims[h_name]

    parents_s = tuple(dict.fromkeys(
        [p for p in x_cim.parents if p != h_name] + [p for p in h_cim.parents]
    ))
    if x_name in parents_s or h_name in parents_s:
        raise ValueError("self-loops through the amalgamated node are not representable")
    cards_s = tuple(model.by_name[p].n_states for p in parents_s)

    dim = n_x * n_h
    support = np.zeros((dim, dim), dtype=bool)
    for x in range(n_x):
        for h in range(n_h):
            row = x * n_h + h
            for h2 in range(n_h):
                if h2 != h:
                    support[row, x * n_h + h2] = True
            for x2 in range(n_x):
                if x2 != x:
                    support[row, x2 * n_h + h] = True
    support.setflags(write=False)

    u_states = Cim.u_states(cards_s)
    mats = np.zeros((len(u_states), dim, dim))
    for u, states in enumerate(u_states):
        by_parent = dict(zip(parents_s, states))
        h_u = Cim.u_index(h_cim.parent_cards, [by_parent[p] for p in h_cim.parents])
        for h in range(n_h):
            x_vals = [h if p == h_name else by_parent[p] for p in x_cim.parents]
            x_u = Cim.u_index(x_cim.parent_cards, x_vals)
            for x in range(n_x):
                row = x * n_h + h
                for h2 in range(n_h):
                    if h2 != h:
                        mats[u, row, x * n_h + h2] = h_cim.matrices[h_u, h, h2]
                for x2 in range(n_x):
                    if x2 != x:
                        mats[u, row, x2 * n_h + h] = x_cim.matrices[x_u, x, x2]
                mats[u, row, row] = -mats[u, row].sum()

    s_var = Variable(x_name, x_var.states, (n_h,) * n_x)
    new_vars = tuple(s_var if v.name == x_name else v for v in model.variables if v.name != h_name)
    new_cims = {name: model.cims[name] for name in model.names if name not in (x_name, h_name)}
    new_cims[x_name] = Cim(parents_s, cards_s, mats, support)
    new_initial = {name: model.initial[name] for name in model.names if name != h_name}
    new_entries = {v.name: model.entries[v.name] for v in model.variables if v.name not in (x_name, h_name)}
    new_entries[x_name] = tuple(model.initial[h_name] for _ in range(n_x))
    out = CtbnModel(new_vars, new_cims, new_initial, new_entries)

    old_space = model.space()
    new_space = out.space()
    xi_old = old_space.index_of[x_name]
    hi_old = old_space.index_of[h_name]
    perm = np.zeros(old_space.n_joint, dtype=np.int64)
    for j in range(old_space.n_joint):
        coords = old_space.coords[j]
        locals_new = []
        for v in out.variables:
            if v.name == x_name:
                locals_new.append(int(coords[xi_old]) * n_h + int(coords[hi_old]))
            else:
                locals_new.append(int(coords[old_space.index_of[v.name]]))
        perm[j] = new_space.joint_index(tuple(locals_new))
    return out, perm
