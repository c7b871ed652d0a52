"""Factored continuous-time models.

A model is a set of variables, a possibly cyclic parent graph, one
conditional intensity matrix per variable (a proper intensity matrix per
parent-state instantiation, over the variable's phase-expanded local
space) and independent per-variable initial state marginals. The model
flattens into a single joint Markov process in which exactly one variable
changes per transition; expected statistics of the joint process aggregate
back into per-family tables.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .inference import FlatStatistics
from .markov import IntensityMatrix, validate_distribution, _validated_entries
from .statespace import StateSpace

__all__ = [
    "DEFAULT_JOINT_CAP",
    "JointSpaceTooLargeError",
    "IncompatibleSupportError",
    "Variable",
    "Cim",
    "CtbnModel",
    "FamilyStatistics",
    "amalgamate",
    "aggregate_statistics",
    "family_tables",
    "family_log_likelihood",
    "count_parameters",
]

#: Exact inference flattens the model; refuse joint spaces larger than this.
DEFAULT_JOINT_CAP = 4096


class JointSpaceTooLargeError(RuntimeError):
    def __init__(self, size, cap):
        self.size = size
        self.cap = cap
        super().__init__(f"joint state space has {size} states, cap is {cap}")


class IncompatibleSupportError(ValueError):
    """Expected transitions observed where the model's rate is zero."""


@dataclass(frozen=True)
class Variable:
    """A named variable with at least two state labels and an optional
    phase count per state (default one phase, i.e. exponential dwell)."""

    name: str
    states: tuple[str, ...]
    phases: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))
        if len(self.states) < 2:
            raise ValueError(f"variable {self.name!r} needs at least two states")
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"variable {self.name!r} has duplicate state labels")
        phases = self.phases
        if phases is None:
            phases = (1,) * len(self.states)
        phases = tuple(int(p) for p in phases)
        if len(phases) != len(self.states) or any(p < 1 for p in phases):
            raise ValueError(f"variable {self.name!r} has invalid phase counts")
        object.__setattr__(self, "phases", phases)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return sum(self.phases)

    @cached_property
    def state_of_local(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_states), self.phases)

    @cached_property
    def state_offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.phases)[:-1])).astype(int)

    def state_index(self, label: str) -> int:
        return self.states.index(label)


def _full_support(dim: int) -> np.ndarray:
    s = ~np.eye(dim, dtype=bool)
    s.setflags(write=False)
    return s


@dataclass(frozen=True)
class Cim:
    """A conditional intensity matrix: one proper intensity matrix over the
    variable's local space per instantiation of the parents' states, stacked
    as (n_instantiations, dim, dim). ``support`` marks the off-diagonal
    entries that are structurally allowed to be nonzero."""

    parents: tuple[str, ...]
    parent_cards: tuple[int, ...]
    matrices: np.ndarray
    support: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "parent_cards", tuple(int(c) for c in self.parent_cards))
        mats = np.array(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("matrices must be stacked as (instantiations, dim, dim)")
        n_u = len(self.u_states(self.parent_cards))
        if len(self.parents) != len(self.parent_cards) or mats.shape[0] != n_u:
            raise ValueError("matrix count must equal the product of parent cardinalities")
        dim = mats.shape[1]
        support = self.support
        if support is None:
            support = _full_support(dim)
        else:
            support = np.array(support, dtype=bool)
            if support.shape != (dim, dim):
                raise ValueError("support mask shape does not match the matrices")
            support = support & ~np.eye(dim, dtype=bool)
            support.setflags(write=False)
        off = mats * ~np.eye(dim, dtype=bool)
        if np.any(np.abs(np.where(support, 0.0, off)) > 0.0):
            raise ValueError("matrix has a nonzero rate outside its support")
        mats = np.stack([_validated_entries(m, "proper") for m in mats])
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "support", support)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def n_instantiations(self) -> int:
        return self.matrices.shape[0]

    @staticmethod
    def u_index(parent_cards: Sequence[int], parent_states: Sequence[int]) -> int:
        """The index of one parent instantiation: mixed radix over
        ``parent_cards``, the first parent most significant (0 for none)."""
        u = 0
        for s, c in zip(parent_states, parent_cards):
            u = u * c + int(s)
        return u

    @staticmethod
    def u_states(parent_cards: Sequence[int]) -> list[tuple[int, ...]]:
        """The inverse of ``u_index``: every instantiation's parent states in
        index order, so its length is the number of instantiations."""
        return list(itertools.product(*(range(c) for c in parent_cards)))


def _default_entries(var: Variable) -> tuple[np.ndarray, ...]:
    out = []
    for p in var.phases:
        e = np.zeros(p)
        e[0] = 1.0
        e.setflags(write=False)
        out.append(e)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class CtbnModel:
    """Variables, their CIMs (which imply the parent graph) and independent
    initial state marginals. ``entries`` gives the distribution over phases
    with which each state is entered; it defaults to the first phase."""

    variables: tuple[Variable, ...]
    cims: Mapping[str, Cim]
    initial: Mapping[str, np.ndarray]
    entries: Mapping[str, tuple[np.ndarray, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        by_name = {v.name: v for v in self.variables}
        cims = dict(self.cims)
        if set(cims) != set(names):
            raise ValueError("cims must cover exactly the model variables")
        for name, cim in cims.items():
            var = by_name[name]
            if cim.dim != var.dim:
                raise ValueError(f"CIM of {name!r} does not match its phase-expanded space")
            for p, card in zip(cim.parents, cim.parent_cards):
                if p not in by_name:
                    raise ValueError(f"unknown parent {p!r} of {name!r}")
                if by_name[p].n_states != card:
                    raise ValueError(f"parent cardinality mismatch for {p!r} in {name!r}")
        initial = {}
        for name in names:
            if name not in self.initial:
                raise ValueError(f"missing initial marginal for {name!r}")
            initial[name] = validate_distribution(self.initial[name], by_name[name].n_states)
        entries = {}
        for name in names:
            var = by_name[name]
            given = self.entries.get(name)
            if given is None:
                entries[name] = _default_entries(var)
            else:
                ent = tuple(validate_distribution(e, p) for e, p in zip(given, var.phases))
                if len(ent) != var.n_states:
                    raise ValueError(f"entry distributions of {name!r} must cover every state")
                entries[name] = ent
        object.__setattr__(self, "cims", cims)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "entries", entries)

    @cached_property
    def by_name(self) -> dict:
        return {v.name: v for v in self.variables}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def parents(self, name: str) -> tuple[str, ...]:
        return self.cims[name].parents

    def graph(self) -> dict:
        return {name: self.parents(name) for name in self.names}

    def space(self) -> StateSpace:
        return StateSpace(
            names=self.names,
            n_states=tuple(v.n_states for v in self.variables),
            phase_counts=tuple(v.phases for v in self.variables),
        )

    def local_initial(self, name: str) -> np.ndarray:
        """Initial distribution over the variable's phase-expanded space."""
        var = self.by_name[name]
        out = np.zeros(var.dim)
        for s in range(var.n_states):
            lo = var.state_offsets[s]
            out[lo : lo + var.phases[s]] = self.initial[name][s] * self.entries[name][s]
        return out

    def with_cims(self, cims: Mapping[str, Cim]) -> "CtbnModel":
        merged = dict(self.cims)
        merged.update(cims)
        return CtbnModel(self.variables, merged, self.initial, self.entries)

    def with_initial(self, initial: Mapping[str, np.ndarray]) -> "CtbnModel":
        merged = dict(self.initial)
        merged.update(initial)
        return CtbnModel(self.variables, self.cims, merged, self.entries)


def amalgamate(model: CtbnModel, cap: int = DEFAULT_JOINT_CAP):
    """Flatten the model into one joint Markov process.

    Returns (joint intensity matrix, state space, initial distribution).
    The joint rate between states differing in more than one variable is
    zero; within one variable it is read from that variable's CIM under the
    parent states of the source joint state. The matrix is built from its
    transition list, these rates where positive, and holds no dense n x n
    array until its ``entries`` are asked for.
    """
    size = 1
    for v in model.variables:
        size *= v.dim
    if size > cap:
        raise JointSpaceTooLargeError(size, cap)
    space = model.space()
    n = space.n_joint
    src, dst, rate = [], [], []
    for vi, var in enumerate(model.variables):
        cim = model.cims[var.name]
        parent_ids = tuple(space.index_of[p] for p in cim.parents)
        u_idx, _ = space.family_index(parent_ids)
        j, k, x, xp = space.transitions(vi)
        src.append(j)
        dst.append(k)
        rate.append(cim.matrices[u_idx[j], x, xp])
    src, dst, rate = (np.concatenate(a) for a in (src, dst, rate))
    keep = np.flatnonzero(rate > 0.0)
    keep = keep[np.argsort(src[keep] * n + dst[keep])]
    q = IntensityMatrix._from_transitions(n, src[keep], dst[keep], rate[keep])

    p0 = np.ones(n)
    for vi, var in enumerate(model.variables):
        p0 *= model.local_initial(var.name)[space.coords[:, vi]]
    return q, space, p0


@dataclass
class FamilyStatistics:
    """Expected dwell times and transition counts per variable family,
    indexed by (parent instantiation, local state). ``initial`` optionally
    accumulates smoothed time-zero state marginals over ``n_records``
    trajectories for re-estimating the initial distribution."""

    time: dict
    trans: dict
    initial: dict | None = None
    n_records: int = 0

    def exits(self, name: str) -> np.ndarray:
        return self.trans[name].sum(axis=2)


def family_tables(space: StateSpace, dwell, transitions, v: int, parent_ids: tuple[int, ...]):
    """Aggregate flat statistics into the (parents, variable) family tables:
    dwell per (u, x) and transitions per (u, x, x') summed over consistent
    joint states. ``dwell`` is the n-vector of dwell times; ``transitions``
    lists counts (src, dst, count) between joint states that differ in one
    variable, of which those where v changes, from x to x', are read."""
    u_idx, n_u = space.family_index(parent_ids)
    dim = space.dims[v]
    t = np.zeros((n_u, dim))
    np.add.at(t, (u_idx, space.coords[:, v]), dwell)
    src, dst, count = transitions
    x, xp = space.coords[src, v], space.coords[dst, v]
    mine = x != xp
    m = np.zeros((n_u, dim, dim))
    np.add.at(m, (u_idx[src[mine]], x[mine], xp[mine]), count[mine])
    return t, m


def aggregate_statistics(flat: FlatStatistics, space: StateSpace, model: CtbnModel) -> FamilyStatistics:
    """Aggregate joint-process statistics into per-family tables for every
    variable under the model's current parent sets. The dense counts are
    read at every pair of joint states that differ in one variable, rate or
    no rate, so that counts along a zero-rate edge reach the tables."""
    time, trans = {}, {}
    for vi, var in enumerate(model.variables):
        parent_ids = tuple(space.index_of[p] for p in model.parents(var.name))
        j, k = space.transitions(vi)[:2]
        time[var.name], trans[var.name] = family_tables(
            space, flat.dwell, (j, k, flat.transitions[j, k]), vi, parent_ids)
    return FamilyStatistics(time=time, trans=trans)


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    pos = x > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(np.broadcast_to(y, out.shape), out=out, where=pos)
    return np.where(pos, np.broadcast_to(x, out.shape) * out, 0.0)


def family_log_likelihood(model: CtbnModel, stats: FamilyStatistics) -> float:
    """Expected transition log-likelihood, summed over variable families:
    sum_u sum_x [ M[x|u] ln q_{x|u} - q_{x|u} T[x|u]
                  + sum_{x'} M[x,x'|u] ln theta_{xx'|u} ].

    The initial-distribution term is excluded and reported separately by
    the learning layer.
    """
    total = 0.0
    for var in model.variables:
        name = var.name
        mats = model.cims[name].matrices
        t = stats.time[name]
        m = stats.trans[name]
        exits = m.sum(axis=2)
        q = -np.diagonal(mats, axis1=1, axis2=2)
        if np.any((exits > 0) & (q <= 0.0)):
            raise IncompatibleSupportError(f"transitions out of a zero-rate state of {name!r}")
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = np.where(q[:, :, None] > 0, mats / np.where(q[:, :, None] > 0, q[:, :, None], 1.0), 0.0)
        theta = np.clip(theta, 0.0, None)
        if np.any((m > 0) & (theta <= 0.0)):
            raise IncompatibleSupportError(f"transitions along a zero-rate edge of {name!r}")
        total += float(_xlogy(exits, q).sum() - (q * t).sum() + _xlogy(m, theta).sum())
    return total


def count_parameters(model: CtbnModel) -> int:
    """Number of free parameters: the structurally allowed off-diagonal
    entries across all CIM matrices (each row contributes one rate plus its
    exit-split degrees of freedom, which is exactly its allowed exits)."""
    total = 0
    for name in model.names:
        cim = model.cims[name]
        total += cim.n_instantiations * int(cim.support.sum())
    return total
