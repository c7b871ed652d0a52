"""Joint state-space indexing for factored models.

A variable's local space enumerates its (state, phase) pairs. A joint
state is numbered in mixed radix over the local sizes ``dims``, the last
variable fastest (C order): variable v's local index is digit v,
``joint // strides[v] % dims[v]``, and parent instantiations are indexed
the same way over parent *states*. The space keeps no table with a row
per joint state. Evidence constrains only the state coordinate; phases
are always hidden.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .markov import CompleteTrajectory

__all__ = ["StateSpace"]


@dataclass(frozen=True)
class StateSpace:
    names: tuple[str, ...]
    n_states: tuple[int, ...]
    phase_counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "n_states", tuple(int(c) for c in self.n_states))
        object.__setattr__(
            self, "phase_counts", tuple(tuple(int(p) for p in pc) for pc in self.phase_counts)
        )
        if not len(self.names) == len(self.n_states) == len(self.phase_counts):
            raise ValueError("names, n_states and phase_counts must have one entry per variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for name, card, pc in zip(self.names, self.n_states, self.phase_counts):
            if card < 1 or len(pc) != card or any(p < 1 for p in pc):
                raise ValueError(f"bad state/phase layout for variable {name!r}")

    @property
    def k(self) -> int:
        return len(self.names)

    @cached_property
    def index_of(self) -> dict:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(sum(pc) for pc in self.phase_counts)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        out = [1] * self.k
        for i in range(self.k - 2, -1, -1):
            out[i] = out[i + 1] * self.dims[i + 1]
        return tuple(out)

    @property
    def n_joint(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def state_of(self) -> tuple[np.ndarray, ...]:
        """Per variable: local index -> observable state index."""
        return tuple(np.repeat(np.arange(len(pc)), pc) for pc in self.phase_counts)

    @property
    def coords(self) -> np.ndarray:
        """(n_joint, k) local index of each variable in each joint state,
        built on every access; the library reads ``local_index`` instead."""
        return np.ascontiguousarray(np.indices(self.dims).reshape(self.k, -1).T)

    def local_index(self, v: int, joint=None) -> np.ndarray:
        """Variable v's local index in each joint state of ``joint``, or in
        every joint state when it is None. An index outside 0..n_joint-1
        raises IndexError rather than wrap into a digit."""
        if joint is None:
            joint = np.arange(self.n_joint)
        else:
            joint = np.asarray(joint)
            if joint.size and (joint.min() < 0 or joint.max() >= self.n_joint):
                raise IndexError(f"joint state index out of range for n_joint={self.n_joint}")
        return joint // self.strides[v] % self.dims[v]

    @cached_property
    def _observation_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """The range of local indices, as a row (lo, width), that each value
        of each variable allows: its state's phases, then all of them for
        hidden. Variable v's rows start at first_row[v]; there are
        sum(n_states[v] + 1) rows, whatever the joint size."""
        ranges = np.array([r for pc, d in zip(self.phase_counts, self.dims)
                           for r in (*zip(itertools.accumulate(pc[:-1], initial=0), pc), (0, d))], dtype=np.intp)
        return ranges, np.cumsum((0, *self.n_states[:-1])) + np.arange(self.k)

    def subsystem_lists(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lower m tuples of per-variable observations (state index, or None
        for hidden), in time order, onto the joint space.

        Each tuple allows one contiguous range of local indices per
        variable, so its subsystem is a box. Neighbours with equal boxes
        merge into a run. Returns which tuples start a run (a boolean
        m-vector), and every run's joint states in ascending order, one run
        after the other, with their counts.
        """
        vals = np.array(rows, dtype=float)  # None reads as nan
        if vals.shape != (len(rows), self.k):
            raise ValueError(f"every observation must cover the {self.k} variables")
        n_states = np.array(self.n_states)
        if ((vals < 0) | (vals >= n_states)).any():
            raise ValueError("observed state index out of range")
        ranges, first_row = self._observation_ranges
        boxes = ranges[np.where(np.isnan(vals), n_states, vals).astype(np.intp) + first_row]
        first = np.ones(len(boxes), dtype=bool)
        first[1:] = (boxes[1:] != boxes[:-1]).any(axis=(1, 2))
        lo, width = boxes[first].transpose(2, 0, 1)
        # Enumerate each box in C order, which is ascending joint order:
        # entry r of a box holds digit v = r // prod(width[v+1:]) % width[v].
        sizes = width.prod(axis=1)
        box = np.repeat(np.arange(len(sizes)), sizes)
        states = lo @ self.strides
        if len(box) == len(sizes):  # one state per box, as in complete records
            return first, states, sizes
        states = states[box]
        r = np.arange(len(box)) - (np.cumsum(sizes) - sizes)[box]
        digit = np.empty_like(r)
        inner = sizes
        for v, stride in enumerate(self.strides):
            inner = inner // width[:, v]
            np.divmod(r, inner[box], out=(digit, r))
            digit *= stride
            states += digit
        return first, states, sizes

    def family_index(self, parent_ids: tuple[int, ...]) -> tuple[np.ndarray, int]:
        """Per joint state, the mixed-radix index of the parents' states.

        Returns (u_idx of shape (n_joint,), number of instantiations).
        """
        u = np.zeros(self.n_joint, dtype=np.int64)
        n_u = 1
        for p in parent_ids:
            u = u * self.n_states[p] + self.state_of[p][self.local_index(p)]
            n_u *= self.n_states[p]
        return u, n_u

    def transitions(self, v: int):
        """All joint-state pairs differing only in variable v, built on
        every call, by target local index and then source.

        Returns arrays (j, k, x, xp): source/target joint indices and the
        corresponding source/target local indices of v.
        """
        x = self.local_index(v)
        xp, j = np.nonzero(np.arange(self.dims[v])[:, None] != x)
        return j, j + (xp - x[j]) * self.strides[v], x[j], xp

    def variable_state_marginal(self, vec: np.ndarray, v: int) -> np.ndarray:
        """Sum a joint-state vector down to variable v's observable states."""
        out = np.zeros(self.n_states[v])
        np.add.at(out, self.state_of[v][self.local_index(v)], vec)
        return out

    def project(self, traj: CompleteTrajectory, v: int) -> CompleteTrajectory:
        """Project a joint complete trajectory onto variable v's states,
        merging segments where only hidden coordinates (other variables,
        phases) change."""
        states = self.state_of[v][self.local_index(v, [j for j, _, _ in traj.segments])]
        segs = []
        for s, (_, a, b) in zip(states.tolist(), traj.segments):
            if segs and segs[-1][0] == s:
                segs[-1] = (s, segs[-1][1], b)
            else:
                segs.append((s, a, b))
        return CompleteTrajectory(tuple(segs), traj.horizon)
