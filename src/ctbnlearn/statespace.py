"""Joint state-space indexing for factored models.

Maps between flat joint-state indices and per-variable local indices,
where a variable's local space enumerates (state, phase) pairs. Evidence
constrains only the state coordinate; phases are always hidden. The last
variable varies fastest (C order), and parent instantiations are indexed
the same way over parent *states*.
"""
from __future__ import annotations

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
        n = 1
        for d in self.dims:
            n *= d
        return n

    @cached_property
    def state_of(self) -> tuple[np.ndarray, ...]:
        """Per variable: local index -> observable state index."""
        out = []
        for pc in self.phase_counts:
            out.append(np.repeat(np.arange(len(pc)), pc))
        return tuple(out)

    @cached_property
    def coords(self) -> np.ndarray:
        """(n_joint, k) local index of each variable in each joint state."""
        grids = np.indices(self.dims).reshape(self.k, -1)
        return np.ascontiguousarray(grids.T)

    def joint_index(self, locals_: tuple[int, ...]) -> int:
        return int(sum(l * s for l, s in zip(locals_, self.strides)))

    @cached_property
    def observation_tables(self) -> tuple[np.ndarray, ...]:
        """Per variable v, a read-only (n_states[v] + 1, n_joint) table: row
        s flags the joint states whose state of v is s, and the last row,
        all true, stands for v hidden."""
        out = []
        for v in range(self.k):
            states = self.state_of[v][self.coords[:, v]]
            table = np.arange(self.n_states[v] + 1)[:, None] == states
            table[-1] = True
            table.setflags(write=False)
            out.append(table)
        return tuple(out)

    def observation_masks(self, rows) -> np.ndarray:
        """(m, n_joint) joint-state masks for m tuples of per-variable
        observations (state index, or None for hidden), one table lookup
        per variable."""
        vals = np.array([[np.nan if x is None else x for x in r] for r in rows], dtype=float)
        if vals.shape != (len(rows), self.k):
            raise ValueError(f"every observation must cover the {self.k} variables")
        n_states = np.array(self.n_states)
        if ((vals < 0) | (vals >= n_states)).any():
            raise ValueError("observed state index out of range")
        codes = np.where(np.isnan(vals), n_states, vals).astype(np.intp)
        masks = np.ones((len(rows), self.n_joint), dtype=bool)
        for v, table in enumerate(self.observation_tables):
            masks &= table[codes[:, v]]
        return masks

    def family_index(self, parent_ids: tuple[int, ...]) -> tuple[np.ndarray, int]:
        """Per joint state, the mixed-radix index of the parents' states.

        Returns (u_idx of shape (n_joint,), number of instantiations).
        """
        u = np.zeros(self.n_joint, dtype=np.int64)
        n_u = 1
        for p in parent_ids:
            u = u * self.n_states[p] + self.state_of[p][self.coords[:, p]]
            n_u *= self.n_states[p]
        return u, n_u

    @cached_property
    def _transition_cache(self) -> dict:
        return {}

    def transitions(self, v: int):
        """All joint-state pairs differing only in variable v.

        Returns arrays (j, k, x, xp): source/target joint indices and the
        corresponding source/target local indices of v.
        """
        cached = self._transition_cache.get(v)
        if cached is not None:
            return cached
        d = self.dims[v]
        stride = self.strides[v]
        x = self.coords[:, v]
        js, ks, xs, xps = [], [], [], []
        base = np.arange(self.n_joint, dtype=np.int64)
        for xp in range(d):
            keep = x != xp
            j = base[keep]
            js.append(j)
            ks.append(j + (xp - x[keep]) * stride)
            xs.append(x[keep])
            xps.append(np.full(j.shape[0], xp, dtype=np.int64))
        out = (
            np.concatenate(js),
            np.concatenate(ks),
            np.concatenate(xs),
            np.concatenate(xps),
        )
        self._transition_cache[v] = out
        return out

    def variable_state_marginal(self, vec: np.ndarray, v: int) -> np.ndarray:
        """Sum a joint-state vector down to variable v's observable states."""
        states = self.state_of[v][self.coords[:, v]]
        out = np.zeros(self.n_states[v])
        np.add.at(out, states, vec)
        return out

    def project(self, traj: CompleteTrajectory, v: int) -> CompleteTrajectory:
        """Project a joint complete trajectory onto variable v's states,
        merging segments where only hidden coordinates (other variables,
        phases) change."""
        states = self.state_of[v]
        segs = []
        for j, a, b in traj.segments:
            s = int(states[self.coords[j, v]])
            if segs and segs[-1][0] == s:
                segs[-1] = (s, segs[-1][1], b)
            else:
                segs.append((s, a, b))
        return CompleteTrajectory(tuple(segs), traj.horizon)
