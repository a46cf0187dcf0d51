"""Transition storage as a ring of rows, with uniform with-replacement sampling.

Each transition is stored once, as one row ``(s, a, r, s_next)`` of a
preallocated float64 matrix of ``2 * state_dim + action_dim + 1`` columns,
written in one assignment. There is no terminal flag: an episode ends
only at its horizon, a timeout the learner bootstraps through, so a
stored transition is never terminal. Sampling draws independent uniform
indices, so the training and validation mini-batches of one iteration
are independent draws that may overlap by chance. Sampling gathers one
copy of the drawn rows, and the batch's fields are column views of that
copy; it never mutates stored transitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Batch:
    """Column-stacked mini-batch of transitions."""

    s: np.ndarray
    a: np.ndarray
    r: np.ndarray       # (N, 1)
    s_next: np.ndarray

    def __len__(self) -> int:
        return self.s.shape[0]


class ReplayBuffer:
    """Fixed-capacity ring of rows; the oldest rows are overwritten first.

    ``push`` copies the transition, any flat sequences of numbers, into
    row ``count % capacity`` of the matrix, so the caller may reuse or
    mutate its arrays afterwards: rows fill in order until the ring is
    full, then the oldest is replaced. ``_cols`` holds the matrix's
    column blocks as views, by field name.
    """

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.state_dim = state_dim
        self.action_dim = action_dim
        self._count = 0  # transitions pushed
        self._rows = np.empty((capacity, 2 * state_dim + action_dim + 1))
        ends = np.cumsum([0, state_dim, action_dim, 1, state_dim]).tolist()
        self._fields = [slice(i, j) for i, j in zip(ends, ends[1:])]  # s, a, r, s_next
        self._cols = {k: self._rows[:, f] for k, f in zip(("s", "a", "r", "s_next"), self._fields)}
        self._shape_error = (f"a transition is a ({state_dim},) state, a ({action_dim},) "
                             f"action, a scalar reward and a ({state_dim},) next state")

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    def push(self, s, a, r: float, s_next) -> None:
        if len(s) != self.state_dim or len(a) != self.action_dim or len(s_next) != self.state_dim:
            raise ValueError(self._shape_error)
        try:
            finite = math.isfinite(r)
        except TypeError:
            raise ValueError(f"reward must be a scalar, got {type(r).__name__}") from None
        if not finite:
            raise ValueError("reward must be finite")
        try:
            self._rows[self._count % self.capacity] = (*s, *a, r, *s_next)
        except ValueError:  # a nested element, such as a (state_dim, 1) state
            raise ValueError(self._shape_error) from None
        self._count += 1

    def sample_indices(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if not self._count:
            raise ValueError("cannot sample from an empty buffer")
        return rng.integers(0, len(self), size=n)

    def sample_batch(self, n: int, rng: np.random.Generator) -> Batch:
        rows = self._rows[self.sample_indices(n, rng)]
        return Batch(*(rows[:, f] for f in self._fields))
