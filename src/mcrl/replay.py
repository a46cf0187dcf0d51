"""Transition storage as a column ring, with uniform with-replacement sampling.

Each transition is stored once, as one row of four preallocated float64
columns (s, a, r, s_next). There is no terminal flag: every environment's
``done`` is a horizon timeout, which the learner bootstraps through, so a
stored transition is never terminal. Sampling draws independent uniform
indices, so the training and validation mini-batches of one iteration
are independent draws that may overlap by chance. Sampling gathers
copies of the rows and never mutates stored transitions.
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
    """Fixed-capacity column ring; the oldest rows are overwritten first.

    ``push`` copies the transition into the next row of the columns, so
    the caller may reuse or mutate its arrays afterwards. Rows fill in
    order until the ring is full; from then on row ``_head`` (the
    oldest) is replaced and ``_head`` advances. Batched sampling is a
    fancy-index gather over the filled rows.
    """

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.state_dim = state_dim
        self.action_dim = action_dim
        self._len = 0
        self._head = 0
        self._cols = {
            "s": np.empty((capacity, state_dim)),
            "a": np.empty((capacity, action_dim)),
            "r": np.empty((capacity, 1)),
            "s_next": np.empty((capacity, state_dim)),
        }

    def __len__(self) -> int:
        return self._len

    def push(self, s: np.ndarray, a: np.ndarray, r: float, s_next: np.ndarray) -> None:
        if s.shape != (self.state_dim,) or s_next.shape != (self.state_dim,):
            raise ValueError(f"state shape {s.shape} does not match ({self.state_dim},)")
        if a.shape != (self.action_dim,):
            raise ValueError(f"action shape {a.shape} does not match ({self.action_dim},)")
        try:
            finite = math.isfinite(r)
        except TypeError:
            raise ValueError(f"reward must be a scalar, got {type(r).__name__}") from None
        if not finite:
            raise ValueError("reward must be finite")
        if self._len < self.capacity:
            slot = self._len
            self._len += 1
        else:
            slot = self._head
            self._head = (self._head + 1) % self.capacity
        c = self._cols
        c["s"][slot] = s
        c["a"][slot] = a
        c["r"][slot, 0] = r
        c["s_next"][slot] = s_next

    def sample_indices(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if not self._len:
            raise ValueError("cannot sample from an empty buffer")
        return rng.integers(0, self._len, size=n)

    def sample_batch(self, n: int, rng: np.random.Generator) -> Batch:
        idx = self.sample_indices(n, rng)
        c = self._cols
        return Batch(s=c["s"][idx], a=c["a"][idx], r=c["r"][idx], s_next=c["s_next"][idx])
