"""Optimisation-trajectory PCA and reward-surface grids.

The PCA tool takes parameter snapshots phi_0 .. phi_n, stacks the
differences to the final snapshot as rows of M, and projects everything
onto M's two leading right-singular directions. The final snapshot maps
to the origin by construction. No mean-centering is applied beyond the
subtraction of phi_n; explained-variance ratios come straight from the
singular values.
"""

from __future__ import annotations

import numpy as np

from .harness import evaluate_policy
from .nets import Actor, load_params, unflatten_values


def pca_trajectory(snapshots: list[np.ndarray]):
    """2-D coordinates for each snapshot, top-2 explained-variance ratios and
    the two directions, as rows of a (2, n_params) array.

    Raises ValueError when the differences span fewer than two directions."""
    if len(snapshots) < 3:
        raise ValueError("need at least 3 snapshots")
    flats = [np.asarray(s, dtype=np.float64).ravel() for s in snapshots]
    final = flats[-1]
    M = np.stack([f - final for f in flats[:-1]])
    _, svals, vt = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(svals > svals[0] * max(M.shape) * np.finfo(M.dtype).eps))
    if rank < 2:
        raise ValueError(f"snapshot differences have rank {rank}, need 2: zero "
                         "variance along a second direction, which would be arbitrary")
    directions = vt[:2]
    coords = np.stack([f - final for f in flats]) @ directions.T
    total = float(np.sum(svals**2))
    ratios = (svals[:2] ** 2) / total
    return coords, ratios, directions


def load_snapshot_vectors(paths: list[str]) -> list[np.ndarray]:
    """Flatten saved parameter snapshots (in file order) to vectors.

    A snapshot with no tensors raises a ValueError naming its file."""
    out = []
    for p in paths:
        named = load_params(p)
        if not named:
            raise ValueError(f"{p}: the snapshot holds no tensors")
        out.append(np.concatenate([arr for _, arr in named], axis=None))
    return out


def reward_surface(actor: Actor, d1: np.ndarray, d2: np.ndarray,
                   xs, ys, env, episodes: int, eval_seed: int = 0) -> np.ndarray:
    """Mean returns of the policy at center + x*d1 + y*d2 over the grid.

    Each grid point runs ``episodes`` episodes on ``env`` through
    ``harness.evaluate_policy``, with an identically seeded generator
    (common random numbers), so the surface is a deterministic function
    of the parameters. Returns an array of shape (len(ys), len(xs)).
    Raises ValueError, before any evaluation, for an empty grid and for
    directions whose length is not the actor's parameter count or that
    are linearly dependent.
    """
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("the grid needs at least one point along each axis")
    d1 = np.asarray(d1, dtype=np.float64).ravel()
    d2 = np.asarray(d2, dtype=np.float64).ravel()
    saved = [p.value.copy() for p in actor.parameters()]
    center = np.concatenate(saved, axis=None)
    if center.size != d1.size or center.size != d2.size:
        raise ValueError(f"direction lengths {d1.size} and {d2.size} do not match "
                         f"the actor's {center.size} parameters")
    if np.linalg.matrix_rank(np.stack([d1, d2])) < 2:
        raise ValueError("directions must be linearly independent")
    grid = np.zeros((len(ys), len(xs)))
    try:
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                actor.set_param_values(unflatten_values(center + x * d1 + y * d2, saved))
                rng = np.random.default_rng(eval_seed)
                grid[j, i], _ = evaluate_policy(actor.act_np, env, episodes, rng)
    finally:
        actor.set_param_values(saved)
    return grid
