"""Desk-scale environments: a 2x2 tabular MDP and two control toys.

Environments hold no state: ``reset(rng)`` returns an episode's first
state and ``step(state, action, rng)`` returns ``(s2, r)``, the next
state and the reward. Both are pure functions of their arguments and
of the draws they take from the generator passed in, however many, so
one env runs any number of episodes, side by side or one after another.
An episode ends only at ``spec.horizon`` steps, which the caller counts
(``harness.run_seed``, ``harness.evaluate_policy``). Actions are clamped
into bounds; NaN actions are rejected.

The interface carries Python floats: a state is a tuple of floats, a
reward a float, and ``step`` takes the state and the action as any flat
sequence of numbers (a tuple, a list or a 1-D array). On values this
small numpy's dispatch and conversions cost several times the
arithmetic, so the caller builds an array only where a network reads
the state. The float forms give the numpy forms' bits, which
``tests/test_envs.py`` checks against a numpy copy of each step:
``_clamp``'s two comparisons give ``np.clip``'s bits, and
``math.sin`` gave ``np.sin``'s bits on every sampled angle. PointMass
keeps ``np.linalg.norm`` and ``f @ f`` on arrays, because a float norm
and a float dot product round differently in the last bit on a share of
inputs.

The tabular MDP exposes a continuous interface so the same actors work
everywhere: observations are one-hot state vectors and the scalar
action in [-1, 1] selects the discrete action by sign.

An environment declares no discount: the learner's ``RunConfig.gamma``
is the only one, and the tabular oracle takes its ``gamma`` explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EnvSpec:
    state_dim: int
    action_dim: int
    action_bound: float
    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


def _clamp(x: float, bound: float) -> float:
    """``np.clip(x, -bound, bound)`` on a float, NaN included; cheaper than ``min``/``max``."""
    return -bound if x < -bound else bound if x > bound else x


def _check_action(action, spec: EnvSpec) -> list[float]:
    """A flat action's ``spec.action_dim`` elements as floats clamped into the action bound."""
    out = []
    try:
        for x in action:
            x = float(x)
            if x != x:
                raise ValueError("NaN action")
            out.append(_clamp(x, spec.action_bound))
    except TypeError:  # a number, or a nested sequence such as a (1, action_dim) array
        raise ValueError(f"action must be a flat sequence of shape ({spec.action_dim},)") from None
    if len(out) != spec.action_dim:
        raise ValueError(f"action has {len(out)} elements, expected {spec.action_dim}")
    return out


class TabularMdp:
    """Two-state two-action MDP with row-stochastic transition tables."""

    n_states = 2
    n_actions = 2
    HORIZON = 10  # the default episode length
    ONE_HOT = ((1.0, 0.0), (0.0, 1.0))  # the observation of each state

    def __init__(self, transitions: np.ndarray, rewards: np.ndarray, horizon: int = HORIZON):
        P = np.asarray(transitions, dtype=np.float64)
        R = np.asarray(rewards, dtype=np.float64)
        if P.shape != (2, 2, 2) or R.shape != (2, 2):
            raise ValueError("tables must be (2,2,2) transitions and (2,2) rewards")
        if not np.allclose(P.sum(axis=2), 1.0, atol=1e-12) or (P < 0).any():
            raise ValueError("transition rows must be stochastic")
        if not np.isfinite(R).all():
            raise ValueError("rewards must be finite")
        self.P = P
        self.R = R
        # ``rng.choice(2, p=row)``'s cdf at 0: its one random() draw >= this picks 1
        self._cdf0 = (P[..., 0] / (P[..., 0] + P[..., 1])).tolist()
        self.spec = EnvSpec(state_dim=2, action_dim=1, action_bound=1.0, horizon=horizon)

    @classmethod
    def random_instance(cls, seed: int, horizon: int = HORIZON) -> "TabularMdp":
        """Seeded instance: uniform [0,1] rewards, Dirichlet transition rows."""
        rng = np.random.default_rng(seed)
        R = rng.uniform(0.0, 1.0, size=(2, 2))
        P = rng.dirichlet(np.ones(2), size=(2, 2))
        return cls(P, R, horizon=horizon)

    def reset(self, rng: np.random.Generator) -> tuple:
        return self.ONE_HOT[0]  # delta initial distribution at state 0

    def step(self, state, action, rng: np.random.Generator):
        a = _check_action(action, self.spec)
        s = int(np.argmax(state))
        k = 1 if a[0] > 0.0 else 0
        r = float(self.R[s, k])
        s2 = int(rng.random() >= self._cdf0[s][k])
        return self.ONE_HOT[s2], r


class PointMass:
    """2-D double integrator pushed toward the origin by a force input.

    reward = -||pos|| - 0.01 * ||force||^2, dt = 0.05; the state
    box is position in [-2, 2]^2 and velocity in [-2, 2]^2.
    """

    DT = 0.05
    POS_BOX = 2.0
    VEL_BOX = 2.0
    INIT_BOX = 1.0
    HORIZON = 100

    def __init__(self, horizon: int = HORIZON):
        self.spec = EnvSpec(state_dim=4, action_dim=2, action_bound=1.0, horizon=horizon)

    def reset(self, rng: np.random.Generator) -> tuple:
        x, y = rng.uniform(-self.INIT_BOX, self.INIT_BOX, size=2).tolist()
        return x, y, 0.0, 0.0

    def step(self, state, action, rng: np.random.Generator):
        f = _check_action(action, self.spec)
        x, y, vx, vy = map(float, state)
        vx = _clamp(vx + f[0] * self.DT, self.VEL_BOX)
        vy = _clamp(vy + f[1] * self.DT, self.VEL_BOX)
        x = _clamp(x + vx * self.DT, self.POS_BOX)
        y = _clamp(y + vy * self.DT, self.POS_BOX)
        f = np.array(f)
        r = -float(np.linalg.norm(np.array([x, y]))) - 0.01 * float(f @ f)
        return (x, y, vx, vy), r


class Pendulum:
    """Torque-limited swing-up; angle zero is upright and wraps to [-pi, pi].

    reward = -(angle^2 + 0.1 * ang_vel^2 + 0.001 * torque^2).
    """

    DT = 0.05
    G = 10.0
    M = 1.0
    L = 1.0
    MAX_SPEED = 8.0
    HORIZON = 200

    def __init__(self, horizon: int = HORIZON):
        self.spec = EnvSpec(state_dim=2, action_dim=1, action_bound=2.0, horizon=horizon)

    def reset(self, rng: np.random.Generator) -> tuple:
        return rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.0)

    def step(self, state, action, rng: np.random.Generator):
        tau = _check_action(action, self.spec)[0]
        th, thdot = state
        th, thdot = float(th), float(thdot)  # Python floats, also from a 1-D array
        r = -(th * th + 0.1 * thdot * thdot + 0.001 * tau * tau)
        thdot = thdot + (3.0 * self.G / (2.0 * self.L) * math.sin(th)
                         + 3.0 / (self.M * self.L**2) * tau) * self.DT
        thdot = _clamp(thdot, self.MAX_SPEED)
        th = (th + thdot * self.DT + math.pi) % (2.0 * math.pi) - math.pi  # into [-pi, pi)
        return (th, thdot), r


ENV_NAMES = ("tabular", "pointmass", "pendulum")


def make_env(name: str, env_seed: int = 0, horizon: int = 0):
    """Environment registry used by config files and the CLI; horizon 0 is the env's default."""
    if name == "tabular":
        return TabularMdp.random_instance(env_seed, horizon or TabularMdp.HORIZON)
    if name == "pointmass":
        return PointMass(horizon or PointMass.HORIZON)
    if name == "pendulum":
        return Pendulum(horizon or Pendulum.HORIZON)
    raise ValueError(f"unknown environment {name!r}; known: {ENV_NAMES}")


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def value_iteration(mdp: TabularMdp, gamma: float, horizon: int) -> np.ndarray:
    """Finite-horizon optimal action values Q_h(s, a) for h steps to go; returns Q_horizon."""
    Q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(horizon):
        Q = mdp.R + gamma * (mdp.P @ Q.max(axis=1))
    return Q


def tabular_optimal_return(mdp: TabularMdp, gamma: float, horizon: int | None = None) -> float:
    """Optimal expected discounted return from the initial state (state 0)."""
    h = mdp.spec.horizon if horizon is None else horizon
    return float(value_iteration(mdp, gamma, h).max(axis=1)[0])
