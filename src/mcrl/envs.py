"""Desk-scale environments: a 2x2 tabular MDP and two control toys.

Environments are cheap stateful objects: ``reset(rng)`` begins an
episode and ``step(state, action, rng)`` advances it. Dynamics are pure
functions of (state, action, rng draw); the only internal state is the
episode step counter used for the horizon cutoff, the only end of an
episode. Actions are clamped into bounds; NaN actions are rejected.

Each environment declares ``draws_per_episode``, the 64-bit draws one
episode takes from its generator: 2 at reset for PointMass and Pendulum
(one double per coordinate), 1 per step for the tabular MDP, so its
horizon. Evaluation runs its episodes side by side on generators
advanced by that count (``harness.evaluate_policy``).

The per-step math runs on Python floats, not one-element numpy values:
on values this small numpy's dispatch costs several times the
arithmetic. The float forms give the numpy forms' bits, which
``tests/test_envs.py`` checks against a numpy copy of each step:
``min(max(x, -b), b)`` is ``np.clip`` for every non-NaN input, and
``math.sin`` gave ``np.sin``'s bits on every sampled angle. PointMass
keeps ``np.linalg.norm`` and ``f @ f``, because a float norm and a
float dot product round differently in the last bit on a share of
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
    """``np.clip(x, -bound, bound)`` on a float; NaN passes through."""
    return min(max(x, -bound), bound)


def _check_action(action: np.ndarray, spec: EnvSpec) -> list[float]:
    """The action's ``spec.action_dim`` elements as floats clamped into the action bound."""
    xs = np.asarray(action, dtype=np.float64).ravel().tolist()
    if len(xs) != spec.action_dim:
        raise ValueError(f"action has {len(xs)} elements, expected {spec.action_dim}")
    bound = spec.action_bound
    out = []
    for x in xs:
        if x != x:
            raise ValueError("NaN action")
        out.append(_clamp(x, bound))
    return out


class TabularMdp:
    """Two-state two-action MDP with row-stochastic transition tables."""

    n_states = 2
    n_actions = 2
    HORIZON = 10  # the default episode length

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
        self.draws_per_episode = horizon  # one random() per step picks the next state
        self._t = 0

    @classmethod
    def random_instance(cls, seed: int, horizon: int = HORIZON) -> "TabularMdp":
        """Seeded instance: uniform [0,1] rewards, Dirichlet transition rows."""
        rng = np.random.default_rng(seed)
        R = rng.uniform(0.0, 1.0, size=(2, 2))
        P = rng.dirichlet(np.ones(2), size=(2, 2))
        return cls(P, R, horizon=horizon)

    def _encode(self, s: int) -> np.ndarray:
        v = np.zeros(2, dtype=np.float64)
        v[s] = 1.0
        return v

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self._t = 0
        return self._encode(0)  # delta initial distribution at state 0

    def step(self, state: np.ndarray, action: np.ndarray, rng: np.random.Generator):
        a = _check_action(action, self.spec)
        s = int(np.argmax(state))
        k = 1 if a[0] > 0.0 else 0
        r = float(self.R[s, k])
        s2 = int(rng.random() >= self._cdf0[s][k])
        self._t += 1
        done = self._t >= self.spec.horizon
        return self._encode(s2), r, done


class PointMass:
    """2-D double integrator pushed toward the origin by a force input.

    reward = -||pos - goal|| - 0.01 * ||force||^2, dt = 0.05; the state
    box is position in [-2, 2]^2 and velocity in [-2, 2]^2.
    """

    DT = 0.05
    POS_BOX = 2.0
    VEL_BOX = 2.0
    INIT_BOX = 1.0
    HORIZON = 100
    draws_per_episode = 2  # the initial position

    def __init__(self, horizon: int = HORIZON):
        self.goal = np.zeros(2)
        self.spec = EnvSpec(state_dim=4, action_dim=2, action_bound=1.0, horizon=horizon)
        self._t = 0

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self._t = 0
        pos = rng.uniform(-self.INIT_BOX, self.INIT_BOX, size=2)
        return np.concatenate([pos, np.zeros(2)])

    def step(self, state: np.ndarray, action: np.ndarray, rng: np.random.Generator):
        f = _check_action(action, self.spec)
        x, y, vx, vy = state.tolist()
        vx = _clamp(vx + f[0] * self.DT, self.VEL_BOX)
        vy = _clamp(vy + f[1] * self.DT, self.VEL_BOX)
        x = _clamp(x + vx * self.DT, self.POS_BOX)
        y = _clamp(y + vy * self.DT, self.POS_BOX)
        s2 = np.array([x, y, vx, vy])
        f = np.array(f)
        r = -float(np.linalg.norm(s2[:2] - self.goal)) - 0.01 * float(f @ f)
        self._t += 1
        done = self._t >= self.spec.horizon
        return s2, r, done


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
    draws_per_episode = 2  # the initial angle and angular velocity

    def __init__(self, horizon: int = HORIZON):
        self.spec = EnvSpec(state_dim=2, action_dim=1, action_bound=2.0, horizon=horizon)
        self._t = 0

    @staticmethod
    def _wrap(theta: float) -> float:
        return (theta + math.pi) % (2.0 * math.pi) - math.pi

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self._t = 0
        return np.array([rng.uniform(-np.pi, np.pi), rng.uniform(-1.0, 1.0)])

    def step(self, state: np.ndarray, action: np.ndarray, rng: np.random.Generator):
        tau = _check_action(action, self.spec)[0]
        th, thdot = state.tolist()
        r = -(th * th + 0.1 * thdot * thdot + 0.001 * tau * tau)
        thdot = thdot + (3.0 * self.G / (2.0 * self.L) * math.sin(th)
                         + 3.0 / (self.M * self.L**2) * tau) * self.DT
        thdot = _clamp(thdot, self.MAX_SPEED)
        th = self._wrap(th + thdot * self.DT)
        self._t += 1
        done = self._t >= self.spec.horizon
        return np.array([th, thdot]), r, done


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
