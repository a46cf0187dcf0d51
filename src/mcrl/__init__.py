"""Off-policy actor-critic RL with an online meta-learned auxiliary critic.

Submodules:
    autodiff    reverse-mode differentiation with second-order support
    nets        actor / critic / auxiliary-loss networks
    replay      transition storage and uniform sampling
    envs        tabular MDP and continuous-control toy environments
    offpac      vanilla DDPG / TD3 / SAC update rules
    metacritic  bi-level meta-train / meta-test / meta-optimise loop
    harness     seeded experiment runner, curves and run comparison
    analysis    PCA of parameter snapshots and return surfaces over them
"""

__version__ = "0.1.0"

from . import analysis, autodiff, envs, harness, metacritic, nets, offpac, replay  # noqa: F401,E402
