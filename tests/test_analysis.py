import numpy as np
import pytest

from mcrl import analysis, envs, harness, nets


def test_straight_line_explained_by_first_component():
    rng = np.random.default_rng(0)
    direction = rng.normal(size=30)
    # a little scatter off the line: an exact line has no second direction
    snaps = [k * direction + 1e-3 * rng.normal(size=30) for k in range(8)]
    coords, ratios, _ = analysis.pca_trajectory(snaps)
    assert ratios[0] >= 0.999
    np.testing.assert_allclose(coords[-1], [0.0, 0.0], atol=1e-12)


def test_final_snapshot_maps_to_origin():
    rng = np.random.default_rng(1)
    snaps = [rng.normal(size=20) for _ in range(6)]
    coords, _, _ = analysis.pca_trajectory(snaps)
    np.testing.assert_allclose(coords[-1], [0.0, 0.0], atol=1e-12)
    assert coords.shape == (6, 2)


def test_identical_snapshots_rejected():
    snaps = [np.ones(5)] * 4
    with pytest.raises(ValueError, match="zero variance"):
        analysis.pca_trajectory(snaps)
    with pytest.raises(ValueError):
        analysis.pca_trajectory([np.ones(5)] * 2)


def test_collinear_snapshots_rejected():
    # differences of rank 1 leave the second direction numerically arbitrary
    rng = np.random.default_rng(2)
    start, step = rng.normal(size=20), rng.normal(size=20)
    with pytest.raises(ValueError, match="rank 1"):
        analysis.pca_trajectory([start + k * step for k in range(5)])


def make_actor(seed=0):
    return nets.Actor(4, 2, 1.0, np.random.default_rng(seed), hidden=(6, 6))


def test_surface_single_point_equals_direct_evaluation():
    actor = make_actor()
    n = sum(p.value.size for p in actor.parameters())
    rng = np.random.default_rng(3)
    d1, d2 = rng.normal(size=n), rng.normal(size=n)
    grid = analysis.reward_surface(actor, d1, d2, [0.0], [0.0],
                                   [envs.PointMass(horizon=20) for _ in range(3)], eval_seed=11)
    direct, _ = harness.evaluate_policy(actor.act_np,
                                        [envs.PointMass(horizon=20) for _ in range(3)],
                                        rng=np.random.default_rng(11))
    assert grid.shape == (1, 1)
    assert grid[0, 0] == direct


def test_surface_shape_and_argmax_consistency():
    actor = make_actor(seed=5)
    n = sum(p.value.size for p in actor.parameters())
    rng = np.random.default_rng(7)
    d1, d2 = rng.normal(size=n) * 0.1, rng.normal(size=n) * 0.1
    xs = np.linspace(-1, 1, 3)
    ys = np.linspace(-1, 1, 4)
    grid = analysis.reward_surface(actor, d1, d2, xs, ys,
                                   [envs.PointMass(horizon=10) for _ in range(2)], eval_seed=1)
    assert grid.shape == (4, 3)
    j, i = np.unravel_index(np.argmax(grid), grid.shape)
    assert grid[j, i] == grid.max()
    # restores parameters afterwards
    actor2 = make_actor(seed=5)
    for a, b in zip(actor.parameters(), actor2.parameters()):
        np.testing.assert_array_equal(a.value, b.value)


def test_collinear_directions_rejected():
    actor = make_actor(seed=9)
    n = sum(p.value.size for p in actor.parameters())
    d = np.random.default_rng(0).normal(size=n)
    with pytest.raises(ValueError, match="independent"):
        analysis.reward_surface(actor, d, 2.0 * d, [0.0], [0.0], [envs.PointMass(horizon=10)])
