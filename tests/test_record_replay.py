"""Record and replay of gradient regions (``plan.replay``).

A learner records each region on its first call and replays the recorded
formulas afterwards; these tests pin that a replay gives the eager bits,
keeps no intermediate, and falls back to the eager run on a raise.
"""

import itertools
import os
import types
import weakref

import numpy as np
import pytest

from mcrl import autodiff as ad
from mcrl import harness, metacritic, nets, offpac, plan
from mcrl.autodiff import NumpyOps
from mcrl.envs import EnvSpec
from mcrl.replay import ReplayBuffer

SPEC = EnvSpec(state_dim=3, action_dim=2, action_bound=1.0, horizon=20)
CONFIGS = list(itertools.product(offpac.ALGOS, ("none",) + nets.MC_VARIANTS,
                                 metacritic.META_LOSS_KINDS))
# Adam's moments and step count enter the regions too
REPLAY_CASES = [pytest.param(*c, "sgd", id="-".join(c)) for c in CONFIGS] + [
    pytest.param(algo, variant, "clip", "adam", id=f"{algo}-{variant}-clip-adam")
    for algo in offpac.ALGOS for variant in ("none", "feature")]
K = 6  # iterations: td3's default delay of 2 makes three delayed and three actor steps


def make_state(algo, variant, loss, seed=0, **settings):
    cfg = harness.RunConfig(algo=algo, mc_variant=variant, meta_loss=loss,
                            hidden_actor=(4, 4), hidden_critic=(5, 5), mc_hidden=3,
                            batch_n=6, **settings).validate()
    rng = np.random.default_rng(seed)
    return harness.build_meta_state(cfg, SPEC, rng)


def fill_buffer(seed=1, n=32):
    buf = ReplayBuffer(n, SPEC.state_dim, SPEC.action_dim)
    rng = np.random.default_rng(seed)
    for _ in range(n):
        buf.push(rng.normal(size=3), rng.uniform(-1.0, 1.0, 2), float(rng.normal()),
                 rng.normal(size=3))
    return buf


def learner_variables(state):
    variables = state.actor.parameters() + state.critic.parameters()
    variables += state.target_critic.parameters()
    if state.target_actor is not None:
        variables += state.target_actor.parameters()
    if state.mc is not None:
        variables += state.mc.parameters()
    return variables


def learner_bytes(state):
    return [v.value.tobytes() for v in learner_variables(state)]


@pytest.fixture
def replay_raised(monkeypatch):
    """The plans whose replay raised FloatingPointError, in the order they raised."""
    raised = []
    real_run = plan.Plan.run

    def spied_run(recorded, inputs):
        try:
            return real_run(recorded, inputs)
        except FloatingPointError:
            raised.append(recorded)
            raise

    monkeypatch.setattr(plan.Plan, "run", spied_run)
    return raised


def run(state, buf, rng, fresh: bool, iterations: int) -> list:
    """The metrics of ``iterations`` iterations; ``fresh`` records every region anew."""
    metrics = []
    for _ in range(iterations):
        if fresh:
            state.plans.clear()
        metrics.append(metacritic.train_iteration(state, buf, rng))
    return metrics


@pytest.mark.parametrize("algo,variant,loss,optimizer", REPLAY_CASES)
def test_replayed_iterations_give_the_eager_bits(algo, variant, loss, optimizer, nodes_built):
    buf = fill_buffer()
    eager = make_state(algo, variant, loss, optimizer=optimizer)
    eager_rng = np.random.default_rng(2)
    eager_metrics = run(eager, buf, eager_rng, fresh=True, iterations=K)

    state = make_state(algo, variant, loss, optimizer=optimizer)
    rng = np.random.default_rng(2)
    # every region is recorded by the second iteration, td3's first actor step
    metrics = run(state, buf, rng, fresh=False, iterations=2)
    built = nodes_built(lambda: metrics.extend(run(state, buf, rng, fresh=False,
                                                   iterations=K - 2)))
    assert built == []  # the later iterations replay: no Node, so no walk
    assert set(state.plans) == {"critic", "actor" if variant == "none" else "meta"}
    assert metrics == eager_metrics
    assert learner_bytes(state) == learner_bytes(eager)
    for name in ("actor_opt", "critic_opt"):  # Adam's moments too
        assert ([x.value.tobytes() for x in getattr(state, name).writes]
                == [x.value.tobytes() for x in getattr(eager, name).writes])


@pytest.mark.parametrize("algo", offpac.ALGOS)
@pytest.mark.parametrize("variant", ["none", "feature"])
def test_the_regions_replay_on_the_values_set_after_they_recorded(algo, variant, nodes_built):
    buf = fill_buffer()
    results = []
    for fresh in (False, True):
        state, rng = make_state(algo, variant, "clip"), np.random.default_rng(2)
        run(state, buf, rng, fresh=False, iterations=2)  # td3's second iteration steps the actor
        recorded = dict(state.plans)
        moved = np.random.default_rng(3)
        # the critic through its optimizer's flat, every other net through its own Variables
        for v in [state.critic_opt.flat] + [v for v in learner_variables(state)
                                            if v not in state.critic.parameters()]:
            v.set_value(v.value + 0.1 * moved.normal(size=v.shape))
        if fresh:
            state.plans.clear()
        metrics = []
        built = nodes_built(lambda: metrics.extend(run(state, buf, rng, fresh=False,
                                                       iterations=2)))
        assert (built == []) != fresh
        assert (state.plans == recorded) != fresh
        results.append((metrics, learner_bytes(state)))
    assert results[0] == results[1]


def test_a_commit_writes_into_the_arrays_the_variables_keep():
    buf = fill_buffer()
    state = make_state("td3", "feature", "clip", optimizer="adam")
    flats = state.targets + [v for opt in (state.actor_opt, state.critic_opt, state.mc_opt)
                             for v in opt.writes]  # Adam's moments and step counts among them
    assert len(state.targets) == 2 and len(flats) == 2 + 4 + 4 + 1  # one array per learned set
    owned = learner_variables(state) + flats
    arrays = [v.value for v in owned]
    before = [v.value.copy() for v in flats]
    run(state, buf, np.random.default_rng(2), fresh=False, iterations=4)  # records, then replays
    assert all(v.value is a for v, a in zip(owned, arrays))
    assert not any(np.array_equal(v.value, b) for v, b in zip(flats, before))  # each was written


@pytest.mark.parametrize("algo", offpac.ALGOS)
@pytest.mark.parametrize("variant", ["none", "feature"])
@pytest.mark.parametrize("optimizer", sorted(offpac.OPTIMIZERS))
def test_no_replay_takes_a_variables_array_as_an_input(algo, variant, optimizer, monkeypatch,
                                                       tmp_path):
    # a region reads the Variables' arrays where they are: its inputs are per-call data,
    # each a batch column, a noise draw or a state, so none is 0-d
    real, calls = plan.replay, []

    def spied(plans, key, region, inputs, writes=()):
        calls.append((key, list(inputs)))  # kept alive, so that no id below is reused
        return real(plans, key, region, inputs, writes)

    monkeypatch.setattr(plan, "replay", spied)
    cfg = harness.RunConfig(algo=algo, mc_variant=variant, optimizer=optimizer,
                            total_steps=160, warmup_steps=100, eval_every=80, eval_episodes=1,
                            hidden_actor=(4, 4), hidden_critic=(5, 5), mc_hidden=3, batch_n=6)
    res = harness.run_seed(cfg, 0, str(tmp_path))
    state = res["state"]
    owned = learner_variables(state) + state.targets + [
        v for opt in (state.actor_opt, state.critic_opt, state.mc_opt) if opt for v in opt.writes]
    arrays = {id(v.value) for v in owned}
    assert res["aborted_at"] is None
    assert {key for key, _ in calls} == {"explore", "greedy", "critic",
                                         "actor" if variant == "none" else "meta"}
    assert [key for key, inputs in calls if any(id(a) in arrays for a in inputs)] == []
    assert [key for key, inputs in calls
            if any(a is not None and a.ndim == 0 for a in inputs)] == []


# algo -> optimizer -> recorded steps of its critic region (its TD targets
# included) and actor region, and of its meta region with the feature
# meta-critic and the clip meta-loss: they follow the algorithm and the depth
# of the nets, not their widths. Each update is one chain over one flat array.
STEPS = {"ddpg": {"sgd": (42, 55, 244), "adam": (59, 72, 261)},
         "td3": {"sgd": (79, 55, 244), "adam": (96, 72, 261)},
         "sac": {"sgd": (100, 126, 417), "adam": (117, 143, 434)}}


@pytest.mark.parametrize("algo", offpac.ALGOS)
def test_each_region_records_a_pinned_number_of_steps(algo, monkeypatch):
    steps = {}
    real_init = plan.Plan.__init__

    def counting_init(recorded, shapes, tape, outputs):
        real_init(recorded, shapes, tape, outputs)
        steps[id(recorded)] = len(tape.steps)

    monkeypatch.setattr(plan.Plan, "__init__", counting_init)
    buf = fill_buffer()
    for optimizer, (critic, actor, meta) in STEPS[algo].items():
        counts = {}
        for variant in ("none", "feature"):
            state = make_state(algo, variant, "clip", optimizer=optimizer)
            run(state, buf, np.random.default_rng(2), fresh=False, iterations=2)
            counts.update((key, steps[id(p)]) for key, p in state.plans.items())
        assert counts == {"critic": critic, "actor": actor, "meta": meta}, optimizer


@pytest.mark.parametrize("algo,variant,scaled,op", [
    ("ddpg", "none", "critic", "dense"), ("ddpg", "none", "actor", "dense"),
    ("td3", "feature", "critic", "dense"), ("sac", "none", "q1", "square"),
    ("ddpg", "feature", "omega", "dense"), ("sac", "param-reg", "omega", "dense")])
def test_an_overflow_in_a_replay_is_reported_at_the_eager_op(algo, variant, scaled, op,
                                                             replay_raised):
    buf = fill_buffer()
    records = []
    for fresh in (False, True):
        state, rng = make_state(algo, variant, "clip"), np.random.default_rng(2)
        run(state, buf, rng, fresh=False, iterations=3)  # the fourth is an actor step for td3 too
        if scaled == "q1":  # the last weights of Q1 alone: finite Q, an overflowing TD error
            owned = [state.critic.nets[0].params[-2]]
        else:
            owned = {"critic": state.critic, "actor": state.actor,
                     "omega": state.mc}[scaled].parameters()
        for v in owned:
            v.set_value(v.value * 1e200 + 1e200 * (scaled != "q1"))
        if fresh:
            state.plans.clear()
        before = [v.value.tobytes() for v in owned]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            with pytest.raises(FloatingPointError) as err:
                metacritic.train_iteration(state, buf, rng)
        records.append(ad.raised_at(err.value.__traceback__))
        # the raising region committed nothing
        assert [v.value.tobytes() for v in owned] == before
        assert bool(replay_raised) != fresh
        replay_raised.clear()
    assert records == [(op, "forward")] * 2


@pytest.mark.parametrize("algo", offpac.ALGOS)
def test_a_replayed_iteration_computes_no_td_target(algo, monkeypatch):
    calls = []
    real = offpac.critic_targets
    monkeypatch.setattr(offpac, "critic_targets",
                        lambda *args: calls.append(args) or real(*args))
    state, rng = make_state(algo, "none", "clip"), np.random.default_rng(2)
    run(state, fill_buffer(), rng, fresh=False, iterations=K)
    assert len(calls) == 1  # the critic region's recording


@pytest.mark.parametrize("algo", offpac.ALGOS)
def test_a_td_target_overflow_names_its_op(algo, replay_raised):
    # a target Q of 1e308 is finite, and so is a reward of 1e308: r + gamma * q2 is not
    buf = fill_buffer()
    for replayed in (False, True):
        state, rng = make_state(algo, "none", "clip"), np.random.default_rng(2)
        if replayed:
            offpac.critic_update(state, buf.sample_batch(6, rng), rng)
        for net in state.target_critic.nets:
            net.params[-1].set_value(np.full(1, 1e308))
        batch = buf.sample_batch(6, rng)
        batch.r[...] = 1e308
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            with pytest.raises(FloatingPointError) as err:
                offpac.critic_update(state, batch, rng)
        assert ad.raised_at(err.value.__traceback__) == ("add", "forward")
        assert bool(replay_raised) == replayed  # the second iteration's plan raised first


def test_a_putative_update_overflow_names_its_op(replay_raised):
    # phi_old = phi - actor_lr * g_c: a finite gradient times 1e300 is not
    buf = fill_buffer()
    for replayed in (False, True):
        state = make_state("ddpg", "feature", "clip", actor_lr=1e300, critic_lr=0.0)
        rng = np.random.default_rng(2)
        last_weights = [net.params[-2] for net in state.critic.nets]
        for w in last_weights + [state.mc.parameters()[-2]]:  # so g_c = g_m = 0
            w.set_value(np.zeros_like(w.value))
        run(state, buf, rng, fresh=False, iterations=1)
        if not replayed:
            state.plans.clear()
        for w in last_weights:
            w.set_value(np.full_like(w.value, 1e10))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            with pytest.raises(FloatingPointError) as err:
                metacritic.train_iteration(state, buf, rng)
        assert ad.raised_at(err.value.__traceback__) == ("scale", "forward")
        assert bool(replay_raised) == replayed  # the recorded plan raised first
        replay_raised.clear()


@pytest.mark.parametrize("optimizer", sorted(offpac.OPTIMIZERS))
def test_an_optimizer_step_overflow_names_its_op(optimizer, tmp_path):
    # lr * g overflows in the critic's first step
    cfg = harness.RunConfig(env="pendulum", optimizer=optimizer, critic_lr=1e308,
                            total_steps=300, warmup_steps=100, eval_every=150, eval_episodes=1)
    res = harness.run_seed(cfg, 0, str(tmp_path))
    assert res["aborted_at"] == 101
    meta = harness.read_metadata(os.path.join(tmp_path, "seed0.meta.txt"))
    assert (meta["aborted_primitive"], meta["aborted_kind"]) == ("scale", "forward")
    assert meta["aborted_phase"] == "critic"


@pytest.mark.parametrize("optimizer", sorted(offpac.OPTIMIZERS))
def test_a_raising_step_commits_nothing(optimizer, replay_raised):
    # the first variable's gradient is 1 and the last's 2 * last: at last = 1e10,
    # lr * g overflows at the last variable alone, after the first one's step
    first, last = ad.Variable(np.ones(2)), ad.Variable(np.ones(2))
    opt = offpac.OPTIMIZERS[optimizer]([first, last], 1e300)
    learner = types.SimpleNamespace(plans={})

    def loss():
        return ad.add(ad.asum(first), ad.asum(ad.square(last)))

    for replayed in (False, True):
        offpac.descend(learner, "r", opt, loss, [])  # records the region at last = 1
        if not replayed:
            learner.plans.clear()
        last.set_value(np.full(2, 1e10))
        before = [v.value.tobytes() for v in (first, last)]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            with pytest.raises(FloatingPointError) as err:
                offpac.descend(learner, "r", opt, loss, [])
        assert [v.value.tobytes() for v in (first, last)] == before
        assert ad.raised_at(err.value.__traceback__) == ("scale", "forward")
        assert bool(replay_raised) == replayed
        replay_raised.clear()
        last.set_value(np.ones(2))


@pytest.mark.parametrize("create_graph", [False, True])
def test_an_overflow_in_a_replayed_backward_names_its_rule(create_graph):
    a, b = ad.Variable(np.array(1.0)), ad.Variable(np.array(1.0))

    def region():
        # with a = 1e200 and b = 1e-200 the value is finite, but mul's VJP
        # sends 1e200 * 1e200 to b
        z = ad.asum(ad.scale(ad.mul(a, b), 1e200))
        return [ad.evaluate(g) for g in ad.backward(z, [a, b], create_graph)]

    plans = {}
    plan.replay(plans, "r", region, [a.value, b.value])
    a.set_value(1e200)
    b.set_value(1e-200)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(FloatingPointError) as err:
            plan.replay(plans, "r", region, [a.value, b.value])
    assert ad.raised_at(err.value.__traceback__) == ("mul", "backward")


def test_a_replay_keeps_no_intermediate(monkeypatch):
    refs = []
    dense = NumpyOps.dense

    def spied_dense(*args):
        out = dense(*args)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(NumpyOps, "dense", staticmethod(spied_dense))
    buf = fill_buffer()
    state, rng = make_state("ddpg", "feature", "clip"), np.random.default_rng(2)
    run(state, buf, rng, fresh=False, iterations=1)  # records the regions with the spy in them
    refs.clear()
    run(state, buf, rng, fresh=False, iterations=1)
    # the replayed critic and meta regions call the spy once per dense layer
    assert len(refs) >= 8
    assert [r() for r in refs] == [None] * len(refs)


def test_the_recorder_refuses_an_array_from_outside_its_inputs():
    x = ad.Variable(np.array([1.0, 2.0]))
    y = ad.Variable(np.array([5.0, 6.0]))  # no primitive of the regions reads it
    outside = np.array([3.0, 4.0])

    def fresh_after_a_dropped_value():
        ad.mul(x, x)  # a formula's value, dropped at once
        # made after it, so it may take the dropped value's id
        return [ad.evaluate(ad.add(x, np.array([3.0, 4.0])))]

    for region in (lambda: [ad.evaluate(ad.mul(x, outside))],
                   # computed with direct numpy, not through a formula
                   lambda: [ad.evaluate(ad.add(x, x.value * 2.0))],
                   # a direct NumpyOps call reports nothing to the recorder
                   lambda: [ad.evaluate(ad.mul(x, NumpyOps.add(x.value, x.value)))],
                   # a Python number is no literal either: full() makes one
                   lambda: [ad.evaluate(ad.mul(x, ad.constant(2.0)))],
                   # a Variable's array read past the primitives, which alone report it
                   lambda: [ad.evaluate(ad.mul(x, y.value))],
                   fresh_after_a_dropped_value):
        plans = {}
        with pytest.raises(ad.AutodiffError, match="recorded"):
            plan.replay(plans, "r", region, [x.value])
        assert plans == {}


def test_a_constant_variable_takes_no_gradient_and_replays_its_current_value():
    v = ad.Variable(np.array([1.0, 2.0]))
    w = ad.Variable(np.array([3.0, 5.0]))

    def region():
        loss = ad.asum(ad.mul(ad.constant(v), ad.square(w)))
        return [ad.evaluate(loss), *ad.backward(loss, [v, w])]

    def check(value):
        v.set_value(value)
        loss, gv, gw = plan.replay(plans, "r", region, [])
        assert loss == np.sum(np.array(value) * w.value ** 2)
        assert np.array_equal(gv, [0.0, 0.0])
        assert np.array_equal(gw, 2.0 * np.array(value) * w.value)

    plans = {}
    check([1.0, 2.0])  # recorded
    recorded = plans["r"]
    check([4.0, -6.0])  # replayed on the value set after recording
    assert plans["r"] is recorded


def test_a_replay_hands_out_no_array_the_plan_keeps():
    # the zero gradient of a constant is a full() literal that the plan keeps
    v = ad.Variable(np.array([1.0, 2.0]))
    w = ad.Variable(np.array([3.0, 5.0]))

    def region():
        loss = ad.asum(ad.mul(ad.constant(v), ad.square(w)))
        return ad.backward(loss, [v, w])

    plans = {}
    for _ in range(3):  # recorded, then replayed
        gv, _ = plan.replay(plans, "r", region, [])
        assert np.array_equal(gv, [0.0, 0.0])
        gv += 7.0  # a caller's write
    # a replayed output that is an input or a Variable's array is a copy of it too
    x = np.array([0.5, 0.25])
    for _ in range(2):
        out = plan.replay(plans, "pass", lambda: [x, ad.evaluate(ad.constant(w))], [x])
    assert [np.array_equal(o, a) for o, a in zip(out, (x, w.value))] == [True, True]
    assert not any(np.shares_memory(o, a) for o, a in zip(out, (x, w.value)))


def test_recording_leaves_numpy_ops_as_it_is():
    before = dict(vars(NumpyOps))
    x = ad.Variable(np.array([1.0, 2.0]))
    seen = []

    def region():
        seen.append((NumpyOps.mul is np.multiply, dict(vars(NumpyOps)) == before))
        return [ad.evaluate(ad.mul(x, x))]

    plan.replay({}, "r", region, [x.value])
    assert seen == [(True, True)]


def test_a_plan_replays_on_new_values_and_records_again_on_new_shapes():
    x = ad.Variable(np.array([1.0, 2.0]))

    def region():
        y = ad.mul(ad.square(x), ad.full(x.value.shape, 3.0))
        return [ad.evaluate(y), *ad.backward(ad.asum(y), [x])]

    plans = {}
    assert [a.tolist() for a in plan.replay(plans, "r", region, [x.value])] == [
        [3.0, 12.0], [6.0, 12.0]]
    first = plans["r"]
    x.set_value([-1.0, 0.5])
    assert [a.tolist() for a in plan.replay(plans, "r", region, [x.value])] == [
        [3.0, 0.75], [-6.0, 3.0]]
    assert plans["r"] is first
    x = ad.Variable(np.array([1.0, 2.0, -2.0]))
    assert [a.tolist() for a in plan.replay(plans, "r", region, [x.value])] == [
        [3.0, 12.0, 12.0], [6.0, 12.0, -12.0]]
    assert plans["r"] is not first and plans["r"].shapes == [(3,)]


def test_a_repeated_input_runs_eagerly_and_records_nothing(nodes_built):
    a = np.array([1.0, 2.0])
    plans = {}
    out = plan.replay(plans, "r", lambda: [NumpyOps.mul(a, a)], [a, a])
    assert out[0].tolist() == [1.0, 4.0] and plans == {}
    # a plan recorded on distinct inputs replays a repeated one, with the eager bits
    inputs = [np.array([0.3, -1.7]), np.array([2.0, 0.1])]

    def region():
        x, y = inputs
        return [ad.evaluate(ad.add(ad.mul(x, y), ad.tanh(y)))]

    plan.replay(plans, "r", region, inputs)
    recorded = plans["r"]
    inputs[1] = inputs[0]
    out = []
    assert nodes_built(lambda: out.extend(plan.replay(plans, "r", region, inputs))) == []
    assert plans["r"] is recorded
    assert out[0].tobytes() == region()[0].tobytes()
