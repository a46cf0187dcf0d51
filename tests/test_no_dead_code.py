"""Every function, class, method and property in ``src/mcrl`` has a use in ``src/``.

A name counts as used when ``src/`` mentions it outside its own definition:
as a name, an attribute, or a string (``getattr(NumpyOps, name)`` dispatch).
Names are matched by spelling alone, so a method shares its uses with every
same-named definition. Dunder methods are called by Python itself and are
not checked.

Every ``harness.RunConfig`` field must be read, as an attribute, somewhere
in ``src/`` outside ``RunConfig`` itself: a field that only ``validate``
checks configures nothing.

Primitives are named by the string keys of ``autodiff._VJP``, so the checks
above cannot see a dead one. A second check runs a training iteration of
every algo, meta-critic variant and meta-loss and requires each backward
rule's primitive to be built as a Node on the way.
"""

import ast
import dataclasses
import itertools
from collections import Counter
from pathlib import Path

import numpy as np

from mcrl import autodiff as ad
from mcrl import harness, metacritic, nets, offpac
from mcrl.envs import EnvSpec
from mcrl.replay import ReplayBuffer

SRC = Path(__file__).resolve().parents[1] / "src" / "mcrl"

# kept without a caller in src/, each for one reason
ALLOWED = {
    "fd_gradient": "the finite-difference oracle the gradient tests compare against",
    "tabular_optimal_return": "the value-iteration oracle the evaluation tests compare against",
    "read_metadata": "reads seed<k>.meta.txt back; tests assert its keys through it",
    "softplus_inverse": "sets param-reg weights to a chosen starting penalty",
}

_DEFS = (ast.FunctionDef, ast.ClassDef)


def _definitions(tree):
    """(name, node) for module-level defs and the defs directly inside classes."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFS):
                    yield member.name, member


def _mentions(node) -> Counter:
    """Count of every name, attribute and string constant under ``node``."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def unused_definitions():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_mentions(t) for t in trees.values()), Counter())
    unused = []
    for fname, tree in trees.items():
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] == _mentions(node)[name]:  # only its own body names it
                unused.append(f"{fname}:{node.lineno} {name}")
    return unused


def test_every_definition_is_used_in_src():
    unused = [u for u in unused_definitions() if u.split()[-1] not in ALLOWED]
    assert unused == [], "defined in src/mcrl but never used in src/: " + ", ".join(unused)


def test_allowlist_names_only_definitions_without_a_caller():
    # an allowlisted name that gained a caller, or lost its definition, leaves the list
    assert sorted(u.split()[-1] for u in unused_definitions()) == sorted(ALLOWED)


def test_every_config_field_is_read_outside_run_config():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    cls = next(n for t in trees for n in t.body
               if isinstance(n, ast.ClassDef) and n.name == "RunConfig")
    fields = [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)]
    assert fields == [f.name for f in dataclasses.fields(harness.RunConfig)]
    inside = {id(n) for n in ast.walk(cls)}
    read = {n.attr for t in trees for n in ast.walk(t)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and id(n) not in inside}
    unread = [f for f in fields if f not in read]
    assert unread == [], "RunConfig fields nothing in src/ reads: " + ", ".join(unread)


# primitives with a backward rule that no src/ path builds, each for one reason
UNBUILT = {
    "pad_cols": "built by slice_cols's rule with create_graph; no create_graph pass "
                "walks a slice_cols node, and its rule keeps that rule complete",
    "power": "built by log's rule with create_graph; no create_graph pass walks a "
             "log node, and its rule keeps that rule complete",
    "sum_to": "built by the broadcasting add, sub and mul rules and by broadcast's rule "
              "with create_graph; no create_graph pass walks one, and its rule keeps "
              "those rules complete",
}


def _train_every_config():
    """One actor update of every algo, meta-critic variant and meta-loss."""
    spec = EnvSpec(state_dim=2, action_dim=1, action_bound=1.0, horizon=20)
    for algo, variant, kind in itertools.product(offpac.ALGOS, ("none",) + nets.MC_VARIANTS,
                                                 metacritic.META_LOSS_KINDS):
        cfg = harness.RunConfig(algo=algo, mc_variant=variant, meta_loss=kind,
                                hidden_actor=(3,), hidden_critic=(3,), mc_hidden=3,
                                batch_n=4)
        rng = np.random.default_rng(0)
        ms = harness.build_meta_state(cfg, spec, rng)
        buffer = ReplayBuffer(8, spec.state_dim, spec.action_dim)
        for _ in range(8):
            buffer.push(rng.normal(size=2), rng.uniform(-1.0, 1.0, 1), float(rng.normal()),
                        rng.normal(size=2))
        for _ in range(cfg.policy_delay):  # the last iteration updates the actor
            metacritic.train_iteration(ms, buffer, rng)


def test_every_backward_rule_has_a_primitive_src_builds(nodes_built):
    made = set(nodes_built(_train_every_config))
    assert sorted(set(ad._VJP) - made - set(UNBUILT)) == []
    # an allowlisted primitive that src/ now builds, or that lost its rule, leaves the list
    assert sorted(set(UNBUILT) & made) == []
    assert sorted(set(UNBUILT) - set(ad._VJP)) == []
