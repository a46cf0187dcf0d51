"""Span tracing of the mcrl layers, installed from outside the package.

``Tracer.installed()`` replaces the public functions and class methods on
the training path with wrappers that record one span per call: name,
start, end and the span that was open when it started. Functions that
other modules import by name are wrapped both where they are defined and
where they are used, so every call site goes through exactly one wrapper.
The spans stay in memory; ``summary()`` turns them into the per-layer
metrics and ``write()`` dumps them when the run ends.

A span's self time is its duration minus the time of the spans it
directly caused. Work the tracer itself does before a span starts (the
graph-node count of ``autodiff.backward``) is charged to neither.

Nothing here draws random numbers or mutates program state, so a traced
run writes the same CSV as an untraced one; the benchmark checks that.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict

import numpy as np

from mcrl import autodiff, envs, harness, metacritic, nets, offpac, replay

BACKWARD_KINDS = ("first_order", "create_graph", "meta")

# (metric base, span name, unit, self time?, also report p99?)
# A p99 is resolved only from P99_MIN_CALLS samples up; below that, and
# for spans that never ran on a workload, the value reads 0.
TIMINGS = (
    ("autodiff.backward.first_order.us", "autodiff.backward.first_order", "us", False, True),
    ("autodiff.backward.create_graph.us", "autodiff.backward.create_graph", "us", False, True),
    ("autodiff.backward.meta.us", "autodiff.backward.meta", "us", False, True),
    ("metacritic.train_iteration.ms", "metacritic.train_iteration", "ms", False, True),
    ("metacritic.meta_train.us", "metacritic.meta_train", "us", False, False),
    ("metacritic.meta_train.self_us", "metacritic.meta_train", "us", True, False),
    ("metacritic.meta_loss_clip.us", "metacritic.meta_loss_clip", "us", False, False),
    ("metacritic.meta_optimise.self_us", "metacritic.meta_optimise", "us", True, False),
    ("offpac.critic_update.us", "offpac.critic_update", "us", False, True),
    ("offpac.critic_targets.us", "offpac.critic_targets", "us", False, False),
    ("offpac.actor_loss.us", "offpac.actor_loss", "us", False, False),
    ("offpac.apply_target_updates.us", "offpac.apply_target_updates", "us", False, False),
    ("offpac.optimizer_step.us", "offpac.optimizer_step", "us", False, False),
    ("offpac.exploration_action.us", "offpac.exploration_action", "us", False, True),
    ("nets.act_np.batch.us", "nets.act_np.batch", "us", False, True),
    ("nets.act_np.single.us", "nets.act_np.single", "us", False, True),
    ("replay.sample_batch.us", "replay.sample_batch", "us", False, True),
    ("replay.push.us", "replay.push", "us", False, True),
    ("envs.step.us", "envs.step", "us", False, True),
    ("harness.evaluate_policy.ms", "harness.evaluate_policy", "ms", False, False),
)
COUNTS = (
    ("metacritic.train_iteration.calls", "metacritic.train_iteration"),
    ("nets.act_np.batch.calls", "nets.act_np.batch"),
    ("nets.act_np.single.calls", "nets.act_np.single"),
    ("replay.sample_batch.calls", "replay.sample_batch"),
    ("replay.push.calls", "replay.push"),
    ("envs.step.calls", "envs.step"),
    ("harness.evaluate_policy.calls", "harness.evaluate_policy"),
) + tuple((f"autodiff.backward.{k}.calls", f"autodiff.backward.{k}") for k in BACKWARD_KINDS)
P99_MIN_CALLS = 1000
_NS_PER = {"us": 1e3, "ms": 1e6, "s": 1e9}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the benchmark prints, with its unit."""
    units = {}
    for base, _, unit, _, p99 in TIMINGS:
        units[base + "_p50"] = unit
        if p99:
            units[base + "_p99"] = unit
    for name, _ in COUNTS:
        units[name] = "count"
    units["autodiff.backward.calls"] = "count"
    for kind in BACKWARD_KINDS:
        units[f"autodiff.backward.{kind}.nodes"] = "count"
    units["metacritic.aux_attempts"] = "count"
    units["metacritic.aux_helped_ratio"] = "ratio"
    units["harness.run_seed.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def graph_nodes(output) -> int:
    """Number of distinct ``requires_grad`` nodes reachable from ``output``."""
    seen: set[int] = set()
    count = 0
    stack = [autodiff.as_node(output)]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.requires_grad:
            count += 1
            stack.extend(node.parents)
    return count


class Tracer:
    """Span recorder; install it around the calls to be traced.

    Spans are kept column-wise in flat arrays (32 bytes a span), because
    the collection workload records about a million of them.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        # outer_start precedes start by the tracer's own work before the
        # span (naming it); neither the span nor its parent's self time
        # absorbs that work
        self.outer_start = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]
        self.nodes: dict[str, list[int]] = defaultdict(list)
        self.aux_attempts = 0
        self.aux_helped = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name):
        """``fn`` recording a span named ``name``, or ``name(args, kwargs)``."""
        open_, clock = self._open, time.perf_counter_ns
        name_id, parent, outer_start = self.name_id, self.parent, self.outer_start
        start, end = self.start, self.end
        fixed = self._id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = clock()
            nid = fixed if fixed is not None else self._id(name(args, kwargs))
            idx = len(name_id)
            name_id.append(nid)
            parent.append(open_[-1])
            outer_start.append(outer)
            start.append(0)
            end.append(0)
            open_.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    def _backward_kind(self, args, kwargs) -> str:
        """Span name of one ``autodiff.backward`` call; counts its graph too."""
        open_ = self._open[-1]
        if kwargs.get("create_graph", args[2] if len(args) > 2 else False):
            kind = "create_graph"
        elif open_ >= 0 and self.names[self.name_id[open_]] == "metacritic.meta_optimise":
            kind = "meta"
        else:
            kind = "first_order"
        self.nodes[kind].append(graph_nodes(args[0]))
        return f"autodiff.backward.{kind}"

    def _count_aux(self, fn):
        """meta_optimise that also counts whether the auxiliary step helped."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.aux_attempts += 1
            self.aux_helped += out["loss_meta"] < 0.0
            return out

        return counted

    def _patches(self):
        """(owner, attribute, replacement factory) for every traced callable."""
        span = self._wrap
        by_name = {
            harness: {"run_seed": "harness.run_seed",
                      "build_meta_state": "harness.build_meta_state",
                      "write_curve": "harness.write_curve",
                      "evaluate_policy": "harness.evaluate_policy",
                      "train_iteration": "metacritic.train_iteration",
                      "exploration_action": "offpac.exploration_action"},
            metacritic: {"train_iteration": "metacritic.train_iteration",
                         "meta_train": "metacritic.meta_train",
                         "meta_loss_clip": "metacritic.meta_loss_clip",
                         "meta_loss_plain": "metacritic.meta_loss_plain",
                         "critic_update": "offpac.critic_update",
                         "actor_loss": "offpac.actor_loss",
                         "actor_loss_np": "offpac.actor_loss_np",
                         "apply_target_updates": "offpac.apply_target_updates",
                         "vanilla_iteration": "offpac.vanilla_iteration"},
            offpac: {fn: f"offpac.{fn}" for fn in
                     ("actor_loss", "actor_loss_np", "critic_targets", "critic_update",
                      "exploration_action", "apply_target_updates", "vanilla_iteration")},
        }
        for module, names in by_name.items():
            for attr, name in names.items():
                yield module, attr, functools.partial(span, name=name)
        yield (metacritic, "meta_optimise",
               lambda fn: span(self._count_aux(fn), "metacritic.meta_optimise"))
        yield autodiff, "backward", functools.partial(span, name=self._backward_kind)
        for cls in (offpac.Sgd, offpac.Adam):
            yield cls, "step", functools.partial(span, name="offpac.optimizer_step")
        for cls in (envs.PointMass, envs.Pendulum, envs.TabularMdp):
            yield cls, "step", functools.partial(span, name="envs.step")
        yield replay.ReplayBuffer, "push", functools.partial(span, name="replay.push")
        yield (replay.ReplayBuffer, "sample_batch",
               functools.partial(span, name="replay.sample_batch"))
        yield nets.Actor, "act_np", functools.partial(
            span, name=lambda args, kwargs: ("nets.act_np.single" if args[1].ndim == 1
                                             else "nets.act_np.batch"))

    @contextlib.contextmanager
    def installed(self):
        """Trace every call made inside the ``with`` block."""
        undo = []
        try:
            for owner, attr, make in self._patches():
                original = owner.__dict__[attr]
                setattr(owner, attr, make(original))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def _columns(self):
        """The span arrays as numpy views: name id, parent, outer start, start, end."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.outer_start, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def _durations(self):
        """span name -> (durations ns, self times ns), as arrays."""
        ids, parent, outer, start, end = self._columns()
        child = np.zeros(ids.size, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], (end - outer)[has_parent])
        duration = (end - start).astype(np.float64)
        own = duration - child
        return ({name: duration[ids == i] for i, name in enumerate(self.names)},
                {name: own[ids == i] for i, name in enumerate(self.names)})

    def _loop_self_ns(self) -> list[int]:
        """Per ``run_seed`` span: its own time inside the training loop.

        The loop is taken to run from the first env step to the CSV write
        that follows it; the seed's set-up before and its output files
        after are left out, and so is every span the loop called directly.
        """
        if "harness.run_seed" not in self._ids:
            return []
        ids, parent, outer, _, end = self._columns()
        step_id, write_id = self._ids["envs.step"], self._ids["harness.write_curve"]
        loops = []
        for run in np.flatnonzero(ids == self._ids["harness.run_seed"]):
            kids = np.flatnonzero(parent == run)
            first = kids[ids[kids] == step_id][0]
            last = kids[ids[kids] == write_id][0]
            inside = kids[(kids >= first) & (kids < last)]
            loops.append(int(outer[last] - outer[first] - (end - outer)[inside].sum()))
        return loops

    def summary(self, runs: int) -> dict[str, float]:
        """Per-layer metric values (all but ``trace.overhead_ratio``).

        Counts are per seed run: totals divided by the ``runs`` traced
        ``run_seed`` calls, so they repeat exactly between runs.
        """
        total, own = self._durations()
        out: dict[str, float] = {}
        empty = np.zeros(0)
        for base, span, unit, use_self, p99 in TIMINGS:
            values = (own if use_self else total).get(span, empty) / _NS_PER[unit]
            out[base + "_p50"] = float(np.percentile(values, 50)) if values.size else 0.0
            if p99:
                out[base + "_p99"] = (float(np.percentile(values, 99))
                                      if values.size >= P99_MIN_CALLS else 0.0)
        for name, span in COUNTS:
            out[name] = total.get(span, empty).size / runs
        out["autodiff.backward.calls"] = sum(
            total.get(f"autodiff.backward.{k}", empty).size for k in BACKWARD_KINDS) / runs
        for kind in BACKWARD_KINDS:
            counts = self.nodes.get(kind, [])
            out[f"autodiff.backward.{kind}.nodes"] = sum(counts) / len(counts) if counts else 0.0
        out["metacritic.aux_attempts"] = self.aux_attempts / runs
        out["metacritic.aux_helped_ratio"] = (self.aux_helped / self.aux_attempts
                                              if self.aux_attempts else 0.0)
        loops = self._loop_self_ns()
        out["harness.run_seed.self_s"] = float(np.median(loops)) / 1e9 if loops else 0.0
        return out

    def write(self, path) -> None:
        """Dump every span as a tab-separated line: name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for idx, (nid, start, end, parent) in enumerate(
                    zip(self.name_id, self.start, self.end, self.parent)):
                fh.write(f"{idx}\t{self.names[nid]}\t{start}\t{end}\t{parent}\n")
