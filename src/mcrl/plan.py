"""Record a region once per learner, then replay its numpy formulas.

A region is a function of no arguments that reads its per-call input arrays
and Variables, and returns a list of arrays, such as a loss and its step, or
an action. ``replay`` runs it eagerly the first time, while ``autodiff``
reports each formula its primitives compute to a ``_Tape``, and records them
into a ``Plan``; afterwards it runs only the plan's formulas on the current
inputs and Variables: no Node, no walk, no dict. The rules a region keeps,
and what a replay keeps and does on a raise, are in ``autodiff``'s docstring.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import AutodiffError


_ARRAYS = (np.ndarray, np.generic)


class _Tape:
    """The formulas one run of a region calls, over numbered slots.

    The region's inputs take the first slots; each formula's value, each
    ``full`` literal and the array of each Variable a primitive reads takes
    the next. An array is known by ``id``, and the tape holds every array it
    numbers until it is done, so no id it knows can be reused while it
    records. A formula that reads any other array raises.
    """

    def __init__(self, inputs: list):
        self.n_inputs = len(inputs)
        self.held: list = []
        self.slots: dict[int, int] = {}
        self.literals: dict[int, np.ndarray] = {}
        self.steps: list[tuple] = []
        for a in inputs:
            self._new_slot(a)

    def _new_slot(self, a) -> int:
        slot = len(self.held)
        self.held.append(a)
        self.slots[id(a)] = slot
        return slot

    def _slot(self, a, name: str) -> int:
        slot = self.slots.get(id(a))
        if slot is None:
            raise AutodiffError(f"{name}: a recorded region read an array that is not an input, "
                                "a formula's value, a full() literal or the array of a Variable "
                                "a primitive read")
        return slot

    def literal(self, a: np.ndarray, copy: bool = False) -> None:
        if id(a) not in self.slots:  # a Variable's array is reported at each read
            self.literals[self._new_slot(a)] = a.copy() if copy else a

    def step(self, fn: Callable, args: tuple, out) -> None:
        """Record ``out = fn(*args)``: its leading array arguments are slots, the rest attrs."""
        name = fn.__name__
        n = 0
        while n < len(args) and isinstance(args[n], _ARRAYS):
            n += 1
        attrs = args[n:]
        if n == 0:
            raise AutodiffError(f"{name}: a recorded region made an array from no array; "
                                "its literals come from full()")
        if any(isinstance(a, _ARRAYS) for a in attrs):
            raise AutodiffError(f"{name}: a recorded formula takes its arrays first")
        ins = tuple(self._slot(a, name) for a in args[:n])
        self.steps.append((fn, ins, attrs, self._new_slot(out)))

    def __enter__(self) -> _Tape:
        if ad._tape is not None:
            raise AutodiffError("a recorded region cannot hold another")
        ad._tape = self
        return self

    def __exit__(self, *exc) -> None:
        ad._tape = None


# steps per compiled function: the compiler's memory grows with a function's length
_CHUNK = 32


class Plan:
    """A recorded region: its input shapes, literals, formulas and output slots.

    The inputs and the literals, Variables' arrays among them, keep their
    slots. A formula's value takes a slot that no live value holds, so a
    replay holds no more values at once than are live, and none after it
    returns. The steps are compiled into Python functions of the slot list,
    one line ``v[<out>] = f<k>(v[<in>]..., a<k>_<j>...)`` per step, which
    replay them at a fraction of a loop's per-step cost.
    """

    __slots__ = ("shapes", "blank", "chunks", "outputs")

    def __init__(self, shapes: list, tape: _Tape, outputs: list):
        self.shapes = shapes
        out_slots = [tape._slot(o, "output") for o in outputs]
        last = {i: k for k, (_, ins, _, _) in enumerate(tape.steps) for i in ins}
        fixed = [*range(tape.n_inputs), *tape.literals]
        where = {slot: i for i, slot in enumerate(fixed)}
        self.blank = [tape.literals.get(slot) for slot in fixed]
        free: list[int] = []
        names: dict = {"copy": np.copy}
        lines = []
        for k, (fn, ins, attrs, out) in enumerate(tape.steps):
            args = [f"v[{where[i]}]" for i in ins] + [f"a{k}_{j}" for j in range(len(attrs))]
            names[f"f{k}"] = fn
            names.update((f"a{k}_{j}", a) for j, a in enumerate(attrs))
            # a value read for the last time here frees its slot, for this step's value too
            free += [where[i] for i in set(ins) if last[i] == k and i not in out_slots
                     and where[i] >= len(fixed)]
            if not free:
                free.append(len(self.blank))
                self.blank.append(None)
            where[out] = free.pop()
            lines.append(f"    v[{where[out]}] = f{k}({', '.join(args)})")
            if out not in last and out not in out_slots:  # a value nothing reads
                free.append(where[out])
        self.outputs = [where[slot] for slot in out_slots]
        # an output that is an input or a literal goes out as a copy, over the call's own list
        lines += [f"    v[{i}] = copy(v[{i}])" for i in set(self.outputs) if i < len(fixed)]
        self.chunks = []
        for start in range(0, len(lines), _CHUNK):
            exec(compile("\n".join(["def chunk(v):", *lines[start:start + _CHUNK]]),
                         "<plan>", "exec"), names)
            self.chunks.append(names.pop("chunk"))

    def run(self, inputs: list) -> list:
        """The outputs on ``inputs``; every other value is dropped on return."""
        vals = self.blank.copy()
        vals[:len(inputs)] = inputs
        for chunk in self.chunks:
            chunk(vals)
        return [vals[i] for i in self.outputs]


def replay(plans: dict, key: str, region: Callable[[], list], inputs: list,
           writes: list = ()) -> list:
    """The figures of ``region()``, replayed from ``plans[key]`` when the inputs fit.

    ``region()`` returns its figures, then the next value of each Variable of
    ``writes``, copied into them only once it has returned. ``inputs`` lists
    the per-call data the region reads, batch columns, noise or a state, and
    a None in it is left out; learner state is a Variable, read where it is
    (see the ``autodiff`` module docstring). The first call, and any call
    whose input shapes differ from the plan's, runs it eagerly and records
    it into ``plans[key]`` if no input repeats (the tape knows arrays by id;
    a replay takes repeats).
    A FloatingPointError leaves with ``key`` as its ``region``.
    """
    inputs = [a for a in inputs if a is not None]
    shapes = [a.shape for a in inputs]
    plan = plans.get(key)
    try:
        if plan is not None and plan.shapes == shapes:
            try:
                outputs = plan.run(inputs)
            except FloatingPointError:  # the eager run raises at the same op, with its frames
                outputs = region()
        elif len({id(a) for a in inputs}) != len(inputs):
            outputs = region()
        else:
            with _Tape(inputs) as tape:
                outputs = region()
            plans[key] = Plan(shapes, tape, outputs)
    except FloatingPointError as err:
        err.region = key
        raise
    n = len(outputs) - len(writes)
    for var, value in zip(writes, outputs[n:]):
        var.set_value(value)
    return outputs[:n]
