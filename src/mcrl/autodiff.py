"""Reverse-mode automatic differentiation on dense float64 arrays.

The engine is a define-by-run tape: every primitive produces a `Node`
holding its value, the primitive kind, and references to its parents.
``backward`` walks, once and in reverse topological order, only the
nodes on a path from the output to a requested gradient, and
accumulates vector-Jacobian products there. It does not check for NaN:
run under ``np.errstate(over="raise", invalid="raise", divide="raise")``,
the op that first overflows or makes a NaN raises FloatingPointError,
forward or backward, and ``raised_at`` names its primitive from the
traceback.

Every computation, a single state's action included, is written on this
module's primitives alone. Each checks shapes, takes its value from the
``NumpyOps`` formula of the same name and records one Node. All but four
are declared in one line each, through the factory ``_unary`` (one input,
then named attrs) or ``_binary`` (two inputs), either with an optional
shape rule; ``dense``, ``broadcast``, ``concat`` and ``flat`` are written
by hand. A row stays rank-1: ``dense``, ``slice_cols``, ``pad_cols`` and
``sum_axis1`` take one 1-D row on its last axis, so a state runs as a
gemv. Only forwards run on a row: ``matmul`` and ``transpose`` take 2-D
operands, so a backward through a row's ``dense`` raises ShapeError. Each
backward rule is written once, on this module's primitives, so
``backward`` always builds the gradients as Nodes; ``create_graph`` only
decides whether it returns those Nodes or their arrays. Returned as Nodes
they remain differentiable, so a second backward pass yields mixed second
derivatives such as the derivative of a gradient step with respect to
parameters of the loss that produced it.

A fully-connected layer is one primitive, ``dense(x, w, b, act)``, so a
net's forward records, and its backward walks, one Node per layer.

Record and replay. A region, such as a loss and its step or an action,
builds a graph of the same shape every call, so ``plan.replay`` runs it
eagerly once, records each formula its primitives compute as (formula,
input slots, attrs, output slot), and later replays only that list on new
input arrays of the same shapes: no Node, no walk, no grads dict. New
shapes record again. The recorder, in module ``plan``, learns only what
``_formula`` (each value formula and float64 conversion), ``full`` and
``as_node`` (each Variable a primitive reads) report.
- Every array a region reads must be a declared input, a formula's value,
  a literal made by ``full`` from shapes alone or the array of a Variable
  a primitive read, which a plan keeps and a replay reads as it stands: a
  region never reads a Variable's ``.value``, and ``constant(v)`` holds
  one constant. Inputs are per-call data (batch columns, noise, a state);
  learner state is a Variable, and what derives from it a formula, as
  Adam's bias corrections are (``rpow``). The recorder raises on any other
  array, such as a direct ``NumpyOps`` call's value, so a region computes
  through this module alone and a backward rule's mask is a formula too
  (``relu_mask``, ``minimum_mask``, ``clip_mask``, ``sign``, ``invert``).
  A ``constant`` of a recorded value records its float64 conversion, if it
  needs one. Shape and graph checks run at record time.
- A replay keeps no intermediate: each value's slot is reused after its
  last read, and only the literals and new outputs outlive the call.
- A region returns new values and commits nothing before it returns. A
  FloatingPointError in a replay discards it and runs the region eagerly
  on the same inputs, so it raises at the same op with ``raised_at``'s frames.

Everything is float64. Accumulation order is fixed by the deterministic
topological sort, so repeated backward passes over the same graph are
bit-identical, and a gradient's bits do not depend on which other
gradients the same call requests. Sampling primitives take their noise
as an explicit argument; this module owns no RNG state.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

DTYPE = np.float64
LOG_2PI = math.log(2.0 * math.pi)
SQUASH_EPS = 1e-9
DENSE_ACTS = ("relu", "tanh", "softplus", "linear")  # the activations of ``dense``

_tape = None  # plan's _Tape while a region records: _formula, full and as_node report to it


class AutodiffError(Exception):
    """Base class for graph construction and backward errors."""


class ShapeError(AutodiffError):
    """Operand shapes incompatible for a primitive."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = shapes
        super().__init__(f"{op}: incompatible shapes {' vs '.join(map(str, shapes))}")


def _arr(x) -> np.ndarray:
    return np.asarray(x, dtype=DTYPE)


class Node:
    """One value in the computation graph."""

    __slots__ = ("op", "value", "parents", "requires_grad", "attrs")

    def __init__(self, op: str, value: np.ndarray, parents: tuple = (), attrs: tuple = ()):
        self.op = op
        self.value = value
        self.parents = parents
        self.attrs = attrs
        self.requires_grad = any(p.requires_grad for p in parents)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, shape={self.value.shape}, requires_grad={self.requires_grad})"


class Variable(Node):
    """A learned parameter, a named leaf Node. It keeps one array for life, a copy of its
    first value: ``set_value`` writes into it, and only ``pack`` re-points it, once."""

    __slots__ = ("name",)

    def __init__(self, value, name: str = ""):
        super().__init__("leaf", np.array(value, dtype=DTYPE))
        self.requires_grad = True
        self.name = name

    def set_value(self, value) -> None:
        v = _arr(value)
        if v.shape != self.value.shape:
            raise ShapeError("set_value", self.value.shape, v.shape)
        np.copyto(self.value, v)


def pack(variables: list[Variable], name: str) -> Variable:
    """One flat Variable holding ``variables``' values, each now a view into it. Pack in a
    constructor, before any region records; a Variable packed already raises, since a second
    pack would cut it off from the first flat and so from the optimizer that writes it."""
    if any(v.value.base is not None for v in variables):
        raise AutodiffError(f"pack {name}: a Variable is packed already")
    whole = Variable(np.concatenate([v.value for v in variables], axis=None), name)
    ends = np.cumsum([v.value.size for v in variables])[:-1]
    for v, part in zip(variables, np.split(whole.value, ends)):
        v.value = part.reshape(v.value.shape)
    return whole


def constant(value) -> Node:
    """Wrap an array as a non-differentiable leaf, converted to float64 unless a bool mask.

    A backward rule's mask (``relu_mask``, ``minimum_mask``, ``invert``,
    ``clip_mask``) is the one non-float64 value a Node holds: a gradient
    times it has the same bits, and a recorded region converts nothing.
    A Variable gives its own array, as it stands at each replay, and no gradient.
    """
    if type(value) is Variable:
        return Node("const", as_node(value).value)
    kept = type(value) is np.ndarray and value.dtype in (np.bool_, DTYPE)
    return Node("const", value if kept else _formula(_arr, value))  # a replay converts too


def full(shape, fill: float) -> np.ndarray:
    """A float64 array of ``shape`` holding ``fill``: the literals of a recorded region."""
    out = np.empty(shape, dtype=DTYPE)
    out.fill(fill)
    if _tape is not None:
        _tape.literal(out, copy=True)  # the plan keeps a copy: the region may hand out ``out``
    return out


def _formula(fn: Callable, *args):
    """``fn(*args)``, a value formula, reported to the tape while a region records."""
    out = fn(*args)
    if _tape is not None:
        _tape.step(fn, args, out)
    return out


def as_node(x) -> Node:
    t = type(x)
    if t is Variable and _tape is not None:
        _tape.literal(x.value)  # a recording region keeps the array a replay reads
    if t is Node or t is Variable:
        return x
    return constant(x)


def evaluate(expr) -> np.ndarray:
    """Numeric value of an expression; does not touch graph structure."""
    return as_node(expr).value


# ---------------------------------------------------------------------------
# the value formulas
# ---------------------------------------------------------------------------

class NumpyOps:
    """The table of value formulas: each primitive's arithmetic, on plain arrays.

    They build no Node: the graph primitive of the same name takes its value
    from here through ``_formula``, which a recording region hears.

    Each formula costs one C-level numpy call per step, since at these
    sizes numpy's per-call cost, not the flops, sets the price: ufuncs and
    their ``reduce`` are called directly, never ``np.broadcast_to`` or the
    ``ndarray.sum``/``.min`` wrappers, and an op that owns its result works
    in place. Row ops index the last axis, so a forward runs on a 1-D row.
    """

    add = staticmethod(np.add)
    sub = staticmethod(np.subtract)
    neg = staticmethod(np.negative)
    mul = staticmethod(np.multiply)
    div = staticmethod(np.divide)
    scale = staticmethod(np.multiply)
    exp = staticmethod(np.exp)
    log = staticmethod(np.log)
    sqrt = staticmethod(np.sqrt)
    tanh = staticmethod(np.tanh)
    absval = staticmethod(np.abs)
    minimum = staticmethod(np.minimum)
    # the ufunc that np.clip wraps, with the same bits at a third of the call cost
    clip = staticmethod(np._core.umath.clip)
    sign = staticmethod(np.sign)
    invert = staticmethod(np.invert)

    @staticmethod
    def matmul(a, b):
        if a.shape[-1] != 1:
            return a @ b
        # numpy sums an inner dimension of 1 from +0.0, which turns a -0.0 product into +0.0
        r = a * b
        return np.add(r, 0.0, out=r)

    @staticmethod
    def square(a):
        return a * a

    @staticmethod
    def power(a, p):
        return a ** p

    @staticmethod
    def rpow(t, base):  # by Python's float power: numpy's can differ from it in the last bit
        return np.array(base ** float(t))

    @staticmethod
    def softplus(a):
        return np.logaddexp(0.0, a)

    @staticmethod
    def sigmoid(a):
        # 0.5*(1+tanh(x/2)) is overflow-free for large |x|
        return 0.5 * (1.0 + np.tanh(0.5 * a))

    @staticmethod
    def asum(a):
        """The sum of all elements, as a 0-d array."""
        return np.asarray(np.add.reduce(a, None), dtype=DTYPE)

    @staticmethod
    def sum_axis0(a):
        return np.add.reduce(a, 0)

    @staticmethod
    def sum_axis1(a):
        return np.add.reduce(a, -1, keepdims=True)

    @staticmethod
    def concat(*parts):
        return np.concatenate(parts, axis=1)

    @staticmethod
    def flat(*parts):
        return np.concatenate(parts, axis=None)

    @staticmethod
    def slice_cols(a, i0, i1):
        return a[..., i0:i1]

    @staticmethod
    def transpose(a):
        return a.T

    # the masks of the backward rules, formulas over values so that a
    # recorded region replays them

    @staticmethod
    def relu_mask(v):
        """Where a relu passed its input; its value is NaN where the input is."""
        return np.greater(v, 0.0)

    @staticmethod
    def minimum_mask(a, b):
        """Where ``minimum`` took its first input."""
        return np.less_equal(a, b)

    @staticmethod
    def clip_mask(x, lo, hi):
        """Where ``clip`` passed its input: lo < x < hi."""
        return np.bitwise_and(np.greater(x, lo), np.less(x, hi))

    @staticmethod
    def dense(x, w, b, act):
        """One fully-connected layer act(x @ w + b), for act in ``DENSE_ACTS``."""
        h = x @ w
        h += b
        if act == "relu":
            return np.maximum(h, 0.0, out=h)
        if act == "tanh":
            return np.tanh(h, out=h)
        if act == "softplus":
            return np.logaddexp(0.0, h, out=h)
        if act == "linear":
            return h
        raise ValueError(f"unknown activation {act!r}")

    @staticmethod
    def broadcast(a, shape):
        out = np.empty(shape, dtype=DTYPE)
        out[...] = a
        return out

    @staticmethod
    def sum_to(g, shape):
        if g.shape == tuple(shape):
            return g
        while g.ndim > len(shape):
            g = np.add.reduce(g, 0)
        for i, (gs, s) in enumerate(zip(g.shape, shape)):
            if s == 1 and gs != 1:
                g = np.add.reduce(g, i, keepdims=True)
        return g.reshape(shape)

    @staticmethod
    def pad_cols(a, i0, total):
        v = np.zeros((*a.shape[:-1], total), dtype=DTYPE)
        v[..., i0:i0 + a.shape[-1]] = a
        return v


# ---------------------------------------------------------------------------
# graph primitives: one factory call each, four written by hand
# ---------------------------------------------------------------------------
# ``_unary`` and ``_binary`` write once the step every primitive shares:
# unwrap and check the inputs, take the value from the ``NumpyOps`` op of the
# same name through ``_formula`` and record one Node, which keeps a unary
# primitive's attrs for its backward rule. By hand: ``dense`` (three inputs,
# the hottest primitive), ``broadcast`` (numpy's ValueError becomes a
# ShapeError), ``concat`` (column offsets) and ``flat`` (any number of inputs).

def _binary_shapes_ok(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes, or one side of size 1: nothing else is silently numpy-broadcast."""
    return a.shape == b.shape or a.size == 1 or b.size == 1


def _unary(name: str, *attr_names: str,
           shape_ok: Callable[..., bool] | None = None) -> Callable[..., Node]:
    """The graph primitive ``name``: one input, then the attrs ``attr_names``.

    The attrs go to the value formula and onto the Node, and must pass
    ``shape_ok(value, *attrs)`` when it is given. A wrong attr count raises
    TypeError first, so an extra array never gets to a ufunc's ``out=`` slot.
    """
    n_attrs = len(attr_names)

    def primitive(a, *attrs) -> Node:
        if len(attrs) != n_attrs:
            raise TypeError(f"{name} takes one input and the attrs {attr_names}")
        a = as_node(a)
        av = a.value
        if shape_ok is not None and not shape_ok(av, *attrs):
            raise ShapeError(name, av.shape, *(attrs and (attrs,)))
        return Node(name, _formula(getattr(NumpyOps, name), av, *attrs), (a,), attrs)

    primitive.__name__ = primitive.__qualname__ = name
    return primitive


def _binary(name: str, shape_ok: Callable[..., bool] = _binary_shapes_ok) -> Callable[..., Node]:
    """The graph primitive ``name``: two inputs whose values pass ``shape_ok``, no attrs."""

    def primitive(a, b) -> Node:
        a, b = as_node(a), as_node(b)
        av, bv = a.value, b.value
        if not shape_ok(av, bv):
            raise ShapeError(name, av.shape, bv.shape)
        return Node(name, _formula(getattr(NumpyOps, name), av, bv), (a, b))

    primitive.__name__ = primitive.__qualname__ = name
    return primitive


add, sub, mul, div = (_binary(name) for name in ("add", "sub", "mul", "div"))
matmul = _binary("matmul", lambda a, b: a.ndim == b.ndim == 2 and a.shape[1] == b.shape[0])
minimum = _binary("minimum", lambda a, b: a.shape == b.shape)
neg, tanh, sigmoid, softplus, exp, log, sqrt, square, absval, asum = (
    _unary(name) for name in
    ("neg", "tanh", "sigmoid", "softplus", "exp", "log", "sqrt", "square", "absval", "asum"))
sum_axis0, transpose = (_unary(name, shape_ok=lambda a: a.ndim == 2)
                        for name in ("sum_axis0", "transpose"))
# sum_axis1 keeps the column axis: the row sums of an (N, D) array are (N, 1), of a row (1,)
sum_axis1 = _unary("sum_axis1", shape_ok=lambda a: a.ndim in (1, 2))
scale = _unary("scale", "c")  # times a python scalar, which stays out of the graph
power = _unary("power", "p")
rpow = _unary("rpow", "base", shape_ok=lambda t, base: t.ndim == 0)  # base ** t, no VJP
clip = _unary("clip", "lo", "hi")  # the gradient passes only where lo < x < hi
sum_to = _unary("sum_to", "shape")  # reduce-sum down to a broadcast-compatible shape
slice_cols = _unary("slice_cols", "i0", "i1",
                    shape_ok=lambda a, i0, i1: a.ndim in (1, 2) and 0 <= i0 <= i1 <= a.shape[-1])
pad_cols = _unary("pad_cols", "i0", "total")  # an (N, D) block or a row into zeros at column i0


def dense(x, w, b, act: str) -> Node:
    """One fully-connected layer act(x @ w + b) for x (N, I) or a row (I,), w (I, O), b (O,)."""
    x, w, b = as_node(x), as_node(w), as_node(b)
    xv, wv, bv = x.value, w.value, b.value
    if (xv.ndim not in (1, 2) or wv.ndim != 2 or bv.ndim != 1
            or xv.shape[-1] != wv.shape[0] or wv.shape[1] != bv.shape[0]):
        raise ShapeError("dense", xv.shape, wv.shape, bv.shape)
    return Node("dense", _formula(NumpyOps.dense, xv, wv, bv, act), (x, w, b), (act,))


def broadcast(a, shape: tuple) -> Node:
    a = as_node(a)
    try:
        if a.value.ndim > len(shape):  # numpy would drop leading axes of length 1
            raise ValueError
        v = _formula(NumpyOps.broadcast, a.value, shape)
    except ValueError:
        raise ShapeError("broadcast", a.value.shape, shape) from None
    return Node("broadcast", v, (a,), (tuple(shape),))


def concat(*parts) -> Node:
    """Concatenate (N, D_i) blocks along axis 1."""
    nodes = [as_node(p) for p in parts]
    if not nodes:
        raise ShapeError("concat", "no inputs")
    n0 = nodes[0].value.shape[0]
    for nd in nodes:
        if nd.value.ndim != 2 or nd.value.shape[0] != n0:
            raise ShapeError("concat", *(x.value.shape for x in nodes))
    offs = []
    o = 0
    for nd in nodes:
        offs.append(o)
        o += nd.value.shape[1]
    return Node("concat", _formula(NumpyOps.concat, *(nd.value for nd in nodes)),
                tuple(nodes), (tuple(offs), o))


def flat(parts) -> Node:
    """The values of ``parts`` raveled into one 1-D array, as a leaf: no gradient flows."""
    return Node("flat", _formula(NumpyOps.flat, *(as_node(p).value for p in parts)))


def mean(a) -> Node:
    """Mean of all elements (batch reduction): the sum scaled by 1/size."""
    return scale(asum(a), 1.0 / evaluate(a).size)


# ---------------------------------------------------------------------------
# the policy's compositions (noise is always an explicit input)
# ---------------------------------------------------------------------------

def gaussian_sample(mean_, log_std, noise) -> Node:
    """Reparameterized draw mean + exp(log_std) * noise; deterministic in its inputs."""
    return add(mean_, mul(exp(log_std), noise))


def gaussian_log_density(x, mean_, log_std) -> Node:
    """Row-wise diagonal-gaussian log density, shape (N, 1), or (1,) for one 1-D row."""
    x = as_node(x)
    z = mul(sub(x, mean_), exp(neg(log_std)))
    per = sub(scale(square(z), -0.5), log_std)
    return add(sum_axis1(per), constant(full((), -0.5 * LOG_2PI * x.shape[-1])))


def squashed_gaussian(mean_, log_std, noise, action_scale: float, with_logp: bool = True):
    """tanh-squashed reparameterized gaussian.

    Returns (action, log_prob) with action = scale * tanh(u),
    u = mean + exp(log_std) * noise, and log_prob including the change of
    variables correction sum log(scale * (1 - tanh(u)^2) + eps), shape (N, 1).
    Without ``with_logp`` the log-prob is not computed and reads None.
    """
    u = gaussian_sample(mean_, log_std, noise)
    t = tanh(u)
    action = scale(t, action_scale)
    if not with_logp:
        return action, None
    corr = log(add(scale(sub(constant(full((), 1.0)), square(t)), action_scale),
                   constant(full((), SQUASH_EPS))))
    logp = sub(gaussian_log_density(u, mean_, log_std), sum_axis1(corr))
    return action, logp


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------
# A rule maps the output gradient g of node n, a Node, to one gradient Node per
# parent, or None for a parent off the live set, using this module's primitives.

def _fit(g, shape):
    # skip the reduction node entirely when shapes already agree
    return g if g.value.shape == shape else sum_to(g, shape)


def _vjp_add(g, n, live):
    a, b = n.parents
    return (_fit(g, a.value.shape) if a in live else None,
            _fit(g, b.value.shape) if b in live else None)


def _vjp_sub(g, n, live):
    a, b = n.parents
    return (_fit(g, a.value.shape) if a in live else None,
            _fit(neg(g), b.value.shape) if b in live else None)


def _vjp_neg(g, n, live):
    return (neg(g),)


def _vjp_mul(g, n, live):
    a, b = n.parents
    ga = _fit(mul(g, b), a.value.shape) if a in live else None
    gb = _fit(mul(g, a), b.value.shape) if b in live else None
    return (ga, gb)


def _vjp_scale(g, n, live):
    return (scale(g, n.attrs[0]),)


def _vjp_matmul(g, n, live):
    a, b = n.parents
    ga = matmul(g, transpose(b)) if a in live else None
    gb = matmul(transpose(a), g) if b in live else None
    return (ga, gb)


def _vjp_dense(g, n, live):
    x, w, b = n.parents
    act = n.attrs[0]
    # g becomes the gradient of the pre-activation x @ w + b
    if act == "relu":
        # the value is NaN where x @ w + b is, so this mask is (x @ w + b > 0)
        g = mul(g, constant(_formula(NumpyOps.relu_mask, n.value)))
    elif act == "tanh":
        (g,) = _vjp_tanh(g, n, live)  # it reads only the node's own value
    elif act == "softplus":
        # the pre-activation is rebuilt, not taken as a constant, so that the
        # gradient stays differentiable in x, w and b
        g = mul(g, sigmoid(dense(x, w, b, "linear")))
    gx = matmul(g, transpose(w)) if x in live else None
    gw = matmul(transpose(x), g) if w in live else None
    gb = sum_axis0(g) if b in live else None
    return (gx, gw, gb)


def _vjp_tanh(g, n, live):
    return (mul(g, sub(constant(full((), 1.0)), square(n))),)


def _vjp_sigmoid(g, n, live):
    return (mul(g, mul(n, sub(constant(full((), 1.0)), n))),)


def _vjp_softplus(g, n, live):
    return (mul(g, sigmoid(n.parents[0])),)


def _vjp_exp(g, n, live):
    return (mul(g, n),)


def _vjp_log(g, n, live):
    return (mul(g, power(n.parents[0], -1.0)),)


def _vjp_square(g, n, live):
    return (scale(mul(g, n.parents[0]), 2.0),)


def _vjp_power(g, n, live):
    p = n.attrs[0]
    return (scale(mul(g, power(n.parents[0], p - 1.0)), p),)


def _vjp_absval(g, n, live):
    return (mul(g, constant(_formula(NumpyOps.sign, n.parents[0].value))),)


def _vjp_minimum(g, n, live):
    a, b = n.parents
    mask = _formula(NumpyOps.minimum_mask, a.value, b.value)
    ga = mul(g, constant(mask)) if a in live else None
    gb = mul(g, constant(_formula(NumpyOps.invert, mask))) if b in live else None
    return (ga, gb)


def _vjp_clip(g, n, live):
    return (mul(g, constant(_formula(NumpyOps.clip_mask, n.parents[0].value, *n.attrs))),)


def _vjp_reduce(g, n, live):
    # asum, sum_axis0, sum_axis1 and sum_to: spread g back over the input
    return (broadcast(g, n.parents[0].value.shape),)


def _vjp_broadcast(g, n, live):
    return (sum_to(g, n.parents[0].value.shape),)


def _vjp_concat(g, n, live):
    offs, _total = n.attrs
    return tuple(slice_cols(g, o, o + p.value.shape[1]) if p in live else None
                 for p, o in zip(n.parents, offs))


def _vjp_slice_cols(g, n, live):
    i0, _i1 = n.attrs
    return (pad_cols(g, i0, n.parents[0].value.shape[-1]),)


def _vjp_pad_cols(g, n, live):
    i0, _total = n.attrs
    return (slice_cols(g, i0, i0 + n.parents[0].value.shape[-1]),)


def _vjp_transpose(g, n, live):
    return (transpose(g),)


# div, sqrt, rpow and flat have none: only the optimizer steps, never differentiated, use them
_VJP: dict[str, Callable] = {
    "add": _vjp_add, "sub": _vjp_sub, "neg": _vjp_neg, "mul": _vjp_mul,
    "scale": _vjp_scale, "matmul": _vjp_matmul, "dense": _vjp_dense,
    "tanh": _vjp_tanh, "sigmoid": _vjp_sigmoid,
    "softplus": _vjp_softplus, "exp": _vjp_exp, "log": _vjp_log,
    "square": _vjp_square, "power": _vjp_power, "absval": _vjp_absval,
    "minimum": _vjp_minimum, "clip": _vjp_clip, "asum": _vjp_reduce,
    "sum_axis0": _vjp_reduce, "sum_axis1": _vjp_reduce,
    "broadcast": _vjp_broadcast, "sum_to": _vjp_reduce, "concat": _vjp_concat,
    "slice_cols": _vjp_slice_cols, "pad_cols": _vjp_pad_cols,
    "transpose": _vjp_transpose,
}


def _live_order(root: Node, targets: set) -> tuple[list[Node], set, set]:
    """The nodes on a path from ``root`` to a target, in post-order.

    Returns ``(order, live, ends)``: ``order`` lists the live nodes, those
    that are a target or have a live parent, in the depth-first post-order
    of the whole graph with the other nodes left out; ``live`` holds the
    same nodes; ``ends`` holds the live nodes with no live parent, which
    are targets whose VJP the walk skips.
    """
    # mark visited at expansion, not at push: pre-marking reorders interior
    # diamond nodes and silently drops their late gradient contributions
    order: list[Node] = []
    live: set[Node] = set()
    ends: set[Node] = set()
    visited: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            # every parent is finished by now, so its liveness is known
            for p in node.parents:
                if p in live:
                    break
            else:
                if node not in targets:
                    continue
                ends.add(node)
            live.add(node)
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and p not in visited:
                stack.append((p, False))
    return order, live, ends


def backward(output, wrt: Iterable, create_graph: bool = False) -> list:
    """Gradients of a scalar expression with respect to ``wrt``.

    Returns one gradient per entry of ``wrt`` (Nodes, Variables among them), each
    shaped like the entry's value. Entries unreachable from ``output``
    get zero gradients. The walk always builds the gradients as Nodes. With
    ``create_graph=True`` it returns them, and they remain differentiable,
    which is what enables second-order gradients through an inner update
    step; otherwise it returns their arrays.

    Only the nodes on a path from ``output`` to an entry of ``wrt`` are
    walked, in reverse post-order, so a branch that leads to no entry gets
    no VJP and builds no Node. Each returned gradient has the same bits
    whatever the other entries of ``wrt`` are.

    Raises ShapeError for a non-scalar output. It does not check for NaN:
    under a raising ``np.errstate`` the op that overflows or makes a NaN
    raises FloatingPointError, and ``raised_at`` names it.
    """
    out = as_node(output)
    if out.value.size != 1:
        raise ShapeError("backward(non-scalar output)", out.value.shape)
    targets = [as_node(w) for w in wrt]

    grads: dict[Node, Node] = {}
    if out.requires_grad:
        order, live, ends = _live_order(out, set(targets))
        if order:
            grads[out] = constant(full(out.value.shape, 1.0))
        for node in reversed(order):
            if node in ends:
                continue
            for p, c in zip(node.parents, _VJP[node.op](grads[node], node, live)):
                if c is not None:
                    prev = grads.get(p)
                    grads[p] = c if prev is None else add(prev, c)
    result = [grads[t] if t in grads else constant(full(t.value.shape, 0.0)) for t in targets]
    return result if create_graph else [g.value for g in result]


def raised_at(tb) -> tuple[str, str]:
    """``(primitive, kind)``, kind "forward" or "backward", of the op a traceback ends in.

    Reads this module's frames from the outermost in. The outermost
    ``_vjp_<op>`` rule names the backward of its node, so the primitives
    the rule calls do not hide it; ``backward``'s own arithmetic
    is the ``add`` that sums gradients. Otherwise the innermost primitive
    names the forward: a factory closure, whose local ``name`` holds the
    primitive's, or a function named after one, such as a ``NumpyOps``
    formula; a bare ufunc alias (``NumpyOps.mul``) leaves no frame. Returns
    ("", "") when no such frame is on ``tb``.
    """
    op = kind = ""
    while tb is not None:
        frame, tb = tb.tb_frame, tb.tb_next
        if frame.f_globals is not globals():  # this module's frames alone
            continue
        fn = frame.f_code.co_name
        if fn.startswith("_vjp_"):
            return frame.f_locals["n"].op, "backward"
        if fn == "backward":
            op, kind = "add", "backward"
        elif kind != "backward" and (fn == "primitive" or fn in _VJP):
            op, kind = frame.f_locals["name"] if fn == "primitive" else fn, "forward"
    return op, kind


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def fd_gradient(f: Callable[[np.ndarray], float], point, epsilon: float = 1e-4) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    Perturbs one coordinate at a time: (f(x + eps e_i) - f(x - eps e_i)) / (2 eps).
    This is the independent oracle the gradient-check suite compares
    backward() against; it never touches the graph machinery.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x = _arr(point).copy()
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        fp = float(f(x))
        flat[i] = orig - epsilon
        fm = float(f(x))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * epsilon)
    return g

