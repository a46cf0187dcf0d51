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

There are two ops namespaces. ``NumpyOps`` is the one place each
primitive's value formula is written: its ops compute on plain arrays and
build no Node. Each primitive of this module checks shapes, takes its
value from the ``NumpyOps`` op of the same name and records one Node, so
the two namespaces give the same bits. All but three primitives are
declared in one line each, through the factory ``_unary`` (one input, then
named attrs) or ``_binary`` (two inputs), either with an optional shape
rule; ``dense``, ``broadcast`` and ``concat`` are written by hand. A
forward written once against an ``ops`` argument runs on either. Each
backward rule is written the same way: ``backward`` runs it on
``NumpyOps`` by default and on this module with ``create_graph=True``,
where the returned gradients are themselves differentiable Nodes, so a
second backward pass yields mixed second derivatives such as the
derivative of a gradient step with respect to parameters of the loss
that produced it. Both modes give the same gradient bits.

A fully-connected layer is one primitive, ``dense(x, w, b, act)``, so a
net's forward records, and its backward walks, one Node per layer.

Everything is float64. Accumulation order is fixed by the deterministic
topological sort, so repeated backward passes over the same graph are
bit-identical, and a gradient's bits do not depend on which other
gradients the same call requests. Sampling primitives take their noise
as an explicit argument; this module owns no RNG state.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterable, Sequence

import numpy as np

DTYPE = np.float64
LOG_2PI = math.log(2.0 * math.pi)
SQUASH_EPS = 1e-9
DENSE_ACTS = ("relu", "tanh", "softplus", "linear")  # the activations of ``dense``

_graph = sys.modules[__name__]  # the graph ops namespace: this module


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

    def __init__(self, op: str, value: np.ndarray, parents: tuple = (),
                 attrs: tuple = (), requires_grad: bool | None = None):
        self.op = op
        self.value = value
        self.parents = parents
        self.attrs = attrs
        if requires_grad is None:
            requires_grad = False
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, shape={self.value.shape}, requires_grad={self.requires_grad})"


class Variable(Node):
    """A named leaf Node, a learned parameter: its value can be replaced, its shape cannot."""

    __slots__ = ("name",)

    def __init__(self, value, name: str = ""):
        super().__init__("leaf", _arr(value), (), (), requires_grad=True)
        self.name = name

    def set_value(self, value) -> None:
        v = _arr(value)
        if v.shape != self.value.shape:
            raise ShapeError("set_value", self.value.shape, v.shape)
        self.value = v


def constant(value) -> Node:
    """Wrap an array as a non-differentiable leaf."""
    return Node("const", _arr(value), (), (), requires_grad=False)


def as_node(x) -> Node:
    t = type(x)
    if t is Node or t is Variable:
        return x
    return constant(x)


def evaluate(expr) -> np.ndarray:
    """Numeric value of an expression; does not touch graph structure."""
    return as_node(expr).value


# ---------------------------------------------------------------------------
# the raw-array ops namespace: every value formula
# ---------------------------------------------------------------------------

class NumpyOps:
    """The raw-array ops namespace, where each primitive's value formula lives.

    Its ops build no Node; the graph primitive of the same name takes its
    value from here (see the module docstring). ``as_node`` and
    ``evaluate`` unwrap a Node, a Variable included, to its value.

    Each formula costs one C-level numpy call per step, since at these
    sizes numpy's per-call cost, not the flops, sets the price: ufuncs and
    their ``reduce`` are called directly, never ``np.broadcast_to`` or the
    ``ndarray.sum``/``.min`` wrappers, and an op that owns its result works
    in place. Row ops index the last axis, so a forward runs on a 1-D row.
    """

    @staticmethod
    def as_node(x):
        t = type(x)
        return x.value if t is Variable or t is Node else x

    evaluate = as_node
    constant = staticmethod(lambda x: x)
    add = staticmethod(np.add)
    sub = staticmethod(np.subtract)
    neg = staticmethod(np.negative)
    mul = staticmethod(np.multiply)
    scale = staticmethod(np.multiply)
    # numpy sums an inner dimension of 1 from +0.0, which turns a -0.0 product into +0.0
    matmul = staticmethod(lambda a, b: a @ b if a.shape[-1] != 1
                          else np.add(r := a * b, 0.0, out=r))
    exp = staticmethod(np.exp)
    log = staticmethod(np.log)
    tanh = staticmethod(np.tanh)
    absval = staticmethod(np.abs)
    minimum = staticmethod(np.minimum)
    clip = staticmethod(np.clip)
    square = staticmethod(lambda a: a * a)
    power = staticmethod(lambda a, p: a ** p)
    softplus = staticmethod(lambda a: np.logaddexp(0.0, a))
    # 0.5*(1+tanh(x/2)) is overflow-free for large |x|
    sigmoid = staticmethod(lambda a: 0.5 * (1.0 + np.tanh(0.5 * a)))
    # sum of all elements, as a 0-d array
    asum = staticmethod(lambda a: np.asarray(np.add.reduce(a, None), dtype=DTYPE))
    sum_axis0 = staticmethod(lambda a: np.add.reduce(a, 0))
    sum_axis1 = staticmethod(lambda a: np.add.reduce(a, -1, keepdims=True))
    concat = staticmethod(lambda parts: np.concatenate(parts, axis=1))
    slice_cols = staticmethod(lambda a, i0, i1: a[..., i0:i1])
    transpose = staticmethod(lambda a: a.T)

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
    def mean(a):
        # the module-level composition, which both namespaces share
        return mean(a, NumpyOps)

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
        v = np.zeros((a.shape[0], total), dtype=DTYPE)
        v[:, i0:i0 + a.shape[1]] = a
        return v


# ---------------------------------------------------------------------------
# graph primitives: one factory call each, three written by hand
# ---------------------------------------------------------------------------
# ``_unary`` and ``_binary`` write once the step every primitive shares:
# unwrap the inputs, check them against the primitive's shape rule, take the
# value from the ``NumpyOps`` op of the same name and record one Node, which
# keeps a unary primitive's attrs for its backward rule. By hand: ``dense``
# (three inputs, the hottest primitive), ``broadcast`` (numpy's ValueError
# becomes a ShapeError) and ``concat`` (any number of inputs, column offsets).

def _binary_shapes_ok(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes, or one side of size 1: nothing else is silently numpy-broadcast."""
    return a.shape == b.shape or a.size == 1 or b.size == 1


def _unary(name: str, *attr_names: str,
           shape_ok: Callable[..., bool] | None = None) -> Callable[..., Node]:
    """The graph primitive ``name``: one input, then the attrs ``attr_names``.

    The attrs go to the value formula and onto the Node, and must pass
    ``shape_ok(value, *attrs)`` when it is given. A wrong attr count raises
    TypeError first, so an extra array never reaches a ufunc's ``out=`` slot.
    """
    value = getattr(NumpyOps, name)
    n_attrs = len(attr_names)

    def primitive(a, *attrs) -> Node:
        if len(attrs) != n_attrs:
            raise TypeError(f"{name} takes one input and the attrs {attr_names}")
        a = as_node(a)
        av = a.value
        if shape_ok is not None and not shape_ok(av, *attrs):
            raise ShapeError(name, av.shape, *(attrs and (attrs,)))
        return Node(name, value(av, *attrs), (a,), attrs)

    primitive.__name__ = primitive.__qualname__ = name
    return primitive


def _binary(name: str, shape_ok: Callable[..., bool] = _binary_shapes_ok) -> Callable[..., Node]:
    """The graph primitive ``name``: two inputs whose values pass ``shape_ok``, no attrs."""
    value = getattr(NumpyOps, name)

    def primitive(a, b) -> Node:
        a, b = as_node(a), as_node(b)
        av, bv = a.value, b.value
        if not shape_ok(av, bv):
            raise ShapeError(name, av.shape, bv.shape)
        return Node(name, value(av, bv), (a, b))

    primitive.__name__ = primitive.__qualname__ = name
    return primitive


add, sub, mul = (_binary(name) for name in ("add", "sub", "mul"))
matmul = _binary("matmul", lambda a, b: a.ndim == b.ndim == 2 and a.shape[1] == b.shape[0])
minimum = _binary("minimum", lambda a, b: a.shape == b.shape)
neg, tanh, sigmoid, softplus, exp, log, square, absval, asum = (
    _unary(name) for name in
    ("neg", "tanh", "sigmoid", "softplus", "exp", "log", "square", "absval", "asum"))
# sum_axis1 keeps the column axis: the row sums of an (N, D) array are (N, 1)
sum_axis0, sum_axis1, transpose = (_unary(name, shape_ok=lambda a: a.ndim == 2)
                                   for name in ("sum_axis0", "sum_axis1", "transpose"))
scale = _unary("scale", "c")  # times a python scalar, which stays out of the graph
power = _unary("power", "p")
clip = _unary("clip", "lo", "hi")  # the gradient passes only where lo < x < hi
sum_to = _unary("sum_to", "shape")  # reduce-sum down to a broadcast-compatible shape
slice_cols = _unary("slice_cols", "i0", "i1",
                    shape_ok=lambda a, i0, i1: a.ndim == 2 and 0 <= i0 <= i1 <= a.shape[1])
pad_cols = _unary("pad_cols", "i0", "total")  # an (N, D) block into (N, total) zeros at i0


def dense(x, w, b, act: str) -> Node:
    """One fully-connected layer act(x @ w + b) for x (N, I), w (I, O), b (O,)."""
    x, w, b = as_node(x), as_node(w), as_node(b)
    xv, wv, bv = x.value, w.value, b.value
    if (xv.ndim != 2 or wv.ndim != 2 or bv.ndim != 1
            or xv.shape[1] != wv.shape[0] or wv.shape[1] != bv.shape[0]):
        raise ShapeError("dense", xv.shape, wv.shape, bv.shape)
    return Node("dense", NumpyOps.dense(xv, wv, bv, act), (x, w, b), (act,))


def broadcast(a, shape: tuple) -> Node:
    a = as_node(a)
    try:
        if a.value.ndim > len(shape):  # numpy would drop leading axes of length 1
            raise ValueError
        v = NumpyOps.broadcast(a.value, shape)
    except ValueError:
        raise ShapeError("broadcast", a.value.shape, shape) from None
    return Node("broadcast", v, (a,), (tuple(shape),))


def concat(parts: Sequence) -> Node:
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
    return Node("concat", NumpyOps.concat([nd.value for nd in nodes]),
                tuple(nodes), (tuple(offs), o))


# ---------------------------------------------------------------------------
# compositions on either namespace (noise is always an explicit input)
# ---------------------------------------------------------------------------

def mean(a, ops=_graph):
    """Mean of all elements (batch reduction): the sum scaled by 1/size."""
    return ops.scale(ops.asum(a), 1.0 / ops.evaluate(a).size)


def gaussian_sample(mean_, log_std, noise, ops=_graph):
    """Reparameterized draw mean + exp(log_std) * noise; deterministic in its inputs."""
    return ops.add(mean_, ops.mul(ops.exp(log_std), ops.as_node(noise)))


def gaussian_log_density(x, mean_, log_std, ops=_graph):
    """Row-wise diagonal-gaussian log density, shape (N, 1), or (1,) for one 1-D row."""
    x = ops.as_node(x)
    z = ops.mul(ops.sub(x, mean_), ops.exp(ops.neg(log_std)))
    per = ops.sub(ops.scale(ops.square(z), -0.5), log_std)
    return ops.add(ops.sum_axis1(per), ops.constant(np.array(-0.5 * LOG_2PI) * x.shape[-1]))


def squashed_gaussian(mean_, log_std, noise, action_scale: float, ops=_graph,
                      with_logp: bool = True):
    """tanh-squashed reparameterized gaussian.

    Returns (action, log_prob) with action = scale * tanh(u),
    u = mean + exp(log_std) * noise, and log_prob including the change of
    variables correction sum log(scale * (1 - tanh(u)^2) + eps), shape (N, 1).
    Without ``with_logp`` the log-prob is not computed and reads None.
    """
    u = gaussian_sample(mean_, log_std, noise, ops)
    t = ops.tanh(u)
    action = ops.scale(t, action_scale)
    if not with_logp:
        return action, None
    corr = ops.log(ops.add(ops.scale(ops.sub(ops.constant(np.array(1.0)), ops.square(t)),
                                     action_scale),
                           ops.constant(np.array(SQUASH_EPS))))
    logp = ops.sub(gaussian_log_density(u, mean_, log_std, ops), ops.sum_axis1(corr))
    return action, logp


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------
# A rule maps the output gradient g of node n to one gradient per parent, or
# None for a parent off the live set, using only ops that both namespaces
# define: ``NumpyOps`` for plain gradients, this module for create_graph.

def _fit(ops, g, shape):
    # skip the reduction node entirely when shapes already agree
    return g if ops.evaluate(g).shape == shape else ops.sum_to(g, shape)


def _vjp_add(ops, g, n, live):
    a, b = n.parents
    return (_fit(ops, g, a.value.shape) if a in live else None,
            _fit(ops, g, b.value.shape) if b in live else None)


def _vjp_sub(ops, g, n, live):
    a, b = n.parents
    return (_fit(ops, g, a.value.shape) if a in live else None,
            _fit(ops, ops.neg(g), b.value.shape) if b in live else None)


def _vjp_neg(ops, g, n, live):
    return (ops.neg(g),)


def _vjp_mul(ops, g, n, live):
    a, b = n.parents
    ga = _fit(ops, ops.mul(g, ops.as_node(b)), a.value.shape) if a in live else None
    gb = _fit(ops, ops.mul(g, ops.as_node(a)), b.value.shape) if b in live else None
    return (ga, gb)


def _vjp_scale(ops, g, n, live):
    return (ops.scale(g, n.attrs[0]),)


def _vjp_matmul(ops, g, n, live):
    a, b = n.parents
    ga = ops.matmul(g, ops.transpose(ops.as_node(b))) if a in live else None
    gb = ops.matmul(ops.transpose(ops.as_node(a)), g) if b in live else None
    return (ga, gb)


def _vjp_dense(ops, g, n, live):
    x, w, b = n.parents
    act = n.attrs[0]
    # g becomes the gradient of the pre-activation x @ w + b
    if act == "relu":
        # the value is NaN where x @ w + b is, so this mask is (x @ w + b > 0)
        g = ops.mul(g, ops.constant(n.value > 0.0))
    elif act == "tanh":
        (g,) = _vjp_tanh(ops, g, n, live)  # it reads only the node's own value
    elif act == "softplus":
        # the pre-activation is rebuilt, not taken as a constant, so that with
        # create_graph the result stays differentiable in x, w and b
        pre = ops.dense(ops.as_node(x), ops.as_node(w), ops.as_node(b), "linear")
        g = ops.mul(g, ops.sigmoid(pre))
    gx = ops.matmul(g, ops.transpose(ops.as_node(w))) if x in live else None
    gw = ops.matmul(ops.transpose(ops.as_node(x)), g) if w in live else None
    gb = ops.sum_axis0(g) if b in live else None
    return (gx, gw, gb)


def _vjp_tanh(ops, g, n, live):
    return (ops.mul(g, ops.sub(ops.constant(np.array(1.0)), ops.square(ops.as_node(n)))),)


def _vjp_sigmoid(ops, g, n, live):
    y = ops.as_node(n)
    return (ops.mul(g, ops.mul(y, ops.sub(ops.constant(np.array(1.0)), y))),)


def _vjp_softplus(ops, g, n, live):
    return (ops.mul(g, ops.sigmoid(ops.as_node(n.parents[0]))),)


def _vjp_exp(ops, g, n, live):
    return (ops.mul(g, ops.as_node(n)),)


def _vjp_log(ops, g, n, live):
    return (ops.mul(g, ops.power(ops.as_node(n.parents[0]), -1.0)),)


def _vjp_square(ops, g, n, live):
    return (ops.scale(ops.mul(g, ops.as_node(n.parents[0])), 2.0),)


def _vjp_power(ops, g, n, live):
    p = n.attrs[0]
    return (ops.scale(ops.mul(g, ops.power(ops.as_node(n.parents[0]), p - 1.0)), p),)


def _vjp_absval(ops, g, n, live):
    return (ops.mul(g, ops.constant(np.sign(n.parents[0].value))),)


def _vjp_minimum(ops, g, n, live):
    a, b = n.parents
    mask = a.value <= b.value
    ga = ops.mul(g, ops.constant(mask)) if a in live else None
    gb = ops.mul(g, ops.constant(~mask)) if b in live else None
    return (ga, gb)


def _vjp_clip(ops, g, n, live):
    lo, hi = n.attrs
    x = n.parents[0].value
    return (ops.mul(g, ops.constant((x > lo) & (x < hi))),)


def _vjp_reduce(ops, g, n, live):
    # asum, sum_axis0, sum_axis1 and sum_to: spread g back over the input
    return (ops.broadcast(g, n.parents[0].value.shape),)


def _vjp_broadcast(ops, g, n, live):
    return (ops.sum_to(g, n.parents[0].value.shape),)


def _vjp_concat(ops, g, n, live):
    offs, _total = n.attrs
    return tuple(ops.slice_cols(g, o, o + p.value.shape[1]) if p in live else None
                 for p, o in zip(n.parents, offs))


def _vjp_slice_cols(ops, g, n, live):
    i0, _i1 = n.attrs
    return (ops.pad_cols(g, i0, n.parents[0].value.shape[1]),)


def _vjp_pad_cols(ops, g, n, live):
    i0, _total = n.attrs
    return (ops.slice_cols(g, i0, i0 + n.parents[0].value.shape[1]),)


def _vjp_transpose(ops, g, n, live):
    return (ops.transpose(g),)


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
    get zero gradients. With ``create_graph=True`` the results are Nodes
    and remain differentiable, which is what enables second-order
    gradients through an inner update step.

    Only the nodes on a path from ``output`` to an entry of ``wrt`` are
    walked, in reverse post-order, so a branch that reaches no entry gets
    no VJP and, with ``create_graph=True``, builds no Node. Each returned
    gradient has the same bits whatever the other entries of ``wrt`` are.

    Raises ShapeError for a non-scalar output. It does not check for NaN:
    under a raising ``np.errstate`` the op that overflows or makes a NaN
    raises FloatingPointError, and ``raised_at`` names it.
    """
    out = as_node(output)
    if out.value.size != 1:
        raise ShapeError("backward(non-scalar output)", out.value.shape)
    targets = [as_node(w) for w in wrt]
    ops = _graph if create_graph else NumpyOps

    grads: dict[Node, object] = {}
    if out.requires_grad:
        order, live, ends = _live_order(out, set(targets))
        if order:
            grads[out] = ops.constant(np.ones(out.value.shape, dtype=DTYPE))
        vjps = _VJP
        for node in reversed(order):
            if node in ends:
                continue
            for p, c in zip(node.parents, vjps[node.op](ops, grads[node], node, live)):
                if c is not None:
                    prev = grads.get(p)
                    grads[p] = c if prev is None else ops.add(prev, c)
    return [grads[t] if t in grads else ops.constant(np.zeros(t.value.shape, dtype=DTYPE))
            for t in targets]


def raised_at(tb) -> tuple[str, str]:
    """``(primitive, kind)``, kind "forward" or "backward", of the op a traceback ends in.

    Reads this module's frames from the outermost in. The outermost
    ``_vjp_<op>`` rule names the backward of its node, so the primitives a
    create-graph rule calls do not hide it; ``backward``'s own arithmetic
    is the ``add`` that sums gradients. Otherwise the innermost primitive
    names the forward: a factory closure, whose local ``name`` holds the
    primitive's, or a function named after one; formula lambdas are
    skipped. Returns ("", "") when no such frame is on ``tb``.
    """
    op = kind = ""
    while tb is not None:
        frame, tb = tb.tb_frame, tb.tb_next
        if frame.f_globals is not _graph.__dict__:
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


def reaches(node: Node, targets: Iterable[Node]) -> bool:
    """True if any of ``targets`` is reachable from ``node`` through parents."""
    wanted = {as_node(t) for t in targets}
    seen: set[Node] = set()
    stack = [as_node(node)]
    while stack:
        n = stack.pop()
        if n in wanted:
            return True
        if n in seen:
            continue
        seen.add(n)
        stack.extend(n.parents)
    return False
