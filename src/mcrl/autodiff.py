"""Reverse-mode automatic differentiation on dense float64 arrays.

The engine is a define-by-run tape: every primitive produces a `Node`
holding its value, the primitive kind, and references to its parents.
``backward`` walks, once and in reverse topological order, only the
nodes on a path from the output to a requested gradient, and
accumulates vector-Jacobian products there; it checks the returned
gradients for NaN once and walks again with a per-node check only to
name the primitive a NaN came from.

There are two ops namespaces. ``NumpyOps`` is the one place each
primitive's value formula is written: its ops compute on plain arrays and
build no Node. Each primitive of this module checks shapes, takes its
value from the ``NumpyOps`` op of the same name and records one Node, so
the two namespaces give the same bits. A forward written once against an
``ops`` argument runs on either. Each backward rule is written the same
way: ``backward`` runs it on ``NumpyOps`` by default and on this module
with ``create_graph=True``, where the returned gradients are themselves
differentiable Nodes, so a second backward pass yields mixed second
derivatives such as the derivative of a gradient step with respect to
parameters of the loss that produced it. Both modes give the same
gradient bits.

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

_graph = sys.modules[__name__]  # the graph ops namespace: this module


class AutodiffError(Exception):
    """Base class for graph construction and backward errors."""


class ShapeError(AutodiffError):
    """Operand shapes incompatible for a primitive."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = shapes
        super().__init__(f"{op}: incompatible shapes {' vs '.join(map(str, shapes))}")


class NanGradientError(AutodiffError):
    """A NaN appeared in the gradient flowing out of a primitive."""

    def __init__(self, op: str):
        self.op = op
        super().__init__(f"NaN gradient produced at primitive '{op}'")


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


class Variable:
    """A named leaf Node whose value can be replaced (shape is fixed)."""

    __slots__ = ("node", "name")

    def __init__(self, value, name: str = ""):
        self.node = Node("leaf", _arr(value), (), (), requires_grad=True)
        self.name = name

    @property
    def value(self) -> np.ndarray:
        return self.node.value

    @property
    def shape(self):
        return self.node.value.shape

    def set_value(self, value) -> None:
        v = _arr(value)
        if v.shape != self.node.value.shape:
            raise ShapeError("set_value", self.node.value.shape, v.shape)
        self.node.value = v

    def __repr__(self):
        return f"Variable({self.name!r}, shape={self.shape})"


def constant(value) -> Node:
    """Wrap an array as a non-differentiable leaf."""
    return Node("const", _arr(value), (), (), requires_grad=False)


def as_node(x) -> Node:
    t = type(x)
    if t is Node:
        return x
    if t is Variable:
        return x.node
    return constant(x)


def evaluate(expr) -> np.ndarray:
    """Numeric value of an expression; does not touch graph structure."""
    return as_node(expr).value


# ---------------------------------------------------------------------------
# the raw-array ops namespace: every value formula
# ---------------------------------------------------------------------------

class NumpyOps:
    """The raw-array ops namespace, where each primitive's value formula lives.

    Each op computes its value on plain arrays and builds no Node. The
    graph primitive of the same name checks shapes, calls the op here for
    its value and records one Node, so the two namespaces give the same
    bits by construction. A forward written once against an ops namespace
    (the compositions below, ``nets``, ``offpac.actor_loss``) runs on the
    graph with this module as ``ops`` and on plain arrays with
    ``ops=NumpyOps``. ``as_node`` and ``evaluate`` unwrap a Variable or a
    Node to its value. The backward rules run on this class unless
    ``create_graph=True``.
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
    matmul = staticmethod(np.matmul)
    exp = staticmethod(np.exp)
    log = staticmethod(np.log)
    tanh = staticmethod(np.tanh)
    absval = staticmethod(np.abs)
    minimum = staticmethod(np.minimum)
    clip = staticmethod(np.clip)
    square = staticmethod(lambda a: a * a)
    power = staticmethod(lambda a, p: a ** p)
    relu = staticmethod(lambda a: np.maximum(a, 0.0))
    softplus = staticmethod(lambda a: np.logaddexp(0.0, a))
    # 0.5*(1+tanh(x/2)) is overflow-free for large |x|
    sigmoid = staticmethod(lambda a: 0.5 * (1.0 + np.tanh(0.5 * a)))
    affine = staticmethod(lambda x, w, b: x @ w + b)
    # sum of all elements, as a 0-d array
    asum = staticmethod(lambda a: np.asarray(a.sum(), dtype=DTYPE))
    sum_axis0 = staticmethod(lambda a: a.sum(axis=0))
    sum_axis1 = staticmethod(lambda a: a.sum(axis=1, keepdims=True))
    broadcast = staticmethod(np.broadcast_to)
    concat = staticmethod(lambda parts: np.concatenate(parts, axis=1))
    slice_cols = staticmethod(lambda a, i0, i1: a[:, i0:i1])
    transpose = staticmethod(lambda a: a.T)

    @staticmethod
    def mean(a):
        # the module-level composition, which both namespaces share
        return mean(a, NumpyOps)

    @staticmethod
    def sum_to(g, shape):
        if g.shape == tuple(shape):
            return g
        while g.ndim > len(shape):
            g = g.sum(axis=0)
        for i, (gs, s) in enumerate(zip(g.shape, shape)):
            if s == 1 and gs != 1:
                g = g.sum(axis=i, keepdims=True)
        return g.reshape(shape)

    @staticmethod
    def pad_cols(a, i0, total):
        v = np.zeros((a.shape[0], total), dtype=DTYPE)
        v[:, i0:i0 + a.shape[1]] = a
        return v


# ---------------------------------------------------------------------------
# graph primitives: shape checks around the NumpyOps value, one Node each
# ---------------------------------------------------------------------------

def _binary_shapes_ok(a: np.ndarray, b: np.ndarray) -> bool:
    # supported: equal shapes, either side scalar, and row-broadcast
    # (N, D) op (D,). Anything else is rejected rather than silently
    # numpy-broadcast.
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return True
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        return True
    if b.ndim == 2 and a.ndim == 1 and b.shape[1] == a.shape[0]:
        return True
    if a.ndim == 2 and b.ndim == 2 and a.shape[0] == b.shape[0] and (a.shape[1] == 1 or b.shape[1] == 1):
        return True
    return False


def _unary(name: str) -> Callable[..., Node]:
    """The graph primitive ``name``: one input, any shape, no attrs."""
    value = getattr(NumpyOps, name)

    def primitive(a) -> Node:
        a = as_node(a)
        return Node(name, value(a.value), (a,))

    primitive.__name__ = primitive.__qualname__ = name
    return primitive


def _binary(name: str) -> Callable[..., Node]:
    """The graph primitive ``name``: two inputs whose shapes pass ``_binary_shapes_ok``."""
    value = getattr(NumpyOps, name)

    def primitive(a, b) -> Node:
        a, b = as_node(a), as_node(b)
        av, bv = a.value, b.value
        if av.shape != bv.shape and not _binary_shapes_ok(av, bv):
            raise ShapeError(name, av.shape, bv.shape)
        return Node(name, value(av, bv), (a, b))

    primitive.__name__ = primitive.__qualname__ = name
    return primitive


add, sub, mul = (_binary(name) for name in ("add", "sub", "mul"))
neg, relu, tanh, sigmoid, softplus, exp, log, square, absval, asum = (
    _unary(name) for name in
    ("neg", "relu", "tanh", "sigmoid", "softplus", "exp", "log", "square", "absval", "asum"))


def scale(a, c: float) -> Node:
    """Multiply by a python scalar constant (kept out of the graph)."""
    a = as_node(a)
    return Node("scale", NumpyOps.scale(a.value, c), (a,), (float(c),))


def matmul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError("matmul", av.shape, bv.shape)
    return Node("matmul", NumpyOps.matmul(av, bv), (a, b))


def affine(x, w, b) -> Node:
    """Row-wise affine map x @ w + b for x (N, I), w (I, O), b (O,)."""
    x, w, b = as_node(x), as_node(w), as_node(b)
    xv, wv, bv = x.value, w.value, b.value
    if (xv.ndim != 2 or wv.ndim != 2 or bv.ndim != 1
            or xv.shape[1] != wv.shape[0] or wv.shape[1] != bv.shape[0]):
        raise ShapeError("affine", xv.shape, wv.shape, bv.shape)
    return Node("affine", NumpyOps.affine(xv, wv, bv), (x, w, b))


def power(a, p: float) -> Node:
    a = as_node(a)
    return Node("power", NumpyOps.power(a.value, p), (a,), (float(p),))


def minimum(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    if a.value.shape != b.value.shape:
        raise ShapeError("minimum", a.value.shape, b.value.shape)
    return Node("minimum", NumpyOps.minimum(a.value, b.value), (a, b))


def clip(a, lo: float, hi: float) -> Node:
    """Clamp to [lo, hi]; gradient passes only where lo < x < hi holds."""
    a = as_node(a)
    return Node("clip", NumpyOps.clip(a.value, lo, hi), (a,), (float(lo), float(hi)))


def sum_axis0(a) -> Node:
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError("sum_axis0", a.value.shape)
    return Node("sum_axis0", NumpyOps.sum_axis0(a.value), (a,))


def sum_axis1(a) -> Node:
    """Row sums of an (N, D) array, keeping the column axis: result (N, 1)."""
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError("sum_axis1", a.value.shape)
    return Node("sum_axis1", NumpyOps.sum_axis1(a.value), (a,))


def broadcast(a, shape: tuple) -> Node:
    a = as_node(a)
    try:
        v = NumpyOps.broadcast(a.value, shape)
    except ValueError:
        raise ShapeError("broadcast", a.value.shape, shape) from None
    return Node("broadcast", v, (a,), (tuple(shape),))


def sum_to(a, shape: tuple) -> Node:
    """Reduce-sum down to a broadcast-compatible smaller shape."""
    a = as_node(a)
    return Node("sum_to", NumpyOps.sum_to(a.value, tuple(shape)), (a,), (tuple(shape),))


def concat(parts: Sequence, ) -> Node:
    """Concatenate (N, D_i) blocks along axis 1."""
    nodes = [as_node(p) for p in parts]
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


def slice_cols(a, i0: int, i1: int) -> Node:
    a = as_node(a)
    if a.value.ndim != 2 or not (0 <= i0 <= i1 <= a.value.shape[1]):
        raise ShapeError("slice_cols", a.value.shape, (i0, i1))
    return Node("slice_cols", NumpyOps.slice_cols(a.value, i0, i1), (a,), (int(i0), int(i1)))


def pad_cols(a, i0: int, total: int) -> Node:
    """Embed an (N, D) block into (N, total) zeros starting at column i0."""
    a = as_node(a)
    return Node("pad_cols", NumpyOps.pad_cols(a.value, i0, total), (a,), (int(i0), int(total)))


def transpose(a) -> Node:
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError("transpose", a.value.shape)
    return Node("transpose", NumpyOps.transpose(a.value), (a,))


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
    """Row-wise diagonal-gaussian log density, shape (N, 1)."""
    x = ops.as_node(x)
    z = ops.mul(ops.sub(x, mean_), ops.exp(ops.neg(log_std)))
    per = ops.sub(ops.scale(ops.square(z), -0.5), log_std)
    return ops.add(ops.sum_axis1(per), ops.constant(np.array(-0.5 * LOG_2PI) * x.shape[1]))


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


def _vjp_affine(ops, g, n, live):
    x, w, b = n.parents
    gx = ops.matmul(g, ops.transpose(ops.as_node(w))) if x in live else None
    gw = ops.matmul(ops.transpose(ops.as_node(x)), g) if w in live else None
    gb = ops.sum_axis0(g) if b in live else None
    return (gx, gw, gb)


def _vjp_relu(ops, g, n, live):
    return (ops.mul(g, ops.constant(n.parents[0].value > 0.0)),)


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
    "scale": _vjp_scale, "matmul": _vjp_matmul, "affine": _vjp_affine,
    "relu": _vjp_relu, "tanh": _vjp_tanh, "sigmoid": _vjp_sigmoid,
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


def _walk(out: Node, targets: list[Node], ops, check: bool) -> dict:
    """Accumulate VJPs from ``out`` over the live nodes in reverse post-order.

    Returns the gradient of each live node, keyed on the node. With
    ``check`` it raises NanGradientError at the first node in the walk
    whose gradient holds a NaN, naming that node's primitive.
    """
    grads: dict[Node, object] = {}
    if not out.requires_grad:
        return grads
    order, live, ends = _live_order(out, set(targets))
    if not order:
        return grads
    grads[out] = ops.constant(np.ones(out.value.shape, dtype=DTYPE))
    vjps = _VJP
    for node in reversed(order):
        g = grads[node]
        if check:
            m = ops.evaluate(g).min()  # min propagates NaN
            if m != m:
                raise NanGradientError(node.op)
        if node in ends:
            continue
        for p, c in zip(node.parents, vjps[node.op](ops, g, node, live)):
            if c is not None:
                prev = grads.get(p)
                grads[p] = c if prev is None else ops.add(prev, c)
    return grads


def backward(output, wrt: Iterable, create_graph: bool = False) -> list:
    """Gradients of a scalar expression with respect to ``wrt``.

    Returns one gradient per entry of ``wrt`` (Variables or Nodes), each
    shaped like the entry's value. Entries unreachable from ``output``
    get zero gradients. With ``create_graph=True`` the results are Nodes
    and remain differentiable, which is what enables second-order
    gradients through an inner update step.

    Only the nodes on a path from ``output`` to an entry of ``wrt`` are
    walked, so a branch that reaches no entry gets no VJP and, with
    ``create_graph=True``, builds no Node. Each returned gradient has the
    same bits whatever the other entries of ``wrt`` are.

    Raises ShapeError for a non-scalar output. Raises NanGradientError
    when a returned gradient holds a NaN, naming the first primitive in
    the reverse walk whose output gradient held one; a NaN confined to a
    branch that reaches no entry of ``wrt`` raises nothing.
    """
    out = as_node(output)
    if out.value.size != 1:
        raise ShapeError("backward(non-scalar output)", out.value.shape)
    targets = [as_node(w) for w in wrt]
    ops = _graph if create_graph else NumpyOps

    grads = _walk(out, targets, ops, check=False)
    results = []
    for t in targets:
        g = grads.get(t)
        if g is None:
            results.append(ops.constant(np.zeros(t.value.shape, dtype=DTYPE)))
            continue
        m = ops.evaluate(g).min()
        if m != m:
            # walk again with the per-node check on; it raises at the source
            _walk(out, targets, ops, check=True)
        results.append(g)
    return results


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
