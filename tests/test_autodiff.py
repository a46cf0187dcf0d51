import numpy as np
import pytest

from mcrl import autodiff as ad


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def test_evaluate_trivial_values():
    x = ad.Variable(np.array(0.0))
    assert ad.evaluate(ad.tanh(x)) == pytest.approx(0.0)
    assert ad.evaluate(ad.softplus(x)) == pytest.approx(np.log(2.0))
    m = ad.mean(ad.constant(np.array([1.0, 2.0, 3.0])))
    assert ad.evaluate(m) == pytest.approx(2.0)


def test_backward_tanh_at_zero():
    x = ad.Variable(np.array(0.0))
    (g,) = ad.backward(ad.tanh(x), [x])
    assert g == pytest.approx(1.0)


def test_second_derivative_of_cube():
    x = ad.Variable(np.array(2.0))
    y = ad.mul(ad.mul(x, x), x)
    (g,) = ad.backward(y, [x], create_graph=True)
    assert ad.evaluate(g) == pytest.approx(12.0)  # 3x^2
    (g2,) = ad.backward(g, [x])
    assert g2 == pytest.approx(12.0)  # 6x


def test_fd_gradient_parabola_and_constant():
    g = ad.fd_gradient(lambda v: float(v**2), np.array(3.0), epsilon=1e-4)
    assert abs(g - 6.0) < 1e-7
    g0 = ad.fd_gradient(lambda v: 5.0, np.array([1.0, 2.0]))
    assert np.all(g0 == 0.0)
    with pytest.raises(ValueError):
        ad.fd_gradient(lambda v: 0.0, np.array(1.0), epsilon=0.0)


def test_non_scalar_output_rejected():
    x = ad.Variable(np.zeros((2, 2)))
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.relu(x), [x])


def test_shape_mismatch_error_names_primitive():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((3, 2)))
    with pytest.raises(ad.ShapeError) as ei:
        ad.add(a, b)
    assert ei.value.op == "add"
    assert (2, 3) in ei.value.shapes


def test_nan_gradient_error_names_primitive():
    x = ad.Variable(np.array(-1.0))
    # log(-1) is NaN; the exp vjp multiplies by that NaN value, so the
    # gradient flowing into the log node is NaN and must be flagged.
    with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
        y = ad.exp(ad.log(x))
    with pytest.raises(ad.NanGradientError) as ei:
        ad.backward(y, [x])
    assert ei.value.op == "log"


def test_nan_gradient_error_names_interior_primitive():
    # log of negative pre-activations makes NaN values; the first vjp that
    # multiplies by one is the square's, whose output gradient flows into
    # the matmul node, so the error names matmul, not the log further down
    rng = np.random.default_rng(3)
    w1 = ad.Variable(rng.normal(size=(3, 4)))
    b1 = ad.Variable(rng.normal(size=4))
    w2 = ad.Variable(rng.normal(size=(4, 2)))
    x = ad.constant(rng.normal(size=(5, 3)))
    with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
        h = ad.tanh(ad.log(ad.affine(x, w1, b1)))
    y = ad.mean(ad.square(ad.matmul(h, w2)))
    with pytest.raises(ad.NanGradientError) as ei:
        ad.backward(y, [w1, b1, w2])
    assert ei.value.op == "matmul"


def test_nan_off_the_requested_paths_raises_nothing():
    x = ad.Variable(np.array([0.5, -2.0]))
    z = ad.Variable(np.array(-1.0))
    clean = ad.asum(ad.square(x))
    with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
        poisoned = ad.exp(ad.log(z))
    y = ad.add(clean, poisoned)
    (gx,) = ad.backward(y, [x])
    (want,) = ad.backward(clean, [x])
    assert np.array_equal(gx, want)
    with pytest.raises(ad.NanGradientError) as ei:
        ad.backward(y, [x, z])
    assert ei.value.op == "log"


def test_unreachable_variable_gets_zeros():
    x = ad.Variable(np.ones((2, 2)))
    z = ad.Variable(np.ones(3))
    (gx, gz) = ad.backward(ad.mean(ad.square(x)), [x, z])
    assert gz.shape == (3,)
    assert np.all(gz == 0.0)
    np.testing.assert_allclose(gx, np.full((2, 2), 0.5))  # 2x / 4 at x=1


def _nodes_built(monkeypatch, fn):
    made = []
    real_init = ad.Node.__init__

    def counting_init(node, op, *args, **kwargs):
        made.append(op)
        real_init(node, op, *args, **kwargs)

    monkeypatch.setattr(ad.Node, "__init__", counting_init)
    fn()
    monkeypatch.setattr(ad.Node, "__init__", real_init)
    return made


def test_create_graph_builds_nothing_off_the_requested_paths(monkeypatch):
    rng = np.random.default_rng(4)
    x = ad.Variable(rng.normal(size=(3, 2)))
    z = ad.Variable(rng.normal(size=(3, 2)))
    w = ad.constant(rng.normal(size=(2, 2)))
    f = ad.mean(ad.tanh(ad.matmul(x, w)))
    g = ad.asum(ad.mul(ad.exp(z), ad.sigmoid(z)))
    y = ad.add(f, g)
    alone = _nodes_built(monkeypatch, lambda: ad.backward(f, [x], create_graph=True))
    both = _nodes_built(monkeypatch, lambda: ad.backward(y, [x], create_graph=True))
    assert alone
    assert both == alone


def test_constant_blocks_gradient():
    x = ad.Variable(np.array([1.0, 2.0]))
    straight = ad.asum(ad.square(x))
    blocked = ad.asum(ad.square(ad.constant(x.value)))
    y = ad.add(straight, blocked)
    (g,) = ad.backward(y, [x])
    np.testing.assert_allclose(g, 2.0 * x.value)


def test_backward_deterministic_bit_identical():
    rng = np.random.default_rng(7)
    w = ad.Variable(rng.normal(size=(5, 5)))
    x = ad.constant(rng.normal(size=(4, 5)))
    y = ad.mean(ad.tanh(ad.matmul(x, w)))
    (g1,) = ad.backward(y, [w])
    (g2,) = ad.backward(y, [w])
    assert np.array_equal(g1, g2)


def _mlp_scalar(params, x, acts):
    """Forward a small MLP given Variables [(W, b), ...]; scalar mean output."""
    h = ad.constant(x)
    for (w, b), act in zip(params, acts):
        h = ad.affine(h, w, b)
        h = act(h)
    return ad.mean(h)


def test_perceptron_gradient_matches_fd():
    rng = np.random.default_rng(0)
    w1 = ad.Variable(rng.normal(size=(8, 8)) * 0.5, "w1")
    b1 = ad.Variable(rng.normal(size=8) * 0.1, "b1")
    w2 = ad.Variable(rng.normal(size=(8, 1)) * 0.5, "w2")
    b2 = ad.Variable(rng.normal(size=1) * 0.1, "b2")
    x = rng.normal(size=(4, 8))

    def loss_with(var, arr):
        old = var.value.copy()
        var.set_value(arr)
        out = float(ad.evaluate(_mlp_scalar([(w1, b1), (w2, b2)], x, [ad.tanh, lambda h: h])))
        var.set_value(old)
        return out

    y = _mlp_scalar([(w1, b1), (w2, b2)], x, [ad.tanh, lambda h: h])
    grads = ad.backward(y, [w1, b1, w2, b2])
    for var, g in zip([w1, b1, w2, b2], grads):
        fd = ad.fd_gradient(lambda a, v=var: loss_with(v, a), var.value, epsilon=1e-4)
        assert rel_err(g, fd) < 1e-5


PRIMITIVE_CASES = [
    ("add", lambda x: ad.add(x, ad.constant(np.array([0.3, -0.7, 1.1])))),
    ("add_bias", lambda x: ad.add(ad.constant(np.ones((2, 3))), x)),
    ("sub", lambda x: ad.sub(ad.constant(np.array(0.5)), x)),
    ("neg", ad.neg),
    ("mul", lambda x: ad.mul(x, ad.constant(np.array([1.5, -2.0, 0.25])))),
    ("scale", lambda x: ad.scale(x, -1.7)),
    ("relu", ad.relu),
    ("tanh", ad.tanh),
    ("sigmoid", ad.sigmoid),
    ("softplus", ad.softplus),
    ("exp", ad.exp),
    ("square", ad.square),
    ("absval", ad.absval),
    ("minimum", lambda x: ad.minimum(x, ad.constant(np.array([0.1, -0.4, 0.9])))),
    ("clip", lambda x: ad.clip(x, -0.5, 0.5)),
    ("power3", lambda x: ad.power(x, 3.0)),
]


@pytest.mark.parametrize("name,fn", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_each_primitive_matches_fd(name, fn):
    rng = np.random.default_rng(hash(name) % 2**32)
    x0 = rng.uniform(-0.45, 0.45, size=3) + 0.6  # keep away from kinks/clip edges
    if name in ("relu", "tanh", "sigmoid", "softplus", "neg", "square",
                "absval", "minimum", "clip", "scale", "exp", "mul",
                "add", "sub", "add_bias"):
        x0 = rng.uniform(-0.45, 0.45, size=3) + np.array([0.8, -0.9, 0.2])
    v = ad.Variable(x0)
    y = ad.mean(fn(v))
    (g,) = ad.backward(y, [v])

    def f(a):
        vv = ad.Variable(a)
        return float(ad.evaluate(ad.mean(fn(vv))))

    fd = ad.fd_gradient(f, x0, epsilon=1e-5)
    assert rel_err(g, fd) < 1e-5


def test_log_and_matmul_and_concat_match_fd():
    rng = np.random.default_rng(3)
    a0 = rng.uniform(0.5, 2.0, size=(3, 2))
    m0 = rng.normal(size=(2, 4))

    def build(a_arr, m_arr):
        a = ad.Variable(a_arr)
        m = ad.Variable(m_arr)
        # constant blocks stay pinned at the base point so FD probes move
        # only the Variable under test
        h = ad.concat([ad.log(a), ad.matmul(a, ad.constant(m0)), ad.matmul(ad.constant(a0), m)])
        return a, m, ad.mean(ad.square(h))

    a, m, y = build(a0, m0)
    ga, gm = ad.backward(y, [a, m])
    fd_a = ad.fd_gradient(lambda arr: float(ad.evaluate(build(arr, m0)[2])), a0, 1e-5)
    fd_m = ad.fd_gradient(lambda arr: float(ad.evaluate(build(a0, arr)[2])), m0, 1e-5)
    assert rel_err(ga, fd_a) < 1e-5
    assert rel_err(gm, fd_m) < 1e-5


def test_gaussian_log_density_matches_fd():
    rng = np.random.default_rng(11)
    mu0 = rng.normal(size=(4, 2))
    ls0 = rng.uniform(-1.0, 0.5, size=(4, 2))
    x = rng.normal(size=(4, 2))

    def build(mu_arr, ls_arr):
        mu = ad.Variable(mu_arr)
        ls = ad.Variable(ls_arr)
        return mu, ls, ad.mean(ad.gaussian_log_density(ad.constant(x), mu, ls))

    mu, ls, y = build(mu0, ls0)
    gmu, gls = ad.backward(y, [mu, ls])
    assert rel_err(gmu, ad.fd_gradient(lambda a: float(ad.evaluate(build(a, ls0)[2])), mu0, 1e-5)) < 1e-5
    assert rel_err(gls, ad.fd_gradient(lambda a: float(ad.evaluate(build(mu0, a)[2])), ls0, 1e-5)) < 1e-5


def test_gaussian_sample_zero_noise_is_mean():
    mu = ad.constant(np.array([[0.3, -0.2]]))
    ls = ad.constant(np.array([[0.1, 0.4]]))
    s = ad.gaussian_sample(mu, ls, np.zeros((1, 2)))
    np.testing.assert_allclose(ad.evaluate(s), mu.value)


def _rand(rng, *shape):
    return rng.normal(size=shape)


# op name -> argument factory: the raw-array arguments of one forward call;
# the graph primitive of the same name gets them wrapped as constants. A
# suffix after "-" only tells apart cases of the same op.
_NUMPY_OPS_CASES = {
    "add": lambda r: (_rand(r, 4, 3), _rand(r, 3)),
    "sub": lambda r: (_rand(r, 4, 3), _rand(r, 4, 3)),
    "neg": lambda r: (_rand(r, 4, 3),),
    "mul": lambda r: (_rand(r, 4, 3), _rand(r, 4, 1)),
    "scale": lambda r: (_rand(r, 4, 3), 0.37),
    "matmul": lambda r: (_rand(r, 4, 3), _rand(r, 3, 5)),
    "affine": lambda r: (_rand(r, 4, 3), _rand(r, 3, 5), _rand(r, 5)),
    "exp": lambda r: (_rand(r, 4, 3),),
    "log": lambda r: (np.abs(_rand(r, 4, 3)) + 0.1,),
    "tanh": lambda r: (_rand(r, 4, 3) * 3,),
    "relu": lambda r: (_rand(r, 4, 3),),
    "softplus": lambda r: (_rand(r, 4, 3) * 5,),
    "sigmoid": lambda r: (_rand(r, 4, 3) * 5,),
    "square": lambda r: (_rand(r, 4, 3),),
    "power": lambda r: (np.abs(_rand(r, 4, 3)) + 0.1, -1.0),
    "absval": lambda r: (_rand(r, 4, 3),),
    "asum": lambda r: (_rand(r, 4, 3),),
    "minimum": lambda r: (_rand(r, 4, 3), _rand(r, 4, 3)),
    "clip": lambda r: (_rand(r, 4, 3) * 3, -1.0, 2.0),
    "mean": lambda r: (_rand(r, 4, 3),),
    "sum_axis0": lambda r: (_rand(r, 4, 3),),
    "sum_axis1": lambda r: (_rand(r, 4, 3),),
    "sum_to": lambda r: (_rand(r, 4, 3), (1, 3)),
    "broadcast": lambda r: (_rand(r, 3), (4, 3)),
    "concat": lambda r: ([_rand(r, 4, 3), _rand(r, 4, 2)],),
    "slice_cols": lambda r: (_rand(r, 4, 5), 1, 4),
    "pad_cols": lambda r: (_rand(r, 4, 2), 1, 5),
    "transpose": lambda r: (_rand(r, 4, 3),),
    "as_node-array": lambda r: (_rand(r, 4, 3),),
    "as_node-variable": lambda r: (ad.Variable(_rand(r, 4, 3)),),
    "as_node-node": lambda r: (ad.tanh(ad.Variable(_rand(r, 4, 3))),),
    "evaluate-array": lambda r: (_rand(r, 4, 3),),
    "evaluate-node": lambda r: (ad.tanh(ad.Variable(_rand(r, 4, 3))),),
}


def _as_graph_arg(arg):
    if isinstance(arg, np.ndarray):
        return ad.constant(arg)
    if isinstance(arg, list):
        return [ad.constant(a) for a in arg]
    return arg


@pytest.mark.parametrize("name", sorted(set(ad._VJP) | {"mean"} | set(_NUMPY_OPS_CASES)))
def test_numpy_ops_match_graph_primitives_bit_for_bit(name):
    # every primitive with a backward rule, so a primitive without a case fails
    assert name in _NUMPY_OPS_CASES, f"no case for the primitive {name!r}"
    make_args = _NUMPY_OPS_CASES[name]
    for seed in range(5):
        args = make_args(np.random.default_rng(seed))
        op = name.split("-")[0]
        raw = getattr(ad.NumpyOps, op)(*args)
        graph = ad.evaluate(getattr(ad, op)(*(_as_graph_arg(a) for a in args)))
        assert type(raw) is not ad.Node
        assert np.shape(raw) == graph.shape
        assert np.array_equal(raw, graph), name


# op -> (shape of x, shape of z, expression over the Variables x and z that
# applies the op); the backward rules are shared by both modes, so each must
# give the same bits in both
_VJP_CASES = {
    "add": ((4, 3), (3,), lambda x, z: ad.add(x, z)),
    "sub": ((4, 3), (4, 1), lambda x, z: ad.sub(x, z)),
    "neg": ((4, 3), (1,), lambda x, z: ad.neg(x)),
    "mul": ((4, 3), (4, 1), lambda x, z: ad.mul(x, z)),
    "scale": ((4, 3), (1,), lambda x, z: ad.scale(x, -1.7)),
    "matmul": ((4, 3), (3, 2), lambda x, z: ad.matmul(x, z)),
    "affine": ((4, 3), (3, 2), lambda x, z: ad.affine(x, z, ad.sum_axis0(z))),
    "relu": ((4, 3), (1,), lambda x, z: ad.relu(x)),
    "tanh": ((4, 3), (1,), lambda x, z: ad.tanh(x)),
    "sigmoid": ((4, 3), (1,), lambda x, z: ad.sigmoid(x)),
    "softplus": ((4, 3), (1,), lambda x, z: ad.softplus(x)),
    "exp": ((4, 3), (1,), lambda x, z: ad.exp(x)),
    "log": ((4, 3), (1,), lambda x, z: ad.log(ad.add(ad.square(x), z))),
    "square": ((4, 3), (1,), lambda x, z: ad.square(x)),
    "power": ((4, 3), (1,), lambda x, z: ad.power(ad.absval(x), -1.5)),
    "absval": ((4, 3), (1,), lambda x, z: ad.absval(x)),
    "minimum": ((4, 3), (4, 3), lambda x, z: ad.minimum(x, z)),
    "clip": ((4, 3), (1,), lambda x, z: ad.clip(x, -0.5, 0.5)),
    "asum": ((4, 3), (1,), lambda x, z: ad.asum(x)),
    "sum_axis0": ((4, 3), (1,), lambda x, z: ad.sum_axis0(x)),
    "sum_axis1": ((4, 3), (1,), lambda x, z: ad.sum_axis1(x)),
    "broadcast": ((4, 3), (3,), lambda x, z: ad.mul(x, ad.broadcast(z, (4, 3)))),
    "sum_to": ((4, 3), (1,), lambda x, z: ad.sum_to(x, (1, 3))),
    "concat": ((4, 3), (4, 2), lambda x, z: ad.concat([x, z])),
    "slice_cols": ((4, 3), (1,), lambda x, z: ad.slice_cols(x, 1, 3)),
    "pad_cols": ((4, 3), (1,), lambda x, z: ad.pad_cols(x, 2, 6)),
    "transpose": ((4, 3), (1,), lambda x, z: ad.transpose(x)),
}


def _ops_reached(node):
    seen, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(n.parents)
    return {n.op for n in seen}


@pytest.mark.parametrize("op", sorted(ad._VJP))
def test_first_order_and_create_graph_gradients_agree_bit_for_bit(op):
    assert op in _VJP_CASES, f"no case for the backward rule of {op!r}"
    x_shape, z_shape, fn = _VJP_CASES[op]
    rng = np.random.default_rng(sorted(ad._VJP).index(op))
    x = ad.Variable(rng.normal(size=x_shape))
    z = ad.Variable(np.abs(rng.normal(size=z_shape)) + 0.1)
    out = fn(x, z)
    assert op in _ops_reached(out)
    # a random cotangent, so every rule sees an upstream gradient that is not all ones
    y = ad.asum(ad.mul(out, ad.constant(rng.normal(size=out.shape))))
    first = ad.backward(y, [x, z])
    graph = ad.backward(y, [x, z], create_graph=True)
    for g1, g2 in zip(first, graph):
        assert type(g1) is np.ndarray and type(g2) is ad.Node
        assert np.array_equal(g1, g2.value), op


def _random_composition(rng, w_arr=None, b_arr=None):
    """A random small scalar-valued expression over two parameter tensors.

    The structure and default values are drawn from rng; w_arr / b_arr
    override the parameter values so FD probes can rebuild the identical
    graph at perturbed points.
    """
    n, d, h = int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 6))
    w_default = rng.normal(size=(d, h)) * 0.7  # always drawn, keeps rng state aligned
    b_default = rng.normal(size=h) * 0.3
    w = ad.Variable(w_default if w_arr is None else w_arr, "w")
    b = ad.Variable(b_default if b_arr is None else b_arr, "b")
    x = ad.constant(rng.normal(size=(n, d)))
    z = ad.affine(x, w, b)
    acts = [ad.tanh, ad.relu, ad.softplus, ad.sigmoid,
            lambda t: ad.clip(t, -0.8, 0.8), ad.square, ad.absval]
    z = acts[int(rng.integers(0, len(acts)))](z)
    z = ad.minimum(z, ad.tanh(ad.affine(x, w, b)))
    red = [ad.mean, lambda t: ad.scale(ad.asum(t), 1e-2),
           lambda t: ad.mean(ad.sum_axis1(t)),
           lambda t: ad.mean(ad.exp(ad.scale(t, 0.3)))]
    y = red[int(rng.integers(0, len(red)))](z)
    return w, b, x, y


def test_fifty_random_compositions_match_fd():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        seed_state = int(rng.integers(0, 2**31))
        w, b, _, y = _random_composition(np.random.default_rng(seed_state))
        gw, gb = ad.backward(y, [w, b])

        def make_loss(w_arr, b_arr):
            _, _, _, y2 = _random_composition(np.random.default_rng(seed_state),
                                              w_arr=w_arr, b_arr=b_arr)
            return float(ad.evaluate(y2))

        fd_w = ad.fd_gradient(lambda a: make_loss(a, b.value), w.value, 1e-5)
        fd_b = ad.fd_gradient(lambda a: make_loss(w.value, a), b.value, 1e-5)
        assert rel_err(gw, fd_w) < 1e-5, f"trial {trial}"
        assert rel_err(gb, fd_b) < 1e-5, f"trial {trial}"


def test_double_backprop_through_inner_step_matches_fd():
    # g(omega) = f(phi - eta * d h(phi, omega) / d phi); check d g / d omega.
    rng = np.random.default_rng(5)
    for _ in range(5):
        din, dh = 4, 5
        phi_val = rng.normal(size=(din, dh)) * 0.5
        omega = ad.Variable(rng.normal(size=(dh, dh)) * 0.5, "omega")
        xs = rng.normal(size=(3, din))
        wf = rng.normal(size=(dh, 1))

        def outer(omega_node_or_var):
            phi = ad.Variable(phi_val, "phi")
            h = ad.mean(ad.square(ad.tanh(ad.matmul(ad.matmul(ad.constant(xs), phi),
                                                    ad.as_node(omega_node_or_var)))))
            (gphi,) = ad.backward(h, [phi], create_graph=True)
            phi_new = ad.sub(ad.constant(phi_val), ad.scale(gphi, 0.1))
            f = ad.mean(ad.tanh(ad.matmul(ad.matmul(ad.constant(xs), phi_new),
                                          ad.constant(wf))))
            return f

        y = outer(omega)
        (gom,) = ad.backward(y, [omega])
        fd = ad.fd_gradient(lambda a: _outer_value(a, phi_val, xs, wf),
                            omega.value, 1e-5)
        assert rel_err(gom, fd, floor=1e-8) < 1e-4


def _outer_value(omega_arr, phi_val, xs, wf):
    om = ad.Variable(omega_arr, "om")
    phi = ad.Variable(phi_val, "phi")
    h = ad.mean(ad.square(ad.tanh(ad.matmul(ad.matmul(ad.constant(xs), phi), om))))
    (gphi,) = ad.backward(h, [phi], create_graph=True)
    phi_new = ad.sub(ad.constant(phi_val), ad.scale(gphi, 0.1))
    f = ad.mean(ad.tanh(ad.matmul(ad.matmul(ad.constant(xs), phi_new), ad.constant(wf))))
    return float(ad.evaluate(f))


def test_reaches_helper():
    x = ad.Variable(np.array(1.0))
    y = ad.square(ad.tanh(x))
    assert ad.reaches(y, [x.node])
    z = ad.Variable(np.array(2.0))
    assert not ad.reaches(y, [z.node])


def test_interior_diamond_accumulates_before_propagation():
    # r = m + 2*m with m = 1*x: the shared interior node m must receive the
    # contributions from both consumers before its own vjp runs
    x = ad.Variable(np.array(1.0))
    m = ad.scale(x, 1.0)
    y = ad.scale(m, 2.0)
    (g,) = ad.backward(ad.add(m, y), [x])
    assert g == 3.0
    (g2,) = ad.backward(ad.add(y, m), [x])
    assert g2 == 3.0
