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


def test_a_variable_copies_its_value_and_set_value_writes_into_its_array():
    x = np.array([1.0, 2.0])
    v = ad.Variable(x)
    kept = v.value
    v.set_value([3.0, -4.0])
    assert v.value is kept and kept.tolist() == [3.0, -4.0]
    assert x.tolist() == [1.0, 2.0]  # the caller's array is untouched
    with pytest.raises(ad.ShapeError):
        v.set_value(np.zeros(3))


def test_pack_makes_views_into_one_flat_and_refuses_to_pack_twice():
    a, b = ad.Variable(np.arange(4.0).reshape(2, 2)), ad.Variable(np.array(7.0))
    flat = ad.pack([a, b], "flat")
    assert flat.value.tolist() == [0.0, 1.0, 2.0, 3.0, 7.0]
    assert ad.evaluate(ad.flat([a, b])).tobytes() == flat.value.tobytes()
    a.set_value(np.full((2, 2), 5.0))
    flat.set_value(flat.value * 2.0)
    assert a.value.tolist() == [[10.0, 10.0], [10.0, 10.0]] and b.value.tolist() == 14.0
    assert a.value.base is flat.value and b.value.base is flat.value
    with pytest.raises(ad.AutodiffError, match="packed already"):
        ad.pack([ad.Variable(np.ones(2)), b], "again")


def test_non_scalar_output_rejected():
    x = ad.Variable(np.zeros((2, 2)))
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.tanh(x), [x])


def test_shape_mismatch_error_names_primitive():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((3, 2)))
    with pytest.raises(ad.ShapeError) as ei:
        ad.add(a, b)
    assert ei.value.op == "add"
    assert (2, 3) in ei.value.shapes
    # numpy's assignment would drop the leading axis of length 1
    with pytest.raises(ad.ShapeError, match="broadcast"):
        ad.broadcast(ad.constant(np.zeros((1, 3))), (3,))


# primitive, suffixed to tell cases apart -> a call that its shape rule
# rejects, as the hand-written wrapper before it did
_REJECTED = {
    "matmul-1d": lambda: ad.matmul(np.ones(3), np.ones((3, 2))),
    "matmul-both-1d": lambda: ad.matmul(np.ones(3), np.ones(3)),
    "matmul-inner": lambda: ad.matmul(np.ones((2, 3)), np.ones((2, 3))),
    "minimum": lambda: ad.minimum(np.ones((4, 3)), np.ones((4, 1))),
    "sum_axis0": lambda: ad.sum_axis0(np.ones(3)),
    "sum_axis1": lambda: ad.sum_axis1(np.ones((2, 3, 4))),
    "transpose": lambda: ad.transpose(np.ones(3)),
    "slice_cols-past-end": lambda: ad.slice_cols(np.ones((2, 3)), 1, 4),
    "slice_cols-reversed": lambda: ad.slice_cols(np.ones((2, 3)), 2, 1),
    "slice_cols-negative": lambda: ad.slice_cols(np.ones((2, 3)), -1, 2),
    # a batch of rows or one 1-D row, nothing else
    "slice_cols-0d": lambda: ad.slice_cols(np.ones(()), 0, 0),
    "slice_cols-3d": lambda: ad.slice_cols(np.ones((2, 3, 4)), 0, 1),
    "sum_axis1-0d": lambda: ad.sum_axis1(np.ones(())),
    "dense-3d": lambda: ad.dense(np.ones((2, 1, 3)), np.ones((3, 5)), np.ones(5), "relu"),
    "dense": lambda: ad.dense(np.ones((2, 3)), np.ones((4, 5)), np.ones(5), "relu"),
    "dense-bias": lambda: ad.dense(np.ones((2, 3)), np.ones((3, 5)), np.ones(4), "relu"),
    "concat": lambda: ad.concat(np.ones((2, 3)), np.ones((3, 3))),
    "concat-empty": lambda: ad.concat(),
    "broadcast": lambda: ad.broadcast(np.ones((2, 3)), (4, 3)),
    # row- and column-broadcasts are not size-1 broadcasts
    "add": lambda: ad.add(np.ones((4, 3)), np.ones(3)),
    "sub": lambda: ad.sub(np.ones(3), np.ones((4, 3))),
    "mul": lambda: ad.mul(np.ones((4, 3)), np.ones((4, 1))),
}


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_shape_rules_reject_what_the_old_wrappers_rejected(name):
    with pytest.raises(ad.ShapeError) as ei:
        _REJECTED[name]()
    assert ei.value.op == name.split("-")[0]


@pytest.mark.parametrize("act", ad.DENSE_ACTS)
def test_a_backward_through_a_row_dense_raises_a_shape_error(act):
    # a 1-D row runs forward only: matmul takes 2-D operands, so the rule's
    # g @ w.T refuses the row's gradient rather than broadcast it
    rng = np.random.default_rng(7)
    x, w, b = (ad.Variable(rng.normal(size=shape)) for shape in ((3,), (3, 4), (4,)))
    y = ad.asum(ad.dense(x, w, b, act))
    with pytest.raises(ad.ShapeError) as ei:
        ad.backward(y, [x, w, b])
    assert ei.value.op == "matmul"
    # without the row's own gradient, the rule's x.T @ g refuses it first
    with pytest.raises(ad.ShapeError) as ei:
        ad.backward(y, [w])
    assert ei.value.op == "transpose"


@pytest.mark.parametrize("op,attrs", [("exp", ()), ("neg", ()), ("absval", ()),
                                      ("scale", (2.0,)), ("clip", (-1.0, 1.0))])
def test_an_extra_array_argument_raises_and_is_not_written(op, attrs):
    # the ufunc behind each op would take the extra array as its out= slot
    x = ad.constant(np.full((2, 3), 0.5))
    extra = np.zeros((2, 3))
    with pytest.raises(TypeError, match=f"{op} takes one input"):
        getattr(ad, op)(x, *attrs, extra)
    assert np.all(extra == 0.0)
    if attrs:
        with pytest.raises(TypeError, match=f"{op} takes one input"):
            getattr(ad, op)(x)


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


def _raised_at(fn):
    """``raised_at`` of the FloatingPointError that ``fn`` raises under a raising errstate."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(FloatingPointError) as ei:
            fn()
    return ad.raised_at(ei.value.__traceback__)


@pytest.mark.parametrize("create_graph", [False, True])
def test_raised_at_names_a_backward_rule_whose_forward_is_finite(create_graph):
    # mul's value is 1 and the output 1e200, but its VJP sends 1e200 * 1e200 to b
    a, b = ad.Variable(np.array(1e200)), ad.Variable(np.array(1e-200))
    z = ad.asum(ad.scale(ad.mul(a, b), 1e200))
    assert np.isfinite(ad.evaluate(z))
    assert _raised_at(lambda: ad.backward(z, [a, b], create_graph)) == ("mul", "backward")


@pytest.mark.parametrize("create_graph", [False, True])
def test_raised_at_names_the_gradient_sum_in_backward(create_graph):
    # each path's gradient is finite; their sum at x overflows
    x = ad.Variable(np.array(0.0))
    z = ad.add(ad.scale(x, 1e308), ad.scale(x, 1e308))
    assert _raised_at(lambda: ad.backward(z, [x], create_graph)) == ("add", "backward")


def test_raised_at_names_the_forward_primitive():
    x = ad.Variable(np.array([1e200]))
    # a factory closure, through a formula lambda
    assert _raised_at(lambda: ad.square(x)) == ("square", "forward")
    # a factory closure that takes attrs
    assert _raised_at(lambda: ad.scale(x, 1e200)) == ("scale", "forward")
    # a hand-written primitive, through its NumpyOps value
    w, b = ad.Variable(np.full((1, 1), 1e200)), ad.Variable(np.zeros(1))
    assert _raised_at(lambda: ad.dense(ad.constant([[1e200]]), w, b, "relu")) == (
        "dense", "forward")
    assert _raised_at(lambda: ad.log(ad.constant(-1.0))) == ("log", "forward")
    # raw numpy outside this module names nothing
    assert _raised_at(lambda: np.array([1e200]) * 1e200) == ("", "")


def test_raised_at_names_a_raw_array_formula():
    # a formula written as a function has a frame named after its primitive
    assert _raised_at(lambda: ad.NumpyOps.square(np.array([1e200]))) == ("square", "forward")
    assert _raised_at(lambda: ad.NumpyOps.asum(np.array([1e308, 1e308]))) == ("asum", "forward")
    # a bare ufunc alias leaves none
    assert _raised_at(lambda: ad.NumpyOps.mul(np.array([1e200]), 1e200)) == ("", "")


def test_clip_formula_gives_np_clip_bytes():
    # NumpyOps.clip is the ufunc that np.clip wraps; a numpy that moves or
    # changes it fails here
    rng = np.random.default_rng(0)
    cases = [np.array([-0.0, 0.0, np.nan, -1.0, 1.0, -np.inf, np.inf, 1e-300]),
             rng.normal(size=128) * 2.0, np.array(-0.0), np.array([[0.5, -3.0]])]
    for x in cases:
        for lo, hi in ((-1.0, 1.0), (-0.0, 0.0), (0.0, 2.0)):
            got, want = ad.NumpyOps.clip(x, lo, hi), np.clip(x, lo, hi)
            assert type(got) is type(want) and got.shape == want.shape
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_unreachable_variable_gets_zeros():
    x = ad.Variable(np.ones((2, 2)))
    z = ad.Variable(np.ones(3))
    (gx, gz) = ad.backward(ad.mean(ad.square(x)), [x, z])
    assert gz.shape == (3,)
    assert np.all(gz == 0.0)
    np.testing.assert_allclose(gx, np.full((2, 2), 0.5))  # 2x / 4 at x=1


@pytest.mark.parametrize("create_graph", [False, True])
def test_backward_builds_nothing_off_the_requested_paths(nodes_built, create_graph):
    # either form walks with Nodes; create_graph only decides what is returned
    rng = np.random.default_rng(4)
    x = ad.Variable(rng.normal(size=(3, 2)))
    z = ad.Variable(rng.normal(size=(3, 2)))
    w = ad.constant(rng.normal(size=(2, 2)))
    f = ad.mean(ad.tanh(ad.matmul(x, w)))
    g = ad.asum(ad.mul(ad.exp(z), ad.sigmoid(z)))
    y = ad.add(f, g)
    alone = nodes_built(lambda: ad.backward(f, [x], create_graph))
    both = nodes_built(lambda: ad.backward(y, [x], create_graph))
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
        h = ad.dense(h, w, b, act)
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
        out = float(ad.evaluate(_mlp_scalar([(w1, b1), (w2, b2)], x, ["tanh", "linear"])))
        var.set_value(old)
        return out

    y = _mlp_scalar([(w1, b1), (w2, b2)], x, ["tanh", "linear"])
    grads = ad.backward(y, [w1, b1, w2, b2])
    for var, g in zip([w1, b1, w2, b2], grads):
        fd = ad.fd_gradient(lambda a, v=var: loss_with(v, a), var.value, epsilon=1e-4)
        assert rel_err(g, fd) < 1e-5


PRIMITIVE_CASES = [
    ("add", lambda x: ad.add(x, ad.constant(np.array([0.3, -0.7, 1.1])))),
    # a size-1 side with more axes: the gradient of x sums the (1, 3) result to (3,)
    ("add_size1", lambda x: ad.add(ad.constant(np.array([[0.5]])), x)),
    ("sub", lambda x: ad.sub(ad.constant(np.array(0.5)), x)),
    ("neg", ad.neg),
    ("mul", lambda x: ad.mul(x, ad.constant(np.array([1.5, -2.0, 0.25])))),
    ("scale", lambda x: ad.scale(x, -1.7)),
    # relu of the bias of a dense layer with a zero input row
    ("relu", lambda x: ad.dense(np.zeros((1, 2)), np.zeros((2, 3)), x, "relu")),
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
                "add", "sub", "add_size1"):
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
        h = ad.concat(ad.log(a), ad.matmul(a, ad.constant(m0)), ad.matmul(ad.constant(a0), m))
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
    "add": lambda r: (_rand(r, 4, 3), _rand(r, 1)),
    "sub": lambda r: (_rand(r, 4, 3), _rand(r, 4, 3)),
    "neg": lambda r: (_rand(r, 4, 3),),
    "mul": lambda r: (_rand(r, 4, 3), _rand(r, 1, 1)),
    "div": lambda r: (_rand(r, 4, 3), np.abs(_rand(r, 1)) + 0.1),
    "scale": lambda r: (_rand(r, 4, 3), 0.37),
    "matmul": lambda r: (_rand(r, 4, 3), _rand(r, 3, 5)),
    **{f"dense-{act}": lambda r, act=act: (_rand(r, 4, 3) * 3, _rand(r, 3, 5), _rand(r, 5), act)
       for act in ad.DENSE_ACTS},
    "exp": lambda r: (_rand(r, 4, 3),),
    "log": lambda r: (np.abs(_rand(r, 4, 3)) + 0.1,),
    "sqrt": lambda r: (np.abs(_rand(r, 4, 3)),),
    "tanh": lambda r: (_rand(r, 4, 3) * 3,),
    "softplus": lambda r: (_rand(r, 4, 3) * 5,),
    "sigmoid": lambda r: (_rand(r, 4, 3) * 5,),
    "square": lambda r: (_rand(r, 4, 3),),
    "power": lambda r: (np.abs(_rand(r, 4, 3)) + 0.1, -1.0),
    "rpow": lambda r: (np.array(float(r.integers(1, 200_000))), 0.999),
    "absval": lambda r: (_rand(r, 4, 3),),
    "asum": lambda r: (_rand(r, 4, 3),),
    "minimum": lambda r: (_rand(r, 4, 3), _rand(r, 4, 3)),
    "clip": lambda r: (_rand(r, 4, 3) * 3, -1.0, 2.0),
    "sum_axis0": lambda r: (_rand(r, 4, 3),),
    "sum_axis1": lambda r: (_rand(r, 4, 3),),
    "sum_to": lambda r: (_rand(r, 4, 3), (1, 3)),
    "broadcast": lambda r: (_rand(r, 3), (4, 3)),
    "concat": lambda r: (_rand(r, 4, 3), _rand(r, 4, 2)),
    "slice_cols": lambda r: (_rand(r, 4, 5), 1, 4),
    "pad_cols": lambda r: (_rand(r, 4, 2), 1, 5),
    "transpose": lambda r: (_rand(r, 4, 3),),
    # one 1-D row, on its last axis
    "dense-row": lambda r: (_rand(r, 3) * 3, _rand(r, 3, 5), _rand(r, 5), "relu"),
    "sum_axis1-row": lambda r: (_rand(r, 3),),
    "slice_cols-row": lambda r: (_rand(r, 5), 1, 4),
    "pad_cols-row": lambda r: (_rand(r, 2), 1, 5),
}


def _as_graph_arg(arg):
    if isinstance(arg, np.ndarray):
        return ad.constant(arg)
    return arg


def _with_uncovered(cases, ops):
    """The case names, plus each of ``ops`` that no case names (it fails)."""
    covered = {name.split("-")[0] for name in cases}
    return sorted(set(cases) | {op for op in ops if op not in covered})


@pytest.mark.parametrize("name", _with_uncovered(_NUMPY_OPS_CASES, set(ad._VJP)))
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


def test_rpow_is_pythons_float_power():
    # Adam's bias corrections take b ** t by Python's power; numpy's can differ from it in the
    # last bit (0.9 ** 12 and 0.999 ** 7 did, with numpy 2.4.6 on an AVX-512 x86_64 CPU)
    for b in (0.9, 0.999):
        assert [ad.evaluate(ad.rpow(np.array(float(t)), b)) for t in range(1, 200)] == [
            b ** t for t in range(1, 200)]
    with pytest.raises(ad.ShapeError, match="rpow"):
        ad.rpow(np.ones(1), 0.9)


def _specials(rng, shape, nonfinite):
    """Normal draws with some entries set to 0.0 and -0.0, and with
    ``nonfinite`` some to inf, -inf and NaN too; products of such entries
    hold exact zeros of both signs."""
    a = np.asarray(rng.normal(size=shape))
    pick = rng.integers(0, 12, size=shape)
    for k, v in enumerate((0.0, -0.0, np.inf, -np.inf, np.nan)[:5 if nonfinite else 2]):
        a[pick == k] = v
    return a


_DENSE_BEFORE = {"relu": lambda h: np.maximum(h, 0.0), "tanh": np.tanh,
                 "softplus": lambda h: np.logaddexp(0.0, h), "linear": lambda h: h}

# NumpyOps op, suffixed to tell cases apart -> (argument factory over a
# generator and the nonfinite flag, the numpy expression the op's formula
# replaced); the bytes must agree, signed zeros and NaN payloads included
_REWRITTEN = {
    **{f"dense-{act}-{'row' if not lead else 'batch'}": (
        lambda r, nf, act=act, lead=lead: (_specials(r, (*lead, 3), nf), _specials(r, (3, 5), nf),
                                           _specials(r, 5, nf), act),
        lambda x, w, b, act: _DENSE_BEFORE[act](x @ w + b))
       for act in ad.DENSE_ACTS for lead in ((), (6,))},
    # a dense VJP's g @ W.T: W (O, 1) transposed, and contiguous
    "matmul-inner1": (lambda r, nf: (_specials(r, (6, 1), nf), _specials(r, (5, 1), nf).T),
                      np.matmul),
    "matmul-inner1-contiguous": (lambda r, nf: (_specials(r, (6, 1), nf),
                                                _specials(r, (1, 5), nf)), np.matmul),
    "matmul-inner3": (lambda r, nf: (_specials(r, (6, 3), nf), _specials(r, (5, 3), nf).T),
                      np.matmul),
    "broadcast-scalar": (lambda r, nf: (_specials(r, (), nf), (4, 3)), np.broadcast_to),
    "broadcast-row": (lambda r, nf: (_specials(r, 3, nf), (4, 3)), np.broadcast_to),
    "broadcast-column": (lambda r, nf: (_specials(r, (4, 1), nf), (4, 3)), np.broadcast_to),
    "sum_axis0": (lambda r, nf: (_specials(r, (11, 3), nf),), lambda a: a.sum(axis=0)),
    "sum_axis1": (lambda r, nf: (_specials(r, (4, 11), nf),),
                  lambda a: a.sum(axis=1, keepdims=True)),
    "sum_axis1-row": (lambda r, nf: (_specials(r, 11, nf),),
                      lambda a: a[None, :].sum(axis=1, keepdims=True)[0]),
    "asum": (lambda r, nf: (_specials(r, (4, 11), nf),),
             lambda a: np.asarray(a.sum(), dtype=np.float64)),
    "sum_to": (lambda r, nf: (_specials(r, (2, 11, 3), nf), (1, 3)),
               lambda g, shape: g.sum(axis=0).sum(axis=0, keepdims=True)),
    "slice_cols-row": (lambda r, nf: (_specials(r, 5, nf), 1, 4),
                       lambda a, i0, i1: a[None, :][:, i0:i1][0]),
}


@pytest.mark.parametrize("name", sorted(_REWRITTEN))
def test_numpy_ops_formulas_keep_the_bytes_of_the_expressions_they_replaced(name):
    make_args, before = _REWRITTEN[name]
    op = getattr(ad.NumpyOps, name.split("-")[0])
    for seed in range(40):
        args = make_args(np.random.default_rng(seed), seed % 2 == 1)
        with np.errstate(all="ignore"):
            want, got = np.asarray(before(*args)), op(*args)
        assert type(got) is np.ndarray and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), (name, seed)


def test_inner_dimension_one_inputs_tell_signed_zeros_apart():
    # a plain a * b keeps -0.0 products that np.matmul's loop turns into +0.0,
    # so the cases above would catch that formula where array_equal does not
    make_args = _REWRITTEN["matmul-inner1"][0]
    told_apart = 0
    for seed in range(40):
        a, b = make_args(np.random.default_rng(seed), False)
        plain, mm = a * b, np.matmul(a, b)
        assert np.array_equal(plain, mm)
        told_apart += plain.tobytes() != mm.tobytes()
    assert told_apart > 0


# op -> (shape of x, shape of z, expression over the Variables x and z that
# applies the op); each backward rule's gradients must match finite
# differences. A suffix after "-" only tells apart cases of the same op.
_VJP_CASES = {
    "add": ((4, 3), (1,), lambda x, z: ad.add(x, z)),
    "sub": ((4, 3), (1, 1), lambda x, z: ad.sub(x, z)),
    "neg": ((4, 3), (1,), lambda x, z: ad.neg(x)),
    "mul": ((4, 3), (1,), lambda x, z: ad.mul(x, z)),
    "scale": ((4, 3), (1,), lambda x, z: ad.scale(x, -1.7)),
    "matmul": ((4, 3), (3, 2), lambda x, z: ad.matmul(x, z)),
    **{f"dense-{act}": ((4, 3), (3, 2), lambda x, z, act=act: ad.dense(x, z, ad.sum_axis0(z), act))
       for act in ad.DENSE_ACTS},
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
    "concat": ((4, 3), (4, 2), lambda x, z: ad.concat(x, z)),
    "slice_cols": ((4, 3), (1,), lambda x, z: ad.slice_cols(x, 1, 3)),
    "slice_cols-row": ((5,), (1,), lambda x, z: ad.slice_cols(x, 1, 3)),
    "pad_cols": ((4, 3), (1,), lambda x, z: ad.pad_cols(x, 2, 6)),
    "pad_cols-row": ((3,), (1,), lambda x, z: ad.pad_cols(x, 2, 6)),
    "sum_axis1-row": ((4,), (1,), lambda x, z: ad.sum_axis1(x)),
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


@pytest.mark.parametrize("op", _with_uncovered(_VJP_CASES, ad._VJP))
def test_each_backward_rule_matches_fd(op):
    assert op in _VJP_CASES, f"no case for the backward rule of {op!r}"
    x_shape, z_shape, fn = _VJP_CASES[op]
    rng = np.random.default_rng(sorted(_VJP_CASES).index(op))
    x = ad.Variable(rng.normal(size=x_shape))
    z = ad.Variable(np.abs(rng.normal(size=z_shape)) + 0.1)
    out = fn(x, z)
    assert op.split("-")[0] in _ops_reached(out)
    # a random cotangent, so every rule sees an upstream gradient that is not all ones
    cotangent = ad.constant(rng.normal(size=out.shape))

    def loss():
        return ad.asum(ad.mul(fn(x, z), cotangent))

    def loss_at(var, arr):
        old = var.value.copy()  # set_value writes into the array var keeps
        var.set_value(arr)
        try:
            return float(ad.evaluate(loss()))
        finally:
            var.set_value(old)

    grads = ad.backward(loss(), [x, z])
    for var, g in zip((x, z), grads):
        assert type(g) is np.ndarray and g.shape == var.shape
        fd = ad.fd_gradient(lambda a, v=var: loss_at(v, a), var.value, 1e-6)
        assert rel_err(g, fd) < 1e-5, op


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
    # a dense activation, or an elementwise op after a linear dense layer
    acts = ["tanh", "relu", "softplus", ad.sigmoid,
            lambda t: ad.clip(t, -0.8, 0.8), ad.square, ad.absval]
    act = acts[int(rng.integers(0, len(acts)))]
    z = ad.dense(x, w, b, act) if isinstance(act, str) else act(ad.dense(x, w, b, "linear"))
    z = ad.minimum(z, ad.dense(x, w, b, "tanh"))
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


@pytest.mark.parametrize("act", ad.DENSE_ACTS)
def test_dense_gradient_of_a_gradient_matches_fd(act):
    # d/dw of |df/dx|^2 for f = sum(dense(x, w, b, act)): with create_graph
    # the dense rule's result must stay differentiable in w
    rng = np.random.default_rng(ad.DENSE_ACTS.index(act))
    x0, w0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)

    def grad_norm(w):
        x = ad.Variable(x0)
        (gx,) = ad.backward(ad.asum(ad.dense(x, w, ad.constant(b0), act)), [x],
                            create_graph=True)
        return ad.asum(ad.square(gx))

    w = ad.Variable(w0)
    (gw,) = ad.backward(grad_norm(w), [w])
    fd = ad.fd_gradient(lambda a: float(ad.evaluate(grad_norm(ad.Variable(a)))), w0, 1e-5)
    assert rel_err(gw, fd) < 1e-5


def _outer_value(omega_arr, phi_val, xs, wf):
    om = ad.Variable(omega_arr, "om")
    phi = ad.Variable(phi_val, "phi")
    h = ad.mean(ad.square(ad.tanh(ad.matmul(ad.matmul(ad.constant(xs), phi), om))))
    (gphi,) = ad.backward(h, [phi], create_graph=True)
    phi_new = ad.sub(ad.constant(phi_val), ad.scale(gphi, 0.1))
    f = ad.mean(ad.tanh(ad.matmul(ad.matmul(ad.constant(xs), phi_new), ad.constant(wf))))
    return float(ad.evaluate(f))


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
