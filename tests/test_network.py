"""Network evaluation, the analytic weight Jacobian, and initialization."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermoadapt import (
    ACTIVATIONS,
    Network,
    NetworkEvaluator,
    NetworkShape,
    RandomSource,
    he_init,
)
from oracles import finite_diff_jacobian, reference_evaluate, weight_jacobian

BENCH_SHAPE = NetworkShape(input_size=5, hidden_sizes=(10,) * 9, output_size=5)


def random_shape(rng, max_params=200):
    """Small random shape with p <= max_params, mixed widths."""
    while True:
        k = int(rng.uniform(0, 4, ()))
        hidden = tuple(int(rng.uniform(1, 7, ())) for _ in range(k))
        shape = NetworkShape(
            input_size=int(rng.uniform(1, 5, ())),
            hidden_sizes=hidden,
            output_size=int(rng.uniform(1, 5, ())),
        )
        if shape.param_count <= max_params:
            return shape


# -- shape / parameter layout ------------------------------------------------


def test_benchmark_param_count():
    # 6*10 + 8*(11*10) + 11*5
    assert BENCH_SHAPE.param_count == 995


def test_param_count_small_shapes():
    assert NetworkShape(1, (), 1).param_count == 2  # single linear layer
    assert NetworkShape(2, (3,), 1).param_count == 3 * 3 + 4 * 1


def test_shape_rejects_bad_sizes():
    with pytest.raises(ValueError):
        NetworkShape(0, (3,), 1)
    with pytest.raises(ValueError):
        NetworkShape(2, (0,), 1)
    with pytest.raises(ValueError):
        NetworkShape(2, (3,), 1, activation="relu6")


def test_theta_length_checked():
    with pytest.raises(ValueError):
        Network(BENCH_SHAPE, np.zeros(10))


def test_matrix_roundtrip():
    # the layer slices tile the flat vector, each the size of its matrix
    shape = NetworkShape(3, (4, 5), 2)
    assert shape.matrix_shapes == ((4, 4), (5, 5), (6, 2))
    assert shape.segments == ((0, 16), (16, 41), (41, 53))
    assert shape.param_count == 53


# -- initialization ------------------------------------------------------------


def test_he_init_deterministic():
    a = he_init(BENCH_SHAPE, RandomSource(9))
    b = he_init(BENCH_SHAPE, RandomSource(9))
    assert np.array_equal(a.theta, b.theta)


def test_he_init_first_layer_variance():
    # fan_in of the first matrix is input_size + 1 = 6 -> variance 2/6,
    # estimated over a wide first layer
    shape = NetworkShape(5, (2000,), 1)
    net = he_init(shape, RandomSource(4))
    first = net.theta[: 6 * 2000]
    assert abs(first.var() * 3.0 - 1.0) < 0.05
    assert abs(first.mean()) < 0.02


def test_he_init_layer_scales_differ():
    net = he_init(BENCH_SHAPE, RandomSource(1))
    segs = net.shape.segments
    v_first = net.theta[segs[0][0]:segs[0][1]].var()   # fan_in 6
    v_mid = net.theta[segs[4][0]:segs[4][1]].var()     # fan_in 11
    assert v_first > v_mid


# -- forward -------------------------------------------------------------------


def test_forward_zero_weights_zero_output():
    net = Network(BENCH_SHAPE, np.zeros(BENCH_SHAPE.param_count))
    out = net.forward(np.array([1.0, -2.0, 0.5, 3.0, -1.0]))
    assert np.array_equal(out, np.zeros(5))


def test_forward_bias_row_selected_by_zero_first_layer():
    # one hidden layer, first matrix zero: hidden preactivation is zero,
    # swish(0) = 0, so the output is exactly the bias row of the last matrix
    shape = NetworkShape(2, (3,), 2)
    v1 = np.zeros((3, 3))
    v2 = RandomSource(8).standard_normal(8).reshape((4, 2))
    theta = np.concatenate([v1.reshape(-1, order="F"), v2.reshape(-1, order="F")])
    net = Network(shape, theta)
    out = net.forward(np.array([0.7, -1.3]))
    assert np.allclose(out, v2[-1, :], atol=0.0)


def test_forward_rejects_wrong_input_length():
    net = he_init(BENCH_SHAPE, RandomSource(0))
    with pytest.raises(ValueError):
        net.forward(np.zeros(4))


def test_forward_single_linear_layer():
    # no hidden layers: output = V1.T [x, 1]
    shape = NetworkShape(3, (), 2)
    net = he_init(shape, RandomSource(2))
    x = np.array([0.2, -0.4, 1.0])
    v1 = net.theta.reshape(shape.matrix_shapes[0], order="F")
    assert np.allclose(net.forward(x), v1.T @ np.append(x, 1.0))


# -- activations ---------------------------------------------------------------


def activation(name, y):
    """Value and slope at the points ``y`` from an ``ACTIVATIONS`` entry."""
    aux, value, slope = ACTIVATIONS[name]
    y = np.asarray(y, dtype=float)
    a = aux(y)
    return value(y, a, np.empty_like(y)), slope(y, a, np.empty_like(y))


def test_swish_values():
    value, slope = activation("swish", [0.0, 40.0])
    assert value[0] == 0.0
    assert slope[0] == pytest.approx(0.5)
    assert abs(value[1] / 40.0 - 1.0) < 1e-12


def test_swish_derivatives_match_finite_differences():
    ys = np.linspace(-6.0, 6.0, 25)
    h = 1e-6
    d1 = (activation("swish", ys + h)[0] - activation("swish", ys - h)[0]) / (2 * h)
    assert np.allclose(activation("swish", ys)[1], d1, atol=1e-9)


def test_swish_bounds_on_grid():
    grid = np.arange(-50.0, 50.0001, 1e-4)
    value, slope = activation("swish", grid)
    assert abs(np.max(np.abs(slope)) - 1.0998) < 2e-4  # sup |swish'|
    assert np.all(np.abs(value) <= np.abs(grid))


def test_linear_stub_bounds():
    grid = np.arange(-10.0, 10.0001, 1e-3)
    value, slope = activation("linear", grid)
    assert np.array_equal(value, grid)
    assert np.array_equal(slope, np.ones_like(grid))


# -- weight jacobian -----------------------------------------------------------


def test_jacobian_matches_finite_differences_many_shapes():
    rng = RandomSource(100)
    worst = 0.0
    for _ in range(20):
        shape = random_shape(rng)
        net = he_init(shape, rng)
        x = rng.standard_normal(shape.input_size)
        jac = weight_jacobian(net, x)
        ref = finite_diff_jacobian(lambda th: Network(shape, th).forward(x),
                                   net.theta, h=1e-6)
        scale = max(np.max(np.abs(ref)), 1e-12)
        worst = max(worst, np.max(np.abs(jac - ref)) / scale)
    assert worst <= 1e-5


def test_jacobian_single_linear_layer_is_kron():
    shape = NetworkShape(3, (), 4)
    net = he_init(shape, RandomSource(6))
    x = np.array([0.5, -1.0, 2.0])
    jac = weight_jacobian(net, x)
    assert np.allclose(jac, np.kron(np.eye(4), np.append(x, 1.0)[None, :]), atol=0.0)


def test_jacobian_zero_input_zero_bias_first_block():
    # with x = 0 the augmented input is (0, .., 0, 1): first-layer columns
    # for the non-bias rows vanish
    shape = NetworkShape(4, (6, 6), 3)
    net = he_init(shape, RandomSource(13))
    jac = weight_jacobian(net, np.zeros(4))
    rows = 5  # fan_in + 1 of the first matrix
    first = jac[:, : shape.segments[0][1]].reshape(3, -1, rows)
    assert np.array_equal(first[:, :, :-1], np.zeros_like(first[:, :, :-1]))
    assert np.max(np.abs(first[:, :, -1])) > 0.0


def test_jacobian_layout_matches_forward_perturbation():
    rng = RandomSource(21)
    shape = NetworkShape(3, (5, 4), 2)
    net = he_init(shape, rng)
    x = rng.standard_normal(3)
    jac = weight_jacobian(net, x)
    base = net.forward(x)
    delta = 1e-6
    for idx in [0, 7, shape.param_count // 2, shape.param_count - 1]:
        theta = net.theta.copy()
        theta[idx] += delta
        moved = Network(shape, theta).forward(x)
        assert np.allclose((moved - base) / delta, jac[:, idx], atol=1e-4)


def test_taylor_remainder_quadratic_scaling():
    rng = RandomSource(31)
    shape = NetworkShape(4, (8, 8), 3)
    scales = np.logspace(-3, -1, 9)
    slopes = []
    for _ in range(10):
        net = he_init(shape, rng)
        x = rng.standard_normal(4)
        direction = rng.standard_normal(shape.param_count)
        direction /= np.linalg.norm(direction)
        base = net.forward(x)
        jac = weight_jacobian(net, x)
        remainders = []
        for s in scales:
            moved = Network(shape, net.theta + s * direction).forward(x)
            remainders.append(np.linalg.norm(moved - base - jac @ (s * direction)))
        slope = np.polyfit(np.log(scales), np.log(remainders), 1)[0]
        slopes.append(slope)
    assert abs(np.mean(slopes) - 2.0) <= 0.1


# -- batched vector-Jacobian product (property tests) ---------------------------

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def batched_case(draw):
    """Small shape (p <= 200), any activation, 1-8 rows of (x, e), He weights.

    The hidden layers come in runs of equal width, so shapes range over no
    hidden layer, mixed widths and consecutive layers of equal matrix shape.
    """
    runs = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3)), max_size=3))
    shape = NetworkShape(
        input_size=draw(st.integers(1, 5)),
        hidden_sizes=[width for width, count in runs for _ in range(count)],
        output_size=draw(st.integers(1, 5)),
        activation=draw(st.sampled_from(sorted(ACTIVATIONS))),
    )
    assume(shape.param_count <= 200)
    rows = draw(st.integers(1, 8))
    rng = RandomSource(draw(st.integers(0, 2**32)))
    theta = he_init(shape, rng).theta
    x = rng.standard_normal(rows * shape.input_size).reshape(rows, -1)
    e = rng.standard_normal(rows * shape.output_size).reshape(rows, -1)
    return shape, theta, x, e


@PROPERTY_SETTINGS
@given(batched_case())
def test_batched_rows_equal_single_row_calls(case):
    shape, theta, x, e = case
    evaluator = NetworkEvaluator(shape)
    phi, jte = evaluator.evaluate(theta, x, e)
    for b in range(x.shape[0]):
        phi_b, jte_b = evaluator.evaluate(theta, x[b:b + 1], e[b:b + 1])
        assert np.array_equal(phi[b], phi_b[0])
        assert np.array_equal(jte[b], jte_b[0])


@PROPERTY_SETTINGS
@given(batched_case())
def test_vjp_matches_finite_difference_gradient(case):
    # row b of J.T e is the weight gradient of theta -> e_b . Phi(x_b, theta)
    shape, theta, x, e = case
    _, jte = NetworkEvaluator(shape).evaluate(theta, x, e)
    ref = finite_diff_jacobian(
        lambda th: np.sum(e * Network(shape, th).forward(x), axis=1), theta, h=1e-6
    )
    scale = max(np.max(np.abs(ref)), 1e-12)
    assert np.max(np.abs(jte - ref)) / scale <= 1e-5


def _bits(a):
    return a.shape, a.tobytes()


@PROPERTY_SETTINGS
@given(batched_case())
def test_evaluate_bit_equal_to_reference_loop(case):
    shape, theta, x, e = case
    evaluator = NetworkEvaluator(shape)
    phi, jte = evaluator.evaluate(theta, x, e)
    ref_phi, ref_jte = reference_evaluate(shape, theta, x, e)
    assert _bits(phi) == _bits(ref_phi)
    assert _bits(jte) == _bits(ref_jte)
    phi_only, nothing = evaluator.evaluate(theta, x)
    assert nothing is None
    assert _bits(phi_only) == _bits(ref_phi)


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_workspace_reuse_leaves_results_intact(activation):
    # One evaluator, row counts 1, 5, 1 with different weights: its buffers
    # are reused across calls, the returned arrays are not.
    shape = NetworkShape(5, (10,) * 4 + (7,), 5, activation=activation)
    rng = RandomSource(17)
    calls = [(he_init(shape, rng).theta, rng.standard_normal(rows * 5).reshape(rows, 5),
              rng.standard_normal(rows * 5).reshape(rows, 5)) for rows in (1, 5, 1)]
    evaluator = NetworkEvaluator(shape)
    results, snapshots = [], []
    for theta, x, e in calls:
        phi, jte = evaluator.evaluate(theta, x, e)
        results.append((phi, jte))
        snapshots.append((_bits(phi), _bits(jte)))
    for (theta, x, e), (phi, jte), snap in zip(calls, results, snapshots):
        assert (_bits(phi), _bits(jte)) == snap
        fresh_phi, fresh_jte = NetworkEvaluator(shape).evaluate(theta, x, e)
        assert (_bits(fresh_phi), _bits(fresh_jte)) == snap
