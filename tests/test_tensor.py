"""Tests for feature-map primitives: 1x1 conv, activations, variance, I/O."""

import numpy as np
import pytest

from probanet import (
    Conv1x1Params,
    DimensionError,
    DomainError,
    NumericError,
    SplitMix64,
    as_feature_map,
    conv1x1_backward,
    conv1x1_forward,
    dump_feature_map,
    finite_diff_gradient,
    hadamard,
    load_feature_map,
    mean_and_variance,
    relu,
    sigmoid,
)
from probanet.tensor import (
    _SIG_HI,
    _SIG_LO,
    _logistic,
    hadamard_backward,
    relu_backward,
    sigmoid_backward,
)


def random_map(seed, shape):
    rng = SplitMix64(seed)
    return rng.uniform_range(-2.0, 2.0, shape=shape)


def conv_loop_oracle(x, weight, bias):
    """Per-position matrix multiply, written as explicit loops."""
    h, w, cin = x.shape
    cout = weight.shape[0]
    out = np.zeros((h, w, cout))
    for i in range(h):
        for j in range(w):
            for o in range(cout):
                acc = bias[o]
                for c in range(cin):
                    acc += weight[o, c] * x[i, j, c]
                out[i, j, o] = acc
    return out


def test_as_feature_map_accepts_rank_three():
    x = as_feature_map([[[1.0, 2.0]]])
    assert x.shape == (1, 1, 2)
    assert x.dtype == np.float64


def test_as_feature_map_rejects_bad_input():
    with pytest.raises(DimensionError):
        as_feature_map(np.zeros((3, 4)))
    with pytest.raises(DimensionError):
        as_feature_map(np.zeros((0, 4, 2)))
    with pytest.raises(NumericError):
        as_feature_map(np.full((1, 1, 1), np.nan))
    with pytest.raises(NumericError):
        as_feature_map(np.full((1, 2, 2), np.inf))


def test_conv1x1_params_validation():
    with pytest.raises(DimensionError):
        Conv1x1Params(weight=np.zeros((3,)), bias=np.zeros(3))
    with pytest.raises(DimensionError):
        Conv1x1Params(weight=np.zeros((3, 2)), bias=np.zeros(2))
    params = Conv1x1Params(weight=np.zeros((3, 2)), bias=np.zeros(3))
    assert params.out_channels == 3
    assert params.in_channels == 2


def test_conv1x1_forward_matches_loop_oracle():
    x = random_map(1, (3, 4, 5))
    rng = SplitMix64(2)
    weight = rng.uniform_range(-1.0, 1.0, shape=(2, 5))
    bias = rng.uniform_range(-1.0, 1.0, shape=(2,))
    params = Conv1x1Params(weight=weight, bias=bias)
    got = conv1x1_forward(x, params)
    expected = conv_loop_oracle(x, weight, bias)
    assert np.allclose(got, expected, rtol=0, atol=1e-12)


def test_conv1x1_forward_channel_mismatch():
    params = Conv1x1Params(weight=np.ones((2, 5)), bias=np.zeros(2))
    with pytest.raises(DimensionError):
        conv1x1_forward(np.zeros((2, 2, 4)), params)


def test_conv1x1_backward_matches_finite_differences():
    x = random_map(3, (2, 3, 4))
    rng = SplitMix64(4)
    weight = rng.uniform_range(-1.0, 1.0, shape=(3, 4))
    bias = rng.uniform_range(-1.0, 1.0, shape=(3,))
    params = Conv1x1Params(weight=weight, bias=bias)
    grad_out = random_map(5, (2, 3, 3))

    gx, gw, gb = conv1x1_backward(x, params, grad_out)

    def loss_of_x(xv):
        return float(np.sum(conv1x1_forward(xv, params) * grad_out))

    def loss_of_w(wv):
        p = Conv1x1Params(weight=wv, bias=bias)
        return float(np.sum(conv1x1_forward(x, p) * grad_out))

    def loss_of_b(bv):
        p = Conv1x1Params(weight=weight, bias=bv)
        return float(np.sum(conv1x1_forward(x, p) * grad_out))

    assert np.allclose(gx, finite_diff_gradient(loss_of_x, x), atol=1e-6)
    assert np.allclose(gw, finite_diff_gradient(loss_of_w, weight), atol=1e-6)
    assert np.allclose(gb, finite_diff_gradient(loss_of_b, bias), atol=1e-6)


def test_relu_values_and_subgradient():
    x = np.array([[[-1.0, 0.0, 2.5]]])
    y = relu(x)
    assert np.array_equal(y, np.array([[[0.0, 0.0, 2.5]]]))
    g = relu_backward(x, np.ones_like(x))
    # Subgradient at zero is zero; negative side blocked, positive passes.
    assert np.array_equal(g, np.array([[[0.0, 0.0, 1.0]]]))


def test_sigmoid_values_and_open_interval():
    assert abs(sigmoid(np.zeros((1, 1, 1)))[0, 0, 0] - 0.5) < 1e-15
    extreme = sigmoid(np.array([[[-1000.0, 1000.0]]]))
    assert np.all(extreme > 0.0)
    assert np.all(extreme < 1.0)
    midway = sigmoid(np.array([[[2.0]]]))[0, 0, 0]
    assert abs(midway - 1.0 / (1.0 + np.exp(-2.0))) < 1e-15


def _masked_logistic(x):
    """The masked-index logistic the where-form helper replaced."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_logistic_is_bit_identical_to_masked_form():
    special = np.array(
        [0.0, -0.0, 37.0, -37.0, 38.0, -38.0, 709.0, -709.0, 710.0, -710.0,
         745.0, -745.0, 746.0, -746.0, np.inf, -np.inf, np.nan]
    )
    maps = [special, random_map(40, (7, 9, 5)), 30.0 * random_map(41, (4, 4, 3))]
    with np.errstate(over="ignore"):
        for x in maps:
            ref = _masked_logistic(x)
            assert np.array_equal(_logistic(x), ref, equal_nan=True)
            assert np.array_equal(
                sigmoid(x), np.clip(ref, _SIG_LO, _SIG_HI), equal_nan=True
            )
    # -0.0 takes the x >= 0 branch in both forms.
    assert _logistic(np.array([-0.0]))[0] == 0.5


def test_sigmoid_backward_uses_forward_output():
    x = random_map(6, (2, 2, 3))
    y = sigmoid(x)
    g = np.ones_like(x)
    got = sigmoid_backward(y, g)
    assert np.allclose(got, y * (1.0 - y), atol=1e-15)


def test_hadamard_and_backward():
    a = random_map(7, (2, 2, 2))
    b = random_map(8, (2, 2, 2))
    assert np.array_equal(hadamard(a, b), a * b)
    ga, gb = hadamard_backward(a, b, np.ones_like(a))
    assert np.array_equal(ga, b)
    assert np.array_equal(gb, a)
    with pytest.raises(DimensionError):
        hadamard(a, random_map(9, (2, 2, 3)))


def test_mean_and_variance_population_divisor():
    x = np.array([[[1.0, 3.0]], [[5.0, 7.0]]])
    mean, var = mean_and_variance(x)
    flat = x.ravel()
    assert abs(mean - flat.mean()) < 1e-15
    # Population variance divides by N, not N - 1.
    assert abs(var - flat.var(ddof=0)) < 1e-15
    with pytest.raises(DimensionError):
        mean_and_variance(np.zeros(0))


def test_finite_diff_gradient_validation():
    def f(v):
        return float(np.sum(v * v))

    x = np.ones((2, 2))
    g = finite_diff_gradient(f, x)
    assert np.allclose(g, 2.0 * x, atol=1e-6)
    with pytest.raises(DomainError):
        finite_diff_gradient(f, x, h=0.0)

    def bad(v):
        return float("nan")

    with pytest.raises(NumericError):
        finite_diff_gradient(bad, x)


def test_dump_and_load_roundtrip_is_exact(tmp_path):
    x = random_map(10, (4, 3, 6))
    path = tmp_path / "map.txt"
    path.write_text(dump_feature_map(x), encoding="ascii")
    back = load_feature_map(path.read_text(encoding="ascii"))
    # repr-precision text must reproduce every bit.
    assert np.array_equal(x, back)


def test_dump_header_and_line_count():
    x = random_map(11, (2, 3, 4))
    text = dump_feature_map(x)
    lines = text.strip().split("\n")
    assert lines[0] == "2 3 4"
    assert len(lines) == 1 + 2 * 3
    assert all(len(line.split()) == 4 for line in lines[1:])


def test_dump_matches_per_value_format_reference():
    values = [
        -0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e300, -1e300,
        3.0, -7.0, 1e16, 0.1, -1.0 / 3.0, 2.0**-1074 * 12345,
    ]
    x = np.array(values, dtype=np.float64).reshape(2, 3, 2)
    h, w, c = x.shape
    lines = [f"{h} {w} {c}"]
    for row in x.reshape(h * w, c):
        lines.append(" ".join(format(v, ".17g") for v in row))
    reference = "\n".join(lines) + "\n"
    assert dump_feature_map(x) == reference
    assert "-0 0\n4.9406564584124654e-324 " in reference
    assert np.array_equal(load_feature_map(reference), x)


def test_load_feature_map_rejects_malformed_text():
    with pytest.raises(DimensionError):
        load_feature_map("2 2\n1 2\n3 4\n")
    with pytest.raises(DimensionError):
        load_feature_map("1 2 2\n1.0 2.0\n")
    with pytest.raises(DimensionError):
        load_feature_map("1 1 3\n1.0 2.0\n")
