"""Tests for feature-map primitives: 1x1 conv, activations, differencing, I/O."""

import io

import numpy as np
import pytest

from probanet import (
    DimensionError,
    DomainError,
    NumericError,
    SplitMix64,
    dump_feature_map,
    finite_diff_gradient,
    sigmoid,
)
from probanet.tensor import (
    _SIG_HI,
    _SIG_LO,
    Conv1x1Params,
    _logistic,
    conv1x1_backward,
    conv1x1_forward,
    hadamard,
    hadamard_backward,
    relu_backward,
    sigmoid_backward,
)


def random_map(seed, shape):
    rng = SplitMix64(seed)
    return rng.uniform_range(-2.0, 2.0, shape=shape)


def load_dump(dump):
    """The values of a feature-map dump, ASCII bytes, as one row per cell."""
    return np.loadtxt(io.BytesIO(dump), skiprows=1, ndmin=2)


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


def test_conv1x1_params_validation():
    with pytest.raises(DimensionError):
        Conv1x1Params(weight=np.zeros((3,)), bias=np.zeros(3))
    with pytest.raises(DimensionError):
        Conv1x1Params(weight=np.zeros((3, 2)), bias=np.zeros(2))
    params = Conv1x1Params(weight=np.zeros((3, 2)), bias=np.zeros(3))
    assert params.out_channels == 3


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
    with pytest.raises(DimensionError):
        conv1x1_backward(np.zeros((2, 2, 4)), params, np.zeros((2, 2, 2)))
    with pytest.raises(DimensionError):
        conv1x1_backward(np.zeros((2, 2, 5)), params, np.zeros((2, 2, 3)))


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
    g = relu_backward(x, np.ones_like(x))
    # Subgradient at zero is zero; negative side blocked, positive passes.
    assert np.array_equal(g, np.array([[[0.0, 0.0, 1.0]]]))


def test_relu_backward_is_bit_identical_to_where_form():
    tiny = np.nextafter(0.0, 1.0)
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310]
    for seed, shape in [(50, (7, 9, 5)), (51, (38, 50, 9)), (52, (3800, 32))]:
        x, grad = random_map(seed, shape), random_map(seed + 100, shape)
        for i, value in enumerate(special):  # seed both maps, apart and together
            x.flat[i :: 97] = value
            grad.flat[i :: 89] = value
        ref = np.where(x > 0.0, grad, 0.0)
        assert np.array_equal(relu_backward(x, grad).view(np.int64), ref.view(np.int64))


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


def test_finite_diff_gradient_validation():
    def f(v):
        return float(np.sum(v * v))

    x = np.ones((2, 2))
    g = finite_diff_gradient(f, x)
    assert np.allclose(g, 2.0 * x, atol=1e-6)
    for h in (0.0, np.inf, -np.inf, np.nan):
        with pytest.raises(DomainError):
            finite_diff_gradient(f, x, h=h)

    def bad(v):
        return float("nan")

    with pytest.raises(NumericError):
        finite_diff_gradient(bad, x)


def _read_only_copy(x):
    x = x.copy()
    x.flags.writeable = False
    return x


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.arange(12.0).reshape(3, 4)[:, ::2],
        lambda: np.arange(12.0).reshape(3, 4).T,
        lambda: np.arange(6).reshape(2, 3),
        lambda: np.arange(6, dtype=np.float32).reshape(2, 3),
        lambda: _read_only_copy(np.arange(6.0)),
        lambda: [[0.0, 1.0], [2.0, 3.0]],
    ],
    ids=["strided", "transposed", "int", "float32", "read-only", "list"],
)
def test_finite_diff_gradient_refuses_what_it_cannot_perturb_in_place(make):
    # A copy would be differenced in place of x, so a functional that
    # reads x through its closure, as the audit's do, would see it fixed;
    # a read-only x cannot be perturbed at all.
    x = make()
    with pytest.raises(DimensionError, match="C-contiguous float64"):
        finite_diff_gradient(lambda _: float(np.sum(np.square(x))), x)


def test_finite_diff_gradient_restores_x_when_f_raises():
    x = np.arange(4.0)
    calls = []

    def f(v):
        calls.append(v.copy())
        if len(calls) == 4:  # the second element's minus side
            raise RuntimeError("boom")
        return float(np.sum(v))

    with pytest.raises(RuntimeError, match="boom"):
        finite_diff_gradient(f, x)
    assert np.array_equal(x, np.arange(4.0))
    assert calls[3][1] == 1.0 - 1e-5


def test_dump_and_load_roundtrip_is_exact(tmp_path):
    x = random_map(10, (4, 3, 6))
    path = tmp_path / "map.txt"
    path.write_bytes(dump_feature_map(x))
    back = load_dump(path.read_bytes()).reshape(x.shape)
    # repr-precision text must reproduce every bit.
    assert np.array_equal(x, back)


def test_dump_header_and_line_count():
    x = random_map(11, (2, 3, 4))
    dump = dump_feature_map(x)
    assert isinstance(dump, bytes)
    lines = dump.strip().split(b"\n")
    assert lines[0] == b"2 3 4"
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
    reference = ("\n".join(lines) + "\n").encode("ascii")
    assert dump_feature_map(x) == reference
    assert b"-0 0\n4.9406564584124654e-324 " in reference
    # Bit for bit, so -0.0 and the subnormals must come back exactly.
    assert load_dump(reference).tobytes() == x.tobytes()

