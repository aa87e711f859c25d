"""Tests for the gating sub-network, truncation, loss terms and cost model."""

import numpy as np
import pytest

from probanet import (
    Conv1x1Params,
    DimensionError,
    DomainError,
    GateParams,
    SplitMix64,
    allocated_param_count,
    conv1x1_forward,
    finite_diff_gradient,
    gate_backward,
    gate_forward,
    init_gate_params,
    mac_count,
    param_count,
    param_megabytes,
    probanet_loss,
    probanet_loss_grad_v,
    relu,
    sigmoid,
    truncate,
    variance_constraint,
)


def small_gate(seed=0, threshold=0.5, c=4, c_prime=2, r=2):
    rng = SplitMix64(seed)
    return init_gate_params(c, c_prime, r, threshold, rng)


def random_map(seed, shape):
    return SplitMix64(seed).uniform_range(-1.5, 1.5, shape=shape)


def test_gate_params_validation():
    reduce_conv = Conv1x1Params(weight=np.zeros((2, 4)), bias=np.zeros(2))
    expand_conv = Conv1x1Params(weight=np.zeros((3, 2)), bias=np.zeros(3))
    with pytest.raises(DomainError):
        GateParams(reduce_conv, expand_conv, reduction=0, threshold=0.5)
    with pytest.raises(DomainError):
        GateParams(reduce_conv, expand_conv, reduction=3, threshold=0.5)
    mismatched = Conv1x1Params(weight=np.zeros((3, 5)), bias=np.zeros(3))
    with pytest.raises(DimensionError):
        GateParams(reduce_conv, mismatched, reduction=2, threshold=0.5)
    wrong_mid = Conv1x1Params(weight=np.zeros((3, 4)), bias=np.zeros(3))
    with pytest.raises(DimensionError):
        GateParams(reduce_conv, wrong_mid, reduction=2, threshold=0.5)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(DomainError):
            GateParams(reduce_conv, expand_conv, reduction=2, threshold=bad)


def test_init_bounds_zero_biases_and_determinism():
    c, c_prime, r = 8, 3, 4
    params = init_gate_params(c, c_prime, r, 0.5, SplitMix64(11))
    mid = c // r
    assert params.reduce_conv.weight.shape == (mid, c)
    assert params.expand_conv.weight.shape == (c_prime, mid)
    assert np.all(np.abs(params.reduce_conv.weight) <= 1.0 / np.sqrt(c))
    assert np.all(np.abs(params.expand_conv.weight) <= 1.0 / np.sqrt(mid))
    assert np.all(params.reduce_conv.bias == 0.0)
    assert np.all(params.expand_conv.bias == 0.0)

    again = init_gate_params(c, c_prime, r, 0.5, SplitMix64(11))
    assert np.array_equal(params.reduce_conv.weight, again.reduce_conv.weight)
    assert np.array_equal(params.expand_conv.weight, again.expand_conv.weight)
    other = init_gate_params(c, c_prime, r, 0.5, SplitMix64(12))
    assert not np.array_equal(params.reduce_conv.weight, other.reduce_conv.weight)


def test_init_geometry_errors():
    with pytest.raises(DomainError):
        init_gate_params(5, 2, 2, 0.5, SplitMix64(0))
    with pytest.raises(DomainError):
        init_gate_params(0, 2, 1, 0.5, SplitMix64(0))


def test_gate_forward_matches_manual_composition():
    params = small_gate(seed=3)
    x = random_map(4, (2, 3, 4))
    out = gate_forward(x, params)

    t1 = relu(conv1x1_forward(x, params.reduce_conv))
    t2 = sigmoid(conv1x1_forward(t1, params.expand_conv))
    assert np.array_equal(out.t1, t1)
    assert np.array_equal(out.t2, t2)
    assert out.t2.shape == (2, 3, 2)
    assert np.all(out.t2 > 0.0)
    assert np.all(out.t2 < 1.0)


def test_gate_forward_shape_errors():
    params = small_gate()
    with pytest.raises(DimensionError):
        gate_forward(random_map(0, (2, 2, 3)), params)
    with pytest.raises(DimensionError):
        gate_forward(random_map(0, (2, 2, 5)), params)


def test_truncate_train_strict_and_test_keeps_all():
    a_prime = np.ones((1, 1, 4))
    t2 = np.array([[[0.2, 0.5, 0.7, 0.9]]])
    b, keep = truncate(a_prime, t2, 0.5, "train")
    # Strictly greater: a weight exactly at the threshold is dropped.
    assert keep.tolist() == [[[False, False, True, True]]]
    assert b.tolist() == [[[0.0, 0.0, 1.0, 1.0]]]
    b_test, keep_test = truncate(a_prime, t2, 0.5, "test")
    assert np.all(keep_test)
    assert np.array_equal(b_test, a_prime)


def test_truncate_validation():
    a_prime = np.ones((1, 1, 2))
    t2 = np.full((1, 1, 2), 0.6)
    with pytest.raises(DomainError):
        truncate(a_prime, t2, 0.5, "eval")
    with pytest.raises(DimensionError):
        truncate(a_prime, np.full((1, 2, 2), 0.6), 0.5, "train")


def test_gate_test_mode_keeps_everything():
    params = small_gate(threshold=0.9)
    x = random_map(6, (3, 3, 4))
    a = random_map(7, (3, 3, 2))
    t2 = gate_forward(x, params).t2
    assert not (t2 > params.threshold).any()
    b, keep = truncate(a * t2, t2, params.threshold, "test")
    assert np.all(keep)
    assert np.array_equal(b, a * t2)


def _truncated_map_grad_t2(params, x, a, g):
    """Gradient at t2 of sum(truncated(a * t2) * g): g * a where t2 clears
    the threshold, zero where truncation dropped the entry."""
    t2 = gate_forward(x, params).t2
    return np.where(t2 > params.threshold, g * a, 0.0)


def test_gate_backward_blocks_dropped_positions():
    # High threshold so a healthy share of positions is dropped.
    params = small_gate(seed=8, threshold=0.52)
    x = random_map(9, (3, 4, 4))
    a = random_map(10, (3, 4, 2))
    g = random_map(11, (3, 4, 2))
    out = gate_forward(x, params)
    keep = out.t2 > params.threshold
    assert keep.any() and not keep.all()
    # No weight sits within differencing reach of the threshold.
    assert np.abs(out.t2 - params.threshold).min() > 1e-4

    _, grads = gate_backward(out, x, params, _truncated_map_grad_t2(params, x, a, g))

    def f(bias):
        p = GateParams(
            reduce_conv=params.reduce_conv,
            expand_conv=Conv1x1Params(weight=params.expand_conv.weight, bias=bias),
            reduction=params.reduction,
            threshold=params.threshold,
        )
        t2 = gate_forward(x, p).t2
        return float((truncate(a * t2, t2, p.threshold, "train")[0] * g).sum())

    fd = finite_diff_gradient(f, params.expand_conv.bias.copy(), h=1e-6)
    assert np.allclose(grads.expand_bias, fd, rtol=1e-6, atol=1e-9)
    # Only the kept entries feed the expand bias gradient.
    kept_only = (out.t2 * (1 - out.t2) * np.where(keep, g * a, 0.0)).sum(axis=(0, 1))
    assert np.allclose(grads.expand_bias, kept_only, rtol=0, atol=1e-15)


def test_gate_backward_t2_hook_reaches_dropped_cells():
    # The variance gradient enters through grad_t2 and must flow into the
    # gate convolutions even where truncation zeroed the cls path.
    params = small_gate(seed=13, threshold=0.9)
    x = random_map(14, (2, 2, 4))
    a = random_map(15, (2, 2, 2))
    out = gate_forward(x, params)
    cls_path = _truncated_map_grad_t2(params, x, a, np.ones_like(a))
    assert not cls_path.any()

    _, grads_quiet = gate_backward(out, x, params, cls_path)
    assert np.all(grads_quiet.expand_weight == 0.0)
    _, grads_hook = gate_backward(out, x, params, cls_path + np.ones_like(out.t2))
    assert np.any(grads_hook.expand_weight != 0.0)


def test_gate_backward_shape_check():
    params = small_gate()
    x = random_map(1, (2, 2, 4))
    out = gate_forward(x, params)
    with pytest.raises(DimensionError):
        gate_backward(out, x, params, np.zeros((2, 2, 3)))


def test_variance_floor_clamps_with_zero_gradient():
    flat = np.full((2, 2, 3), 0.5)
    v, grad = variance_constraint(flat, epsilon=1e-3)
    assert v == 1e-3
    assert np.all(grad == 0.0)
    with pytest.raises(DomainError):
        variance_constraint(flat, epsilon=0.0)


def test_variance_above_floor_matches_numpy_and_fd():
    t2 = np.linspace(0.1, 0.9, 12).reshape(2, 2, 3)
    v, grad = variance_constraint(t2, epsilon=1e-3)
    assert abs(v - t2.var(ddof=0)) < 1e-15
    expected = 2.0 * (t2 - t2.mean()) / t2.size
    assert np.allclose(grad, expected, atol=1e-15)


def test_probanet_loss_value_and_beta():
    terms = probanet_loss(v=0.5, cls_loss=2.0, alpha=0.5)
    # Substituting beta back into beta * e^(1/v) gives alpha * cls exactly.
    assert terms.probanet_loss == 0.5 * 2.0
    assert abs(terms.beta - 0.5 * 2.0 * np.exp(-2.0)) < 1e-15
    assert terms.variance == 0.5
    assert terms.cls_loss == 2.0
    # Identity in log space for a moderate variance.
    assert abs(np.log(terms.beta) + 2.0 - np.log(terms.probanet_loss)) < 1e-12


def test_probanet_loss_never_exceeds_cls():
    for alpha in (0.1, 0.5, 0.9):
        terms = probanet_loss(v=0.25, cls_loss=3.0, alpha=alpha)
        assert terms.probanet_loss < terms.cls_loss


def test_probanet_loss_survives_variance_floor():
    # e^(1/v) overflows at v = 1e-3 but the composed loss stays finite.
    terms = probanet_loss(v=1e-3, cls_loss=1.0, alpha=0.5)
    assert terms.probanet_loss == 0.5
    assert terms.beta == 0.0


def test_probanet_loss_validation():
    for alpha in (0.0, 1.0, -0.2, 1.2):
        with pytest.raises(DomainError):
            probanet_loss(0.5, 1.0, alpha)
    with pytest.raises(DomainError):
        probanet_loss(0.5, -1.0, 0.5)
    with pytest.raises(DomainError):
        probanet_loss(0.0, 1.0, 0.5)


def test_loss_gradient_matches_frozen_beta_fd():
    v0, cls, alpha = 0.5, 2.0, 0.5
    got = probanet_loss_grad_v(v0, cls, alpha)
    assert got == -alpha * cls / (v0 * v0)

    beta0 = alpha * cls * np.exp(-1.0 / v0)

    def frozen(v):
        return beta0 * np.exp(1.0 / v)

    h = 1e-6
    numeric = (frozen(v0 + h) - frozen(v0 - h)) / (2.0 * h)
    assert abs(got - numeric) < 1e-4 * max(1.0, abs(numeric))
    assert probanet_loss_grad_v(0.7, 1.0, 0.3) <= 0.0
    with pytest.raises(DomainError):
        probanet_loss_grad_v(0.0, 1.0, 0.5)


def test_param_count_small_case_by_hand():
    # c=4, c'=3, r=2: mid=2; 4*(2+1) + 2*(3+1) = 20.
    assert param_count(4, 3, 2) == 20
    # Stored scalars: reduce 2*4+2, expand 3*2+3 = 19 = 20 - (c - c').
    assert allocated_param_count(4, 3, 2) == 19
    assert param_count(4, 3, 2) - allocated_param_count(4, 3, 2) == 4 - 3


def test_param_count_reference_geometry():
    assert param_count(512, 18, 16) == 17504


def test_mac_count_small_case_and_reference():
    # 2x3 grid, c=4, c'=3, r=2: 6 * (4*2 + 2*3) = 84.
    assert mac_count(2, 3, 4, 3, 2) == 84
    assert mac_count(38, 50, 512, 18, 16) == 32_224_000
    with pytest.raises(DomainError):
        mac_count(0, 5, 4, 2, 2)


def test_param_megabytes():
    assert param_megabytes(2**20, bytes_per_param=1) == 1.0
    assert abs(param_megabytes(17504) - 17504 * 4 / 2**20) < 1e-15
    assert f"{param_megabytes(17504):.2f}" == "0.07"


def test_count_geometry_validation():
    with pytest.raises(DomainError):
        param_count(10, 2, 3)
    with pytest.raises(DomainError):
        param_count(4, 0, 2)
