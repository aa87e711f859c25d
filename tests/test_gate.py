"""Tests for the gating sub-network, truncation, loss terms and cost model."""

from dataclasses import replace

import numpy as np
import pytest
from reference import truncate

from probanet import (
    DimensionError,
    DomainError,
    EmptyPoolError,
    Scene,
    SimConfig,
    SplitMix64,
    TrainConfig,
    TrainState,
    build_scene_pool,
    finite_diff_gradient,
    gate_backward,
    gate_forward,
    init_gate_params,
    init_state,
    mac_count,
    param_count,
    param_megabytes,
    probanet_loss,
    sigmoid,
    variance_constraint,
)
from probanet.artifacts import gate_weights_for
from probanet.tensor import in_place
from probanet.training import loss_and_grads


def small_gate(seed=0, c=4, c_prime=2, r=2):
    rng = SplitMix64(seed)
    return init_gate_params(c, c_prime, r, rng)


def random_rows(seed, shape):
    return SplitMix64(seed).uniform_range(-1.5, 1.5, shape=shape)


def test_init_bounds_zero_biases_and_determinism():
    c, c_prime, r = 8, 3, 4
    params = init_gate_params(c, c_prime, r, SplitMix64(11))
    mid = c // r
    assert set(params) == {
        "reduce_weight", "reduce_bias", "expand_weight", "expand_bias"
    }
    assert params["reduce_weight"].shape == (mid, c)
    assert params["expand_weight"].shape == (c_prime, mid)
    assert np.all(np.abs(params["reduce_weight"]) <= 1.0 / np.sqrt(c))
    assert np.all(np.abs(params["expand_weight"]) <= 1.0 / np.sqrt(mid))
    assert np.array_equal(params["reduce_bias"], np.zeros(mid))
    assert np.array_equal(params["expand_bias"], np.zeros(c_prime))

    again = init_gate_params(c, c_prime, r, SplitMix64(11))
    assert np.array_equal(params["reduce_weight"], again["reduce_weight"])
    assert np.array_equal(params["expand_weight"], again["expand_weight"])
    other = init_gate_params(c, c_prime, r, SplitMix64(12))
    assert not np.array_equal(params["reduce_weight"], other["reduce_weight"])


def test_init_geometry_errors():
    with pytest.raises(DomainError):
        init_gate_params(5, 2, 2, SplitMix64(0))
    with pytest.raises(DomainError):
        init_gate_params(0, 2, 1, SplitMix64(0))
    with pytest.raises(DomainError):
        init_gate_params(4, 2, 0, SplitMix64(0))


def test_gate_forward_matches_manual_composition():
    params = small_gate(seed=3)
    x = random_rows(4, (6, 4))
    t1, t2 = gate_forward(x, params)

    want_t1 = np.maximum(x @ params["reduce_weight"].T + params["reduce_bias"], 0.0)
    want_t2 = sigmoid(want_t1 @ params["expand_weight"].T + params["expand_bias"])
    assert np.array_equal(t1, want_t1)
    assert np.array_equal(t2, want_t2)
    assert t1.shape == t2.shape == (6, 2)
    assert np.all(t2 > 0.0)
    assert np.all(t2 < 1.0)


def test_gate_forward_shape_errors():
    params = small_gate()
    with pytest.raises(DimensionError):
        gate_forward(random_rows(0, (4, 3)), params)
    with pytest.raises(DimensionError):
        gate_forward(random_rows(0, (4, 5)), params)
    # The gate reads rows, not an (H, W, C) map.
    with pytest.raises(DimensionError):
        gate_forward(random_rows(0, (2, 2, 4)), params)
    # The expand conv must read as many channels as the reduce conv emits.
    wrong_mid = {**params, "expand_weight": np.zeros((2, 3))}
    with pytest.raises(DimensionError):
        gate_forward(random_rows(0, (4, 4)), wrong_mid)
    # A bias carries its weight's stack axes, no more and no fewer: one
    # bias per row is not a stack, nor is a stacked weight's lone bias.
    per_row = {**params, "reduce_bias": np.zeros((4, 2))}
    with pytest.raises(DimensionError):
        gate_forward(random_rows(0, (4, 4)), per_row)
    lone = {**params, "expand_weight": np.zeros((3, 2, 2))}
    with pytest.raises(DimensionError):
        gate_forward(random_rows(0, (4, 4)), lone)
    # Where both layers are stacked, they carry the same stack axes.
    both = {
        **params,
        "reduce_weight": np.zeros((3, 2, 4)), "reduce_bias": np.zeros((3, 2)),
        "expand_weight": np.zeros((5, 2, 2)), "expand_bias": np.zeros((5, 2)),
    }
    with pytest.raises(DimensionError):
        gate_forward(random_rows(0, (4, 4)), both)


def test_gate_forward_takes_stacked_layers_gate_backward_does_not():
    params, x = small_gate(seed=5), random_rows(6, (5, 4))
    copies = [
        {**params, "reduce_weight": params["reduce_weight"] + d, "expand_bias": e}
        for d, e in ((0.0, params["expand_bias"]), (0.25, np.array([0.5, -1.0])))
    ]
    stack = {
        name: np.stack([copy[name] for copy in copies]) for name in params
    }
    t1, t2 = gate_forward(x, stack)
    assert t1.shape == (2, 5, 2) and t2.shape == (2, 5, 2)
    for i, copy in enumerate(copies):
        want_t1, want_t2 = gate_forward(x, copy)
        assert np.array_equal(t1[i], want_t1)
        assert np.array_equal(t2[i], want_t2)
    # The backward differentiates one copy of the gate, not a stack.
    with pytest.raises(DimensionError):
        gate_backward(t1, t2, x, stack, np.ones_like(t2))


def test_truncate_train_strict_and_test_keeps_all():
    # A gate of zero arrays weights every anchor sigmoid(0) = 0.5 exactly.
    sim = SimConfig(
        height=4, width=4, channels=4, object_max_size=2, scene_pool_size=2
    )
    config = TrainConfig(th=0.5, r=2)
    state = init_state(config, sim)
    for name in ("reduce_weight", "reduce_bias", "expand_weight", "expand_bias"):
        state.params[name][...] = 0.0
    pool = build_scene_pool(config, sim)
    x, labels = pool.step_inputs(0, 2)
    # Training keeps a weight only strictly above the threshold.
    with pytest.raises(EmptyPoolError, match="kept fraction 0$"):
        loss_and_grads(state, x, labels, config)
    below = replace(config, th=float(np.nextafter(0.5, 0.0)))
    assert loss_and_grads(state, x, labels, below)[0].kept_fraction == 1.0
    # Evaluation truncates nothing.
    assert np.all(gate_weights_for(state, pool.scenes[0]) == 0.5)


def test_gate_test_mode_keeps_everything():
    params, th = small_gate(), 0.9
    x = random_rows(6, (9, 4))
    t2 = gate_forward(x, params)[1]
    assert not (t2 > th).any()
    state = TrainState(params={"head_weight": np.zeros((2, 4)), **params}, velocity={})
    scene = Scene(objects=(), features=x.reshape(3, 3, 4), seed=0)
    assert np.array_equal(gate_weights_for(state, scene), t2.reshape(3, 3, 2))


def _truncated_map_grad_t2(params, th, x, a, g):
    """Gradient at t2 of sum(truncated(a * t2) * g): g * a where t2 clears
    the threshold th, zero where truncation dropped the entry."""
    t2 = gate_forward(x, params)[1]
    return np.where(t2 > th, g * a, 0.0)


def test_gate_backward_blocks_dropped_positions():
    # High threshold so a healthy share of positions is dropped.
    params, th = small_gate(seed=8), 0.52
    x = random_rows(9, (12, 4))
    a = random_rows(10, (12, 2))
    g = random_rows(11, (12, 2))
    t1, t2 = gate_forward(x, params)
    keep = t2 > th
    assert keep.any() and not keep.all()
    # No weight sits within differencing reach of the threshold.
    assert np.abs(t2 - th).min() > 1e-4

    _, grads = gate_backward(
        t1, t2, x, params, _truncated_map_grad_t2(params, th, x, a, g)
    )

    def f(bias):
        t2 = gate_forward(x, {**params, "expand_bias": bias})[1]
        return float((truncate(a * t2, t2, th) * g).sum())

    bias = params["expand_bias"].copy()
    fd = finite_diff_gradient(in_place(f, bias), bias, h=1e-6)
    assert np.allclose(grads["expand_bias"], fd, rtol=1e-6, atol=1e-9)
    # Only the kept entries feed the expand bias gradient.
    kept_only = (t2 * (1 - t2) * np.where(keep, g * a, 0.0)).sum(axis=0)
    assert np.allclose(grads["expand_bias"], kept_only, rtol=0, atol=1e-15)


def test_gate_backward_t2_hook_reaches_dropped_cells():
    # The variance gradient enters through grad_t2 and must flow into the
    # gate convolutions even where truncation zeroed the cls path.
    params = small_gate(seed=13)
    x = random_rows(14, (4, 4))
    a = random_rows(15, (4, 2))
    t1, t2 = gate_forward(x, params)
    cls_path = _truncated_map_grad_t2(params, 0.9, x, a, np.ones_like(a))
    assert not cls_path.any()

    _, grads_quiet = gate_backward(t1, t2, x, params, cls_path)
    assert np.all(grads_quiet["expand_weight"] == 0.0)
    _, grads_hook = gate_backward(t1, t2, x, params, cls_path + np.ones_like(t2))
    assert np.any(grads_hook["expand_weight"] != 0.0)


def test_gate_backward_shape_check():
    params = small_gate()
    x = random_rows(1, (4, 4))
    t1, t2 = gate_forward(x, params)
    with pytest.raises(DimensionError):
        gate_backward(t1, t2, x, params, np.zeros((4, 3)))


def test_variance_floor_clamps_with_zero_gradient():
    flat = np.full((2, 2, 3), 0.5)
    v, grad = variance_constraint(flat, epsilon=1e-3)
    assert v == 1e-3
    assert np.all(grad == 0.0)
    with pytest.raises(DomainError):
        variance_constraint(flat, epsilon=0.0)
    with pytest.raises(DimensionError):
        variance_constraint(np.zeros(0), epsilon=1e-3)


def test_variance_above_floor_matches_numpy_and_fd():
    t2 = np.linspace(0.1, 0.9, 12).reshape(2, 2, 3)
    v, grad = variance_constraint(t2, epsilon=1e-3)
    assert abs(v - t2.var(ddof=0)) < 1e-15
    expected = 2.0 * (t2 - t2.mean()) / t2.size
    assert np.allclose(grad, expected, atol=1e-15)


def test_probanet_loss_value_and_beta():
    loss, beta, grad_v = probanet_loss(v=0.5, cls_loss=2.0, alpha=0.5)
    # Substituting beta back into beta * e^(1/v) gives alpha * cls exactly.
    assert loss == 0.5 * 2.0
    assert abs(beta - 0.5 * 2.0 * np.exp(-2.0)) < 1e-15
    # Identity in log space for a moderate variance.
    assert abs(np.log(beta) + 2.0 - np.log(loss)) < 1e-12
    assert grad_v == -0.5 * 2.0 / (0.5 * 0.5)


def test_probanet_loss_never_exceeds_cls():
    for alpha in (0.1, 0.5, 0.9):
        loss, _, grad_v = probanet_loss(v=0.25, cls_loss=3.0, alpha=alpha)
        assert loss < 3.0
        assert grad_v == -alpha * 3.0 / (0.25 * 0.25)


def test_probanet_loss_survives_variance_floor():
    # e^(1/v) overflows at v = 1e-3 but the composed loss stays finite.
    loss, beta, grad_v = probanet_loss(v=1e-3, cls_loss=1.0, alpha=0.5)
    assert loss == 0.5
    assert beta == 0.0
    assert grad_v == -0.5 * 1.0 / (1e-3 * 1e-3)


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
    _, beta0, got = probanet_loss(v0, cls, alpha)
    assert got == -alpha * cls / (v0 * v0)

    def frozen(v):
        return beta0 * np.exp(1.0 / v)

    h = 1e-6
    numeric = (frozen(v0 + h) - frozen(v0 - h)) / (2.0 * h)
    assert abs(got - numeric) < 1e-4 * max(1.0, abs(numeric))
    assert probanet_loss(0.7, 1.0, 0.3)[2] <= 0.0


def test_param_count_small_case_by_hand():
    # c=4, c'=3, r=2: mid=2; 4*(2+1) + 2*(3+1) = 20.
    assert param_count(4, 3, 2) == 20
    # Allocated scalars: reduce 2*4+2, expand 3*2+3 = 19 = 20 - (c - c'),
    # since the closed form books one reduce bias per input channel.
    params = init_gate_params(4, 3, 2, SplitMix64(0))
    assert sum(a.size for a in params.values()) == 19


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
