"""Tests for the training loop: losses, SGD semantics, runs, experiments."""

import copy
import os
import pickle
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from reference import truncate
from spies import use_workers

from probanet import (
    ConfigError,
    DimensionError,
    DomainError,
    EmptyPoolError,
    ExperimentReport,
    MetricsRecord,
    NumericError,
    RunResult,
    SimConfig,
    SplitMix64,
    TrainConfig,
    build_scene_pool,
    derive_seed,
    finite_diff_gradient,
    gate_backward,
    gate_forward,
    init_state,
    probanet_loss,
    run_experiment,
    run_partial,
    run_training,
    sample_minibatch,
    train_step,
    variance_constraint,
)
from probanet import training
from probanet.artifacts import METRICS_HEADER, metrics_csv, summary_csv
from probanet.config import parse_config
from probanet.training import (
    binary_cross_entropy,
    binary_cross_entropy_grad,
    loss_and_grads,
    tail_mean_hard_ratio,
)
from probanet.rng import _BLOCK
from probanet.sim import BG, FG, LabelArrays, generate_scene, label_arrays
from probanet.tensor import relu_backward, sigmoid_backward


TINY_SIM = SimConfig(
    height=4,
    width=4,
    channels=4,
    anchor_shapes=((3, 3),),
    n_objects_min=1,
    n_objects_max=1,
    object_min_size=2,
    object_max_size=2,
    scene_pool_size=2,
)


def tiny_config(**overrides):
    base = dict(
        learning_rate=0.001,
        momentum=0.9,
        weight_decay=0.005,
        epochs=1,
        steps_per_epoch=4,
        alpha=0.0,
        th=0.0,
        r=2,
        seed=3,
        scenes_per_batch=2,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_train_config_validation():
    TrainConfig(learning_rate=0.0)  # zero learning rate is a valid control
    TrainConfig(alpha=0.0)
    TrainConfig(momentum=0.0)
    for bad in (
        dict(learning_rate=-1e-3),
        dict(momentum=1.0),
        dict(momentum=-0.1),
        dict(weight_decay=-0.1),
        dict(epochs=-1),
        dict(steps_per_epoch=-2),
        dict(alpha=1.0),
        dict(alpha=-0.1),
        dict(epsilon=0.0),
        dict(th=1.0),
        dict(th=-0.5),
        dict(r=0),
        dict(lr_decay_every=-1),
        dict(lr_decay_factor=0.0),
        dict(lr_decay_factor=1.5),
        dict(scenes_per_batch=0),
    ):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)


def test_total_steps_and_decay_schedule():
    config = TrainConfig(
        epochs=5, steps_per_epoch=10, lr_decay_every=2, lr_decay_factor=0.5,
        learning_rate=0.4,
    )
    assert config.total_steps == 50
    assert config.learning_rate_at(0) == 0.4
    assert config.learning_rate_at(19) == 0.4
    assert config.learning_rate_at(20) == 0.2
    assert config.learning_rate_at(39) == 0.2
    assert config.learning_rate_at(45) == 0.1
    flat = TrainConfig(lr_decay_every=0, learning_rate=0.3)
    assert flat.learning_rate_at(10_000) == 0.3


def test_binary_cross_entropy_matches_naive_formula():
    rng = SplitMix64(0)
    z = rng.uniform_range(-4.0, 4.0, (40,))
    y = (rng.uniform(shape=(40,)) > 0.5).astype(np.float64)
    naive = -(y * np.log(1 / (1 + np.exp(-z))) + (1 - y) * np.log(1 - 1 / (1 + np.exp(-z))))
    assert abs(binary_cross_entropy(z, y) - naive.mean()) < 1e-12


def test_binary_cross_entropy_stable_at_extreme_logits():
    z = np.array([1000.0, -1000.0, 1000.0, -1000.0])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    val = binary_cross_entropy(z, y)
    assert np.isfinite(val)
    # Two confidently wrong anchors cost ~1000 nats each, two right ~0.
    assert abs(val - 500.0) < 1e-9


def test_binary_cross_entropy_grad_matches_fd():
    rng = SplitMix64(1)
    z = rng.uniform_range(-3.0, 3.0, (12,))
    y = (rng.uniform(shape=(12,)) > 0.5).astype(np.float64)
    analytic = binary_cross_entropy_grad(z, y)

    def f(zv):
        return binary_cross_entropy(zv, y)

    numeric = finite_diff_gradient(f, z)
    assert np.allclose(analytic, numeric, atol=1e-8)


def test_init_state_layout_and_shared_head():
    gated = init_state(tiny_config(), TINY_SIM)
    assert gated.params["head_weight"].shape == (1, 4)
    assert np.all(np.abs(gated.params["head_weight"]) <= 0.5)
    assert gated.params["scale"] == 1.0
    assert gated.params["shift"] == 0.0
    assert gated.gate is gated.params
    assert gated.step == 0
    assert set(gated.params) == set(gated.velocity) == {
        "head_weight", "scale", "shift",
        "reduce_weight", "reduce_bias", "expand_weight", "expand_bias",
    }
    for name, value in gated.params.items():
        assert np.shape(gated.velocity[name]) == np.shape(value)
        assert np.all(gated.velocity[name] == 0.0)

    plain = init_state(tiny_config(probanet_enabled=False), TINY_SIM)
    assert plain.gate is None
    assert set(plain.params) == set(plain.velocity) == {"head_weight", "scale", "shift"}
    # Both variants start from the same proposal head.
    assert np.array_equal(plain.params["head_weight"], gated.params["head_weight"])

    with pytest.raises(ConfigError):
        init_state(tiny_config(r=3), TINY_SIM)


def test_zero_learning_rate_freezes_parameters():
    config = tiny_config(learning_rate=0.0, epochs=1, steps_per_epoch=5)
    fresh = init_state(config, TINY_SIM)
    state, _, log = run_partial(config, TINY_SIM, 5)
    assert len(log) == 5
    for name, value in fresh.params.items():
        assert np.array_equal(state.params[name], value)
        assert np.all(state.velocity[name] == 0.0)


def test_zero_learning_rate_freezes_state_metrics():
    # With frozen parameters and a single-scene pool every state-derived
    # metric is constant; only the sampled batch (and with it cls_loss
    # and hard_ratio) changes from step to step.
    sim = replace(TINY_SIM, scene_pool_size=1)
    config = tiny_config(
        learning_rate=0.0, epochs=1, steps_per_epoch=6, scenes_per_batch=1,
        alpha=0.5, th=0.5,
    )
    _, _, log = run_partial(config, sim, 6)
    records = list(log)
    for r in records[1:]:
        assert r.variance == records[0].variance
        assert r.fg_gate_mean == records[0].fg_gate_mean
        assert r.bg_gate_mean == records[0].bg_gate_mean
        assert r.kept_fraction == records[0].kept_fraction


def test_single_step_matches_finite_difference_oracle():
    # th=0 keeps every anchor and alpha=0 silences the auxiliary loss,
    # so the step objective is the smooth classification loss and the
    # sampled batch cannot depend on the parameters.
    config = tiny_config()
    pool = build_scene_pool(config, TINY_SIM)
    state = init_state(config, TINY_SIM)
    x, labels = pool.step_inputs(0, 2)
    batch = sample_minibatch(
        labels, None, SplitMix64(derive_seed(config.seed, "sampler", 0))
    )

    # A copy of the parameters to difference in place; the floats
    # become 0-d arrays.
    p0 = {name: np.array(value) for name, value in state.params.items()}

    def loss_with(p):
        a = x @ p["head_weight"].T
        t2 = gate_forward(x, p)[1]
        values = truncate(a * t2, t2, config.th).ravel()[batch.indices]
        logits = p["scale"] * values + p["shift"]
        targets = (labels.category[batch.indices] == FG).astype(np.float64)
        return binary_cross_entropy(logits, targets)

    lr, wd = config.learning_rate, config.weight_decay
    new_state, record = train_step(state, x, labels, config)
    assert record.step == 0
    assert new_state.step == 1
    assert set(new_state.params) == set(p0) and len(p0) == 7
    for name, value in p0.items():
        fd = finite_diff_gradient(
            lambda v, nm=name: loss_with({**p0, nm: v}), value.copy()
        )
        expect = value - lr * (fd + wd * value)
        assert np.allclose(new_state.params[name], expect, rtol=0, atol=1e-10), name
    # The loss recomputed by the closure agrees with the recorded one.
    assert abs(record.cls_loss - loss_with(p0)) < 1e-12


# Two anchor shapes and a grid larger than one batch, so the sampled
# anchors are a strict subset of the candidates and sit at every anchor
# slot of their cells.
WIDE_SIM = replace(
    TINY_SIM,
    height=12,
    width=12,
    channels=8,
    anchor_shapes=((3, 3), (2, 4)),
    n_objects_max=2,
    object_max_size=4,
)


def _dense_step(state, x, labels, config):
    """One step's logits and loss gradients by the dense path, the
    reference for loss_and_grads: the head and the gate over every
    anchor, truncation as a mask over every row, and the backward of
    each 1x1 conv as products over every row."""
    head_weight, gate = state.params["head_weight"], state.gate
    a = x @ head_weight.T
    if gate is None:
        b_flat = a.ravel()
        mask = np.ones(b_flat.size, dtype=bool)
    else:
        t1, t2 = gate_forward(x, gate)
        b_flat = truncate(a * t2, t2, config.th).ravel()
        t2_flat = t2.ravel()
        mask = t2_flat > config.th
    rng = SplitMix64(derive_seed(config.seed, "sampler", state.step))
    batch = sample_minibatch(labels, mask, rng)
    values = b_flat[batch.indices]
    logits = state.params["scale"] * values + state.params["shift"]
    targets = (labels.category[batch.indices] == FG).astype(np.float64)
    dlogits = binary_cross_entropy_grad(logits, targets)
    grads = {"scale": float(np.dot(dlogits, values)), "shift": float(dlogits.sum())}
    grad_b_flat = np.zeros_like(b_flat)
    grad_b_flat[batch.indices] = state.params["scale"] * dlogits
    grad_b = grad_b_flat.reshape(a.shape)
    if gate is None:
        grad_a = grad_b
    else:
        variance, grad_v = variance_constraint(t2_flat, config.epsilon)
        _, _, coeff = probanet_loss(
            variance, binary_cross_entropy(logits, targets), config.alpha
        )
        grad_a_prime = np.where(t2 > config.th, grad_b, 0.0)
        grad_a = grad_a_prime * t2
        grad_t2 = grad_a_prime * a + coeff * grad_v.reshape(a.shape)
        grad_z2 = sigmoid_backward(t2, grad_t2)
        grads["expand_weight"] = grad_z2.T @ t1
        grads["expand_bias"] = grad_z2.sum(axis=0)
        grad_z1 = relu_backward(t1, grad_z2 @ gate["expand_weight"])
        grads["reduce_weight"] = grad_z1.T @ x
        grads["reduce_bias"] = grad_z1.sum(axis=0)
    grads["head_weight"] = grad_a.T @ x
    return batch, logits, grads


def _assert_close(got, ref):
    """Equal within 1e-12 of the reference's largest entry: the sampled
    path sums over the batch's rows, the dense path over the whole grid."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("gated", [True, False], ids=["gated", "baseline"])
def test_train_step_param_grads_equal_full_backward(gated):
    # th = 0.5 truncates part of the map and epsilon = 1e-9 keeps the
    # variance above its floor, so the mask and the t2 hook both act.
    config = tiny_config(probanet_enabled=gated, alpha=0.5, th=0.5, epsilon=1e-9)
    pool = build_scene_pool(config, WIDE_SIM)
    state = init_state(config, WIDE_SIM)
    x, labels = pool.step_inputs(0, 2)
    record, grads, batch, logits = loss_and_grads(state, x, labels, config)
    ref_batch, ref_logits, ref = _dense_step(state, x, labels, config)

    assert np.array_equal(batch.indices, ref_batch.indices)
    per_scene = len(labels) // 2
    assert (batch.indices < per_scene).any() and (batch.indices >= per_scene).any()
    anchors = batch.indices % len(WIDE_SIM.anchor_shapes)
    assert (anchors == 0).any() and (anchors == 1).any()
    _assert_close(logits, ref_logits)
    assert set(grads) == set(ref)
    for name, value in ref.items():
        _assert_close(grads[name], value)
    if gated:
        assert 0.0 < record.kept_fraction < 1.0
        assert record.variance > config.epsilon
        assert len(ref) == 7
    else:
        assert record.kept_fraction == 1.0
        assert len(ref) == 3


def _record(monkeypatch, name, log, pick):
    """Replace training's name by a spy appending pick(args, result) to log."""
    original = getattr(training, name)

    def spy(*args):
        result = original(*args)
        log.append(pick(args, result))
        return result

    monkeypatch.setattr(training, name, spy)


@pytest.mark.parametrize(
    "overrides", [dict(alpha=0.5, epsilon=1.0), dict(alpha=0.0, epsilon=1e-9)],
    ids=["floor", "alpha-0"],
)
def test_batch_row_gate_grads_equal_a_full_map_backward(monkeypatch, overrides):
    # With no variance gradient (epsilon above any variance of weights in
    # (0, 1), or alpha = 0 above the floor) only the sampled anchors get a
    # gradient at t2, and the gate's backward runs over their rows alone,
    # one per anchor, so a cell with two sampled anchors has two rows.
    # That must equal gate_backward over every row of a grad_t2 that is
    # zero off the batch.
    config = tiny_config(th=0.5, **overrides)
    pool = build_scene_pool(config, WIDE_SIM)
    state = init_state(config, WIDE_SIM)
    x, labels = pool.step_inputs(0, 2)
    shapes = []
    _record(monkeypatch, "gate_backward", shapes, lambda args, _: args[2].shape)
    record, grads, batch, logits = loss_and_grads(state, x, labels, config)
    cells = np.unique(batch.indices // len(WIDE_SIM.anchor_shapes))
    assert cells.size < batch.size  # a cell holds two sampled anchors
    assert shapes == [(batch.size, x.shape[1])]
    assert (record.variance == config.epsilon) == (config.alpha > 0)

    gate, scale = state.gate, state.params["scale"]
    t1, t2 = gate_forward(x, gate)
    a = (x @ state.params["head_weight"].T).ravel()
    targets = (labels.category[batch.indices] == FG).astype(np.float64)
    grad_t2 = np.zeros(t2.size)
    grad_values = scale * binary_cross_entropy_grad(logits, targets)
    grad_t2[batch.indices] = grad_values * a[batch.indices]
    ref = gate_backward(t1, t2, x, gate, grad_t2.reshape(t2.shape))[1]
    assert len(ref) == 4
    for name, value in ref.items():
        _assert_close(grads[name], value)


def test_gate_backward_reads_the_batch_rows_only_at_the_floor(monkeypatch):
    # Per step, gate_backward gets one row per sampled anchor when the
    # variance sits at its floor, and every row of the step's scenes when
    # it is above it.
    batches, shapes = [], []
    _record(monkeypatch, "sample_minibatch", batches, lambda _, batch: batch)
    _record(monkeypatch, "gate_backward", shapes, lambda args, _: args[2].shape)
    floors = set()
    for epsilon in (1e-9, 1.0):
        config = tiny_config(alpha=0.5, th=0.5, epsilon=epsilon, steps_per_epoch=3)
        _, pool, records = run_partial(config, WIDE_SIM, config.total_steps)
        for record, batch, shape in zip(records, batches, shapes, strict=True):
            x = pool.step_inputs(record.step, 2)[0]
            at_floor = record.variance == epsilon
            assert shape == ((batch.size, x.shape[1]) if at_floor else x.shape)
            floors.add(at_floor)
        batches.clear()
        shapes.clear()
    assert floors == {True, False}


def test_empty_pool_error_names_step_seed_and_kept_fraction():
    # The built-in threshold truncates every background anchor of seed
    # 323's first two scenes at step 0.
    config = TrainConfig(seed=323, epochs=1, steps_per_epoch=1)
    with pytest.raises(
        EmptyPoolError,
        match="no background anchors survive the mask at step 0, seed 323, "
        "kept fraction 0",
    ):
        run_training(config, SimConfig(scene_pool_size=2))


@pytest.mark.parametrize("gated", [True, False], ids=["gated", "baseline"])
def test_divergence_error_names_step_seed_and_kept_fraction(gated):
    # A huge learning rate leaves the parameters finite after step 0's
    # update but so large that step 1's logits overflow.
    config = tiny_config(probanet_enabled=gated, learning_rate=1e308)
    with np.errstate(all="ignore"), pytest.raises(
        NumericError, match="non-finite metrics at step 1, seed 3, kept fraction 1:"
    ):
        run_training(config, TINY_SIM)


def test_non_finite_parameter_error_names_parameter_step_and_seed():
    # Step 1's update overflows the gate arrays while every metric up to
    # step 1 stays finite.  Unchecked, the nan gate weights fail every
    # `t2 > th` test and step 2 ends in EmptyPoolError.
    config = tiny_config(learning_rate=1e150)
    with np.errstate(all="ignore"), pytest.raises(
        NumericError,
        match="^non-finite parameter reduce_weight after the update of step 1, "
        "seed 3$",
    ):
        run_training(config, TINY_SIM)


def test_momentum_accumulates_across_steps():
    # Two steps of v <- mom*v - lr*(g + wd*w); w <- w + v, replayed name
    # by name from each step's gradients, for both variants.
    for gated in (True, False):
        config = tiny_config(probanet_enabled=gated, epochs=1, steps_per_epoch=2)
        pool = build_scene_pool(config, TINY_SIM)
        state = init_state(config, TINY_SIM)
        x, labels = pool.step_inputs(0, 2)
        mom, wd = config.momentum, config.weight_decay
        params = dict(state.params)
        velocity = dict(state.velocity)
        for step in range(2):
            lr = config.learning_rate_at(step)
            _, grads, _, _ = loss_and_grads(state, x, labels, config)
            assert set(grads) == set(state.params) == set(state.velocity)
            assert len(grads) == (7 if gated else 3)
            for name, g in grads.items():
                velocity[name] = mom * velocity[name] - lr * (g + wd * params[name])
                params[name] = params[name] + velocity[name]
            state, _ = train_step(state, x, labels, config)
            for name in grads:
                assert np.array_equal(state.params[name], params[name]), name
                assert np.array_equal(state.velocity[name], velocity[name]), name


def test_update_writes_in_place_and_entries_cannot_be_replaced():
    # Every entry views one flat buffer, packed when the state is made,
    # which each update writes in place.  No entry can be replaced, so the
    # update can never miss one.
    config = tiny_config(probanet_enabled=True, alpha=0.5)
    pool = build_scene_pool(config, TINY_SIM)
    state = init_state(config, TINY_SIM)
    x, labels = pool.step_inputs(0, 2)
    held = state.params["head_weight"], state.velocity["expand_weight"]
    before = held[0].copy()
    train_step(state, x, labels, config)
    assert state.params["head_weight"] is held[0]
    assert state.velocity["expand_weight"] is held[1]
    assert not np.array_equal(held[0], before)
    # A copy of the state, deep or unpickled, trains on a buffer of its own
    # from the same parameters, velocities and step, and leaves the
    # original as it was.
    held = copy.deepcopy(dict(state.params))
    twins = [copy.deepcopy(state), pickle.loads(pickle.dumps(state))]
    for twin in twins:
        train_step(twin, x, labels, config)
        assert not np.array_equal(twin.params["head_weight"], held["head_weight"])
        assert all(np.array_equal(state.params[n], v) for n, v in held.items())
    train_step(state, x, labels, config)
    for twin in twins:
        assert twin.step == state.step == 2
        for name, value in state.params.items():
            assert np.array_equal(twin.params[name], value), name
            assert np.array_equal(twin.velocity[name], state.velocity[name]), name

    with pytest.raises(TypeError):
        state.params["reduce_weight"] = np.full_like(state.params["reduce_weight"], 0.25)
    with pytest.raises(TypeError):
        state.velocity["shift"] = 0.125


def test_metrics_record_holds_python_numbers():
    # metrics.csv writes repr(value); a numpy scalar would read
    # "np.float64(0.5)" there.
    record = MetricsRecord(
        step=np.int64(2), cls_loss=np.float64(0.5), probanet_loss=0,
        variance=np.float32(0.25), beta=0.0, hard_ratio=np.float64(0.125),
        fg_gate_mean=1.0, bg_gate_mean=1.0, kept_fraction=np.float64(1.0),
    )
    assert type(record.step) is int
    assert all(type(getattr(record, name)) is float for name in METRICS_HEADER.split(",")[1:])
    assert metrics_csv((record,)).splitlines()[1] == "2,0.5,0.0,0.25,0.0,0.125,1.0,1.0,1.0"
    for name, bad in (
        ("cls_loss", "0.5"), ("cls_loss", np.array([0.5])), ("variance", True),
        ("beta", None), ("step", 2.0), ("step", False),
    ):
        with pytest.raises(TypeError, match=name):
            replace(record, **{name: bad})
    # TrainConfig admits numpy numbers, and alpha * cls_loss is then one.
    config = tiny_config(probanet_enabled=True, alpha=np.float64(0.5))
    _, _, log = run_partial(config, TINY_SIM, 2)
    assert "np." not in metrics_csv(log)


def test_loss_and_grads_rejects_labels_that_miss_the_map():
    config = tiny_config()
    state = init_state(config, TINY_SIM)
    x, labels = build_scene_pool(config, TINY_SIM).step_inputs(0, 2)
    one_scene = LabelArrays(
        category=labels.category[:16], hard=labels.hard[:16], iou=labels.iou[:16]
    )
    with pytest.raises(DimensionError, match="does not match 16 labels"):
        loss_and_grads(state, x, one_scene, config)
    with pytest.raises(DimensionError):
        train_step(state, x[:, :2], labels, config)
    # The step reads rows, not the scenes' (H, W, C) maps stacked.
    with pytest.raises(DimensionError):
        train_step(state, x.reshape(-1, 4, 4), labels, config)
    assert state.step == 0


def test_step_inputs_are_views_unless_the_range_wraps():
    config = tiny_config()
    pool = build_scene_pool(config, replace(TINY_SIM, scene_pool_size=3))
    x, labels = pool.step_inputs(0, 2)
    assert np.shares_memory(x, pool.features)
    assert np.shares_memory(labels.category, pool.labels.category)
    assert np.shares_memory(labels.iou, pool.labels.iou)
    assert x.shape == (32, 4)
    assert np.array_equal(x[:16], pool.scenes[0].features.reshape(16, 4))
    assert np.array_equal(x[16:], pool.scenes[1].features.reshape(16, 4))
    # Step 1 takes scenes 2 and 0: a copy, in that order.
    x, labels = pool.step_inputs(1, 2)
    assert not np.shares_memory(x, pool.features)
    assert np.array_equal(x[:16], pool.scenes[2].features.reshape(16, 4))
    assert np.array_equal(x[16:], pool.scenes[0].features.reshape(16, 4))
    assert np.array_equal(labels.category[16:], pool.labels.category[:16])
    for i, scene in enumerate(pool.scenes):
        assert np.shares_memory(scene.features, pool.features[i])


def test_step_inputs_are_made_once_per_window_and_read_only():
    config = tiny_config()
    pool = build_scene_pool(config, replace(TINY_SIM, scene_pool_size=3))
    # Steps 0 and 3 read scenes 0 and 1, steps 1 and 4 the wrapped pair 2, 0.
    for step, later in ((0, 3), (1, 4)):
        x, labels = pool.step_inputs(step, 2)
        again = pool.step_inputs(later, 2)
        assert again[0] is x and again[1] is labels
        assert labels.is_fg is again[1].is_fg and labels.is_bg is again[1].is_bg
        assert np.array_equal(labels.is_fg, labels.category == FG)
        assert np.array_equal(labels.is_bg, labels.category == BG)
        arrays = (x, labels.category, labels.hard, labels.iou, labels.is_fg, labels.is_bg)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
    # One scene from scene 0 is another window than two from it.
    x, labels = pool.step_inputs(0, 2)
    x_one, labels_one = pool.step_inputs(0, 1)
    assert x_one is not x and labels_one is not labels
    assert x_one.shape[0] * 2 == x.shape[0] and len(labels_one) * 2 == len(labels)
    assert np.array_equal(x_one, x[: x_one.shape[0]])
    # The pool itself stays writable.
    assert pool.features.flags.writeable and pool.labels.category.flags.writeable


# Scenes of exactly one synthesis block (16 * 32 * 128 values): the
# smallest a pool builds on more than one thread.
BLOCK_SIM = replace(
    TINY_SIM, height=16, width=32, channels=128, n_objects_max=3,
    object_max_size=6, scene_pool_size=5,
)


def spy_on_thread_starts(monkeypatch) -> list:
    """The threads started from now on, each still started."""
    started, start = [], threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


@pytest.mark.parametrize("cores, pool_size", [(1, 5), (2, 5), (3, 5), (3, 2), (3, 1)])
def test_threaded_pool_build_equals_the_serial_scenes_bit_for_bit(
    monkeypatch, cores, pool_size
):
    sim = replace(BLOCK_SIM, scene_pool_size=pool_size)
    assert sim.height * sim.width * sim.channels >= _BLOCK
    config = tiny_config(seed=11)
    started = spy_on_thread_starts(monkeypatch)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over as often as can be
    try:
        pool = build_scene_pool(config, sim, cores)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert len(started) == min(cores, pool_size) - 1
    scenes = [
        generate_scene(sim, derive_seed(config.seed, "scene", i))
        for i in range(pool_size)
    ]
    labels = [label_arrays(scene, sim) for scene in scenes]
    assert pool.features.tobytes() == np.stack([s.features for s in scenes]).tobytes()
    for name in ("category", "hard", "iou"):
        column = getattr(pool.labels, name)
        expected = np.concatenate([getattr(la, name) for la in labels])
        assert column.dtype == expected.dtype
        assert column.tobytes() == expected.tobytes()
    assert len(pool.scenes) == pool_size
    for i, (got, want) in enumerate(zip(pool.scenes, scenes)):
        assert got.seed == want.seed
        assert got.objects.tobytes() == want.objects.tobytes()
        assert np.shares_memory(got.features, pool.features[i])


def test_a_pool_of_sub_block_scenes_starts_no_thread(monkeypatch):
    started = spy_on_thread_starts(monkeypatch)
    sim = replace(BLOCK_SIM, channels=64, scene_pool_size=4)
    assert sim.height * sim.width * sim.channels < _BLOCK
    pool = build_scene_pool(tiny_config(), sim, 4)
    assert started == [] and len(pool.scenes) == 4


@pytest.mark.parametrize("cores", [0, -1])
def test_build_scene_pool_rejects_fewer_than_one_core(cores):
    with pytest.raises(DomainError, match=f"got cores={cores}"):
        build_scene_pool(tiny_config(), TINY_SIM, cores)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_the_first_failing_scene_raises_whichever_thread_built_it(
    monkeypatch, cores
):
    # With two or three cores, scene 1 is a helper's and scene 2 the
    # caller's or another helper's, and scene 2 fails first.
    config = tiny_config(seed=11)
    failing = {derive_seed(config.seed, "scene", i): i for i in (1, 2)}
    synthesize = training._synthesize_into
    scene_2_failed = threading.Event()

    def failing_synthesize(sim_config, seed, features):
        if failing.get(seed) == 2:
            scene_2_failed.set()
            raise DomainError("scene 2 failed")
        if failing.get(seed) == 1:
            if cores > 1:
                assert scene_2_failed.wait(60)
            raise DomainError("scene 1 failed")
        return synthesize(sim_config, seed, features)

    monkeypatch.setattr(training, "_synthesize_into", failing_synthesize)
    threads = threading.active_count()
    with pytest.raises(DomainError, match="scene 1 failed"):
        build_scene_pool(config, BLOCK_SIM, cores)
    assert threading.active_count() == threads


@pytest.mark.parametrize("pool_size", [3, 1])
def test_run_partial_matches_explicitly_concatenated_steps(pool_size):
    # Pools of 3 and 1 scenes with two scenes a step: most steps wrap.
    sim = replace(TINY_SIM, scene_pool_size=pool_size)
    config = tiny_config(alpha=0.5, th=0.3, steps_per_epoch=5)
    state, pool, log = run_partial(config, sim, 5)
    ref_state = init_state(config, sim)
    ref_records = []
    for step in range(5):
        picks = [(2 * step + j) % pool_size for j in range(2)]
        x = np.concatenate([pool.scenes[i].features for i in picks]).reshape(-1, 4)
        n = len(pool.labels) // pool_size
        labels = LabelArrays(*(
            np.concatenate([col[i * n : (i + 1) * n] for i in picks])
            for col in (pool.labels.category, pool.labels.hard, pool.labels.iou)
        ))
        ref_state, record = train_step(ref_state, x, labels, config)
        ref_records.append(record)
    assert list(log) == ref_records
    for name, value in state.params.items():
        assert np.array_equal(ref_state.params[name], value), name


def test_gated_step_runs_the_gate_once_each_way(monkeypatch):
    import probanet.training

    calls = {"gate_forward": 0, "gate_backward": 0}

    def spy(original):
        def wrapper(*args, **kwargs):
            calls[original.__name__] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(probanet.training, original.__name__, wrapper)

    spy(probanet.training.gate_forward)
    spy(probanet.training.gate_backward)
    config = tiny_config(alpha=0.5, th=0.3, scenes_per_batch=2)
    x, labels = build_scene_pool(config, TINY_SIM).step_inputs(0, 2)
    train_step(init_state(config, TINY_SIM), x, labels, config)
    assert calls == {"gate_forward": 1, "gate_backward": 1}


def test_metrics_csv_and_tail_mean_hard_ratio():
    log = tuple(
        MetricsRecord(
            step=i, cls_loss=0.5, probanet_loss=0.25, variance=0.01,
            beta=0.0, hard_ratio=hr, fg_gate_mean=0.6, bg_gate_mean=0.4,
            kept_fraction=1.0,
        )
        for i, hr in enumerate([0.1, 0.2, 0.3, 0.4, 0.5])
    )
    text = metrics_csv(log[:4])
    lines = text.strip().split("\n")
    assert lines[0] == METRICS_HEADER == (
        "step,cls_loss,probanet_loss,variance,beta,hard_ratio,"
        "fg_gate_mean,bg_gate_mean,kept_fraction"
    )
    assert len(lines) == 5
    assert lines[1].startswith("0,0.5,0.25,0.01,")
    # repr round-trips every float exactly.
    assert float(lines[4].split(",")[5]) == 0.4
    # The tail is the last quarter of the steps, rounded up.
    assert tail_mean_hard_ratio(log[:4]) == 0.4
    assert tail_mean_hard_ratio(log) == pytest.approx(0.45)
    assert tail_mean_hard_ratio(log[:1]) == 0.1
    assert tail_mean_hard_ratio(()) == 0.0


def test_metrics_record_rejects_non_finite():
    with pytest.raises(NumericError):
        MetricsRecord(
            step=0, cls_loss=float("nan"), probanet_loss=0.0, variance=0.01,
            beta=0.0, hard_ratio=0.0, fg_gate_mean=0.0, bg_gate_mean=0.0,
            kept_fraction=1.0,
        )


def test_run_partial_validates_step_budget():
    config = tiny_config(epochs=1, steps_per_epoch=4)
    with pytest.raises(ConfigError):
        run_partial(config, TINY_SIM, 5)
    with pytest.raises(ConfigError):
        run_partial(config, TINY_SIM, -1)
    state, pool, log = run_partial(config, TINY_SIM, 0)
    assert state.step == 0
    assert len(pool.scenes) == TINY_SIM.scene_pool_size
    assert len(log) == 0


def test_run_training_is_deterministic():
    config = tiny_config(epochs=2, steps_per_epoch=3)
    a = run_training(config, TINY_SIM)
    b = run_training(config, TINY_SIM)
    assert a.metrics == b.metrics
    for name, value in a.final_state.params.items():
        assert np.array_equal(b.final_state.params[name], value)
    assert a.gate_gap == b.gate_gap
    assert a.logit_gap == b.logit_gap
    assert len(a.metrics) == config.total_steps
    assert a.tail_hard_ratio == tail_mean_hard_ratio(a.metrics)


def test_run_result_evaluates_in_test_mode():
    # Test-mode evaluation keeps every anchor, so the gated kept set is
    # complete and the gate means are computed over the whole pool.
    config = tiny_config(epochs=1, steps_per_epoch=2, th=0.3, alpha=0.5)
    result = run_training(config, TINY_SIM)
    assert 0.0 < result.fg_gate_mean < 1.0
    assert 0.0 < result.bg_gate_mean < 1.0
    assert result.gate_gap == pytest.approx(
        result.fg_gate_mean - result.bg_gate_mean
    )

    plain = run_training(replace(config, probanet_enabled=False), TINY_SIM)
    assert plain.fg_gate_mean == 1.0
    assert plain.bg_gate_mean == 1.0
    assert plain.gate_gap == 0.0


def test_run_experiment_pairs_seeds_and_shares_pools():
    base = tiny_config(probanet_enabled=False, epochs=1, steps_per_epoch=2)
    variant = tiny_config(probanet_enabled=True, epochs=1, steps_per_epoch=2)
    report = run_experiment((base, variant), 2, TINY_SIM)
    assert report.configs == (base, variant)
    seeds = [baseline.config.seed for baseline, _ in report.runs]
    assert seeds == [base.seed, base.seed + 1]
    for seed, (baseline, gated) in zip(seeds, report.runs):
        assert baseline.config.probanet_enabled is False
        assert gated.config.probanet_enabled is True
        assert baseline.config.seed == seed
        assert gated.config.seed == seed


def test_run_experiment_rejects_non_knob_differences():
    base = tiny_config(probanet_enabled=False)
    with pytest.raises(ConfigError):
        run_experiment((base, tiny_config(learning_rate=0.01)), 1, TINY_SIM)
    with pytest.raises(ConfigError):
        run_experiment((base, tiny_config(seed=4)), 1, TINY_SIM)
    with pytest.raises(ConfigError):
        run_experiment((base, tiny_config()), 0, TINY_SIM)
    # The mechanism knobs may differ.
    run_experiment(
        (
            tiny_config(probanet_enabled=True, alpha=0.0, th=0.0, epochs=0),
            tiny_config(probanet_enabled=True, alpha=0.5, th=0.5, epochs=0),
        ),
        1,
        TINY_SIM,
    )


def test_run_experiment_rejects_bad_gate_geometry_before_any_step(monkeypatch):
    import probanet.training

    steps = []

    def spy(*args):
        steps.append(args[0].step)
        return train_step(*args)

    monkeypatch.setattr(probanet.training, "train_step", spy)
    use_workers(monkeypatch, forked=False)  # so the spy sees every step
    base = tiny_config(probanet_enabled=False, r=3)
    with pytest.raises(ConfigError, match="channels 4 not divisible by reduction 3") as exc:
        run_experiment((base, replace(base, probanet_enabled=True)), 1, TINY_SIM)
    assert exc.value.field == "r"
    assert steps == []
    # Without a gate, r is unused.
    run_experiment((base,), 1, TINY_SIM)
    assert len(steps) == base.total_steps > 0


def test_run_experiment_rejects_empty_configs():
    with pytest.raises(ConfigError, match="at least one config"):
        run_experiment((), 1, TINY_SIM)


def test_run_experiment_single_variant_matches_run_training():
    config = tiny_config(probanet_enabled=True, th=0.3, alpha=0.5)
    seen = []
    report = run_experiment(
        (config,), 2, TINY_SIM, on_seed=lambda results, scene0: seen.append(results)
    )
    assert report.configs == (config,)
    assert [len(results) for results in report.runs] == [1, 1]
    assert seen == list(report.runs)
    for s, (result,) in enumerate(report.runs):
        alone = run_training(replace(config, seed=config.seed + s), TINY_SIM)
        assert result.config == alone.config
        assert result.metrics == alone.metrics
        assert result.gate_gap == alone.gate_gap
        assert result.logit_gap == alone.logit_gap


def test_run_experiment_trains_four_variants_on_one_pool_per_seed(
    tmp_path, monkeypatch
):
    import probanet.training

    base = tiny_config(probanet_enabled=False)
    gated = tiny_config(probanet_enabled=True, th=0.3, alpha=0.5)
    no_aux = replace(gated, alpha=0.0)
    control = replace(gated, th=0.0, alpha=0.0)
    configs = (base, gated, no_aux, control)
    seeds = [base.seed, base.seed + 1]
    built = tmp_path / "built"

    def counting_build(config, sim_config, cores=None):
        # A forked worker's memory is its own, so its builds go to a file.
        with open(built, "a", encoding="ascii") as fh:
            fh.write(f"{config.seed} {cores}\n")
        return build_scene_pool(config, sim_config, cores)

    monkeypatch.setattr(probanet.training, "build_scene_pool", counting_build)
    for forked in (True, False):
        use_workers(monkeypatch, forked)
        if forked and hasattr(os, "sched_getaffinity"):  # two seeds share two cores
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        scenes = []
        report = run_experiment(
            configs, 2, TINY_SIM, on_seed=lambda results, scene0: scenes.append(scene0)
        )
        # Forked workers build at once, in either order, on one core each.
        lines = built.read_text(encoding="ascii").splitlines()
        builds = sorted(line.split() for line in lines)
        assert builds == [[str(seed), "1"] for seed in seeds]
        built.unlink()
        assert [scene.seed for scene in scenes] == [
            derive_seed(seed, "scene", 0) for seed in seeds
        ]
    for s, results in enumerate(report.runs):
        assert [r.config for r in results] == [
            replace(c, seed=base.seed + s) for c in configs
        ]
        for result in results:
            alone = run_training(result.config, TINY_SIM)
            assert result.metrics == alone.metrics
        # The inert-gate control samples the baseline's batches draw for draw.
        assert [r.hard_ratio for r in results[3].metrics] == [
            r.hard_ratio for r in results[0].metrics
        ]
    assert report.uplifts() == [
        results[1].tail_hard_ratio - results[0].tail_hard_ratio
        for results in report.runs
    ]


def test_train_config_rejects_seeds_outside_u64():
    assert TrainConfig(seed=0).seed == 0
    assert TrainConfig(seed=2**64 - 1).seed == 2**64 - 1
    for seed in (-1, 2**64, 2**65 + 3):
        with pytest.raises(ConfigError, match="^seed: must lie in") as exc:
            TrainConfig(seed=seed)
        assert exc.value.field == "seed"
    with pytest.raises(ConfigError, match="^line 2: bad value for seed: must lie"):
        parse_config("epochs = 1\nseed = 18446744073709551616\n")


def test_run_experiment_rejects_seeds_past_u64_before_training():
    config = tiny_config(epochs=0, seed=2**64 - 1)
    seen = []
    with pytest.raises(ConfigError, match="2\\*\\*64 - 1") as exc:
        run_experiment(
            (config,), 2, TINY_SIM, on_seed=lambda results, scene0: seen.append(scene0)
        )
    assert exc.value.field == "seed"
    assert seen == []
    # The last seed below 2**64 still runs.
    [(result,)] = run_experiment((config,), 1, TINY_SIM).runs
    assert result.config.seed == 2**64 - 1


def test_zero_step_experiment_reports_identical_empty_metrics():
    base = tiny_config(probanet_enabled=False, epochs=0)
    variant = tiny_config(probanet_enabled=True, epochs=0)
    report = run_experiment((base, variant), 1, TINY_SIM)
    baseline, gated = report.runs[0]
    assert baseline.metrics == gated.metrics == ()
    assert baseline.tail_hard_ratio == gated.tail_hard_ratio == 0.0
    assert report.mean_uplift() == 0.0


def test_experiment_report_arithmetic():
    def fake_result(tail):
        return RunResult(
            config=tiny_config(epochs=0),
            metrics=(),
            tail_hard_ratio=tail,
            fg_gate_mean=0.0,
            bg_gate_mean=0.0,
            gate_gap=0.0,
            logit_gap=0.0,
            final_state=None,
        )

    runs = (
        (fake_result(0.2), fake_result(0.5)),
        (fake_result(0.4), fake_result(0.3)),
    )
    report = ExperimentReport(
        configs=(tiny_config(epochs=0), tiny_config(epochs=0)),
        runs=runs,
    )
    assert report.uplifts() == pytest.approx([0.3, -0.1])
    assert report.mean_uplift() == pytest.approx(0.1)
    assert report.uplift_wins() == 1


def test_one_variant_report_says_why_it_has_no_uplift():
    report = run_experiment((tiny_config(epochs=0),), 1, TINY_SIM)
    stats = (report.uplifts, report.mean_uplift, report.uplift_wins)
    for stat in (*stats, lambda: summary_csv(report)):
        with pytest.raises(DomainError, match="two variants; this report has 1$"):
            stat()


@pytest.mark.skipif(
    not training._BLAS_PINNED
    or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="needs numpy's OpenBLAS, os.fork and os.sched_getaffinity",
)
@pytest.mark.parametrize("text", ["²", "0", " 1", "abc", "1", "2"])
def test_worker_count_is_the_affinity_set_whatever_the_blas_variables(
    monkeypatch, text
):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(name, text)
    assert training._worker_count() == len(os.sched_getaffinity(0))
    report = run_experiment((tiny_config(),), 2, TINY_SIM)
    assert [r.config.seed for (r,) in report.runs] == [3, 4]


# One gated step on bench/workloads.py's paired-wide geometry, with the
# variance floor lowered so that the gate's dense backward runs: its
# (3800, 32)^T @ (3800, 512) weight-gradient product takes different bits
# from one OpenBLAS thread than from two.
WIDE_STEP = """\
import hashlib
from probanet import SimConfig, TrainConfig, build_scene_pool, init_state, train_step

sim = SimConfig(
    height=38, width=50, channels=512, object_max_size=8, scene_pool_size=2,
    anchor_shapes=(
        (3, 3), (3, 5), (5, 3), (5, 5), (2, 4), (4, 2), (6, 6), (4, 4), (2, 2)
    ),
)
config = TrainConfig(r=16, epsilon=1e-9, seed=4099)
x, labels = build_scene_pool(config, sim).step_inputs(0, config.scenes_per_batch)
state, record = train_step(init_state(config, sim), x, labels, config)
digest = hashlib.sha256(state._theta.tobytes()).hexdigest()
print(record.variance > config.epsilon, digest)
"""


def test_a_step_takes_the_same_bits_whatever_the_blas_threads():
    src = str(Path(training.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", WIDE_STEP],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        above_floor, digest = proc.stdout.split()
        assert above_floor == "True"
        outputs.append(digest)
    assert outputs[0] == outputs[1]


BLAS_THREADS = """\
import re
import numpy as np

def threads():
    with open("/proc/self/status", encoding="ascii") as fh:
        return re.search(r"Threads:\\s*(\\d+)", fh.read()).group(1)

import probanet.training
imported = threads()
a = np.arange(160000.0).reshape(400, 400)
a @ a
print(imported, threads())
"""


@pytest.mark.skipif(
    sys.platform != "linux" or not training._BLAS_PINNED,
    reason="reads /proc/self/status; needs numpy's OpenBLAS",
)
def test_importing_training_leaves_one_thread_with_no_blas_variable():
    # With no variable set, OpenBLAS starts a pool thread per further core.
    src = str(Path(training.__file__).parents[1])
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_THREADS],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # After the import, and after a product that OpenBLAS would thread.
    assert proc.stdout.split() == ["1", "1"]
