"""Tests for the training loop: losses, SGD semantics, runs, experiments."""

from dataclasses import replace

import numpy as np
import pytest

from probanet import (
    METRICS_HEADER,
    ConfigError,
    Conv1x1Params,
    DomainError,
    EmptyPoolError,
    ExperimentReport,
    MetricsLog,
    MetricsRecord,
    NumericError,
    RunResult,
    SeedPair,
    SimConfig,
    SplitMix64,
    TrainConfig,
    build_scene_pool,
    conv1x1_backward,
    conv1x1_forward,
    derive_seed,
    finite_diff_gradient,
    gate_forward,
    init_state,
    probanet_loss_grad_v,
    run_experiment,
    run_partial,
    run_training,
    sample_minibatch,
    train_step,
    truncate,
    variance_constraint,
)
from probanet.gate import GateParams
from probanet.training import (
    binary_cross_entropy,
    binary_cross_entropy_grad,
    loss_and_grads,
)
from probanet.sim import FG, LabelArrays
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
        dict(variance_target="features"),
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
    assert gated.head_weight.shape == (1, 4)
    assert np.all(np.abs(gated.head_weight) <= 0.5)
    assert np.all(gated.head_bias == 0.0)
    assert gated.scale == 1.0
    assert gated.shift == 0.0
    assert gated.gate is not None
    assert gated.step == 0
    assert set(gated.velocity) == {
        "head_weight", "scale", "shift",
        "reduce_weight", "reduce_bias", "expand_weight", "expand_bias",
    }

    plain = init_state(tiny_config(probanet_enabled=False), TINY_SIM)
    assert plain.gate is None
    assert set(plain.velocity) == {"head_weight", "scale", "shift"}
    # Both variants start from the same proposal head.
    assert np.array_equal(plain.head_weight, gated.head_weight)

    with pytest.raises(ConfigError):
        init_state(tiny_config(r=3), TINY_SIM)


def test_zero_learning_rate_freezes_parameters():
    config = tiny_config(learning_rate=0.0, epochs=1, steps_per_epoch=5)
    fresh = init_state(config, TINY_SIM)
    state, _, log = run_partial(config, TINY_SIM, 5)
    assert len(log) == 5
    assert np.array_equal(state.head_weight, fresh.head_weight)
    assert state.scale == fresh.scale
    assert state.shift == fresh.shift
    assert np.array_equal(
        state.gate.reduce_conv.weight, fresh.gate.reduce_conv.weight
    )
    assert np.array_equal(
        state.gate.expand_conv.weight, fresh.gate.expand_conv.weight
    )
    assert np.all(state.velocity["head_weight"] == 0.0)


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
    scenes = [pool[0], pool[1]]

    labels = LabelArrays(
        category=np.concatenate([s.labels.category for s in scenes]),
        hard=np.concatenate([s.labels.hard for s in scenes]),
        iou=np.concatenate([s.labels.iou for s in scenes]),
    )
    batch = sample_minibatch(
        labels, None, SplitMix64(derive_seed(config.seed, "sampler", 0))
    )

    w0 = state.head_weight.copy()
    rw0 = state.gate.reduce_conv.weight.copy()
    rb0 = state.gate.reduce_conv.bias.copy()
    ew0 = state.gate.expand_conv.weight.copy()
    eb0 = state.gate.expand_conv.bias.copy()
    s0, h0 = state.scale, state.shift

    def loss_with(head_w, reduce_w, reduce_b, expand_w, expand_b, scale, shift):
        head = Conv1x1Params(weight=head_w, bias=np.zeros(1))
        gate = GateParams(
            reduce_conv=Conv1x1Params(weight=reduce_w, bias=reduce_b),
            expand_conv=Conv1x1Params(weight=expand_w, bias=expand_b),
            reduction=config.r,
            threshold=config.th,
        )
        b_parts = []
        for ls in scenes:
            a = conv1x1_forward(ls.scene.features, head)
            t2 = gate_forward(ls.scene.features, gate).t2
            b_parts.append(truncate(a * t2, t2, gate.threshold, "train")[0].ravel())
        values = np.concatenate(b_parts)[batch.indices]
        logits = scale * values + shift
        targets = (labels.category[batch.indices] == FG).astype(np.float64)
        return binary_cross_entropy(logits, targets)

    fd = {
        "head_weight": finite_diff_gradient(
            lambda w: loss_with(w, rw0, rb0, ew0, eb0, s0, h0), w0
        ),
        "reduce_weight": finite_diff_gradient(
            lambda w: loss_with(w0, w, rb0, ew0, eb0, s0, h0), rw0
        ),
        "reduce_bias": finite_diff_gradient(
            lambda b: loss_with(w0, rw0, b, ew0, eb0, s0, h0), rb0
        ),
        "expand_weight": finite_diff_gradient(
            lambda w: loss_with(w0, rw0, rb0, w, eb0, s0, h0), ew0
        ),
        "expand_bias": finite_diff_gradient(
            lambda b: loss_with(w0, rw0, rb0, ew0, b, s0, h0), eb0
        ),
        "scale": finite_diff_gradient(
            lambda s: loss_with(w0, rw0, rb0, ew0, eb0, float(s[0]), h0),
            np.array([s0]),
        )[0],
        "shift": finite_diff_gradient(
            lambda h: loss_with(w0, rw0, rb0, ew0, eb0, s0, float(h[0])),
            np.array([h0]),
        )[0],
    }

    lr, wd = config.learning_rate, config.weight_decay

    def expect(value, grad):
        return value - lr * (grad + wd * value)

    new_state, record = train_step(state, scenes, config)
    assert record.step == 0
    assert new_state.step == 1
    assert np.allclose(
        new_state.head_weight, expect(w0, fd["head_weight"]), rtol=1e-4, atol=1e-10
    )
    assert np.allclose(
        new_state.gate.reduce_conv.weight,
        expect(rw0, fd["reduce_weight"]), rtol=1e-4, atol=1e-10,
    )
    assert np.allclose(
        new_state.gate.reduce_conv.bias,
        expect(rb0, fd["reduce_bias"]), rtol=1e-4, atol=1e-10,
    )
    assert np.allclose(
        new_state.gate.expand_conv.weight,
        expect(ew0, fd["expand_weight"]), rtol=1e-4, atol=1e-10,
    )
    assert np.allclose(
        new_state.gate.expand_conv.bias,
        expect(eb0, fd["expand_bias"]), rtol=1e-4, atol=1e-10,
    )
    assert abs(new_state.scale - expect(s0, fd["scale"])) < 1e-8
    assert abs(new_state.shift - expect(h0, fd["shift"])) < 1e-8
    # The proposal-map bias does not train.
    assert np.all(new_state.head_bias == 0.0)
    # The loss recomputed by the closure agrees with the recorded one.
    assert abs(record.cls_loss - loss_with(w0, rw0, rb0, ew0, eb0, s0, h0)) < 1e-12


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


def _dense_step(state, scenes, config):
    """One step's logits and loss gradients by the dense path, the
    reference for loss_and_grads: the head conv and the gate over every
    anchor, truncation as a mask over the whole map, and full
    conv1x1_backward VJPs, input gradients included."""
    head, gate = state.head_conv(), state.gate
    a_maps = [conv1x1_forward(ls.scene.features, head) for ls in scenes]
    if gate is None:
        outs = [None] * len(scenes)
        b_flat = np.concatenate([a.ravel() for a in a_maps])
        mask = np.ones(b_flat.size, dtype=bool)
    else:
        outs = [gate_forward(ls.scene.features, gate) for ls in scenes]
        b_flat = np.concatenate([
            truncate(a * out.t2, out.t2, gate.threshold, "train")[0].ravel()
            for a, out in zip(a_maps, outs)
        ])
        t2_flat = np.concatenate([out.t2.ravel() for out in outs])
        mask = t2_flat > gate.threshold
    labels = LabelArrays(
        category=np.concatenate([ls.labels.category for ls in scenes]),
        hard=np.concatenate([ls.labels.hard for ls in scenes]),
        iou=np.concatenate([ls.labels.iou for ls in scenes]),
    )
    rng = SplitMix64(derive_seed(config.seed, "sampler", state.step))
    batch = sample_minibatch(labels, mask, rng)
    values = b_flat[batch.indices]
    logits = state.scale * values + state.shift
    targets = (labels.category[batch.indices] == FG).astype(np.float64)
    dlogits = binary_cross_entropy_grad(logits, targets)
    grads = {"scale": float(np.dot(dlogits, values)), "shift": float(dlogits.sum())}
    grad_b_flat = np.zeros_like(b_flat)
    grad_b_flat[batch.indices] = state.scale * dlogits
    if gate is not None:
        variance, grad_v = variance_constraint(t2_flat, config.epsilon)
        coeff = probanet_loss_grad_v(
            variance, binary_cross_entropy(logits, targets), config.alpha
        )
        grad_v = coeff * grad_v
    offset = 0
    for ls, a, out in zip(scenes, a_maps, outs):
        x = ls.scene.features
        grad_b = grad_b_flat[offset : offset + a.size].reshape(a.shape)
        if gate is None:
            grad_a = grad_b
        else:
            grad_a_prime = np.where(out.t2 > gate.threshold, grad_b, 0.0)
            grad_a = grad_a_prime * out.t2
            grad_t2 = grad_a_prime * a + grad_v[offset : offset + a.size].reshape(a.shape)
            grad_z2 = sigmoid_backward(out.t2, grad_t2)
            grad_t1, grad_ew, grad_eb = conv1x1_backward(out.t1, gate.expand_conv, grad_z2)
            grad_z1 = relu_backward(out.t1, grad_t1)
            _, grad_rw, grad_rb = conv1x1_backward(x, gate.reduce_conv, grad_z1)
            for name, value in (
                ("reduce_weight", grad_rw),
                ("reduce_bias", grad_rb),
                ("expand_weight", grad_ew),
                ("expand_bias", grad_eb),
            ):
                grads[name] = grads.get(name, 0.0) + value
        _, grad_hw, _ = conv1x1_backward(x, head, grad_a)
        grads["head_weight"] = grads.get("head_weight", 0.0) + grad_hw
        offset += a.size
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
    scenes = [pool[0], pool[1]]
    record, grads, batch, logits = loss_and_grads(state, scenes, config)
    ref_batch, ref_logits, ref = _dense_step(state, scenes, config)

    assert np.array_equal(batch.indices, ref_batch.indices)
    per_scene = scenes[0].labels.category.size
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
    # A huge learning rate overflows the parameters at step 0's update.
    config = tiny_config(probanet_enabled=gated, learning_rate=1e308)
    with np.errstate(all="ignore"), pytest.raises(
        NumericError, match="non-finite metrics at step 1, seed 3, kept fraction 1:"
    ):
        run_training(config, TINY_SIM)


def test_momentum_accumulates_across_steps():
    # Second step with momentum: v1 = mom*v0 - lr*(g + wd*w).
    config = tiny_config(epochs=1, steps_per_epoch=2)
    pool = build_scene_pool(config, TINY_SIM)
    state = init_state(config, TINY_SIM)
    state, _ = train_step(state, [pool[0], pool[1]], config)
    v_after_first = state.velocity["scale"]
    scale_before = state.scale
    state, _ = train_step(state, [pool[0], pool[1]], config)
    # The applied update equals the stored velocity.
    assert abs((state.scale - scale_before) - state.velocity["scale"]) < 1e-15
    # And the momentum term carried the old velocity forward.
    assert state.velocity["scale"] != pytest.approx(v_after_first)


def test_train_step_rejects_empty_scene_list():
    config = tiny_config()
    state = init_state(config, TINY_SIM)
    with pytest.raises(DomainError):
        train_step(state, [], config)


def test_train_step_accepts_single_scene_or_list():
    config = tiny_config(scenes_per_batch=1)
    pool = build_scene_pool(config, TINY_SIM)
    state_a = init_state(config, TINY_SIM)
    state_b = init_state(config, TINY_SIM)
    _, rec_a = train_step(state_a, pool[0], config)
    _, rec_b = train_step(state_b, [pool[0]], config)
    assert rec_a == rec_b


def test_metrics_log_csv_and_tail():
    log = MetricsLog()
    for i, hr in enumerate([0.1, 0.2, 0.3, 0.4]):
        log.append(
            MetricsRecord(
                step=i, cls_loss=0.5, probanet_loss=0.25, variance=0.01,
                beta=0.0, hard_ratio=hr, fg_gate_mean=0.6, bg_gate_mean=0.4,
                kept_fraction=1.0,
            )
        )
    text = log.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 5
    assert lines[1].startswith("0,0.5,0.25,0.01,")
    # repr round-trips every float exactly.
    assert float(lines[4].split(",")[5]) == 0.4
    assert log.tail_mean_hard_ratio(0.25) == 0.4
    assert log.tail_mean_hard_ratio(0.5) == pytest.approx(0.35)
    assert log.tail_mean_hard_ratio(1.0) == pytest.approx(0.25)
    assert MetricsLog().tail_mean_hard_ratio() == 0.0


def test_metrics_log_rejects_non_finite():
    log = MetricsLog()
    with pytest.raises(NumericError):
        log.append(
            MetricsRecord(
                step=0, cls_loss=float("nan"), probanet_loss=0.0, variance=0.01,
                beta=0.0, hard_ratio=0.0, fg_gate_mean=0.0, bg_gate_mean=0.0,
                kept_fraction=1.0,
            )
        )


def test_run_partial_validates_step_budget():
    config = tiny_config(epochs=1, steps_per_epoch=4)
    with pytest.raises(ConfigError):
        run_partial(config, TINY_SIM, 5)
    with pytest.raises(ConfigError):
        run_partial(config, TINY_SIM, -1)
    state, pool, log = run_partial(config, TINY_SIM, 0)
    assert state.step == 0
    assert len(pool) == TINY_SIM.scene_pool_size
    assert len(log) == 0


def test_run_training_is_deterministic():
    config = tiny_config(epochs=2, steps_per_epoch=3)
    a = run_training(config, TINY_SIM)
    b = run_training(config, TINY_SIM)
    assert a.metrics.to_csv() == b.metrics.to_csv()
    assert np.array_equal(a.final_state.head_weight, b.final_state.head_weight)
    assert a.gate_gap == b.gate_gap
    assert a.logit_gap == b.logit_gap
    assert len(a.metrics) == config.total_steps
    assert a.tail_hard_ratio == a.metrics.tail_mean_hard_ratio()


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
    report = run_experiment(base, variant, 2, TINY_SIM)
    assert [p.seed for p in report.pairs] == [base.seed, base.seed + 1]
    for pair in report.pairs:
        assert pair.baseline.config.probanet_enabled is False
        assert pair.variant.config.probanet_enabled is True
        assert pair.baseline.config.seed == pair.seed
        assert pair.variant.config.seed == pair.seed
    rows = report.summary_rows()
    assert len(rows) == 2
    assert rows[0]["hard_ratio_uplift"] == pytest.approx(
        report.pairs[0].variant.tail_hard_ratio
        - report.pairs[0].baseline.tail_hard_ratio
    )


def test_run_experiment_rejects_non_knob_differences():
    base = tiny_config(probanet_enabled=False)
    with pytest.raises(ConfigError):
        run_experiment(base, tiny_config(learning_rate=0.01), 1, TINY_SIM)
    with pytest.raises(ConfigError):
        run_experiment(base, tiny_config(seed=4), 1, TINY_SIM)
    with pytest.raises(ConfigError):
        run_experiment(base, tiny_config(), 0, TINY_SIM)
    # The mechanism knobs may differ.
    run_experiment(
        tiny_config(probanet_enabled=True, alpha=0.0, th=0.0, epochs=0),
        tiny_config(probanet_enabled=True, alpha=0.5, th=0.5, epochs=0),
        1,
        TINY_SIM,
    )


def test_zero_step_experiment_reports_identical_empty_metrics():
    base = tiny_config(probanet_enabled=False, epochs=0)
    variant = tiny_config(probanet_enabled=True, epochs=0)
    report = run_experiment(base, variant, 1, TINY_SIM)
    pair = report.pairs[0]
    assert len(pair.baseline.metrics) == 0
    assert len(pair.variant.metrics) == 0
    assert pair.baseline.metrics.to_csv() == pair.variant.metrics.to_csv()
    assert pair.baseline.tail_hard_ratio == pair.variant.tail_hard_ratio == 0.0
    assert report.mean_uplift() == 0.0


def test_experiment_report_arithmetic():
    def fake_result(tail, gap):
        return RunResult(
            config=tiny_config(epochs=0),
            metrics=MetricsLog(),
            tail_hard_ratio=tail,
            fg_gate_mean=0.0,
            bg_gate_mean=0.0,
            gate_gap=gap,
            logit_gap=0.0,
            final_state=None,
        )

    pairs = [
        SeedPair(seed=0, baseline=fake_result(0.2, 0.1), variant=fake_result(0.5, 0.4)),
        SeedPair(seed=1, baseline=fake_result(0.4, 0.2), variant=fake_result(0.3, 0.2)),
    ]
    report = ExperimentReport(
        baseline_config=tiny_config(epochs=0),
        variant_config=tiny_config(epochs=0),
        sim_config=TINY_SIM,
        pairs=pairs,
    )
    assert report.uplifts() == pytest.approx([0.3, -0.1])
    assert report.mean_uplift() == pytest.approx(0.1)
    assert report.uplift_wins() == 1
    # A tied gate gap counts as a win for the variant.
    assert report.gap_wins() == 2
