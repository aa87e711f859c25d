"""Acceptance gate: the nine mechanism-level claims, one test each.

Each test prints a single "criterion N (...): PASS" line (visible with
pytest -s; under plain pytest the verdict is the test's own PASSED or
FAILED line).  Criteria 4-7 share one 10-seed experiment at the default
configuration that trains four arms on each seed's scene pool: the
baseline, the gated variant, the gated variant without the variance
loss (criterion 5) and the inert-gate control (criterion 7).  Criterion
6 also reuses the first trained gated state.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from probanet import (
    BATCH_SIZE,
    FG,
    FG_QUOTA,
    IGNORE,
    SimConfig,
    SplitMix64,
    TrainConfig,
    build_scene_pool,
    derive_seed,
    gate_backward,
    gate_forward,
    label_arrays,
    probanet_loss,
    run_experiment,
    sample_minibatch,
    variance_constraint,
)
from probanet.artifacts import export_scene, write_seed_dirs
from probanet.cli import main
from probanet.gradcheck import DEFAULT_SHAPES, REL_TOL, run_suite
from probanet.sim import generate_scene
from probanet.training import loss_and_grads

N_SEEDS = 10

SIM = SimConfig()
BASELINE = TrainConfig(probanet_enabled=False)
GATED = TrainConfig(probanet_enabled=True)
NO_AUX = replace(GATED, alpha=0.0)
CONTROL = replace(GATED, th=0.0, alpha=0.0)


def report_pass(number: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} ({label}): PASS{suffix}")


@pytest.fixture(scope="module")
def experiment():
    """Criterion 4's protocol, 10 seeds at the default configs and 2000
    steps, with the criterion-5 arm (gated, variance loss off) and the
    criterion-7 arm (gate present but inert: th=0, alpha=0) trained on
    the same pools.  runs[s] is (baseline, gated, no-aux, control)."""
    start = time.perf_counter()
    report = run_experiment((BASELINE, GATED, NO_AUX, CONTROL), N_SEEDS, SIM)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_extra_parameters(capsys):
    start = time.perf_counter()
    code = main(
        ["count", "--channels", "512", "--anchors", "18", "--reduction", "16"]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "params 17504 (0.07 MB)" in out
    assert elapsed < 1.0
    with capsys.disabled():
        report_pass(1, "extra parameters", "17504 params, 0.07 MB")


def test_criterion_2_extra_macs(capsys):
    start = time.perf_counter()
    code = main(
        [
            "count", "--channels", "512", "--anchors", "18", "--reduction",
            "16", "--height", "38", "--width", "50",
        ]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "macs 32224000 (0.03 G)" in out
    assert elapsed < 1.0
    with capsys.disabled():
        report_pass(2, "extra MACs", "32224000 MACs, 0.03 G")


def test_criterion_3_gradient_suite(capsys):
    start = time.perf_counter()
    results = run_suite(seed=0, h=1e-5, shapes=DEFAULT_SHAPES, n_seeds=5)
    elapsed = time.perf_counter() - start
    worst = max(r.worst for r in results)
    assert all(r.worst < REL_TOL for r in results), [
        (r.op, r.worst) for r in results
    ]
    assert elapsed < 10.0
    with capsys.disabled():
        report_pass(
            3, "gradient suite", f"worst {worst:.2e} over {len(results)} ops"
        )


def test_criterion_4_hard_ratio_uplift(experiment, capsys):
    report, elapsed = experiment
    mean = report.mean_uplift()
    wins = report.uplift_wins()
    assert elapsed < 300.0, f"the experiment took {elapsed:.0f}s"
    assert mean >= 0.05, f"mean uplift {mean:+.4f}"
    assert wins >= 8, f"only {wins}/10 seeds improved"
    with capsys.disabled():
        report_pass(
            4,
            "hard-ratio uplift",
            f"mean {mean:+.4f}, {wins}/10 seeds, {elapsed:.0f}s",
        )


def test_criterion_5_separation_needs_variance_loss(experiment, capsys):
    report, _ = experiment
    wins = 0
    for _, gated, no_aux, _ in report.runs:
        assert no_aux.config == replace(NO_AUX, seed=gated.config.seed)
        if gated.gate_gap > no_aux.gate_gap:
            wins += 1
    assert wins >= 8, f"variance loss widened the gap in only {wins}/10 seeds"
    with capsys.disabled():
        report_pass(5, "gate-weight separation", f"{wins}/10 seeds")


def test_criterion_6_aux_loss_below_cls_loss(experiment, capsys):
    report, _ = experiment
    logs = [run.metrics for results in report.runs for run in results]
    violations = 0
    checked = 0
    for log in logs:
        for record in log:
            if record.cls_loss > 0.0:
                checked += 1
                if not record.probanet_loss < record.cls_loss:
                    violations += 1
    assert checked > 0
    assert violations == 0, f"{violations} steps had aux loss >= cls loss"

    # The logged aux loss is alpha * cls_loss by construction, so the
    # bound above cannot fail.  What the auxiliary loss does is its
    # gradient: on one trained gated state and batch, the gate gradients
    # at alpha minus those at alpha = 0 must equal the gate backward pass
    # of -alpha * cls / v^2 * dv/dt2 alone, and at a variance floor above
    # the weights' variance the two must be equal.
    gated = report.runs[0][1]
    state = gated.final_state
    pool = build_scene_pool(gated.config, SIM)
    x, labels = pool.step_inputs(0, 2)
    record, grads, _, _ = loss_and_grads(state, x, labels, GATED)
    _, grads0, _, _ = loss_and_grads(state, x, labels, replace(GATED, alpha=0.0))
    assert record.variance > GATED.epsilon, "the variance floor is active"
    t1, t2 = gate_forward(x, state.gate)
    _, dv = variance_constraint(t2.ravel(), GATED.epsilon)
    _, _, grad_v = probanet_loss(record.variance, record.cls_loss, GATED.alpha)
    grad_t2 = grad_v * dv
    _, expected = gate_backward(t1, t2, x, state.gate, grad_t2.reshape(t2.shape))
    worst = 0.0
    for name, value in expected.items():
        scale = np.abs(value).max()
        assert scale > 0.0, name
        worst = max(worst, np.abs(grads[name] - grads0[name] - value).max() / scale)
    assert worst <= 1e-12, f"aux gradient off by {worst:.2e} of its largest entry"
    floor = replace(GATED, epsilon=2.0 * record.variance)
    _, grads_floor, _, _ = loss_and_grads(state, x, labels, floor)
    _, grads_floor0, _, _ = loss_and_grads(state, x, labels, replace(floor, alpha=0.0))
    for name, value in grads_floor.items():
        assert np.array_equal(value, grads_floor0[name]), name
    with capsys.disabled():
        report_pass(
            6,
            "aux loss bound and gradient",
            f"0 violations in {checked} steps, aux gradient within {worst:.1e}",
        )


def test_criterion_7_inert_gate_changes_nothing(experiment, capsys):
    # With th=0 every anchor survives truncation and with alpha=0 the
    # auxiliary gradient never fires, so the control's sampled batches
    # coincide with the baseline's draw for draw: every step's hard ratio
    # is the baseline's and the per-seed difference is exactly zero.  The
    # 2-sigma band then degenerates to a point, so the bound is applied
    # inclusively.
    report, _ = experiment
    diffs = []
    for baseline, _, _, control in report.runs:
        seed = baseline.config.seed
        assert control.config == replace(CONTROL, seed=seed)
        assert [r.hard_ratio for r in control.metrics] == [
            r.hard_ratio for r in baseline.metrics
        ], f"seed {seed}: control batches differ from the baseline's"
        assert all(r.kept_fraction == 1.0 for r in control.metrics)
        diffs.append(control.tail_hard_ratio - baseline.tail_hard_ratio)
    diffs = np.array(diffs)
    mean = abs(diffs.mean())
    sigma = diffs.std(ddof=1)
    assert mean <= 2.0 * sigma, f"mean |diff| {mean:.4f} vs 2 sigma {2*sigma:.4f}"
    with capsys.disabled():
        report_pass(
            7,
            "inert-gate control",
            f"mean diff {diffs.mean():+.2e}, sigma {sigma:.2e}",
        )


def test_criterion_8_byte_for_byte_determinism(tmp_path, capsys):
    config = replace(GATED, epochs=1, steps_per_epoch=50, seed=123)
    dirs = []
    for name in ("first", "second"):
        run_experiment(
            (config,),
            1,
            SIM,
            lambda results, export: dirs.extend(
                write_seed_dirs(str(tmp_path / name), results, SIM, export)
            ),
            on_pool=export_scene,
        )
    names_a = sorted(os.listdir(dirs[0]))
    names_b = sorted(os.listdir(dirs[1]))
    assert names_a == names_b
    assert "metrics.csv" in names_a
    assert any(n.endswith(".pgm") for n in names_a)
    assert any(n.endswith(".ppm") for n in names_a)
    for name in names_a:
        with open(os.path.join(dirs[0], name), "rb") as fh:
            payload_a = fh.read()
        with open(os.path.join(dirs[1], name), "rb") as fh:
            payload_b = fh.read()
        assert payload_a == payload_b, f"{name} differs between repeats"
    with capsys.disabled():
        report_pass(
            8, "byte-for-byte determinism", f"{len(names_a)} files compared"
        )


def test_criterion_9_sampler_contract_over_10000_batches(capsys):
    scene = generate_scene(SIM, 42)
    labels = label_arrays(scene, SIM)
    n = len(labels)
    category = labels.category
    first_bg = int(np.flatnonzero(category == 0)[0])
    hard_bg = (category == 0) & labels.hard

    for i in range(10_000):
        regime = i % 5
        if regime == 0:
            mask = None
            effective = np.ones(n, dtype=bool)
        elif regime == 1:
            rng_mask = SplitMix64(derive_seed(9, "mask", i))
            effective = rng_mask.uniform(shape=(n,)) < 0.5
            effective[first_bg] = True
            mask = effective
        elif regime == 2:
            effective = category != FG
            mask = effective
        elif regime == 3:
            effective = category == FG
            bg_indices = np.flatnonzero(category == 0)[:3]
            effective = effective.copy()
            effective[bg_indices] = True
            mask = effective
        else:
            effective = (category == FG) | hard_bg
            effective = effective.copy()
            effective[first_bg] = True
            mask = effective

        fg_pool = int(((category == FG) & effective).sum())
        bg_pool = int(((category == 0) & effective).sum())
        batch = sample_minibatch(
            labels, mask, SplitMix64(derive_seed(9, "sample", i))
        )

        assert batch.fg_count <= FG_QUOTA
        assert batch.size <= BATCH_SIZE
        assert batch.fg_count + batch.bg_count == batch.size
        # Ratio padding: fill the quota from the fg pool, then pad the
        # rest of the batch with background.
        assert batch.fg_count == min(FG_QUOTA, fg_pool)
        assert batch.bg_count == min(BATCH_SIZE - batch.fg_count, bg_pool)
        assert len(np.unique(batch.indices)) == batch.size
        assert np.all(category[batch.indices] != IGNORE)
        assert np.all(effective[batch.indices])
        assert np.all(category[batch.indices[: batch.fg_count]] == FG)
        assert np.all(category[batch.indices[batch.fg_count :]] == 0)

    with capsys.disabled():
        report_pass(9, "sampler contract", "10000 batches, 0 violations")
