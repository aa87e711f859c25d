"""The training step against tests/reference.py's transcription of it,
bit for bit: metrics, gradients, parameters and velocities."""

import ast
import copy
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
import reference

from probanet import (
    IGNORE,
    SimConfig,
    SplitMix64,
    TrainConfig,
    build_scene_pool,
    init_state,
    label_arrays,
    sample_minibatch,
    train_step,
    training,
)
from probanet.sim import generate_scene

TINY_SIM = SimConfig(
    height=4, width=4, channels=4, n_objects_min=1, n_objects_max=1,
    object_min_size=2, object_max_size=2, scene_pool_size=2,
)
# Over 192 background candidates per step, so the sampler's partial
# selection runs, and two anchor slots per cell.
SMALL_SIM = SimConfig(
    height=16, width=16, channels=8, anchor_shapes=((3, 3), (2, 4)),
    object_max_size=4, scene_pool_size=3,
)


@pytest.mark.parametrize("sim", [TINY_SIM, SMALL_SIM], ids=["tiny", "small"])
@pytest.mark.parametrize("th", [0.0, 0.5])
@pytest.mark.parametrize("gated", [True, False], ids=["gated", "baseline"])
def test_training_steps_equal_the_reference_bit_for_bit(monkeypatch, sim, th, gated):
    # A variance floor low enough that the variance gradient flows on
    # the small grid; the tiny grid's gate weights sink to it after one
    # step, so its gated cases also run the floor's backward over the
    # sampled anchors' rows only.  At th = 0.5 seed 0 trains all 40
    # steps on both grids, where on the tiny grid several other seeds
    # truncate every background anchor within a few steps (the
    # EmptyPoolError fault), leaving nothing to compare.
    config = TrainConfig(
        epochs=1, steps_per_epoch=40, alpha=0.5, epsilon=1e-6, th=th, r=2,
        seed=0, probanet_enabled=gated,
    )
    pool = build_scene_pool(config, sim)
    state = init_state(config, sim)
    params = copy.deepcopy(dict(state.params))
    velocity = copy.deepcopy(dict(state.velocity))
    seen, records = [], []
    update = training._sgd_update
    monkeypatch.setattr(
        training, "_sgd_update",
        lambda st, grads, cfg: (seen.append(copy.deepcopy(grads)), update(st, grads, cfg)),
    )
    for step in range(config.total_steps):
        x, labels = pool.step_inputs(step, config.scenes_per_batch)
        record_ref, grads_ref, params, velocity = reference.train_step(
            params, velocity, step, x, labels, config
        )
        _, record = train_step(state, x, labels, config)
        records.append(record)
        got = [repr(v) for v in astuple(record)]
        assert got == [repr(v) for v in record_ref], step
        assert set(seen[-1]) == set(grads_ref) == set(state.params)
        for name, g in grads_ref.items():
            assert np.array_equal(seen[-1][name], g), (step, name)
            assert np.array_equal(state.params[name], params[name]), (step, name)
            assert np.array_equal(state.velocity[name], velocity[name]), (step, name)
    # Truncation dropped anchors wherever the threshold is above 0, and
    # the variance loss was above its floor, so its gradient was formed.
    # Every gated case on the tiny grid also ran steps at the floor.
    assert (min(r.kept_fraction for r in records) < 1.0) == (gated and th > 0)
    assert any(r.variance > config.epsilon for r in records) == gated
    at_floor = any(r.variance == config.epsilon for r in records)
    assert at_floor == (gated and sim is TINY_SIM)


def test_sampler_draws_each_candidate_key_once_in_one_block():
    sim = SMALL_SIM
    labels = label_arrays(generate_scene(sim, 8), sim)
    masks = [None, SplitMix64(1).uniform(len(labels)) > 0.1]
    for mask in masks:
        rng, rng_ref = SplitMix64(21), SplitMix64(21)
        batch = sample_minibatch(labels, mask, rng)
        indices, fg_count = reference.two_draw_sample(labels, mask, rng_ref)
        assert np.array_equal(batch.indices, indices)
        assert batch.fg_count == fg_count
        kept = np.ones(len(labels), bool) if mask is None else mask
        candidates = np.count_nonzero(kept & (labels.category != IGNORE))
        assert rng.counter == rng_ref.counter == candidates
        assert batch.bg_count < candidates - batch.fg_count  # partial selection ran


def test_reference_takes_no_arithmetic_from_the_package():
    # An op the reference imported would move with the program, and the
    # bit-for-bit comparisons above could not see a change to it.
    allowed = {
        "SplitMix64", "derive_seed", "EmptyPoolError",
        "BG", "FG", "IGNORE", "BATCH_SIZE", "FG_QUOTA",
    }
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # the whole package, or a module
            taken += [a.name for a in node.names if a.name.startswith("probanet")]
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("probanet"):
            taken += [a.name for a in node.names]
    assert taken and set(taken) <= allowed, sorted(set(taken) - allowed)
