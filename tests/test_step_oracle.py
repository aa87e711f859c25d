"""The training step against tests/reference.py's transcription of it,
bit for bit: metrics, gradients, parameters and velocities."""

import copy
from dataclasses import astuple

import numpy as np
import pytest
import reference

from probanet import (
    IGNORE,
    SimConfig,
    SplitMix64,
    TrainConfig,
    build_scene_pool,
    generate_scene,
    init_state,
    label_arrays,
    sample_minibatch,
    train_step,
    training,
)

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
    # A variance floor low enough that the variance gradient flows.  At
    # th = 0.5 seed 0 trains all 40 steps on both grids, where on the tiny
    # grid several other seeds truncate every background anchor within a
    # few steps (the EmptyPoolError fault), leaving nothing to compare.
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
    assert (min(r.kept_fraction for r in records) < 1.0) == (gated and th > 0)
    assert any(r.variance > config.epsilon for r in records) == gated


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
