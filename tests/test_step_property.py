"""Training steps on drawn small configurations against
tests/reference.py's transcription of the step, bit for bit."""

import copy
from dataclasses import astuple

import numpy as np
import pytest
import reference
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from probanet import (
    EmptyPoolError,
    SimConfig,
    TrainConfig,
    build_scene_pool,
    init_state,
    train_step,
)

STEPS = 4


def _config(**fields) -> TrainConfig:
    base = dict(
        epochs=1, steps_per_epoch=STEPS, learning_rate=0.01, alpha=0.5,
        epsilon=1e-9,  # low enough that the variance gradient flows
    )
    return TrainConfig(**{**base, **fields})


@st.composite
def configs(draw):
    """A small simulator and a config that trains on it: 1-3 anchor
    shapes, 2-8 channels, a pool of 1-5 scenes read 1-3 at a time, so
    that some windows wrap past the last scene."""
    channels = draw(st.integers(2, 8))
    sim = SimConfig(
        height=draw(st.integers(3, 6)),
        width=draw(st.integers(3, 6)),
        channels=channels,
        anchor_shapes=tuple(
            draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                          min_size=1, max_size=3))
        ),
        n_objects_min=0,
        n_objects_max=draw(st.integers(0, 3)),
        object_min_size=1,
        object_max_size=draw(st.integers(1, 3)),
        scene_pool_size=draw(st.integers(1, 5)),
    )
    config = _config(
        th=draw(st.sampled_from([0.0, 0.3, 0.5])),
        r=draw(st.sampled_from([d for d in range(1, channels + 1) if channels % d == 0])),
        probanet_enabled=draw(st.booleans()),
        seed=draw(st.integers(0, 2**64 - 1)),
        scenes_per_batch=draw(st.integers(1, 3)),
    )
    return sim, config


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
# At the built-in grid, seed 323 keeps no background weight above 0.5 at
# step 0, so the sampler runs dry.
@example((SimConfig(scene_pool_size=2), _config(th=0.5, seed=323)))
# Three scenes read two at a time: every other window wraps.
@example((
    SimConfig(height=4, width=5, channels=6, anchor_shapes=((2, 2), (3, 1)),
              object_max_size=3, scene_pool_size=3),
    _config(th=0.3, r=3, seed=11),
))
def test_steps_equal_the_reference_bit_for_bit_or_both_run_dry(case):
    sim, config = case
    pool = build_scene_pool(config, sim)
    state = init_state(config, sim)
    params = copy.deepcopy(dict(state.params))
    velocity = copy.deepcopy(dict(state.velocity))
    for step in range(config.total_steps):
        x, labels = pool.step_inputs(step, config.scenes_per_batch)
        try:
            record_ref, _, params, velocity = reference.train_step(
                params, velocity, step, x, labels, config
            )
        except EmptyPoolError:
            with pytest.raises(EmptyPoolError, match=f"at step {step}, "):
                train_step(state, x, labels, config)
            return
        _, record = train_step(state, x, labels, config)
        assert [repr(v) for v in astuple(record)] == [repr(v) for v in record_ref]
        # tobytes tells -0.0 from 0.0, which array_equal does not.
        for name in state.params:
            assert state.params[name].tobytes() == np.asarray(params[name]).tobytes()
            assert state.velocity[name].tobytes() == np.asarray(velocity[name]).tobytes()
