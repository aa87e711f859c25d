"""run_experiment's forked seed workers against its in-process loop.

With OPENBLAS_NUM_THREADS=1 on two or more cores, each seed of a
multi-seed experiment trains in a forked worker; with as many BLAS
threads as CPUs it trains in-process.  Spies patched into
probanet.training are inherited by the workers through fork; what a
worker records is written to a file, since its memory is its own.
"""

import contextlib
import os
import signal
from dataclasses import replace

import numpy as np
import pytest

import probanet.training as training
from probanet import (
    EmptyPoolError,
    ProbanetError,
    SimConfig,
    TrainConfig,
    run_experiment,
    run_training,
    sample_minibatch,
)
from probanet.cli import main

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork")
    or not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="forked seed workers need os.fork and two or more cores",
)

SIM = SimConfig(
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
GATED = TrainConfig(epochs=1, steps_per_epoch=4, th=0.3, alpha=0.5, r=2, seed=3)
CONFIGS = (replace(GATED, probanet_enabled=False), GATED)

CLI_CONFIG = """\
epochs = 1
steps_per_epoch = 3
th = 0.3
r = 2
seed = 3
height = 4
width = 4
channels = 4
n_objects_min = 1
n_objects_max = 1
object_min_size = 2
object_max_size = 2
scene_pool_size = 2
"""


def use_workers(monkeypatch, forked: bool) -> None:
    """One BLAS thread per process forks a worker per seed; as many as
    there are CPUs keeps every seed in-process."""
    threads = 1 if forked else os.cpu_count()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(threads))


def record_pids(monkeypatch, path) -> None:
    """Append the pid of the process running each run_training to path."""

    def spy(config, sim_config, pool=None):
        with open(path, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return run_training(config, sim_config, pool)

    monkeypatch.setattr(training, "run_training", spy)


def read_pids(path) -> list[int]:
    pids = [int(line) for line in path.read_text(encoding="ascii").split()]
    path.unlink()
    return pids


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the test if the block runs past seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_seeds_equal_one_seed_runs(tmp_path, monkeypatch):
    pids = tmp_path / "pids"
    record_pids(monkeypatch, pids)
    use_workers(monkeypatch, forked=True)
    seen = []
    report = run_experiment(
        CONFIGS, 2, SIM, on_seed=lambda results, scene0: seen.append((results, scene0))
    )
    worker_pids = read_pids(pids)
    assert os.getpid() not in worker_pids
    assert len(set(worker_pids)) == 2  # one worker per seed
    assert [results for results, _ in seen] == list(report.runs)

    for s, (results, scene0) in enumerate(seen):
        seeded = tuple(replace(c, seed=GATED.seed + s) for c in CONFIGS)
        alone_seen = []
        [alone] = run_experiment(
            seeded, 1, SIM, on_seed=lambda r, scene: alone_seen.append(scene)
        ).runs
        assert read_pids(pids) == [os.getpid()] * len(CONFIGS)
        assert scene0.seed == alone_seen[0].seed
        assert np.array_equal(scene0.features, alone_seen[0].features)
        assert [r.config for r in results] == [r.config for r in alone]
        for forked, in_process in zip(results, alone):
            assert forked.metrics.to_csv() == in_process.metrics.to_csv()
            params = forked.final_state.params
            assert params.keys() == in_process.final_state.params.keys()
            for name, value in in_process.final_state.params.items():
                assert np.array_equal(params[name], value), name
    assert_no_child_left()


def _tree_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file()
    }


def test_forked_train_writes_the_in_process_bytes(tmp_path, monkeypatch, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text(CLI_CONFIG, encoding="ascii")
    pids = tmp_path / "pids"
    record_pids(monkeypatch, pids)
    trees, stdouts = [], []
    for forked in (True, False):
        use_workers(monkeypatch, forked)
        out = tmp_path / ("forked" if forked else "in-process")
        argv = ["train", "--config", str(config), "--out", str(out), "--seeds", "2"]
        assert main(argv) == 0
        ran_in = set(read_pids(pids))
        if forked:
            assert os.getpid() not in ran_in
        else:
            assert ran_in == {os.getpid()}
        trees.append(_tree_bytes(out))
        stdouts.append(capsys.readouterr().out.replace(str(out), "<out>"))
    assert "summary.csv" in trees[0]
    assert sorted(trees[0]) == sorted(trees[1])
    assert trees[0] == trees[1]
    assert stdouts[0] == stdouts[1]
    assert_no_child_left()


def fail_at_seed(monkeypatch, bad: int) -> None:
    """Make the sampler of every run at seed `bad` find no candidates."""
    current = {}

    def run_spy(config, sim_config, pool=None):
        current["seed"] = config.seed
        return run_training(config, sim_config, pool)

    def sample_spy(labels, mask, rng):
        if current["seed"] == bad:
            raise EmptyPoolError("no candidates (spy)")
        return sample_minibatch(labels, mask, rng)

    monkeypatch.setattr(training, "run_training", run_spy)
    monkeypatch.setattr(training, "sample_minibatch", sample_spy)


def test_failing_seed_is_raised_after_the_seeds_before_it(monkeypatch):
    bad = GATED.seed + 1
    fail_at_seed(monkeypatch, bad)
    errors = []
    for forked in (True, False):
        use_workers(monkeypatch, forked)
        seen = []
        with time_limit(60), pytest.raises(EmptyPoolError) as exc:
            run_experiment(
                CONFIGS, 3, SIM,
                on_seed=lambda results, scene0: seen.append(results[0].config.seed),
            )
        assert seen == [GATED.seed]
        errors.append(exc.value)
        assert_no_child_left()
    forked_error, in_process_error = errors
    assert type(forked_error) is type(in_process_error)
    assert str(forked_error) == str(in_process_error)
    assert str(forked_error).startswith(f"no candidates (spy) at step 0, seed {bad},")


@pytest.mark.parametrize("offset", [0, 1])
def test_worker_exiting_without_reply_names_seed_and_status(monkeypatch, offset):
    bad = GATED.seed + offset
    parent = os.getpid()

    def exiting_spy(config, sim_config, pool=None):
        if config.seed == bad and os.getpid() != parent:
            os._exit(1)
        return run_training(config, sim_config, pool)

    monkeypatch.setattr(training, "run_training", exiting_spy)
    use_workers(monkeypatch, forked=True)
    seen = []
    match = f"seed {bad} exited with status 1 "
    with time_limit(60), pytest.raises(ProbanetError, match=match):
        run_experiment(
            CONFIGS, 2, SIM,
            on_seed=lambda results, scene0: seen.append(results[0].config.seed),
        )
    assert seen == list(range(GATED.seed, bad))
    assert_no_child_left()
