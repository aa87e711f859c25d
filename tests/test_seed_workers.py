"""run_experiment's forked seed workers and config children against its
in-process loop.

With OPENBLAS_NUM_THREADS=1 on two cores, each seed of a two-seed
experiment trains in a forked worker, and a one-seed experiment trains
configs[0] in this process and configs[1] in a child forked from it;
with as many BLAS threads as CPUs everything trains in-process.  Spies patched into
probanet.training are inherited by the workers through fork; what a
worker records is written to a file, since its memory is its own.
"""

import contextlib
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from spies import read_calls, record_calls, use_workers

import probanet.training as training
from probanet import (
    EmptyPoolError,
    ProbanetError,
    SimConfig,
    TrainConfig,
    dump_feature_map,
    run_experiment,
    run_training,
    sample_minibatch,
)
from probanet.artifacts import variant_name
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
    calls = tmp_path / "calls"
    record_calls(monkeypatch, calls, training.build_scene_pool)
    record_calls(monkeypatch, calls, training.run_training)
    use_workers(monkeypatch, forked=True)
    seen = []
    report = run_experiment(
        CONFIGS, 2, SIM, on_seed=lambda results, scene0: seen.append((results, scene0))
    )
    by_pid = {}
    for name, pid in read_calls(calls):
        by_pid.setdefault(pid, []).append(name)
    assert os.getpid() not in by_pid
    # One worker per seed builds the seed's pool, then trains every config.
    one_seed = ["build_scene_pool"] + ["run_training"] * len(CONFIGS)
    assert list(by_pid.values()) == [one_seed, one_seed]
    assert [results for results, _ in seen] == list(report.runs)

    use_workers(monkeypatch, forked=False)
    for s, (results, scene0) in enumerate(seen):
        seeded = tuple(replace(c, seed=GATED.seed + s) for c in CONFIGS)
        alone_seen = []
        [alone] = run_experiment(
            seeded, 1, SIM, on_seed=lambda r, scene: alone_seen.append(scene)
        ).runs
        assert read_calls(calls) == [(name, os.getpid()) for name in one_seed]
        assert scene0.seed == alone_seen[0].seed
        assert np.array_equal(scene0.features, alone_seen[0].features)
        assert [r.config for r in results] == [r.config for r in alone]
        for forked, in_process in zip(results, alone):
            assert forked.metrics == in_process.metrics
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
    calls = tmp_path / "calls"
    record_calls(monkeypatch, calls, training.build_scene_pool)
    record_calls(monkeypatch, calls, training.run_training)
    trees, stdouts = [], []
    for forked in (True, False):
        use_workers(monkeypatch, forked)
        out = tmp_path / ("forked" if forked else "in-process")
        argv = ["train", "--config", str(config), "--out", str(out), "--seeds", "2"]
        assert main(argv) == 0
        ran_in = {pid for _, pid in read_calls(calls)}
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


def test_reply_that_does_not_pickle_names_seed_and_cause(monkeypatch):
    # In-process the reply is never pickled, so only a worker fails.
    def unpicklable(scene):
        return lambda: scene.seed

    use_workers(monkeypatch, forked=False)
    run_experiment((GATED,), 2, SIM, on_pool=unpicklable)
    use_workers(monkeypatch, forked=True)
    match = (
        f"^the reply of the worker training seed {GATED.seed} does not pickle: "
        r"\w+: Can't pickle .*lambda"
    )
    with time_limit(60), pytest.raises(ProbanetError, match=match):
        run_experiment((GATED,), 2, SIM, on_pool=unpicklable)
    assert_no_child_left()


def record_variants(monkeypatch, path) -> None:
    """Spy on run_training, appending each run's variant and the calling
    process's pid to path, as record_calls does."""

    def spy(config, sim_config, pool=None):
        with open(path, "a", encoding="ascii") as fh:
            fh.write(f"{variant_name(config)} {os.getpid()}\n")
        return run_training(config, sim_config, pool)

    monkeypatch.setattr(training, "run_training", spy)


@pytest.mark.parametrize("seeds", [1, 2])
def test_each_seed_builds_and_exports_once_in_its_own_process(
    tmp_path, monkeypatch, capsys, seeds
):
    config = tmp_path / "tiny.cfg"
    config.write_text(CLI_CONFIG, encoding="ascii")
    calls = tmp_path / "calls"
    record_calls(monkeypatch, calls, training.build_scene_pool)
    record_calls(monkeypatch, calls, dump_feature_map)
    record_variants(monkeypatch, calls)
    trees, stdouts = [], []
    for forked in (True, False):
        use_workers(monkeypatch, forked)
        out = tmp_path / ("forked" if forked else "in-process")
        argv = ["train", "--config", str(config), "--out", str(out)]
        assert main(argv + ["--seeds", str(seeds)]) == 0
        ran_in = {}
        for name, pid in read_calls(calls):
            ran_in.setdefault(name, []).append(pid)
        # One pool and one export per seed, both made where the seed trains.
        seed_pids = ran_in.pop("build_scene_pool")
        assert len(seed_pids) == seeds
        assert sorted(ran_in.pop("dump_feature_map")) == sorted(seed_pids)
        assert sorted(ran_in.pop("baseline")) == sorted(seed_pids)
        gated_pids = ran_in.pop("probanet")
        assert ran_in == {}
        if not forked:
            assert set(seed_pids + gated_pids) == {os.getpid()}
        elif seeds == 1:  # train's own process and one core to spare
            assert seed_pids == [os.getpid()]
            assert len(gated_pids) == 1 and gated_pids[0] != os.getpid()
        else:  # a worker per seed and no core to spare
            assert os.getpid() not in seed_pids
            assert sorted(gated_pids) == sorted(seed_pids)
        trees.append(_tree_bytes(out))
        stdouts.append(capsys.readouterr().out.replace(str(out), "<out>"))
    assert "summary.csv" in trees[0]
    assert len(trees[0]) == 1 + seeds * len(CONFIGS) * 6  # six files a run
    assert trees[0] == trees[1]
    assert stdouts[0] == stdouts[1]
    assert_no_child_left()


THREE_CONFIGS = CONFIGS + (replace(GATED, th=0.2),)


def fail_variant(monkeypatch, failing: str) -> None:
    """Make the sampler of every run of the variant named failing find no
    candidates, naming the run's th."""
    current = {}

    def run_spy(config, sim_config, pool=None):
        current["config"] = config
        return run_training(config, sim_config, pool)

    def sample_spy(labels, mask, rng):
        config = current["config"]
        if variant_name(config) == failing:
            raise EmptyPoolError(f"no candidates (spy, th {config.th})")
        return sample_minibatch(labels, mask, rng)

    monkeypatch.setattr(training, "run_training", run_spy)
    monkeypatch.setattr(training, "sample_minibatch", sample_spy)


@pytest.mark.parametrize("failing", ["baseline", "probanet"])
def test_failing_config_is_raised_as_in_process(monkeypatch, failing):
    # th tells the two gated configs apart; the first to fail is raised.
    fail_variant(monkeypatch, failing)
    errors = []
    for forked in (True, False):
        use_workers(monkeypatch, forked)
        with time_limit(60), pytest.raises(EmptyPoolError) as exc:
            run_experiment(THREE_CONFIGS, 1, SIM)
        errors.append(exc.value)
        assert_no_child_left()
    forked_error, in_process_error = errors
    assert type(forked_error) is type(in_process_error)
    assert str(forked_error) == str(in_process_error)
    assert str(forked_error).startswith(f"no candidates (spy, th {GATED.th}) at step 0")


def test_on_pool_runs_right_after_the_first_config_in_either_mode(monkeypatch):
    # on_pool runs once configs[0] has trained, before configs[1:] finish
    # in children or start in-process, so its error is the one raised
    # when a later config fails too.
    fail_variant(monkeypatch, "probanet")

    def failing_export(scene):
        raise ValueError(f"no export of scene {scene.seed} (spy)")

    for forked in (True, False):
        use_workers(monkeypatch, forked)
        with time_limit(60), pytest.raises(ValueError, match="^no export of scene"):
            run_experiment(CONFIGS, 1, SIM, on_pool=failing_export)
        assert_no_child_left()


def test_config_child_exiting_without_reply_names_seed_and_variant(monkeypatch):
    parent = os.getpid()

    def exiting_spy(config, sim_config, pool=None):
        if config.probanet_enabled and os.getpid() != parent:
            os._exit(1)
        return run_training(config, sim_config, pool)

    monkeypatch.setattr(training, "run_training", exiting_spy)
    use_workers(monkeypatch, forked=True)
    seen = []
    match = (
        f"^the worker training the probanet variant at seed {GATED.seed} "
        "exited with status 1 without a result$"
    )
    with time_limit(60), pytest.raises(ProbanetError, match=match):
        run_experiment(CONFIGS, 1, SIM, on_seed=lambda *reply: seen.append(reply))
    assert seen == []
    assert_no_child_left()


def live_members(pgid: int) -> list[int]:
    """The pids of process group pgid's processes that are not zombies,
    read from /proc.  A killed worker whose new parent never reaps it
    stays a zombie in the group, so only live members count."""
    members = []
    for entry in os.listdir("/proc"):
        try:
            stat = Path("/proc", entry, "stat").read_bytes()
        except OSError:
            continue
        state, _, group = stat[stat.rindex(b")") + 2 :].split()[:3]
        if int(group) == pgid and state != b"Z":
            members.append(int(entry))
    return members


def terminate_train(tmp_path, seeds: int, children: int) -> None:
    """Start a long `probanet train --seeds <seeds>` in its own process
    group, SIGTERM it once it has that many live children, and require
    the group to empty."""
    # About a minute per seed, far past the bound below.
    config = tmp_path / "long.cfg"
    config.write_text("epochs = 250\nth = 0\n", encoding="ascii")
    src = str(Path(training.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [
        sys.executable, "-m", "probanet.cli", "train", "--config", str(config),
        "--out", str(tmp_path / "runs"), "--seeds", str(seeds),
    ]
    proc = subprocess.Popen(argv, env=env, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while len(live_members(proc.pid)) < 1 + children:
            assert proc.poll() is None, "train exited before forking its workers"
            assert time.monotonic() < deadline, "the workers never started"
            time.sleep(0.05)
        proc.terminate()  # SIGTERM skips run_experiment's cleanup
        proc.wait()
        deadline = time.monotonic() + 10
        while left := live_members(proc.pid):
            assert time.monotonic() < deadline, f"workers {left} outlived train"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


@pytest.mark.skipif(sys.platform != "linux", reason="PR_SET_PDEATHSIG is Linux's")
def test_seed_workers_die_with_their_parent(tmp_path):
    terminate_train(tmp_path, seeds=2, children=2)  # a worker per seed


@pytest.mark.skipif(sys.platform != "linux", reason="PR_SET_PDEATHSIG is Linux's")
def test_config_children_die_with_their_parent(tmp_path):
    # One seed trains in train's own process, its gated config in a child.
    terminate_train(tmp_path, seeds=1, children=1)
