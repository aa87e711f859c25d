"""The benchmark's traced run, in miniature.

bench/spans.py wraps every public function of the package and reads
some of their arguments (the TrainState of train_step, the convolution
of conv1x1_forward), so a signature change it does not follow fails
here rather than only in a traced benchmark run.  The module is read
from its path and executed; nothing under bench/ is written.
"""

import importlib
import inspect
import types
from pathlib import Path

from spies import use_workers

from probanet import cli

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

CONFIG = """\
epochs = 1
steps_per_epoch = 2
r = 2
th = 0.3
seed = 3
scenes_per_batch = 2
height = 4
width = 4
channels = 4
n_objects_min = 1
n_objects_max = 1
object_min_size = 2
object_max_size = 2
scene_pool_size = 2
"""


def load_spans() -> types.ModuleType:
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(module))
    return module


def test_traced_train_and_gradcheck(tmp_path, capsys, monkeypatch):
    # Spans recorded in a forked child die with it, so train in-process.
    use_workers(monkeypatch, forked=False)
    spans = load_spans()
    config = tmp_path / "tiny.cfg"
    config.write_text(CONFIG, encoding="ascii")
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [
            cli.main([
                "train", "--config", str(config), "--out", str(tmp_path / "runs"),
                "--seeds", "1",
            ]),
            cli.main([
                "gradcheck", "--op", "conv1x1", "--seeds", "1", "--shapes", "2x2x2",
            ]),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0]
    agg = spans.aggregate(tracer)
    assert agg["training.train_step.baseline"]["calls"] == 2
    assert agg["training.train_step.gated"]["calls"] == 2
    assert agg["tensor.conv1x1_forward"]["work"] > 0
    # Uninstalled: the package runs its own functions again.
    assert cli.main.__module__ == "probanet.cli"


def test_every_span_with_work_or_a_tag_names_a_package_function():
    # The tracer wraps only public functions and methods defined in a
    # layer module; a key naming anything else never records a span, and
    # the metric read from it would read zero without failing.
    spans = load_spans()
    for name in [*spans.WORK, *spans.TAGS]:
        layer, *path = name.split(".")
        assert layer in spans.LAYERS, name
        obj = importlib.import_module(f"{spans.PACKAGE}.{layer}")
        for attr in path:
            assert not attr.startswith("_"), name
            obj = getattr(obj, attr, None)
        assert inspect.isfunction(obj), name
        assert obj.__module__ == f"{spans.PACKAGE}.{layer}", name
