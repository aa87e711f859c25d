"""End-to-end tests of the command-line front end."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from reference import read_pgm, read_ppm
from spies import read_calls, record_calls, use_workers

import probanet
from probanet import ConfigError
from probanet.cli import _load_configs, main

TINY_CONFIG = """\
learning_rate = 0.001
epochs = 1
steps_per_epoch = 3
alpha = 0.25
th = 0.3
r = 2
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


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG, encoding="ascii")
    return str(path)


def test_count_reference_geometry(capsys):
    code = main(
        ["count", "--channels", "512", "--anchors", "18", "--reduction", "16"]
    )
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert out[0] == "extra cost of the gate (C=512, C'=18, r=16, grid 38x50)"
    assert out[1] == "params 17504 (0.07 MB), macs 32224000 (0.03 G)"


def test_count_custom_grid(capsys):
    code = main(
        [
            "count", "--channels", "4", "--anchors", "3", "--reduction", "2",
            "--height", "2", "--width", "3",
        ]
    )
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert out[1] == "params 20 (0.00 MB), macs 84 (0.00 G)"


def test_count_rejects_bad_geometry(capsys):
    code = main(
        ["count", "--channels", "10", "--anchors", "2", "--reduction", "3"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_gradcheck_single_op_passes(capsys):
    code = main(
        ["gradcheck", "--op", "relu", "--seeds", "1", "--shapes", "3x3x4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "relu: worst relative error" in out
    assert "[PASS]" in out
    assert "gradcheck PASS (tolerance 0.0001)" in out


def test_gradcheck_coarse_step_fails(capsys):
    code = main(
        [
            "gradcheck", "--op", "end_to_end", "--seeds", "1",
            "--eps", "0.25",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out
    assert "gradcheck FAIL" in out


@pytest.mark.parametrize("op", ["gate", "end_to_end"])
def test_gradcheck_gate_ops_reject_one_channel_shapes(op):
    # The gate checks reduce C channels to C // 2, none for C = 1.
    src = str(Path(probanet.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "probanet.cli", "gradcheck",
            "--shapes", "4x4x4,3x3x1", "--op", op, "--seeds", "1",
        ],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: op {op!r} needs shapes of at least 2 channels\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["gradcheck", "--shapes", "3x3"],
        ["gradcheck", "--shapes", "4x4xq"],
        ["gradcheck", "--shapes", "0x4x4"],
        ["gradcheck", "--seeds", "0"],
        ["gradcheck", "--eps", "0"],
        ["heatmap", "--run", "r", "--channel", "0", "--step", "0", "--scale", "0"],
    ],
    ids=["shape-rank", "shape-letter", "shape-zero", "seeds", "eps", "scale"],
)
def test_malformed_arguments_are_usage_errors(capsys, argv):
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1


def test_no_command_prints_help(capsys):
    code = main([])
    assert code == 2
    assert "usage:" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    code = main(["count", "--nope"])
    assert code == 2


def test_exclusive_variant_flags(capsys):
    code = main(["train", "--out", "x", "--baseline", "--probanet"])
    assert code == 2


def test_train_single_variant(tmp_path, tiny_config_path, capsys):
    out_dir = str(tmp_path / "runs")
    code = main(
        [
            "train", "--config", tiny_config_path, "--out", out_dir,
            "--baseline", "--seeds", "1",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "baseline seed 3: tail hard ratio" in captured.out
    run_dir = os.path.join(out_dir, "baseline_seed3")
    assert os.path.isdir(run_dir)
    assert os.path.exists(os.path.join(run_dir, "metrics.csv"))
    assert os.path.exists(os.path.join(run_dir, "resolved-config.txt"))


def test_train_paired_experiment(tmp_path, tiny_config_path, capsys):
    out_dir = str(tmp_path / "runs")
    code = main(
        ["train", "--config", tiny_config_path, "--out", out_dir, "--seeds", "2"]
    )
    captured = capsys.readouterr()
    assert code == 0
    for seed in (3, 4):
        assert f"seed {seed}: baseline" in captured.out
        assert os.path.isdir(os.path.join(out_dir, f"baseline_seed{seed}"))
        assert os.path.isdir(os.path.join(out_dir, f"probanet_seed{seed}"))
    assert "mean uplift" in captured.out
    assert "2 seeds" in captured.out
    summary = os.path.join(out_dir, "summary.csv")
    assert os.path.exists(summary)
    with open(summary, encoding="ascii") as fh:
        lines = fh.read().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("seed,baseline_hard_ratio")


def _tree_bytes(root):
    """Every file under root by its relative path, with its bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file()
    }


def test_single_variant_runs_equal_the_paired_arms(
    tmp_path, tiny_config_path, capsys
):
    # One seed loop serves both modes: each single-variant run directory
    # is byte for byte the matching arm of the paired run, whether a flag
    # or a fed-back resolved-config.txt, which sets probanet_enabled,
    # picks the variant.
    paired = tmp_path / "paired"
    argv = ["train", "--seeds", "2", "--config"]
    assert main(argv + [tiny_config_path, "--out", str(paired)]) == 0
    paired_files = _tree_bytes(paired)
    for variant in ("baseline", "probanet"):
        resolved = paired / f"{variant}_seed3" / "resolved-config.txt"
        for picked in ([tiny_config_path, f"--{variant}"], [str(resolved)]):
            out = tmp_path / f"{variant}-{len(picked)}"
            assert main(argv + picked + ["--out", str(out)]) == 0
            files = _tree_bytes(out)
            assert sorted({path.split(os.sep)[0] for path in files}) == [
                f"{variant}_seed3", f"{variant}_seed4"
            ]
            assert files == {path: paired_files[path] for path in files}
    capsys.readouterr()


@pytest.mark.parametrize("variant", ["baseline", "probanet"])
def test_config_probanet_enabled_trains_one_variant_as_its_flag_does(
    tmp_path, tiny_config_path, capsys, variant
):
    enabled = "true" if variant == "probanet" else "false"
    config = tmp_path / "one.cfg"
    config.write_text(TINY_CONFIG + f"probanet_enabled = {enabled}\n", encoding="ascii")
    runs = []
    for path, flag in (
        (config, []),  # the key alone
        (config, [f"--{variant}"]),  # the key and the matching flag
        (tiny_config_path, [f"--{variant}"]),  # the flag alone
    ):
        out = tmp_path / f"out{len(runs)}"
        argv = ["train", "--config", str(path), "--seeds", "2", "--out", str(out)]
        assert main(argv + flag) == 0
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        runs.append((_tree_bytes(out), stdout))
    assert runs[0] == runs[1] == runs[2]
    assert sorted({path.split(os.sep)[0] for path in runs[0][0]}) == [
        f"{variant}_seed3", f"{variant}_seed4"
    ]


@pytest.mark.parametrize(
    "enabled, flag", [("false", "--probanet"), ("true", "--baseline")]
)
def test_flag_contradicting_config_probanet_enabled_exits_before_writing(
    tmp_path, capsys, enabled, flag
):
    config = tmp_path / "one.cfg"
    config.write_text(TINY_CONFIG + f"probanet_enabled = {enabled}\n", encoding="ascii")
    out_dir = tmp_path / "r"
    code = main(["train", "--config", str(config), "--out", str(out_dir), flag])
    captured = capsys.readouterr()
    assert code == 2
    assert f"probanet_enabled contradicts {flag}" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("variant", [[], ["--probanet"]], ids=["paired", "single"])
def test_train_rejects_seeds_past_u64_before_writing(tmp_path, capsys, variant):
    config = tmp_path / "last.cfg"
    config.write_text(
        TINY_CONFIG.replace("seed = 3", "seed = 18446744073709551615"),
        encoding="ascii",
    )
    out_dir = tmp_path / "r"
    code = main(
        ["train", "--config", str(config), "--out", str(out_dir), "--seeds", "2"]
        + variant
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "2**64 - 1" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


def test_train_rejects_bad_seed_count(tmp_path, tiny_config_path, capsys):
    code = main(
        [
            "train", "--config", tiny_config_path,
            "--out", str(tmp_path / "r"), "--seeds", "0",
        ]
    )
    assert code == 2


def test_train_bad_config_key(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("made_up_knob = 7\n", encoding="ascii")
    code = main(["train", "--config", str(bad), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message, field",
    [
        ("made_up_knob = 7\n", "line 1: unknown key made_up_knob", None),
        (
            "seed = 1\nmomentum = 1\n",
            "line 2: bad value for momentum: must lie in",
            "momentum",
        ),
    ],
    ids=["key", "value"],
)
def test_train_config_errors_name_the_file(tmp_path, capsys, text, message, field):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text, encoding="ascii")
    code = main(["train", "--config", str(bad), "--out", str(tmp_path / "r")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
    assert not (tmp_path / "r").exists()
    with pytest.raises(ConfigError) as exc:
        _load_configs(str(bad))
    assert exc.value.field == field


def test_train_missing_config_file(tmp_path, capsys):
    code = main(
        [
            "train", "--config", str(tmp_path / "absent.cfg"),
            "--out", str(tmp_path / "r"),
        ]
    )
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_train_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(b"th = 0.3  # caf\xe9, Latin-1\n")
    code = main(["train", "--config", str(bad), "--out", str(tmp_path / "r")])
    assert code == 2
    assert f"{bad} is not UTF-8" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "r")


def test_train_reads_a_config_behind_a_byte_order_mark(
    tmp_path, tiny_config_path, capsys
):
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(tiny_config_path).read_bytes())
    argv = ["train", "--probanet", "--seeds", "1", "--config"]
    for config, out in ((tiny_config_path, "plain"), (str(marked), "marked")):
        assert main(argv + [config, "--out", str(tmp_path / out)]) == 0
    assert _tree_bytes(tmp_path / "marked") == _tree_bytes(tmp_path / "plain")
    capsys.readouterr()


def test_heatmap_renders_for_existing_run(tmp_path, tiny_config_path, capsys):
    out_dir = str(tmp_path / "runs")
    assert (
        main(
            [
                "train", "--config", tiny_config_path, "--out", out_dir,
                "--probanet", "--seeds", "1",
            ]
        )
        == 0
    )
    capsys.readouterr()
    run_dir = os.path.join(out_dir, "probanet_seed3")
    code = main(
        [
            "heatmap", "--run", run_dir, "--channel", "0", "--step", "1",
            "--scale", "4",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    printed = captured.out.strip().split("\n")
    assert len(printed) == 2
    for path in printed:
        assert os.path.exists(path)
    with open(os.path.join(run_dir, "gate_step1_ch0.pgm"), "rb") as fh:
        img = read_pgm(fh.read())
    assert img.shape == (16, 16)
    with open(os.path.join(run_dir, "overlay_step1_ch0.ppm"), "rb") as fh:
        overlay = read_ppm(fh.read())
    assert overlay.shape == (16, 16, 3)


@pytest.mark.parametrize("variant", ["baseline", "probanet"])
def test_heatmap_at_the_final_step_reproduces_train_images(tmp_path, capsys, variant):
    # One scene per batch over an odd number of steps on a two-scene pool,
    # so the last step's scene is not scene 0, the scene train renders.
    # The baseline's images are of its unit weights.
    config = tmp_path / "odd.cfg"
    config.write_text(
        TINY_CONFIG.replace("scenes_per_batch = 2", "scenes_per_batch = 1"),
        encoding="ascii",
    )
    out_dir = str(tmp_path / "runs")
    argv = ["train", "--config", str(config), "--out", out_dir, "--seeds", "1"]
    assert main(argv + [f"--{variant}"]) == 0
    run_dir = os.path.join(out_dir, f"{variant}_seed3")
    names = ("gate_step3_ch0.pgm", "overlay_step3_ch0.ppm")
    trained = {}
    for name in names:
        with open(os.path.join(run_dir, name), "rb") as fh:
            trained[name] = fh.read()
    argv = ["heatmap", "--run", run_dir, "--channel", "0", "--step", "3"]
    assert main(argv) == 0
    capsys.readouterr()
    for name in names:
        with open(os.path.join(run_dir, name), "rb") as fh:
            assert fh.read() == trained[name], name


def test_heatmap_plain_variant(tmp_path, tiny_config_path, capsys):
    out_dir = str(tmp_path / "runs")
    main(
        [
            "train", "--config", tiny_config_path, "--out", out_dir,
            "--baseline", "--seeds", "1",
        ]
    )
    capsys.readouterr()
    run_dir = os.path.join(out_dir, "baseline_seed3")
    code = main(
        [
            "heatmap", "--run", run_dir, "--channel", "0", "--step", "0",
            "--scale", "2", "--plain",
        ]
    )
    capsys.readouterr()
    assert code == 0
    with open(os.path.join(run_dir, "gate_step0_ch0.pgm"), "rb") as fh:
        data = fh.read()
    assert data.startswith(b"P2\n")
    # Without a gate every weight is one: a constant field renders gray.
    assert np.all(read_pgm(data) == 128)


def test_heatmap_validates_step_and_channel(tmp_path, tiny_config_path, capsys):
    out_dir = str(tmp_path / "runs")
    main(
        [
            "train", "--config", tiny_config_path, "--out", out_dir,
            "--baseline", "--seeds", "1",
        ]
    )
    capsys.readouterr()
    run_dir = os.path.join(out_dir, "baseline_seed3")
    assert (
        main(["heatmap", "--run", run_dir, "--channel", "0", "--step", "99"])
        == 2
    )
    assert (
        main(["heatmap", "--run", run_dir, "--channel", "5", "--step", "0"])
        == 2
    )
    capsys.readouterr()


def test_heatmap_missing_run_dir(tmp_path, capsys):
    code = main(
        [
            "heatmap", "--run", str(tmp_path / "nowhere"), "--channel", "0",
            "--step", "0",
        ]
    )
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_heatmap_rejects_a_resolved_config_that_is_not_utf8(
    tmp_path, tiny_config_path, capsys
):
    argv = ["train", "--probanet", "--seeds", "1", "--config", tiny_config_path]
    assert main(argv + ["--out", str(tmp_path / "runs")]) == 0
    run_dir = tmp_path / "runs" / "probanet_seed3"
    resolved = run_dir / "resolved-config.txt"
    resolved.write_bytes(b"# r\xe9solu\n" + resolved.read_bytes())
    before = _tree_bytes(run_dir)
    capsys.readouterr()
    code = main(["heatmap", "--run", str(run_dir), "--channel", "0", "--step", "1"])
    assert code == 2
    assert f"{resolved} is not UTF-8" in capsys.readouterr().err
    assert _tree_bytes(run_dir) == before


def test_heatmap_names_the_resolved_config_it_cannot_parse(
    tmp_path, tiny_config_path, capsys
):
    argv = ["train", "--probanet", "--seeds", "1", "--config", tiny_config_path]
    assert main(argv + ["--out", str(tmp_path / "runs")]) == 0
    run_dir = tmp_path / "runs" / "probanet_seed3"
    resolved = run_dir / "resolved-config.txt"
    resolved.write_bytes(b"variance_target = 1\n" + resolved.read_bytes())
    before = _tree_bytes(run_dir)
    capsys.readouterr()
    code = main(["heatmap", "--run", str(run_dir), "--channel", "0", "--step", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {resolved}: line 1: unknown key variance_target\n"
    )
    assert _tree_bytes(run_dir) == before


def test_train_rejects_non_finite_config_value(tmp_path, capsys):
    bad = tmp_path / "nan.cfg"
    bad.write_text("learning_rate = nan\n", encoding="ascii")
    code = main(["train", "--config", str(bad), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "learning_rate" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "r")


def test_train_rejects_zero_bg_iou_before_building_a_pool(tmp_path, capsys, monkeypatch):
    # At bg_iou = 0 no anchor overlaps less than bg_iou, so no scene with
    # an object has a background anchor and training could only end in
    # EmptyPoolError at step 0; the config is rejected before any work.
    import probanet.training

    calls = tmp_path / "calls.txt"
    record_calls(monkeypatch, calls, probanet.training.build_scene_pool)
    bad = tmp_path / "zero.cfg"
    bad.write_text(TINY_CONFIG + "hard_bg_lo = 0\nbg_iou = 0\n", encoding="ascii")
    lineno = len(TINY_CONFIG.splitlines()) + 2
    for variant in ([], ["--probanet"]):
        out_dir = tmp_path / "r"
        code = main(["train", "--config", str(bad), "--out", str(out_dir), *variant])
        assert code == 2
        assert f"line {lineno}: bad value for bg_iou: must be > 0" in capsys.readouterr().err
        assert not out_dir.exists()
    assert not calls.exists()


@pytest.mark.parametrize("variant", [[], ["--probanet"]], ids=["paired", "single"])
def test_train_builds_one_pool_and_one_dump_per_seed(
    tmp_path, tiny_config_path, capsys, monkeypatch, variant
):
    import probanet.tensor
    import probanet.training

    calls = tmp_path / "calls"
    record_calls(monkeypatch, calls, probanet.training.build_scene_pool)
    record_calls(monkeypatch, calls, probanet.tensor.dump_feature_map)
    for forked in (True, False):
        use_workers(monkeypatch, forked)
        out_dir = tmp_path / ("forked" if forked else "in-process")
        code = main(
            ["train", "--config", tiny_config_path, "--out", str(out_dir)]
            + ["--seeds", "2"] + variant
        )
        capsys.readouterr()
        assert code == 0
        counts = Counter(name for name, _ in read_calls(calls))
        assert counts == {"build_scene_pool": 2, "dump_feature_map": 2}
        if not variant:
            for seed in (3, 4):
                dumps = [
                    out_dir / f"{name}_seed{seed}" / "scene0_features.txt"
                    for name in ("baseline", "probanet")
                ]
                assert dumps[0].read_bytes() == dumps[1].read_bytes()
