"""End-to-end tests of the command-line front end."""

import os
import sys

import numpy as np
import pytest
from reference import read_pgm, read_ppm

from probanet.cli import main

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
    # is byte for byte the matching arm of the paired run.
    paired = tmp_path / "paired"
    argv = ["train", "--config", tiny_config_path, "--seeds", "2", "--out"]
    assert main(argv + [str(paired)]) == 0
    paired_files = _tree_bytes(paired)
    for variant in ("baseline", "probanet"):
        out = tmp_path / variant
        assert main(argv + [str(out), f"--{variant}"]) == 0
        files = _tree_bytes(out)
        assert sorted({path.split(os.sep)[0] for path in files}) == [
            f"{variant}_seed3", f"{variant}_seed4"
        ]
        assert files == {path: paired_files[path] for path in files}
    capsys.readouterr()


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


def test_train_missing_config_file(tmp_path, capsys):
    code = main(
        [
            "train", "--config", str(tmp_path / "absent.cfg"),
            "--out", str(tmp_path / "r"),
        ]
    )
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


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


def test_train_rejects_non_finite_config_value(tmp_path, capsys):
    bad = tmp_path / "nan.cfg"
    bad.write_text("learning_rate = nan\n", encoding="ascii")
    code = main(["train", "--config", str(bad), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "learning_rate" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "r")


@pytest.mark.parametrize("variant", [[], ["--probanet"]], ids=["paired", "single"])
def test_train_builds_one_pool_and_one_dump_per_seed(
    tmp_path, tiny_config_path, capsys, monkeypatch, variant
):
    import probanet.tensor
    import probanet.training

    calls = {"build_scene_pool": 0, "dump_feature_map": 0}

    def count_calls(original):
        def wrapper(*args, **kwargs):
            calls[original.__name__] += 1
            return original(*args, **kwargs)

        # Patch every probanet namespace that imported the function.
        for name, module in list(sys.modules.items()):
            if name.startswith("probanet") and getattr(
                module, original.__name__, None
            ) is original:
                monkeypatch.setattr(module, original.__name__, wrapper)

    count_calls(probanet.training.build_scene_pool)
    count_calls(probanet.tensor.dump_feature_map)

    out_dir = tmp_path / "runs"
    code = main(
        ["train", "--config", tiny_config_path, "--out", str(out_dir), "--seeds", "2"]
        + variant
    )
    capsys.readouterr()
    assert code == 0
    assert calls == {"build_scene_pool": 2, "dump_feature_map": 2}
    if not variant:
        for seed in (3, 4):
            dumps = [
                (out_dir / f"{name}_seed{seed}" / "scene0_features.txt").read_bytes()
                for name in ("baseline", "probanet")
            ]
            assert dumps[0] == dumps[1]
