"""Check that this tree's probanet writes the same bytes as another's.

Usage: python3 tools/same_bytes.py OTHER_SRC

OTHER_SRC is the src/ directory of the tree to compare with, say a
checkout of the parent commit (`git archive HEAD~1 | tar -x -C DIR`).
Each case below runs once on OTHER_SRC and once on this tree's src/,
each in a fresh directory of its own; a case is identical when both runs
agree in exit code, in stdout and stderr (the run's directory read as
WORK) and in every file written (`diff -r`).  Prints one line per case
and exits 0 only if every case is identical.

The cases: `gradcheck` at seed 0, at seeds 3-9, and for the gate and
end_to_end checks alone at seeds 7-16; `train` on the two training
workloads of bench/workloads.py, `paired-default` at seed 77 (under
OPENBLAS_NUM_THREADS=1, then with no BLAS variable set, then under
OPENBLAS_NUM_THREADS=2) and `paired-wide` at seed 4099; and `heatmap` at
the final step of the forked `paired-default` run's gated variant,
`heatmap --plain` at step 1000 of its gated variant and `heatmap` at the
final step of its baseline, these two on a one-seed run, and at the final
step of the `paired-wide` run's gated variant, whose scene pool `heatmap`
rebuilds on every core.
It runs one command at a time, under a minute on two cores.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import DEFAULT_CONFIG, WIDE_CONFIG  # noqa: E402

# Environment overrides: a value sets the variable, None unsets it.
FORKED = {"OPENBLAS_NUM_THREADS": "1"}
NO_BLAS_VARIABLE = {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None}
TWO_BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "2"}
TRAIN = ["train", "--config", "workload.cfg", "--out", "out"]

# name: (config file text or None, environment overrides, command lines)
CASES = {
    "gradcheck --seed 0": (None, {}, [["gradcheck", "--seed", "0"]]),
    "gradcheck --seed 3 --seeds 7": (
        None, {}, [["gradcheck", "--seed", "3", "--seeds", "7"]]
    ),
    **{
        f"gradcheck --op {op} --seed 7 --seeds 10": (
            None, {}, [["gradcheck", "--op", op, "--seed", "7", "--seeds", "10"]]
        )
        for op in ("gate", "end_to_end")
    },
    "train paired-default seed 77, forked, then heatmap": (
        DEFAULT_CONFIG + "seed = 77\n",
        FORKED,
        [
            TRAIN + ["--seeds", "2"],
            ["heatmap", "--run", "out/probanet_seed77", "--channel", "0",
             "--step", "2000"],
        ],
    ),
    **{
        f"train paired-default seed 77, forked, then {name}": (
            DEFAULT_CONFIG + "seed = 77\n",
            FORKED,
            [
                TRAIN + ["--seeds", "1"],
                ["heatmap", "--run", f"out/{variant}_seed77", "--channel", "0",
                 "--step", step, *plain],
            ],
        )
        for name, variant, step, plain in (
            ("heatmap --plain at step 1000", "probanet", "1000", ["--plain"]),
            ("baseline heatmap", "baseline", "2000", []),
        )
    },
    **{
        f"train paired-default seed 77, {name}": (
            DEFAULT_CONFIG + "seed = 77\n", overrides, [TRAIN + ["--seeds", "2"]]
        )
        for name, overrides in (
            ("no BLAS variable", NO_BLAS_VARIABLE),
            ("OPENBLAS_NUM_THREADS=2", TWO_BLAS_THREADS),
        )
    },
    "train paired-wide seed 4099, then heatmap": (
        WIDE_CONFIG + "seed = 4099\n",
        {},
        [
            TRAIN + ["--seeds", "1"],
            ["heatmap", "--run", "out/probanet_seed4099", "--channel", "0",
             "--step", "200"],
        ],
    ),
}


def run_case(src: Path, work: Path, config, overrides, argvs) -> str:
    """Run argvs, in order, in the new directory work on the package under
    src; the exit code and output of each, with work read as WORK."""
    work.mkdir()
    if config is not None:
        (work / "workload.cfg").write_text(config, encoding="ascii")
    env = dict(os.environ, PYTHONPATH=str(src))
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    transcript = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "probanet.cli", *argv],
            cwd=work, env=env, capture_output=True, text=True,
        )
        transcript.append(
            f"$ {' '.join(argv)}\nexit {proc.returncode}\n"
            f"{proc.stdout}{proc.stderr}".replace(str(work), "WORK")
        )
    return "".join(transcript)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "probanet").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    other, this = Path(args[0]).resolve(), ROOT / "src"
    differing = 0
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        for i, (name, case) in enumerate(CASES.items()):
            theirs, ours = Path(tmp, f"{i}-other"), Path(tmp, f"{i}-this")
            outputs = [run_case(src, work, *case) for src, work in
                       ((other, theirs), (this, ours))]
            diff = subprocess.run(
                ["diff", "-r", str(theirs), str(ours)],
                capture_output=True, text=True, errors="replace",  # binary images
            )
            faults = []
            if outputs[0] != outputs[1]:
                faults.append("output")
            if diff.returncode != 0:
                faults.append("files")
            if not faults:
                print(f"identical  {name}")
                continue
            differing += 1
            print(f"DIFFERENT  {name}  (differing: {', '.join(faults)})")
            lines = [*difflib.unified_diff(*(o.splitlines() for o in outputs), lineterm=""),
                     *(diff.stdout or diff.stderr).splitlines()]
            print("\n".join(lines[:40]))
    print(f"{len(CASES) - differing} of {len(CASES)} cases identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
