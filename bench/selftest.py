"""Shows that every output check of the benchmark can fail.

Trains a short paired run with the program, confirms that the clean
output passes every check, then corrupts copies of it one way per check
(an altered value, a dropped row, a swapped summary column, ...) and
confirms that the check aimed at each corruption reports it.  The audit
checks are fed the output of `probanet gradcheck --eps 0.25`, which
fails by design, and a BCE gradient that is off by 1%.

    python3 bench/selftest.py

Exits 0 when every corruption is caught, 1 otherwise.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
from probanet.gradcheck import CHECKS, REL_TOL  # noqa: E402
from probanet.training import binary_cross_entropy_grad  # noqa: E402

SEED = 7
N_SEEDS = 2
CONFIG = "epochs = 1\nsteps_per_epoch = 40\nscene_pool_size = 4\n" + f"seed = {SEED}\n"
STEPS = 40


def edit_csv(path: Path, row: int, column: int, fn) -> None:
    """Replace field `column` of data row `row` (0 is the first after the header)."""
    lines = path.read_text().split("\n")
    fields = lines[row + 1].split(",")
    fields[column] = fn(fields[column])
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines))


def drop_line(path: Path, index: int) -> None:
    lines = path.read_text().split("\n")
    del lines[index]
    path.write_text("\n".join(lines))


def swap_columns(path: Path, a: int, b: int) -> None:
    lines = path.read_text().split("\n")
    for i in range(1, len(lines)):
        if lines[i]:
            f = lines[i].split(",")
            f[a], f[b] = f[b], f[a]
            lines[i] = ",".join(f)
    path.write_text("\n".join(lines))


def replace_text(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    if old not in text:
        raise RuntimeError(f"{old!r} not in {path}")
    path.write_text(text.replace(old, new, 1))


B = f"baseline_seed{SEED}"
P = f"probanet_seed{SEED}"

# (check expected to fail, what the corruption does, the corruption)
CORRUPTIONS = [
    ("metrics.header", "renamed header column",
     lambda d: replace_text(d / P / "metrics.csv", "kept_fraction", "kept")),
    ("metrics.rows", "dropped row",
     lambda d: drop_line(d / P / "metrics.csv", 10)),
    ("metrics.finite", "nan cls_loss",
     lambda d: edit_csv(d / B / "metrics.csv", 3, 1, lambda v: "nan")),
    ("metrics.hard_ratio_range", "hard_ratio 1.5",
     lambda d: edit_csv(d / B / "metrics.csv", 3, 5, lambda v: "1.5")),
    ("metrics.aux_loss", "altered probanet_loss",
     lambda d: edit_csv(d / P / "metrics.csv", 5, 2, lambda v: repr(float(v) * 1.0001))),
    # early in a run the variance sits near its floor and beta underflows to 0
    ("metrics.beta", "altered beta",
     lambda d: edit_csv(d / P / "metrics.csv", 5, 4, lambda v: repr(float(v) + 1e-3))),
    ("metrics.gate_range", "gated kept_fraction 0",
     lambda d: edit_csv(d / P / "metrics.csv", 5, 8, lambda v: "0.0")),
    ("metrics.baseline_gate", "baseline fg gate mean 0.99",
     lambda d: edit_csv(d / B / "metrics.csv", 5, 6, lambda v: "0.99")),
    ("summary.hard_ratio", "swapped summary hard-ratio columns",
     lambda d: swap_columns(d / "summary.csv", 1, 2)),
    ("summary.uplift", "altered uplift",
     lambda d: edit_csv(d / "summary.csv", 0, 3, lambda v: repr(float(v) + 0.01))),
    ("summary.rows", "dropped summary row",
     lambda d: drop_line(d / "summary.csv", 2)),
    ("config.roundtrip", "altered resolved config",
     lambda d: replace_text(d / P / "resolved-config.txt", "channels = 128", "channels = 64")),
    ("features.shape", "dropped feature line",
     lambda d: drop_line(d / B / "scene0_features.txt", 5)),
    ("features.finite", "inf feature value",
     lambda d: edit_features(d / B / "scene0_features.txt")),
    ("boxes.geometry", "box moved off the grid",
     lambda d: edit_csv(d / P / "scene0_boxes.csv", 0, 2, lambda v: repr(float(v) + 40.0))),
    ("images.dims", "truncated image",
     lambda d: truncate(d / P / f"gate_step{STEPS}_ch0.pgm")),
    ("files.present", "deleted overlay",
     lambda d: (d / B / f"overlay_step{STEPS}_ch0.ppm").unlink()),
]


def edit_features(path: Path) -> None:
    lines = path.read_text().split("\n")
    vals = lines[3].split(" ")
    vals[2] = "inf"
    lines[3] = " ".join(vals)
    path.write_text("\n".join(lines))


def truncate(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:-1])


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        return selftest(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def selftest(work: Path) -> int:
    config = work / "selftest.cfg"
    config.write_text(CONFIG)
    clean = work / "clean"
    code, _ = run.run_cli(
        ["train", "--config", str(config), "--out", str(clean), "--seeds", str(N_SEEDS)]
    )
    report = checks.Report()
    checks.check_paired(report, str(clean), CONFIG, N_SEEDS)
    checks.check_repeats(report, [checks.digests(str(clean))] * 2)
    checks.check_bce_grad(report, binary_cross_entropy_grad, SEED)
    code_ok, out_ok = run.run_cli(["gradcheck", "--seeds", "1"])
    checks.check_audit(report, code_ok, out_ok, list(CHECKS), REL_TOL)
    if code != 0 or not report:
        print(f"clean outputs fail the checks: {report.failures[:5]}")
        return 1
    print("clean outputs pass every check")

    missed = []

    def expect_caught(check: str, what: str, report: checks.Report) -> None:
        caught = check in report.failed_checks
        print(f"{'caught' if caught else 'MISSED'}  {check:<26} {what}")
        if not caught:
            missed.append(check)

    for check, what, corrupt in CORRUPTIONS:
        copy = work / "corrupt"
        shutil.copytree(clean, copy)
        corrupt(copy)
        report = checks.Report()
        checks.check_paired(report, str(copy), CONFIG, N_SEEDS)
        expect_caught(check, what, report)
        shutil.rmtree(copy)

    copy = work / "corrupt"
    shutil.copytree(clean, copy)
    with open(copy / B / "scene0_boxes.csv", "a") as fh:
        fh.write("\n")
    report = checks.Report()
    checks.check_repeats(report, [checks.digests(str(clean)), checks.digests(str(copy))])
    expect_caught("repeat.digests", "one byte appended in a repeat", report)

    code, stdout = run.run_cli(["gradcheck", "--seeds", "1", "--eps", "0.25"])
    for check in ("audit.exit", "audit.pass_lines", "audit.worst_error"):
        report = checks.Report()
        checks.check_audit(report, code, stdout, list(CHECKS), REL_TOL)
        expect_caught(check, "gradcheck --eps 0.25", report)

    report = checks.Report()
    checks.check_bce_grad(report, lambda z, y: binary_cross_entropy_grad(z, y) * 1.01, SEED)
    expect_caught("audit.bce_grad", "BCE gradient scaled by 1.01", report)

    if missed:
        print(f"self-test FAILED: not caught: {', '.join(missed)}")
        return 1
    print(f"self-test passed: {len(CORRUPTIONS) + 5} corruptions, each caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
