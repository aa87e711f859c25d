"""Output checks for the benchmark workloads.

Each check tests a property the method must have, recomputed here from
the files the program wrote, never a stored hash or number: OpenBLAS
picks its kernel per CPU, so the last bits of a run can differ between
hosts.  A failed check is recorded under its name, so the self-test can
confirm that each check fails on the corruption aimed at it.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import replace

import numpy as np
from probanet.config import parse_config

METRICS_HEADER = (
    "step,cls_loss,probanet_loss,variance,beta,hard_ratio,"
    "fg_gate_mean,bg_gate_mean,kept_fraction"
)
SUMMARY_HEADER = (
    "seed,baseline_hard_ratio,probanet_hard_ratio,hard_ratio_uplift,"
    "baseline_gate_gap,probanet_gate_gap,baseline_logit_gap,probanet_logit_gap"
)
BOXES_HEADER = "x_min,y_min,x_max,y_max"
HEATMAP_SCALE = 16  # cli writes run-directory heatmaps at the default scale
BETA_RTOL = 1e-9
TAIL_FRACTION = 0.25


class Report:
    """Failed checks, by name, with a message each."""

    def __init__(self):
        self.failures: list[tuple[str, str]] = []

    def expect(self, check: str, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append((check, message))
        return ok

    @property
    def failed_checks(self) -> set[str]:
        return {name for name, _ in self.failures}

    def __bool__(self) -> bool:
        return not self.failures


def read_key_values(text: str) -> dict[str, str]:
    """The `key = value` lines of a config text, comments dropped."""
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _same_value(a: str, b: str) -> bool:
    try:
        return float(a) == float(b)
    except ValueError:
        return a.replace(" ", "").lower() == b.replace(" ", "").lower()


def digests(out_dir: str) -> dict[str, str]:
    """sha256 of every file under out_dir, by relative path."""
    found = {}
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(
                    fh.read()
                ).hexdigest()
    return found


def check_repeats(report: Report, all_digests: list[dict[str, str]]) -> None:
    """Every repeat reproduces the first repeat's files byte for byte."""
    for i, d in enumerate(all_digests[1:], start=1):
        first = all_digests[0]
        differ = sorted(k for k in set(d) | set(first) if d.get(k) != first.get(k))
        report.expect("repeat.digests", not differ, f"repeat {i} differs from repeat 0 in {differ}")


# ---------------------------------------------------------------- paired runs


def read_metrics(report: Report, path: str, total_steps: int):
    """Rows of a metrics.csv as float lists, or None if unusable."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    if not report.expect(
        "metrics.header", lines[0] == METRICS_HEADER, f"{path}: header {lines[0]!r}"
    ):
        return None
    body = lines[1:]
    if body and body[-1] == "":
        body = body[:-1]
    rows = [line.split(",") for line in body]
    ok = report.expect(
        "metrics.rows",
        len(rows) == total_steps
        and all(len(r) == 9 for r in rows)
        and [r[0] for r in rows] == [str(s) for s in range(len(rows))],
        f"{path}: expected {total_steps} rows numbered 0.. with 9 fields",
    )
    if not ok:
        return None
    try:
        values = [[float(v) for v in r[1:]] for r in rows]
    except ValueError as exc:
        report.expect("metrics.finite", False, f"{path}: {exc}")
        return None
    report.expect(
        "metrics.finite",
        all(math.isfinite(v) for r in values for v in r),
        f"{path}: non-finite value",
    )
    return values


def check_metrics(report: Report, values, gated: bool, alpha: float, path: str) -> None:
    for step, (cls, aux, var, beta, hard, fg, bg, kept) in enumerate(values):
        where = f"{path} step {step}"
        report.expect("metrics.hard_ratio_range", 0.0 <= hard <= 1.0, f"{where}: hard_ratio {hard}")
        if gated:
            report.expect(
                "metrics.aux_loss", aux == alpha * cls,
                f"{where}: probanet_loss {aux!r} != alpha * cls_loss {alpha * cls!r}",
            )
            expected_beta = alpha * cls * math.exp(-1.0 / var) if var > 0 else math.nan
            report.expect(
                "metrics.beta",
                math.isclose(beta, expected_beta, rel_tol=BETA_RTOL, abs_tol=0.0),
                f"{where}: beta {beta!r}, expected {expected_beta!r}",
            )
            report.expect(
                "metrics.gate_range",
                all(0.0 < v <= 1.0 for v in (kept, fg, bg)),
                f"{where}: kept {kept}, fg gate {fg}, bg gate {bg} outside (0, 1]",
            )
        else:
            report.expect(
                "metrics.baseline_gate",
                kept == 1.0 and fg == 1.0 and bg == 1.0,
                f"{where}: baseline logs kept {kept}, fg gate {fg}, bg gate {bg}",
            )


def tail_mean(values) -> float:
    n_tail = max(1, math.ceil(len(values) * TAIL_FRACTION))
    tail = [r[4] for r in values[-n_tail:]]
    return sum(tail) / len(tail)


def check_config(report: Report, path: str, workload_config: str, expected) -> None:
    """resolved-config.txt carries every key the workload set, and it
    parses back through the program's parser to the workload's config
    (`expected`, a (TrainConfig, SimConfig) pair) for its seed and variant."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    resolved = read_key_values(text)
    train = expected[0]
    want = {
        **read_key_values(workload_config),
        "seed": str(train.seed),
        "probanet_enabled": str(train.probanet_enabled),
    }
    for key, value in want.items():
        report.expect(
            "config.roundtrip",
            key in resolved and _same_value(resolved[key], value),
            f"{path}: {key} = {resolved.get(key)!r}, workload has {value!r}",
        )
    try:
        parsed = parse_config(text)
    except Exception as exc:  # a parse failure is the finding
        parsed = exc
    report.expect(
        "config.roundtrip", parsed == expected,
        f"{path}: parses to {parsed!r}, not the workload's config",
    )


def check_features(report: Report, path: str, shape: tuple[int, int, int]) -> None:
    h, w, c = shape
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        body = fh.read()
    lines = body.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    ok = report.expect(
        "features.shape",
        header == [str(h), str(w), str(c)]
        and len(lines) == h * w
        and all(len(line.split()) == c for line in lines),
        f"{path}: header {header}, {len(lines)} lines, expected {h}x{w} lines of {c}",
    )
    if ok:
        try:
            values = np.array(body.split(), dtype=np.float64)
        except ValueError as exc:
            report.expect("features.finite", False, f"{path}: {exc}")
            return
        report.expect(
            "features.finite", bool(np.isfinite(values).all()), f"{path}: non-finite value"
        )


def check_boxes(report: Report, path: str, sim) -> None:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    n = len(lines) - 1
    ok = report.expect(
        "boxes.geometry",
        lines[0] == BOXES_HEADER and sim.n_objects_min <= n <= sim.n_objects_max,
        f"{path}: header {lines[0]!r}, {n} boxes",
    )
    if not ok:
        return
    lo, hi = sim.object_min_size, sim.object_max_size
    for line in lines[1:]:
        x0, y0, x1, y1 = (float(v) for v in line.split(","))
        report.expect(
            "boxes.geometry",
            0.0 <= x0 and x1 <= sim.width and 0.0 <= y0 and y1 <= sim.height
            and all(
                lo - 1e-9 <= d <= hi + 1e-9 and abs(d - round(d)) < 1e-9
                for d in (x1 - x0, y1 - y0)
            ),
            f"{path}: box {line} outside the grid or the size range [{lo}, {hi}]",
        )


_NETPBM = re.compile(rb"(P[56])\n(?:#[^\n]*\n)*(\d+) (\d+)\n255\n")


def check_image(report: Report, path: str, magic: bytes, width: int, height: int) -> None:
    with open(path, "rb") as fh:
        data = fh.read()
    m = _NETPBM.match(data)
    channels = 3 if magic == b"P6" else 1
    report.expect(
        "images.dims",
        m is not None
        and m.group(1) == magic
        and (int(m.group(2)), int(m.group(3))) == (width, height)
        and len(data) - m.end() == width * height * channels,
        f"{path}: expected {magic.decode()} {width}x{height}",
    )


def check_paired(
    report: Report, out_dir: str, workload_config: str, n_seeds: int
) -> None:
    """Every property of one paired `probanet train` output directory."""
    train, sim = parse_config(workload_config)
    total_steps = train.epochs * train.steps_per_epoch
    shape = (sim.height, sim.width, sim.channels)
    ratios = {}
    for s in range(train.seed, train.seed + n_seeds):
        for variant in ("baseline", "probanet"):
            run = os.path.join(out_dir, f"{variant}_seed{s}")
            names = [
                "metrics.csv", "resolved-config.txt", "scene0_features.txt",
                "scene0_boxes.csv", f"gate_step{total_steps}_ch0.pgm",
                f"overlay_step{total_steps}_ch0.ppm",
            ]
            missing = [n for n in names if not os.path.isfile(os.path.join(run, n))]
            if not report.expect("files.present", not missing, f"{run}: missing {missing}"):
                continue
            gated = variant == "probanet"
            metrics_path = os.path.join(run, "metrics.csv")
            values = read_metrics(report, metrics_path, total_steps)
            if values is not None:
                check_metrics(report, values, gated, train.alpha, metrics_path)
                ratios[(s, variant)] = tail_mean(values)
            check_config(
                report, os.path.join(run, "resolved-config.txt"), workload_config,
                (replace(train, seed=s, probanet_enabled=gated), sim),
            )
            check_features(report, os.path.join(run, "scene0_features.txt"), shape)
            check_boxes(report, os.path.join(run, "scene0_boxes.csv"), sim)
            w, h = sim.width * HEATMAP_SCALE, sim.height * HEATMAP_SCALE
            check_image(report, os.path.join(run, names[4]), b"P5", w, h)
            check_image(report, os.path.join(run, names[5]), b"P6", w, h)
    check_summary(report, os.path.join(out_dir, "summary.csv"), train.seed, n_seeds, ratios)


def check_summary(report: Report, path: str, seed0: int, n_seeds: int, ratios: dict) -> None:
    if not report.expect("files.present", os.path.isfile(path), f"{path}: missing"):
        return
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    ok = report.expect(
        "summary.rows",
        lines[0] == SUMMARY_HEADER
        and [line.split(",")[0] for line in lines[1:]]
        == [str(s) for s in range(seed0, seed0 + n_seeds)],
        f"{path}: expected the header and one row per seed {seed0}..",
    )
    if not ok:
        return
    for line in lines[1:]:
        seed, base, gated, uplift = line.split(",")[:4]
        base, gated, uplift = float(base), float(gated), float(uplift)
        for variant, logged in (("baseline", base), ("probanet", gated)):
            recomputed = ratios.get((int(seed), variant))
            report.expect(
                "summary.hard_ratio",
                recomputed is not None
                and math.isclose(logged, recomputed, rel_tol=1e-12, abs_tol=1e-15),
                f"{path}: seed {seed} {variant} hard ratio {logged!r}, "
                f"tail mean of metrics.csv is {recomputed!r}",
            )
        report.expect(
            "summary.uplift",
            math.isclose(uplift, gated - base, rel_tol=1e-12, abs_tol=1e-15),
            f"{path}: seed {seed} uplift {uplift!r} != {gated - base!r}",
        )


# ---------------------------------------------------------------- gradcheck

_GRAD_LINE = re.compile(r"^(\w+): worst relative error (\S+) \[(PASS|FAIL)\]$")


def check_audit(report: Report, code: int, stdout: str, ops, rel_tol: float) -> None:
    """Exit 0, a PASS line per op, each worst error below the tolerance."""
    report.expect("audit.exit", code == 0, f"gradcheck exited {code}")
    seen = {}
    for line in stdout.splitlines():
        m = _GRAD_LINE.match(line)
        if m:
            seen[m.group(1)] = (float(m.group(2)), m.group(3))
    for op in ops:
        worst, status = seen.get(op, (math.nan, "missing"))
        report.expect("audit.pass_lines", status == "PASS", f"{op}: {status}")
        report.expect(
            "audit.worst_error", worst < rel_tol, f"{op}: worst {worst} >= {rel_tol}"
        )


def check_bce_grad(report: Report, grad_fn, seed: int, n: int = 64) -> None:
    """The program's BCE gradient against a central difference of a BCE
    written here."""
    rng = np.random.default_rng(seed % 2**32)
    z = rng.uniform(-6.0, 6.0, n)
    y = (rng.uniform(size=n) < 0.5).astype(np.float64)

    def bce(v):
        return sum(
            max(zi, 0.0) - zi * yi + math.log1p(math.exp(-abs(zi)))
            for zi, yi in zip(v, y)
        ) / n

    h = 1e-6
    numeric = np.empty(n)
    for k in range(n):
        up, down = z.copy(), z.copy()
        up[k] += h
        down[k] -= h
        numeric[k] = (bce(up) - bce(down)) / (2 * h)
    analytic = np.asarray(grad_fn(z.copy(), y.copy()))
    worst = float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))))
    report.expect(
        "audit.bce_grad", analytic.shape == (n,) and worst < 1e-7,
        f"binary_cross_entropy_grad off by {worst:.3e}",
    )
