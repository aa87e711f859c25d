"""Benchmark of the probanet program, end to end and layer by layer.

Runs one workload (see workloads.py) from this checkout's `src/` through
the program's own entry point, `probanet.cli.main`, repeating whole
rounds of its commands for up to `--seconds`, then checks every output and
prints one JSON line:

    python3 bench/run.py --workload paired-default --seed 0 --seconds 35 --trace 0

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json:
the median round time, the median set-up time over fresh-interpreter
probes, and the process's peak resident memory.  With `--trace 1` it
alternates untraced and traced rounds and reports the per-layer
metrics from the traced ones, plus the tracing overhead.
`--workload all` runs every workload in its own process and prints a
table.  See README.md.
"""

import os

# One BLAS thread (the machine has 2 cores), fixed before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 7  # timed probes per run, after one untimed warm-up
MIB = 2.0**20


@dataclass
class Round:
    """One round of a workload's commands, timed as a whole.  The first
    `checked` commands must succeed and have their outputs checked; a
    known-fault run may follow them."""

    traced: bool
    warmup: bool
    seconds: float
    argvs: list[list[str]]
    codes: list[int]
    stdouts: list[str]
    out_dir: Path
    checked: int

    @property
    def failed(self) -> int:
        """Commands of the round that failed."""
        return sum(code != 0 for code in self.codes)

    @property
    def usable(self) -> bool:
        return all(code == 0 for code in self.codes[: self.checked])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """probanet.cli.main on argv, looked up at call time so a traced
    wrapper is used when installed; stdout is captured."""
    from probanet import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # the operation failed; the run goes on and counts it
        traceback.print_exc(file=sys.stderr)
        code = -1
    return code, buf.getvalue()


def setup_times(argv: list[str], n: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until probe.py is ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for i in range(n + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), *argv],
            stdout=subprocess.PIPE, env=env, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if i:
            times.append(elapsed)
    return times


def run_rounds(wl, seed: int, seconds: float, work: Path, tracer) -> list[Round]:
    """Whole rounds of the workload within `seconds`: at least one, and
    another only while the longest so far still fits, so a run's length
    does not depend on how far a last round overshoots.  With a tracer,
    an untraced and a traced round alternate, as one unit, after one
    untimed warm-up round: a process's first round runs slower (first
    touch of its memory), and neither side of the overhead comparison
    may be that round."""
    rounds = []

    def run_round(traced: bool, warmup: bool) -> None:
        out_dir = work / f"round{len(rounds)}"
        argvs = wl.commands(seed, str(work), str(out_dir))
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            results = [run_cli(argv) for argv in argvs]
            elapsed = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        codes, stdouts = (list(x) for x in zip(*results))
        checked = len(argvs) - (1 if wl.known_fault else 0)
        rounds.append(Round(traced, warmup, elapsed, argvs, codes, stdouts, out_dir, checked))

    if tracer is not None:
        run_round(traced=False, warmup=True)
    start = time.perf_counter()
    longest = 0.0
    units = 0
    while units == 0 or time.perf_counter() - start + longest <= seconds:
        unit_start = time.perf_counter()
        for traced in (False, True) if tracer is not None else (False,):
            run_round(traced, warmup=False)
        longest = max(longest, time.perf_counter() - unit_start)
        units += 1
    return rounds


def check_outputs(wl, seed: int, rounds: list[Round]):
    """Properties of the first successful round's outputs, and byte
    equality of every successful round's outputs with them."""
    import checks
    from probanet.gradcheck import REL_TOL
    from probanet.training import binary_cross_entropy_grad

    report = checks.Report()
    ok = [r for r in rounds if r.usable]
    if ok and wl.trains:
        checks.check_paired(report, str(ok[0].out_dir), wl.config_text(seed), wl.n_seeds)
    elif ok:
        for argv, code, stdout in zip(ok[0].argvs, ok[0].codes, ok[0].stdouts):
            checks.check_audit(report, code, stdout, [argv[argv.index("--op") + 1]], REL_TOL)
    checks.check_repeats(report, [
        checks.digests(str(r.out_dir)) if wl.trains
        else {"stdout": hashlib.sha256("".join(r.stdouts).encode()).hexdigest()}
        for r in ok
    ])
    if not wl.trains:
        checks.check_bce_grad(report, binary_cross_entropy_grad, seed)
    return report


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def layer_metrics(agg: dict, rounds: list[Round]) -> dict[str, float]:
    """Per-layer figures per traced round; 0 where the layer did not run."""
    from spans import LAYERS

    traced = [r for r in rounds if r.traced]
    n = len(traced)

    def get(name, field):
        return agg.get(name, {}).get(field, 0.0)

    def per_call(name, field="total_s", scale=1.0):
        calls = get(name, "calls")
        return get(name, field) / calls * scale if calls else 0.0

    base = per_call("training.train_step.baseline", scale=1e6)
    gated = per_call("training.train_step.gated", scale=1e6)
    steps = get("training.train_step.baseline", "calls") + get("training.train_step.gated", "calls")
    step_self = get("training.train_step.baseline", "self_s") + get("training.train_step.gated", "self_s")
    picks = get("sim.sample_minibatch", "work")
    keys = agg.get("sim.sample_minibatch", {}).get("child_work", {}).get("rng.SplitMix64.u64", 0.0)
    m = {
        "training.train_step.baseline_us": base,
        "training.train_step.gated_us": gated,
        "training.train_step.gated_over_baseline": gated / base if base else 0.0,
        "training.train_step.self_us": step_self / steps * 1e6 if steps else 0.0,
        "training.build_scene_pool.calls": get("training.build_scene_pool", "calls") / n,
        "training.build_scene_pool.s": get("training.build_scene_pool", "total_s") / n,
        "sim.generate_scene.ms": per_call("sim.generate_scene", scale=1e3),
        "sim.label_arrays.ms": per_call("sim.label_arrays", scale=1e3),
        "sim.sample_minibatch.us": per_call("sim.sample_minibatch", scale=1e6),
        "sim.sample_minibatch.keys_per_pick": keys / picks if picks else 0.0,
        "rng.u64.mdraws": get("rng.SplitMix64.u64", "work") / n / 1e6,
        "tensor.conv1x1_forward.us": per_call("tensor.conv1x1_forward", scale=1e6),
        "tensor.conv1x1_backward.us": per_call("tensor.conv1x1_backward", scale=1e6),
        "tensor.conv1x1_backward.mmacs": get("tensor.conv1x1_backward", "work") / n / 1e6,
        "gate.gate_forward.self_us": per_call("gate.gate_forward", "self_s", 1e6),
        "gate.gate_backward.self_us": per_call("gate.gate_backward", "self_s", 1e6),
        "artifacts.write_run_dir.s": get("artifacts.write_run_dir", "total_s") / n,
        "tensor.dump_feature_map.s": get("tensor.dump_feature_map", "total_s") / n,
        "artifacts.bytes_written": sum(
            dir_bytes(r.out_dir) for r in traced if r.out_dir.is_dir()
        ) / n / MIB,
        "tensor.finite_diff_gradient.evals": get("tensor.finite_diff_gradient", "work") / n,
    }
    for name in agg:
        if name.startswith("gradcheck.check_"):
            m[f"{name}.s"] = get(name, "total_s") / n
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = sum(
            v["self_s"] for k, v in agg.items() if k.startswith(layer + ".")
        ) / n
    untraced = [r.seconds for r in rounds if not (r.traced or r.warmup)]
    m["trace.wall_s"] = statistics.median(r.seconds for r in traced)
    m["trace.overhead_s"] = m["trace.wall_s"] - statistics.median(untraced)
    m["trace.spans"] = sum(get(k, "calls") for k in agg) / n
    return m


def run_workload(args, spec: dict) -> dict:
    import probanet
    from spans import Tracer, aggregate
    from workloads import WORKLOADS

    if Path(probanet.__file__).resolve().parent != SRC / "probanet":
        raise RuntimeError(f"probanet imported from {probanet.__file__}, not {SRC}")
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        tracer = Tracer() if args.trace else None
        setup = None
        if not args.trace:
            first = wl.commands(args.seed, str(work), str(work / "probe"))[0]
            setup = setup_times(first, SETUP_PROBES)
        rounds = run_rounds(wl, args.seed, args.seconds, work, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB
        report = check_outputs(wl, args.seed, rounds)
        if tracer is not None:
            values = layer_metrics(aggregate(tracer), rounds)
            tracer.save(str(OUT / f"spans-{wl.name}.npz"))
            wanted = spec["per_layer"]
        else:
            values = {
                "wall_s": statistics.median(r.seconds for r in rounds),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb,
            }
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, message in report.failures[:20]:
        print(f"check failed: {name}: {message}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in metrics.items():
        print(f"{wl.name} {name} {entry['value']:.6g} {entry['unit']}")
    print(
        f"{wl.name}: {len(rounds)} rounds of "
        f"{', '.join(f'{r.seconds:.3f}' for r in rounds)} s, "
        f"checks {'passed' if report else 'FAILED: ' + ', '.join(sorted(report.failed_checks))}"
    )
    return {
        "correct": bool(report),
        "attempted": sum(len(r.codes) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def run_all(args, spec: dict) -> int:
    """Every workload in its own process; a table, then one JSON line."""
    results = {}
    for wl in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", wl["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"{wl['name']}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[wl["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, r in results.items():
        print(f"{name}: correct {r['correct']}, attempted {r['attempted']}, failed {r['failed']}")
        for metric, entry in r["metrics"].items():
            print(f"  {metric:<42} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "probanet" / "__init__.py").is_file():
        print(f"error: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names} or all", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
