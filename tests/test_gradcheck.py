"""Tests for the finite-difference gradient audit."""

import math
import os
import runpy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import reference
from spies import read_calls, record_calls, use_workers

from probanet import DomainError, NumericError, SplitMix64, gradcheck, training
from probanet.cli import main
from probanet.gradcheck import CHECKS, DEFAULT_SHAPES, REL_TOL, relative_error, run_suite


def test_relative_error_definition():
    # Denominator is max(1, |numeric|): absolute near zero, relative above.
    assert relative_error(np.array([1.0]), np.array([1.0])) == 0.0
    assert relative_error(np.array([0.5]), np.array([0.0])) == 0.5
    assert abs(relative_error(np.array([200.0]), np.array([100.0])) - 1.0) < 1e-15
    # A NaN counts as infinite, where max(0.0, nan) would keep 0.0.
    assert relative_error(np.array([np.nan, 1.0]), np.array([1.0, 1.0])) == np.inf


def test_relative_error_include_mask():
    analytic = np.array([1.0, 5.0])
    numeric = np.array([1.0, 0.0])
    mask = np.array([True, False])
    assert relative_error(analytic, numeric, mask) == 0.0
    assert relative_error(analytic, numeric, np.array([False, False])) == 0.0


def test_full_suite_passes_at_tolerance():
    results = run_suite(seed=0, h=1e-5, shapes=DEFAULT_SHAPES, n_seeds=5)
    assert sorted(r.op for r in results) == sorted(CHECKS)
    for r in results:
        assert r.worst < REL_TOL, f"{r.op} worst {r.worst:.3e}"
        assert r.passed


def test_suite_is_deterministic():
    a = run_suite(seed=3, ops=["sigmoid", "gate"], n_seeds=2, shapes=((2, 3, 4),))
    b = run_suite(seed=3, ops=["sigmoid", "gate"], n_seeds=2, shapes=((2, 3, 4),))
    assert [(r.op, r.worst) for r in a] == [(r.op, r.worst) for r in b]


def test_coarse_step_is_reported_honestly():
    # A huge step degrades the finite differences; the audit must say so
    # rather than smooth it over.
    results = run_suite(seed=0, h=0.25, ops=["end_to_end"], n_seeds=1)
    assert any(not r.passed for r in results)


def test_suite_validation():
    for h in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="step must be finite and positive"):
            run_suite(h=h, ops=["sigmoid"], n_seeds=1, shapes=((2, 2, 2),))
    with pytest.raises(DomainError):
        run_suite(n_seeds=0)
    with pytest.raises(DomainError):
        run_suite(shapes=((2, 3),))
    with pytest.raises(DomainError):
        run_suite(shapes=((2, 0, 3),))
    with pytest.raises(DomainError):
        run_suite(ops=["warp"])
    for empty in ("ops", "shapes"):
        with pytest.raises(DomainError, match=f"^{empty} is empty"):
            run_suite(**{empty: ()})


@pytest.mark.parametrize(
    "seed, n_seeds", [(-1, 1), (2**64, 1), (2**64 - 1, 2), (2**64 - 5, 6)]
)
def test_seeds_outside_the_derivation_range_are_rejected(seed, n_seeds):
    # derive_seed reads a seed mod 2**64, so -1 would audit the same
    # instances as 2**64 - 1 and report them under another seed.
    with pytest.raises(DomainError, match=r"must lie in \[0, 2\*\*64\)"):
        run_suite(seed=seed, n_seeds=n_seeds, ops=["relu"])
    argv = ["gradcheck", "--op", "relu", "--seed", str(seed), "--seeds", str(n_seeds)]
    assert main(argv) == 2


def test_last_seed_of_the_range_is_audited():
    result = run_suite(seed=2**64 - 1, ops=["relu"], n_seeds=1, shapes=((2, 2, 2),))
    assert result[0].passed


def test_single_op_selection():
    results = run_suite(ops=["relu"], n_seeds=1, shapes=((3, 3, 4),))
    assert len(results) == 1
    assert results[0].op == "relu"
    assert results[0].worst < REL_TOL


def test_gate_check_covers_the_feature_gradient(monkeypatch):
    # gate_backward stops at the reduce conv's output gradient; the check
    # maps it to d/dx itself.  A wrong grad_z1, the parameter gradients
    # left right, must fail the audit through d/dx alone.
    kwargs = dict(ops=["gate"], n_seeds=1, shapes=((3, 3, 4),))
    assert run_suite(**kwargs)[0].passed
    backward = gradcheck.gate_backward

    def doubled_feature_grad(*args):
        grad_z1, grads = backward(*args)
        return 2.0 * grad_z1, grads

    monkeypatch.setattr(gradcheck, "gate_backward", doubled_feature_grad)
    assert not run_suite(**kwargs)[0].passed


@pytest.mark.parametrize("seed", [25, 32, 77, 80, 51, 256, 3, 52, 108])
def test_end_to_end_passes_where_instances_were_ill_conditioned(seed):
    # Single seeds whose instances had gate weights of tiny variance, where
    # the exp(1/v) term defeats central differences (25, 77, 80 under the
    # earlier draw; 51 and 256 without the variance floor), or no
    # background anchor kept by truncation, so the sampler had no pool
    # (32 under the earlier draw; 3, 52 and 108 without the label redraw).
    result = run_suite(seed=seed, ops=["end_to_end"], n_seeds=1)[0]
    assert result.passed, f"worst {result.worst:.3e}"


# The inputs each check differences, by name.
_GATE = {"reduce_weight", "reduce_bias", "expand_weight", "expand_bias"}
NAMED_INPUTS = {
    "conv1x1": {"x", "weight", "bias"},
    "relu": {"x"},
    "sigmoid": {"x"},
    "hadamard": {"a", "b"},
    "variance": {"x"},
    "gate": {"x"} | _GATE,
    "head": {"values", "scale", "shift"},
    "end_to_end": {"head_weight", "scale", "shift"} | _GATE,
}
# end_to_end differences its inputs twice: above the variance floor and at it.
PASSES = {"end_to_end": 2}


@pytest.mark.parametrize("op", sorted(NAMED_INPUTS))
def test_every_check_fails_on_a_wrong_gradient_of_any_input(op, monkeypatch):
    # Each check differences exactly its named inputs, and an analytic
    # gradient off by a relative 1e-3 (in the check's own measure,
    # 1e-3 * max(1, |g|) per element) in any one of them fails it.
    assert set(NAMED_INPUTS) == set(CHECKS)
    loop = gradcheck._worst_error
    kwargs = dict(ops=[op], n_seeds=1, shapes=((3, 3, 4),))
    seen = []

    def record(f, inputs, grads, h, include=None, stacked=None):
        seen.extend(inputs)
        return loop(f, inputs, grads, h, include, stacked)

    monkeypatch.setattr(gradcheck, "_worst_error", record)
    assert run_suite(**kwargs)[0].passed
    assert sorted(seen) == sorted(list(NAMED_INPUTS[op]) * PASSES.get(op, 1))
    for name in NAMED_INPUTS[op]:

        def off(f, inputs, grads, h, include=None, stacked=None, name=name):
            g = np.asarray(grads[name])
            wrong = g + 1e-3 * np.maximum(1.0, np.abs(g))
            return loop(f, inputs, {**grads, name: wrong}, h, include, stacked)

        monkeypatch.setattr(gradcheck, "_worst_error", off)
        assert not run_suite(**kwargs)[0].passed, name


# The inputs each check writes into their arrays a copy at a time.
IN_PLACE = {"conv1x1": {"weight", "bias"}, "end_to_end": NAMED_INPUTS["end_to_end"]}


@pytest.mark.parametrize("op", sorted(NAMED_INPUTS))
def test_only_conv1x1_and_end_to_end_difference_inputs_in_place(op, monkeypatch):
    # Every other input goes through a stacked forward, so the audit
    # never writes a copy of it into its array.
    use_workers(monkeypatch, forked=False)
    loop, adapt = gradcheck._worst_error, gradcheck.in_place
    inputs, written = [], []

    def record(f, named, grads, h, include=None, stacked=None):
        inputs.append(named)
        return loop(f, named, grads, h, include, stacked)

    def spy(f, x):
        written.append(x)
        return adapt(f, x)

    monkeypatch.setattr(gradcheck, "_worst_error", record)
    monkeypatch.setattr(gradcheck, "in_place", spy)
    assert run_suite(ops=[op], n_seeds=1, shapes=((3, 3, 4),))[0].passed
    names = [name for named in inputs for name, a in named.items()
             if any(a is x for x in written)]
    assert sorted(names) == sorted(list(IN_PLACE.get(op, ())) * PASSES.get(op, 1))
    assert len(written) == len(names)


def _beside_the_loop(monkeypatch, op, shapes, names=None):
    """(input, the audit's differences, the per-element loop's, analytic
    gradient) for every input that the audit of op differences over
    seeds 0-9 and shapes, in this process; given names, the audit
    differences those inputs alone.  The loop differences the check's
    own scalar functional, after the audit has restored every input."""
    use_workers(monkeypatch, forked=False)
    loop, differences = gradcheck._worst_error, gradcheck.finite_diff_gradient
    found, rows = [], []

    def recorded(f, x, h):
        found.append(differences(f, x, h))
        return found[-1]

    def beside(f, inputs, grads, h, include=None, stacked=None):
        inputs = {k: v for k, v in inputs.items() if names is None or k in names}
        worst = loop(f, inputs, grads, h, include, stacked)
        assert len(found) == len(inputs)
        for (name, x), fd in zip(inputs.items(), found):
            loop_fd = reference.finite_differences(f, x, h)
            rows.append((name, fd, loop_fd, grads[name]))
        found.clear()
        return worst

    monkeypatch.setattr(gradcheck, "finite_diff_gradient", recorded)
    monkeypatch.setattr(gradcheck, "_worst_error", beside)
    run_suite(seed=0, n_seeds=10, ops=[op], shapes=shapes)
    return rows


@pytest.mark.parametrize("op", sorted(NAMED_INPUTS))
def test_stacked_differences_are_bit_equal_to_the_per_element_loop(op, monkeypatch):
    # Row-separable inputs are differenced as stacks of copies through
    # one forward call, the others copy by copy in place; either way
    # every difference is the loop's, bit for bit.
    rows = _beside_the_loop(monkeypatch, op, DEFAULT_SHAPES)
    runs = 10 * len(DEFAULT_SHAPES) * PASSES.get(op, 1)
    assert len(rows) == runs * len(NAMED_INPUTS[op])
    for name, fd, loop_fd, _ in rows:
        assert fd.tobytes() == loop_fd.tobytes(), name


def test_stacked_conv1x1_differences_stay_near_the_loop_where_blas_regroups(
    monkeypatch,
):
    # OpenBLAS picks its kernel by the number of rows, so at these shapes
    # a stack of copies of x sums some products in another order than one
    # map.  The weight and bias, differenced in place as at the default
    # shapes, are left out.
    shapes = ((1, 1, 2), (3, 7, 32), (2, 2, 64))
    rows = _beside_the_loop(monkeypatch, "conv1x1", shapes, names={"x"})
    assert len(rows) == 10 * len(shapes)
    for name, fd, loop_fd, grad in rows:
        assert np.abs(fd - loop_fd).max() <= 1e-8, name
        passes = relative_error(grad, fd) < REL_TOL
        assert passes == (relative_error(grad, loop_fd) < REL_TOL), name


def _differencing_peak(monkeypatch, op, shape, name):
    """The tracemalloc peak, in bytes, of differencing the input name of
    the check op's instance at shape through the forward the audit uses.
    The margins kept from kinks bear on accuracy only, and no gate
    instance of 16x16x32 or larger clears them, so they are waived."""
    monkeypatch.setattr(gradcheck, "_MARGIN", 0.0)
    monkeypatch.setattr(gradcheck, "_MIN_VARIANCE", 1e-300)
    found = {}

    def capture(f, inputs, grads, h, include=None, stacked=None):
        found.update(forward=stacked[name], x=inputs[name], h=h)
        return 0.0

    monkeypatch.setattr(gradcheck, "_worst_error", capture)
    CHECKS[op](SplitMix64(0), shape)
    tracemalloc.start()
    try:
        gradcheck.finite_diff_gradient(found["forward"], found["x"], found["h"])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(6, 6, 8), (16, 16, 32)])
def test_differencing_the_gate_input_stays_within_a_memory_budget(shape, monkeypatch):
    # The copies are built a bounded block at a time, not all at once: at
    # 16x16x32 the input has 8,192 elements, so 2 * 8192 copies of 64 KB.
    peak = _differencing_peak(monkeypatch, "gate", shape, "x")
    assert peak < 2**20, peak


@pytest.mark.parametrize("shape", [(6, 6, 8), (16, 16, 32), (64, 64, 16)])
@pytest.mark.parametrize(
    "op, name", [("gate", name) for name in sorted(_GATE)] + [("head", "values")]
)
def test_differencing_a_parameter_stays_within_a_memory_budget(
    op, name, shape, monkeypatch
):
    # Each copy of a parameter makes a whole forward, so a block of up to
    # n pairs of an n-value array goes through the forward a bounded
    # stack at a time: unbounded, expand_weight at 64x64x16 peaked at
    # 100 MiB, where one forward takes about 1 MiB.
    peak = _differencing_peak(monkeypatch, op, shape, name)
    assert peak < 2 * 2**20, peak


def test_the_stacked_variance_is_floor_clamped_as_variance_constraint_is(
    monkeypatch,
):
    # No audited instance sits at the floor, so a copy with no variance
    # shows that each stacked value is variance_constraint's.
    found = {}

    def capture(f, inputs, grads, h, include=None, stacked=None):
        found.update(forward=stacked["x"], x=inputs["x"])
        return 0.0

    monkeypatch.setattr(gradcheck, "_worst_error", capture)
    CHECKS["variance"](SplitMix64(0), (2, 2, 3))
    copies = np.stack([found["x"], np.full_like(found["x"], 0.5)])
    want = [gradcheck.variance_constraint(x, 1e-12)[0] for x in copies]
    assert found["forward"](copies).tolist() == want
    assert want[1] == 1e-12


def test_end_to_end_audits_the_backward_over_the_batch_rows(monkeypatch):
    # At the floor the step runs the gate's backward over the sampled
    # anchors' rows only, one per anchor, whose t2 gradient sits in that
    # anchor's slot alone; above it, over every row of both scenes, whose
    # t2 gradient the variance loss fills.  Scattering the t2 gradient
    # into the wrong anchor slots at the floor must fail the audit.  The
    # spy records calls in this process only, so every check runs here.
    use_workers(monkeypatch, forked=False)
    kwargs = dict(ops=["end_to_end"], n_seeds=2, shapes=((3, 3, 4), (2, 4, 6)))
    assert run_suite(**kwargs)[0].passed
    backward, calls = training.gate_backward, []

    def swapped_slots(t1, t2, x, params, grad_t2):
        floor = (np.count_nonzero(grad_t2, axis=1) <= 1).all()
        calls.append("floor" if floor else len(x))
        if floor:
            grad_t2 = grad_t2[:, ::-1]
        return backward(t1, t2, x, params, grad_t2)

    monkeypatch.setattr(training, "gate_backward", swapped_slots)
    assert not run_suite(**kwargs)[0].passed
    # Both branches ran, the full one over both scenes' 2*H*W rows.
    assert set(calls) == {"floor", 2 * 3 * 3, 2 * 2 * 4}


@pytest.mark.parametrize("forked", [True, False])
def test_a_nan_gradient_fails_the_audit(monkeypatch, capsys, forked):
    # max(0.0, nan) is 0.0: a NaN error must count as infinite, not pass
    # as 0.0.  The NaN appears in the second shape's check only, which a
    # forked run hands to a child.
    use_workers(monkeypatch, forked)
    backward = gradcheck.relu_backward

    def nan_on_3x2x2(x, g):
        grad = backward(x, g)
        return np.full_like(grad, np.nan) if x.shape == (3, 2, 2) else grad

    monkeypatch.setattr(gradcheck, "relu_backward", nan_on_3x2x2)
    result = run_suite(ops=["relu"], n_seeds=1, shapes=((2, 2, 2), (3, 2, 2)))[0]
    assert result.worst == float("inf") and not result.passed
    argv = ["gradcheck", "--op", "relu", "--seeds", "1", "--shapes", "2x2x2,3x2x2"]
    assert main(argv) == 1
    assert "relu: worst relative error inf [FAIL]" in capsys.readouterr().out


def test_benchmark_audit_ops_are_checks(capsys):
    # The benchmark's audit workload runs `gradcheck --op` for each name
    # in AUDIT_OPS and reads one result line per op; a check deleted or
    # reworded here would only show there as failed commands.
    bench = Path(__file__).resolve().parents[1] / "bench"
    audit_ops = runpy.run_path(str(bench / "workloads.py"))["AUDIT_OPS"]
    grad_line = runpy.run_path(str(bench / "checks.py"))["_GRAD_LINE"]
    assert audit_ops
    assert set(audit_ops) <= set(CHECKS)
    for op in audit_ops:
        code = main(["gradcheck", "--op", op, "--seeds", "1", "--shapes", "2x3x4"])
        out = capsys.readouterr().out
        assert code == 0, out
        matches = [grad_line.match(line) for line in out.splitlines()]
        assert [m.group(1, 3) for m in matches if m] == [(op, "PASS")], out


forking = pytest.mark.skipif(
    not hasattr(os, "fork")
    or not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="forked gradcheck chunks need os.fork and two or more cores",
)


@forking
def test_forked_chunks_equal_the_in_process_loop(monkeypatch, tmp_path):
    # Every op, end_to_end included, at two seeds: the results must not
    # depend on how many processes ran the checks, and the forked run
    # must really spread them over more than this one.
    calls = tmp_path / "calls"
    record_calls(monkeypatch, calls, gradcheck.finite_diff_gradient)
    kwargs = dict(seed=11, n_seeds=2, shapes=((2, 3, 4), (3, 2, 6)))
    results, pids = {}, {}
    for forked in (True, False):
        use_workers(monkeypatch, forked)
        results[forked] = run_suite(**kwargs)
        pids[forked] = {pid for _, pid in read_calls(calls)}
    assert [r.op for r in results[True]] == list(CHECKS)
    assert results[True] == results[False]
    assert os.getpid() in pids[True] and len(pids[True]) >= 2
    assert pids[False] == {os.getpid()}


@forking
@pytest.mark.parametrize("forked", [True, False])
@pytest.mark.parametrize("failing, named", [((1, 2), "3x3x4"), ((2, 3), "4x3x4")])
def test_first_failing_check_is_raised_however_chunks_run(
    monkeypatch, forked, failing, named
):
    # Four jobs, one per shape, in two chunks when forked: jobs 0 and 2
    # here, 1 and 3 in a child.  Two jobs in different chunks fail, and
    # the one the serial loop meets first is raised either way.
    shapes = ((2, 3, 4), (3, 3, 4), (4, 3, 4), (5, 3, 4))
    sigmoid = CHECKS["sigmoid"]

    def check(rng, shape, h):
        if shapes.index(shape) in failing:
            raise NumericError("injected")
        return sigmoid(rng, shape, h)

    monkeypatch.setitem(CHECKS, "sigmoid", check)
    use_workers(monkeypatch, forked)
    expected = f"^sigmoid check, seed 5, shape {named}: injected$"
    with pytest.raises(NumericError, match=expected):
        run_suite(seed=5, ops=["sigmoid"], n_seeds=1, shapes=shapes)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("forked", [True, False])
def test_gradcheck_error_names_the_check_and_input(monkeypatch, capsys, forked):
    # A step so large that differencing overflows used to report only
    # the element; the error names the op, seed, shape and input too,
    # the same from a forked chunk as in-process.
    use_workers(monkeypatch, forked)
    argv = ["gradcheck", "--op", "conv1x1", "--eps", "1e308", "--seeds", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: conv1x1 check, seed 0, shape 2x3x4: input weight: "
        "non-finite function value while differencing element 0\n"
    )
