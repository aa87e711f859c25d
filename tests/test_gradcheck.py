"""Tests for the finite-difference gradient audit."""

import numpy as np
import pytest

from probanet import DomainError
from probanet.gradcheck import CHECKS, DEFAULT_SHAPES, REL_TOL, relative_error, run_suite


def test_relative_error_definition():
    # Denominator is max(1, |numeric|): absolute near zero, relative above.
    assert relative_error(np.array([1.0]), np.array([1.0])) == 0.0
    assert relative_error(np.array([0.5]), np.array([0.0])) == 0.5
    assert abs(relative_error(np.array([200.0]), np.array([100.0])) - 1.0) < 1e-15


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
    with pytest.raises(DomainError):
        run_suite(h=0.0)
    with pytest.raises(DomainError):
        run_suite(n_seeds=0)
    with pytest.raises(DomainError):
        run_suite(shapes=((2, 3),))
    with pytest.raises(DomainError):
        run_suite(shapes=((2, 0, 3),))
    with pytest.raises(DomainError):
        run_suite(ops=["warp"])


def test_single_op_selection():
    results = run_suite(ops=["relu"], n_seeds=1, shapes=((3, 3, 4),))
    assert len(results) == 1
    assert results[0].op == "relu"
    assert results[0].worst < REL_TOL


def test_gate_check_covers_the_feature_gradient(monkeypatch):
    # gate_backward stops at the reduce conv's output gradient; the check
    # maps it to d/dx itself, and a wrong map must fail the audit.
    from probanet import gradcheck

    kwargs = dict(ops=["gate"], n_seeds=1, shapes=((3, 3, 4),))
    assert run_suite(**kwargs)[0].passed
    input_grad = gradcheck.conv1x1_input_grad
    monkeypatch.setattr(
        gradcheck, "conv1x1_input_grad", lambda p, g: 2.0 * input_grad(p, g)
    )
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
