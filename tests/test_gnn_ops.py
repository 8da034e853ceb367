"""Tests for the NumPy tensor kernels (repro.gnn.ops)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.gnn.ops import (
    accuracy,
    l2_normalize,
    log_softmax,
    mean_aggregate,
    mean_aggregate_grad,
    relu,
    relu_grad,
    softmax_cross_entropy,
    sum_aggregate,
    xavier_init,
)


class TestElementwise:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert relu(x).tolist() == [0.0, 0.0, 2.0]

    def test_relu_grad_masks(self):
        x = np.array([-1.0, 0.0, 2.0])
        g = np.array([1.0, 1.0, 1.0])
        assert relu_grad(x, g).tolist() == [0.0, 0.0, 1.0]

    def test_xavier_bounds(self):
        w = xavier_init(100, 50, np.random.default_rng(0))
        bound = np.sqrt(6.0 / 150)
        assert w.shape == (100, 50)
        assert w.dtype == np.float32
        assert np.abs(w).max() <= bound


class TestAggregation:
    def test_mean_aggregate(self):
        x = np.arange(12, dtype=np.float64).reshape(2, 3, 2)
        out = mean_aggregate(x)
        assert out.shape == (2, 2)
        assert out[0].tolist() == [2.0, 3.0]

    def test_mean_aggregate_keeps_float32_and_matches_float64(self):
        x = np.random.default_rng(2).normal(size=(64, 10, 32))
        x = (x * 100).astype(np.float32)
        out = mean_aggregate(x)
        assert out.dtype == np.float32
        want = x.astype(np.float64).mean(axis=1)
        assert np.abs(out - want).max() <= 1e-6 * np.abs(want).max()
        total = sum_aggregate(x)
        assert total.dtype == np.float32
        assert np.abs(total - 10 * want).max() <= 1e-5 * np.abs(want).max()

    def test_mean_aggregate_shape_check(self):
        with pytest.raises(ShapeError):
            mean_aggregate(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            mean_aggregate_grad(np.zeros((2, 3, 4)), 3)

    def test_mean_aggregate_grad_is_adjoint(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 5, 3))
        g = rng.normal(size=(4, 3))
        # <grad, x> must equal <g, mean(x)> (linear map adjoint property).
        lhs = float((mean_aggregate_grad(g, 5) * x).sum())
        rhs = float((g * mean_aggregate(x)).sum())
        assert lhs == pytest.approx(rhs)


class TestLosses:
    def test_log_softmax_normalised(self):
        logits = np.random.default_rng(2).normal(size=(6, 4))
        logp = log_softmax(logits)
        assert np.exp(logp).sum(axis=1) == pytest.approx(np.ones(6))

    def test_log_softmax_stable_at_large_values(self):
        logits = np.array([[1e4, 0.0]])
        logp = log_softmax(logits)
        assert np.isfinite(logp).all()

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-6)
        assert np.abs(grad).max() < 1e-6

    def test_cross_entropy_gradient_numeric(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(5, 3))
        labels = np.array([0, 2, 1, 1, 0])
        _, grad = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        for i in range(5):
            for j in range(3):
                lp = logits.copy()
                lp[i, j] += eps
                lm = logits.copy()
                lm[i, j] -= eps
                num = (
                    softmax_cross_entropy(lp, labels)[0]
                    - softmax_cross_entropy(lm, labels)[0]
                ) / (2 * eps)
                assert grad[i, j] == pytest.approx(num, abs=1e-5)

    def test_cross_entropy_shape_check(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)), np.zeros(3, dtype=int))

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)
        assert accuracy(np.zeros((0, 2)), np.array([], dtype=int)) == 0.0

    def test_l2_normalize(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0]])
        out = l2_normalize(x)
        assert out[0].tolist() == [0.6, 0.8]
        assert np.isfinite(out).all()
