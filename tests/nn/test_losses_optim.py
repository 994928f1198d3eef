"""Losses and optimizers."""

import numpy as np
import pytest

from repro.nn import Adam, Parameter, Tensor, clip_grad_norm
from repro.nn.gradcheck import check_gradients
from repro.nn.losses import get_loss, l1_loss, mse_loss


class TestLosses:
    def test_l1_value(self):
        assert l1_loss(Tensor([1.0, 3.0]), Tensor([0.0, 1.0])).item() == 1.5

    def test_mse_value(self):
        assert mse_loss(Tensor([1.0, 3.0]), Tensor([0.0, 1.0])).item() == 2.5

    def test_losses_zero_at_perfect_prediction(self, rng):
        y = Tensor(rng.standard_normal((4, 5)))
        for loss in (l1_loss, mse_loss):
            assert loss(y, y).item() == 0.0

    def test_gradients(self, rng):
        pred = Tensor(rng.standard_normal((3, 4)) + 2.0, requires_grad=True)
        target = Tensor(rng.standard_normal((3, 4)))
        check_gradients(lambda p: mse_loss(p, target), [pred])
        check_gradients(lambda p: l1_loss(p, target), [pred])

    def test_get_loss_lookup(self):
        assert get_loss("l1") is l1_loss
        with pytest.raises(ValueError):
            get_loss("cross_entropy")


class TestOptimizers:
    def _quadratic_problem(self):
        # Minimize ||w - target||^2; optimum is w = target.
        target = np.array([1.0, -2.0, 3.0])
        w = Parameter(np.zeros(3))
        return w, target

    def _loss_and_grad(self, w, target):
        w.zero_grad()
        w.grad = 2.0 * (w.data - target)
        return float(((w.data - target) ** 2).sum())

    def test_adam_converges(self):
        w, target = self._quadratic_problem()
        opt = Adam([w], lr=0.1)
        for _ in range(300):
            self._loss_and_grad(w, target)
            opt.step()
        assert np.allclose(w.data, target, atol=1e-3)

    def test_step_skips_parameters_without_grad(self):
        w = Parameter(np.ones(2))
        opt = Adam([w], lr=0.5)
        opt.step()  # no grad set: must not move or crash
        assert np.allclose(w.data, 1.0)

    def test_optimizer_rejects_empty_parameters(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_zero_grad(self):
        w = Parameter(np.ones(2))
        w.grad = np.ones(2)
        Adam([w]).zero_grad()
        assert w.grad is None


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        w = Parameter(np.zeros(4))
        w.grad = np.full(4, 10.0)
        before = clip_grad_norm([w], max_norm=1.0)
        assert before == pytest.approx(20.0)
        assert np.isclose(np.sqrt((w.grad**2).sum()), 1.0)

    def test_leaves_small_gradients(self):
        w = Parameter(np.zeros(4))
        w.grad = np.full(4, 0.1)
        clip_grad_norm([w], max_norm=5.0)
        assert np.allclose(w.grad, 0.1)
