"""Gradient checks and semantics for reductions."""

import numpy as np
import pytest

from repro.nn import Tensor, ops
from repro.nn.gradcheck import check_gradients


def _t(array):
    return Tensor(np.asarray(array, dtype=float), requires_grad=True)


class TestSumMean:
    @pytest.mark.parametrize("axis", [None, 0, 1, (0, 2), -1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_sum_gradients(self, axis, keepdims, rng):
        x = _t(rng.standard_normal((2, 3, 4)))
        check_gradients(lambda x: ops.sum(x, axis=axis, keepdims=keepdims), [x])

    @pytest.mark.parametrize("axis", [None, 1, (1, 2)])
    def test_mean_gradients(self, axis, rng):
        x = _t(rng.standard_normal((2, 3, 4)))
        check_gradients(lambda x: ops.mean(x, axis=axis), [x])

    def test_sum_matches_numpy(self, rng):
        data = rng.standard_normal((3, 5))
        assert np.allclose(ops.sum(Tensor(data), axis=1).data, data.sum(axis=1))

    def test_mean_matches_numpy(self, rng):
        data = rng.standard_normal((3, 5))
        assert np.allclose(ops.mean(Tensor(data), axis=0).data, data.mean(axis=0))


class TestMaxMin:
    def test_max_gradient_flows_to_argmax(self):
        x = _t([[1.0, 3.0], [5.0, 2.0]])
        ops.max(x, axis=1).sum().backward()
        assert np.allclose(x.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_max_splits_gradient_across_ties(self):
        x = _t([2.0, 2.0, 1.0])
        ops.max(x).backward()
        assert np.allclose(x.grad, [0.5, 0.5, 0.0])

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_max_gradcheck_on_distinct_values(self, axis, rng):
        # Distinct values keep finite differences well-defined at the max.
        data = rng.permutation(np.arange(12.0)).reshape(3, 4)
        x = _t(data)
        check_gradients(lambda x: ops.max(x, axis=axis), [x], epsilon=1e-4)

