"""Autograd fuzzing: random op graphs must always pass gradcheck.

Hypothesis draws a random sequence of ops and shapes, builds a composite
function, and verifies analytic gradients against finite differences —
covering op *compositions* the hand-written tests don't enumerate.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, ops
from repro.nn.gradcheck import check_gradients


def _one_plus_square(t):
    return ops.add(ops.mul(t, t), 1.0)


# Smooth unary ops, safe on any real input: the cells' gates and the
# squash's (Eq. 3) pieces, a smoothed norm and a length ratio.
_UNARY = [
    ("sigmoid", ops.sigmoid),
    ("tanh", ops.tanh),
    ("sqrt_one_plus_square", lambda t: ops.sqrt(_one_plus_square(t))),
    ("ratio", lambda t: ops.div(t, _one_plus_square(t))),
    ("neg", ops.neg),
    ("square", lambda t: ops.mul(t, t)),
]

# Binary combiners of two same-shape tensors.
_BINARY = [
    ("add", ops.add),
    ("sub", ops.sub),
    ("mul", ops.mul),
    ("ratio", lambda a, b: ops.div(a, _one_plus_square(b))),
]


@st.composite
def _graphs(draw):
    rows = draw(st.integers(2, 4))
    cols = draw(st.integers(2, 4))
    unary_indices = draw(st.lists(st.integers(0, len(_UNARY) - 1), min_size=1, max_size=4))
    binary_index = draw(st.integers(0, len(_BINARY) - 1))
    seed = draw(st.integers(0, 2**31 - 1))
    return rows, cols, unary_indices, binary_index, seed


class TestAutogradFuzz:
    @settings(max_examples=40, deadline=None)
    @given(_graphs())
    def test_random_graph_gradcheck(self, graph):
        rows, cols, unary_indices, binary_index, seed = graph
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal((rows, cols)), requires_grad=True)
        b = Tensor(rng.standard_normal((rows, cols)), requires_grad=True)

        def fn(a, b):
            _name, combine = _BINARY[binary_index]
            out = combine(a, b)
            for index in unary_indices:
                _name, unary = _UNARY[index]
                out = unary(out)
            return ops.mean(out)

        # Degenerate compositions (e.g. a square of a square of a square)
        # grow so large that finite differences of small-gradient entries
        # vanish below the output's resolution, so gradcheck would report
        # spurious mismatches. Discard those draws.
        value = float(fn(a, b).data)
        assume(np.isfinite(value) and abs(value) < 100.0)

        check_gradients(fn, [a, b], atol=5e-6, rtol=5e-4)

    @settings(max_examples=20, deadline=None)
    @given(_graphs())
    def test_graph_with_reductions_and_broadcast(self, graph):
        rows, cols, unary_indices, _binary_index, seed = graph
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal((rows, cols)), requires_grad=True)
        bias = Tensor(rng.standard_normal((cols,)), requires_grad=True)

        def fn(a, bias):
            out = ops.add(a, bias)  # broadcast
            _name, unary = _UNARY[unary_indices[0]]
            out = unary(out)
            return ops.sum(ops.mean(out, axis=0))

        check_gradients(fn, [a, bias], atol=5e-6, rtol=5e-4)
