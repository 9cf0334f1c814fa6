"""The elementwise primitives of the layers: softmax and the relu subgradient."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentihier.errors import ShapeError
from sentihier.layers import relu_grad, softmax


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), np.ones(3) / 3, atol=1e-15)

    def test_direct_evaluation(self):
        e = np.exp([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax([1.0, 2.0, 3.0]), e / e.sum(), rtol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax([])

    @given(st.lists(st.floats(-700, 700), min_size=1, max_size=20),
           st.floats(-1e8, 1e8))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, values, shift):
        out = softmax(values)
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0) & (out <= 1 + 1e-12))
        assert abs(out.sum() - 1.0) <= 1e-12
        shifted = softmax(np.array(values) + shift)
        # exact in real arithmetic; in float64 the rounding error of the
        # shifted logits grows with the shift's magnitude
        tol = 1e-12 + abs(shift) * 1e-14
        assert np.max(np.abs(shifted - out)) <= tol

    def test_extreme_inputs_stay_finite(self):
        out = softmax([700.0, -700.0, 0.0])
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) <= 1e-12


class TestRelu:
    def test_subgradient_zero_at_zero(self):
        np.testing.assert_array_equal(relu_grad([-1.0, 0.0, 2.0]), [0.0, 0.0, 1.0])
