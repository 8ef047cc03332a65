"""Tests for repro.utils.stats (percentile)."""

import numpy as np
import pytest

from repro.utils.stats import percentile


class TestPercentile:
    def test_single_value(self):
        assert percentile([7.5], 0.99) == 7.5

    def test_interpolates(self):
        values = [0.0, 10.0, 20.0, 30.0]
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 1.0) == 30.0
        assert percentile(values, 0.5) == pytest.approx(15.0)
        assert percentile(values, 0.95) == pytest.approx(28.5)

    def test_matches_numpy_linear(self):
        rng = np.random.default_rng(3)
        values = sorted(rng.normal(0.0, 1.0, 101).tolist())
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert percentile(values, q) == pytest.approx(
                float(np.quantile(values, q)), rel=1e-12, abs=1e-12
            )

    def test_empty_raises_without_default(self):
        with pytest.raises(ValueError, match="empty sequence"):
            percentile([], 0.5)

    def test_empty_returns_default_when_given(self):
        assert percentile([], 0.5, default=0.0) == 0.0
        assert percentile([], 0.95, default=float("inf")) == float("inf")

    def test_default_ignored_when_nonempty(self):
        assert percentile([1.0, 3.0], 0.5, default=99.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("q", [-0.01, 1.01, float("nan"), float("inf")])
    def test_out_of_range_fraction_rejected(self, q):
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], q)

    def test_out_of_range_fraction_rejected_even_when_empty(self):
        # Argument validation happens before the emptiness check.
        with pytest.raises(ValueError, match="fraction"):
            percentile([], 1.5, default=0.0)
