import math

import pytest

from slopes import decay_slope


class TestDecaySlope:
    def test_exact_power_law(self):
        ns = [2, 4, 8, 16]
        errs = [1.0 / n**2 for n in ns]
        assert decay_slope(ns, errs) == pytest.approx(2.0)

    def test_floor_points_dropped(self):
        ns = [2, 4, 8, 16]
        errs = [1e-2, 1e-4, 1e-14, 1e-15]
        slope = decay_slope(ns, errs)
        assert slope == pytest.approx(math.log(1e-2 / 1e-4) / math.log(2), rel=1e-6)

    def test_all_floored_rejected(self):
        with pytest.raises(ValueError):
            decay_slope([2, 4], [1e-16, 1e-16])
