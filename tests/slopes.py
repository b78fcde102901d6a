"""The decay-slope fit the order tests read their convergence rates from."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def decay_slope(ns: Sequence[float], errors: Sequence[float], floor: float = 1e-13) -> float:
    """Least-squares slope of log(error) against log(n), sign-flipped.

    Points at or below the floor are dropped (floating-point saturation).
    """
    pts = [(math.log(n), math.log(e)) for n, e in zip(ns, errors) if e > floor]
    if len(pts) < 2:
        raise ValueError("fewer than two error points above the floor")
    xs, ys = zip(*pts)
    slope, _ = np.polyfit(xs, ys, 1)
    return float(-slope)
