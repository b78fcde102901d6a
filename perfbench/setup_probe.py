"""Time sdeweak's set-up in a fresh interpreter and print the seconds.

Set-up is importing ``sdeweak`` (numpy included) plus the lazy work its first
pricing call would do: certifying the RK5 tableau in ``rk_integrator.scheme``,
building the Sobol direction matrix for each dimension given on the command
line, and ``solution_params``.  Usage: ``python3 setup_probe.py [DIM ...]``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def set_up(sobol_dims) -> None:
    """The lazy set-up, also run by the benchmark process before it times anything."""
    from fractions import Fraction

    from sdeweak import moment_match, rk_integrator, sampling

    rk_integrator.scheme("rk5-butcher")
    moment_match.solution_params(Fraction(3, 4), moment_match.LOWER)
    for dim in sobol_dims:
        sampling.sobol_points(dim, 1, 1)


def main() -> None:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import sdeweak.cli  # noqa: F401  (imports every module, as the command does)

    set_up([int(arg) for arg in sys.argv[1:]])
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
