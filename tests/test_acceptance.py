"""Top-level acceptance suite.

Each test exercises one shipping criterion at its stated tolerance and time
budget and prints a single summary line.  Statistical criteria use pinned
seeds and fixed sample counts; nothing here is calibrated at run time.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from sdeweak.cli import main
from sdeweak.heston_bench import (
    BenchConfig,
    Cell,
    REFERENCE_PRICE,
    price_cell,
)
from sdeweak.moment_match import (
    gaussian_moment,
    gaussian_moment_pairings,
    infeasibility_search,
    residual_table,
    solution_params,
)
from sdeweak.rk_integrator import VectorField, integrate, scheme
from sdeweak.rk_trees import check_order
from sdeweak.rk_integrator import builtin_tableau
from slopes import decay_slope

pytestmark = pytest.mark.acceptance

CFG = BenchConfig(workers=2)


def report(num: int, title: str, ok: bool, seconds: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num}] {title}: {status} in {seconds:.2f}s{extra}")


def test_01_moment_matching_exact():
    t0 = time.perf_counter()
    params = solution_params(Fraction(3, 4), "lower")
    residuals = {w: r for w, _, _, r in residual_table(params, 5, 2)}
    nonzero = [w for w, r in residuals.items() if r != 0]
    elapsed = time.perf_counter() - t0
    ok = not nonzero and elapsed < 1.0
    report(1, "exact moment matching at m=5, d=2, u=3/4 lower", ok, elapsed,
           f"{len(residuals)} words, all residuals exactly 0")
    assert not nonzero
    assert elapsed < 1.0


def test_02_gaussian_moment_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20240620)
    checked = 0
    while checked < 20:
        M = rng.randint(1, 3)
        L = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if j <= i else Fraction(0)
              for j in range(M)] for i in range(M)]
        cov = tuple(tuple(sum(L[i][k] * L[j][k] for k in range(M)) for j in range(M))
                    for i in range(M))
        powers = tuple(rng.randint(0, 4) for _ in range(M))
        if sum(powers) > 8:
            continue
        assert gaussian_moment(cov, powers) == gaussian_moment_pairings(cov, powers)
        checked += 1
    elapsed = time.perf_counter() - t0
    report(2, "closed-form Gaussian moments equal pairing enumeration", True, elapsed,
           f"{checked} random rational cases, M <= 3, total degree <= 8")
    assert elapsed < 5.0


def test_03_rk_certification_exact():
    t0 = time.perf_counter()
    r5 = check_order(builtin_tableau("rk5-butcher"), 5)
    r5_fail6 = check_order(builtin_tableau("rk5-butcher"), 6)
    r7 = check_order(builtin_tableau("rk7-butcher"), 7)
    elapsed = time.perf_counter() - t0
    ok = (len(r5) == 17 and all(c.passed for c in r5)
          and any(not c.passed for c in r5_fail6)
          and len(r7) == 85 and all(c.passed for c in r7)
          and elapsed < 1.0)
    report(3, "tableau certification: 17/17 at order 5, fail at 6, 85/85 at order 7",
           ok, elapsed)
    assert ok


def test_04_rk_empirical_order():
    t0 = time.perf_counter()
    rotate = VectorField(2, lambda y: np.stack([y[..., 1], -y[..., 0]], axis=-1))
    exact = np.array([math.cos(1.0), -math.sin(1.0)])

    def err(integ, n):
        step = VectorField(2, lambda y: (1.0 / n) * rotate(y))  # the time-1 flow is a step of 1/n
        y = np.array([1.0, 0.0])
        for _ in range(n):
            y = integrate(integ, step, y)
        return float(np.max(np.abs(y - exact)))

    ns = (4, 8, 16, 32)
    slope5 = decay_slope(ns, [err(scheme("rk5-butcher"), n) for n in ns])
    slope7 = decay_slope(ns, [err(scheme("rk7-butcher"), n) for n in ns])
    elapsed = time.perf_counter() - t0
    ok = slope5 >= 4.8 and slope7 >= 6.7 and elapsed < 1.0
    report(4, "harmonic-oscillator convergence slopes", ok, elapsed,
           f"rk5 slope {slope5:.2f} >= 4.8, rk7 slope {slope7:.2f} >= 6.7")
    assert ok


def test_05_heston_price_reproduction():
    t0 = time.perf_counter()
    plain = price_cell(CFG, Cell("nn", 10, 200_000, "qmc"))
    t_plain = time.perf_counter() - t0
    t1 = time.perf_counter()
    romb = price_cell(CFG, Cell("nn", 2, 200_000, "qmc", use_romberg=True))
    t_romb = time.perf_counter() - t1
    ok = (plain.error <= 2e-4 and romb.error <= 2e-4
          and t_plain < 60.0 and t_romb < 60.0)
    report(5, "Heston price reproduction at M=2e5 QMC", ok, t_plain + t_romb,
           f"n=10 error {plain.error:.2e}, Romberg n=2+1 error {romb.error:.2e}, "
           f"tolerance 2e-4 vs reference {REFERENCE_PRICE}")
    assert plain.error <= 2e-4
    assert romb.error <= 2e-4
    assert t_plain < 60.0 and t_romb < 60.0


def test_06_weak_order_slopes():
    t0 = time.perf_counter()
    em_ns = [25, 50, 100, 200]
    em_errs = [price_cell(CFG, Cell("em", n, 1_000_000, "qmc")).error for n in em_ns]
    nn_ns = [1, 2, 4, 8]
    nn_errs = [price_cell(CFG, Cell("nn", n, 1_000_000, "qmc")).error for n in nn_ns]
    em_slope = decay_slope(em_ns, em_errs)
    nn_slope = decay_slope(nn_ns, nn_errs)
    ratios = [a / b for a, b in zip(nn_errs, nn_errs[1:])]
    monotone = all(a > b for a, b in zip(nn_errs, nn_errs[1:]))
    elapsed = time.perf_counter() - t0
    ok = (0.7 <= em_slope <= 1.3 and 1.6 <= nn_slope <= 2.4
          and monotone and sum(ratios) / len(ratios) >= 2.5 and elapsed < 600.0)
    report(6, "weak-order slopes on Heston at M=1e6 QMC", ok, elapsed,
           f"EM slope {em_slope:.2f} in [0.7,1.3], splitting slope {nn_slope:.2f} "
           f"in [1.6,2.4], errors monotone with mean ratio "
           f"{sum(ratios) / len(ratios):.2f} >= 2.5")
    assert 0.7 <= em_slope <= 1.3
    assert 1.6 <= nn_slope <= 2.4
    assert monotone and sum(ratios) / len(ratios) >= 2.5
    assert elapsed < 600.0


def test_07_mc_error_metric_brackets_reference():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(10):
        cfg = BenchConfig(workers=2, seed=seed)
        res = price_cell(cfg, Cell("nn", 10, 1_000_000, "mc"))
        if abs(res.estimate - REFERENCE_PRICE) <= res.error:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 9 and elapsed < 300.0
    report(7, "MC 2-sigma bracketing over 10 seeds", ok, elapsed, f"{hits}/10 bracket")
    assert hits >= 9
    assert elapsed < 300.0


def test_08_determinism_across_worker_counts(capsys, tmp_path):
    t0 = time.perf_counter()
    outs = []
    for w in ("1", "2"):
        code = main(["price", "--scheme", "nn", "--n", "10", "--mode", "qmc",
                     "--samples", "200000", "--workers", w])
        assert code == 0
        outs.append(capsys.readouterr().out)
    elapsed = time.perf_counter() - t0
    ok = outs[0] == outs[1]
    with capsys.disabled():
        report(8, "criterion-5 CSV bit-identical across worker counts", ok, elapsed)
    assert ok


def test_09_infeasibility_smoke_test():
    t0 = time.perf_counter()
    best, _ = infeasibility_search(7, 3, starts=24, iters=600, seed=0)
    elapsed = time.perf_counter() - t0
    ok = best > 1e-3 and elapsed < 120.0
    report(9, "m=7/M=3 residual floor (best-effort, not a proof)", ok, elapsed,
           f"best residual norm {best:.2e} > 1e-3")
    assert best > 1e-3
    assert elapsed < 120.0
