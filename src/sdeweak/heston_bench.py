"""Heston Asian-option benchmark: model fields, payoff, convergence harness.

The price process and its variance follow the Heston dynamics; the running
integral of the price is carried as a third state coordinate so the Asian
payoff is a function of the terminal state.  The Stratonovich fields feed the
flow-based schemes, the Ito form feeds Euler-Maruyama, and both describe the
same law.  Vector fields clamp sqrt(max(y2, 0)) and count how often the
variance coordinate was seen negative.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .freealg import EMPTY_WORD, TruncatedSeries, Word
from .moment_match import LOWER, check_family, solution_params
from .refusal import shown
from .rk_integrator import IntegrationFailure, VectorField, builtin_tableau, scheme
from .rk_trees import ButcherTableau
from .sampling import QMC, UniformSource, check_mode, estimate, horner
from .schemes import EM, NN, NV, SDEModel, SchemeStepPlan, check_kind, romberg, run_paths

#: the benchmark's target value, computed by extrapolated QMC at n = 96+48
#: with 8e8 samples (see README)
REFERENCE_PRICE = 6.0473534496e-2

ROMBERG_ORDER = {NN: 2, NV: 2, EM: 1}

#: QMC cannot draw more points than the Sobol index space holds
MAX_SAMPLES = 1 << 32
#: far beyond any core count; every worker count gives the same bits
MAX_WORKERS = 256


@dataclass(frozen=True)
class HestonParams:
    """Model and contract parameters; defaults are the benchmark setting."""

    mu: float = 0.05
    alpha: float = 2.0
    theta: float = 0.09
    beta: float = 0.1
    rho: float = 0.0
    x1: float = 1.0
    x2: float = 0.09
    T: float = 1.0
    K: float = 1.05

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"heston {name} must be a number, got {shown(value)}")
            if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints past floats
                raise ValueError(f"{name} must be finite, got {shown(value)}")
        if min(self.mu, self.alpha, self.theta, self.beta, self.x1, self.x2, self.T) <= 0:
            raise ValueError("mu, alpha, theta, beta, x1, x2, T must be positive")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if 2.0 * self.alpha * self.theta - self.beta * self.beta <= 0:
            raise ValueError("Feller condition 2 alpha theta - beta^2 > 0 violated")

    @property
    def x0(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, 0.0)


class GuardCounter:
    """Thread-safe tally of negative-variance clamp events across field evaluations."""

    def __init__(self):
        self._lock = threading.Lock()
        self.negative = 0
        self.total = 0

    def record(self, negative: int, total: int) -> None:
        if total == 0:
            return
        with self._lock:
            self.negative += int(negative)
            self.total += int(total)

    @property
    def fraction(self) -> float:
        return self.negative / self.total if self.total else 0.0


@lru_cache(maxsize=64)
def _drift_map(params: HestonParams, tableau: ButcherTableau, a: float):
    """One step of ``tableau`` for the flow of a V0, as polynomials in y2.

    a V0 is triangular: y2' = A + B y2, y1' = y1 (C + D y2) and y3' = a y1,
    with A = a (alpha theta - beta^2/4), B = -a alpha, C = a (mu - rho beta/4)
    and D = -a/2.  So each stage input is y2 affine in y2, y1 times a
    polynomial in y2 and y3 plus y1 times one, and the step is
        y2 -> e + f y2,  y1 -> y1 P(y2),  y3 -> y3 + y1 Q(y2)
    with deg P <= s and deg Q <= s - 1 for s stages.  The stage recursion
    runs on series in the one letter y2, truncated at degree s, which no term
    reaches past, exactly on the float parameters, and each coefficient is
    rounded once.  Returns ((e, f), P, Q), each polynomial lowest degree
    first with s + 1 coefficients for P and at least two for Q, or None for a
    non-finite a or when a coefficient is past the float range.
    """
    if not math.isfinite(a):
        return None
    mu, al, th, be, rho, a = map(Fraction, (params.mu, params.alpha, params.theta,
                                            params.beta, params.rho, a))
    s = len(tableau.b)
    one, y2 = (TruncatedSeries({w: 1}, s) for w in (EMPTY_WORD, Word((1,))))
    A, B = one * (a * (al * th - be * be / 4)), -a * al
    C, D = one * (a * (mu - rho * be / 4)), -a / 2
    # each stage's a V0 as series in y2: its y2 row, and its y1 and y3 rows
    # divided by y1
    ks2, ks1, ks3 = [], [], []
    for row in tableau.a:
        z2, p = y2, one
        for aij, k2, k1 in zip(row, ks2, ks1):
            z2, p = z2 + k2 * aij, p + k1 * aij
        ks2.append(A + z2 * B)
        ks1.append(p * (C + z2 * D))
        ks3.append(p * a)
    ef, P, Q = y2, one, one * 0
    for bj, k2, k1, k3 in zip(tableau.b, ks2, ks1, ks3):
        ef, P, Q = ef + k2 * bj, P + k1 * bj, Q + k3 * bj
    try:
        return tuple(tuple(float(poly.coefficient(Word((1,) * k))) for k in range(n))
                     for poly, n in ((ef, 2), (P, s + 1), (Q, max(s, 2))))
    except OverflowError:
        return None


def heston_model(params: HestonParams, guard: GuardCounter | None = None) -> SDEModel:
    """The three-dimensional (price, variance, running integral) model, d = 2.

    Stratonovich fields:
        V0 = (y1 (mu - y2/2 - rho beta / 4), alpha (theta - y2) - beta^2/4, y1)
        V1 = (y1 sqrt(y2), rho beta sqrt(y2), 0)
        V2 = (0, beta sqrt((1 - rho^2) y2), 0)
    Ito drift (mu y1, alpha (theta - y2), y1) with diffusion columns V1, V2.
    The fields read only (y1, y2), so the model declares read_dim = 2.
    """
    mu, al, th, be, rho = params.mu, params.alpha, params.theta, params.beta, params.rho
    rb = rho * be
    rb4 = rb / 4.0
    be2_4 = be * be / 4.0
    dv = al * th - be2_4
    dp = mu - rb4
    orth = be * math.sqrt(1.0 - rho * rho)
    guard = guard if guard is not None else GuardCounter()

    def vol(y2):
        # an explicit out keeps q a fresh array for a 0-d y2, so callers may
        # overwrite it.  With every variance positive the clamp is the
        # identity and one min() replaces the count and the maximum; 0.0,
        # -0.0, NaN and negative entries take the clamp.
        q = np.empty_like(y2)
        if y2.size and y2.min() > 0.0:
            guard.record(0, y2.size)
            return np.sqrt(y2, out=q)
        guard.record(np.count_nonzero(y2 < 0.0), y2.size)
        np.maximum(y2, 0.0, out=q)
        return np.sqrt(q, out=q)

    def v0(y):
        out = np.empty_like(y)
        out[..., 0] = y[..., 0] * (mu - 0.5 * y[..., 1] - rb4)
        out[..., 1] = al * (th - y[..., 1]) - be2_4
        out[..., 2] = y[..., 0]
        return out

    def v1(y):
        q = vol(y[..., 1])
        out = np.zeros_like(y)
        out[..., 0] = y[..., 0] * q
        out[..., 1] = rho * be * q
        return out

    def v2(y):
        out = np.zeros_like(y)
        out[..., 1] = orth * vol(y[..., 1])
        return out

    def drift(y):
        out = np.empty_like(y)
        out[..., 0] = mu * y[..., 0]
        out[..., 1] = al * (th - y[..., 1])
        out[..., 2] = y[..., 0]
        return out

    def fused(y, coeffs):
        # a V0 + b1 V1 + b2 V2 with the variance sqrt shared, where a None
        # coefficient leaves its field out.  The columns are accumulated in
        # place, with the output columns and q as the only scratch, in the
        # operation order of
        #   out1 = (b1 rho beta + b2 orth) q + (a dv - (a alpha) y2)
        #   out0 = y1 ((a dp - (a/2) y2) + b1 q)
        #   out2 = a y1
        # with the scalar drift folded into the constants dv = alpha theta -
        # beta^2/4 and dp = mu - rb4, so the bits do not depend on the
        # layout.  Without V1 and V2 no root is taken and 0.0 stands for each
        # diffusion term; one of them alone takes the root with 0.0 as the
        # other's coefficient; without V0 the drift passes are skipped and
        # out2 is 0.
        a, b1, b2 = coeffs
        y1, y2 = y[..., 0], y[..., 1]
        out = np.empty_like(y)
        o0, o1, o2 = out[..., 0], out[..., 1], out[..., 2]
        if b1 is None and b2 is None:
            diffusion0 = diffusion1 = 0.0
        else:
            q = vol(y2)
            np.multiply(0.0 if b1 is None else b1, rb, out=o1)
            np.multiply(0.0 if b2 is None else b2, orth, out=o2)
            o1 += o2
            o1 *= q
            diffusion1 = o1
            diffusion0 = np.multiply(0.0 if b1 is None else b1, q, out=q)
        if a is None:
            np.multiply(diffusion0, y1, out=o0)
            o2.fill(0.0)
            return out
        np.multiply(y2, a * al, out=o0)
        np.subtract(a * dv, o0, out=o0)
        np.add(diffusion1, o0, out=o1)
        np.multiply(y2, a * 0.5, out=o0)
        np.subtract(a * dp, o0, out=o0)
        o0 += diffusion0
        o0 *= y1
        np.multiply(y1, a, out=o2)
        return out

    def euler(y, s, increments):
        # y + s drift(y) + dB1 V1(y) + dB2 V2(y) with the variance sqrt taken
        # once.  Each column repeats the per-field em_step's operations in
        # its order,
        #   out0 = ((y1 + s (mu y1)) + dB1 (y1 q)) + dB2 0.0
        #   out1 = ((y2 + s (alpha (theta - y2))) + dB1 (rb q)) + dB2 (orth q)
        #   out2 = ((y3 + s y1) + dB1 0.0) + dB2 0.0
        # including the dB 0.0 terms of the zero field entries, which decide
        # the sign of a -0.0 coordinate and carry a non-finite increment.
        # out2 and q (fresh from vol) are the only scratch.
        y1, y2, y3 = y[..., 0], y[..., 1], y[..., 2]
        b1, b2 = increments[..., 0], increments[..., 1]
        q = vol(y2)
        out = np.empty_like(y)
        o0, o1, o2 = out[..., 0], out[..., 1], out[..., 2]
        np.multiply(y1, mu, out=o0)
        o0 *= s
        o0 += y1
        np.multiply(y1, q, out=o2)
        o2 *= b1
        o0 += o2
        np.subtract(th, y2, out=o1)
        o1 *= al
        o1 *= s
        o1 += y2
        np.multiply(q, rb, out=o2)
        o2 *= b1
        o1 += o2
        q *= orth
        q *= b2
        o1 += q
        np.multiply(y1, s, out=o2)
        o2 += y3
        np.multiply(b1, 0.0, out=q)
        o2 += q
        np.multiply(b2, 0.0, out=q)
        o0 += q
        o2 += q
        return out

    def drift_step(tableau, a, y):
        # the step of _drift_map by Horner's rule: about 27 passes for RK5
        # against six stage evaluations and their combinations
        coeffs = _drift_map(params, tableau, float(a))
        if coeffs is None:
            return None
        ef, p, q = coeffs
        y1, y2, y3 = y[:, 0], y[:, 1], y[:, 2]
        out = np.empty_like(y)
        o0, o1, o2 = out[:, 0], out[:, 1], out[:, 2]
        horner(p, y2, o0)
        o0 *= y1
        horner(ef, y2, o1)
        horner(q, y2, o2)
        o2 *= y1
        o2 += y3
        return out

    fields = tuple(VectorField(3, f) for f in (v0, v1, v2))
    return SDEModel(stratonovich=fields, ito_drift=VectorField(3, drift),
                    fused_combination=fused, fused_euler=euler, read_dim=2,
                    drift_step=drift_step)


def asian_payoff(states: np.ndarray, params: HestonParams) -> np.ndarray:
    """max(Y3(T)/T - K, 0); discounting deliberately omitted."""
    states = np.asarray(states, dtype=float)
    return np.maximum(states[..., 2] / params.T - params.K, 0.0)


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------


def count(value, what: str, least: int = 1, most: int | None = None) -> int:
    """``value`` as an int in [least, most]: an int, or a float holding one such as
    2e5 (a bool is neither); otherwise ValueError naming ``what``."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {shown(value)}")
    if most is not None and value > most:
        raise ValueError(f"{what} must be <= {most}, got {shown(value)}")
    return int(value)


@dataclass(frozen=True)
class BenchConfig:
    """Everything a run needs to be reproducible.

    ``reference`` is the price a QMC cell's error is measured against; left
    unset, it is :data:`REFERENCE_PRICE` for the pinned Heston parameters and
    none for any other (see :attr:`reference_price`).  Counts are stored as
    ints (``seed=2.0`` is seed 2), ``u`` as a Fraction and an explicit
    reference as a float.
    """

    heston: HestonParams = HestonParams()
    u: Fraction = Fraction(3, 4)
    branch: str = LOWER
    nn_tableau: str = "rk5-butcher"
    nv_tableau: str = "rk5-butcher"
    seed: int = 0
    sobol_skip: int = 1
    workers: int | None = None
    reference: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "u", check_family(self.u, self.branch))
        for key in ("nn_tableau", "nv_tableau"):
            name = getattr(self, key)
            if not isinstance(name, str):
                raise ValueError(f"{key} must be a tableau name, got {shown(name)}")
            try:
                builtin_tableau(name)
            except KeyError as exc:
                raise ValueError(f"{key}: {exc.args[0]}") from None
        object.__setattr__(self, "seed", count(self.seed, "seed", least=0))
        object.__setattr__(self, "sobol_skip", count(self.sobol_skip, "sobol_skip"))
        if self.workers is not None:
            object.__setattr__(self, "workers", count(self.workers, "workers", most=MAX_WORKERS))
        ref = self.reference
        if ref is not None:
            if isinstance(ref, bool) or not isinstance(ref, (int, float)) or \
                    not abs(ref) <= sys.float_info.max:
                raise ValueError(f"reference must be a finite number, got {shown(ref)}")
            object.__setattr__(self, "reference", float(ref))

    @property
    def reference_price(self) -> float | None:
        """What a QMC cell's error is measured against, or None for no error column."""
        if self.reference is not None:
            return self.reference
        return REFERENCE_PRICE if self.heston == HestonParams() else None

    # what the cells step with, built when a cell first needs it: the family as
    # floats (ValueError if they cancel, see README) and the certified integrators
    nn_params = cached_property(lambda self: solution_params(self.u, self.branch, floats=True))
    nn_integrator = cached_property(lambda self: scheme(self.nn_tableau))
    nv_integrator = cached_property(lambda self: scheme(self.nv_tableau))


@dataclass(frozen=True)
class Cell:
    """One benchmark cell: scheme kind, partitions, sample count, integration mode."""

    kind: str
    partitions: int
    samples: int
    mode: str
    use_romberg: bool = False

    def __post_init__(self):
        check_kind(self.kind)
        check_mode(self.mode)
        object.__setattr__(self, "partitions", count(self.partitions, "n"))
        object.__setattr__(self, "samples", count(self.samples, "samples", most=MAX_SAMPLES))
        if not isinstance(self.use_romberg, bool):
            raise ValueError(f"romberg must be true or false, got {shown(self.use_romberg)}")
        if self.use_romberg and self.partitions % 2 != 0:
            raise ValueError("Romberg needs an even fine partition count (runs n and n/2)")


@dataclass(frozen=True)
class CellResult:
    cell: Cell
    estimate: float
    error: float | None
    seconds: float
    guard_fraction: float


def _make_plan(config: BenchConfig, kind: str, n: int) -> SchemeStepPlan:
    if kind == EM:
        return SchemeStepPlan(EM, n)
    if kind == NV:
        return SchemeStepPlan(NV, n, integrator=config.nv_integrator)
    return SchemeStepPlan(NN, n, params=config.nn_params, integrator=config.nn_integrator)


def _levels(config: BenchConfig, cell: Cell,
            model: SDEModel) -> list[tuple[SchemeStepPlan, UniformSource]]:
    """Each level's plan and checked source: n, or n/2 and n for a Romberg cell."""
    n = cell.partitions
    levels = []
    for k in (n // 2, n) if cell.use_romberg else (n,):
        plan = _make_plan(config, cell.kind, k)
        source = UniformSource(cell.mode, plan.uniform_dimension(model), seed=config.seed,
                               skip=config.sobol_skip)
        source.check(cell.samples)
        levels.append((plan, source))
    return levels


def check_cell(config: BenchConfig, cell: Cell) -> None:
    """Raise ValueError if :func:`price_cell` would refuse ``cell``; no path runs."""
    _levels(config, cell, heston_model(config.heston))


def price_cell(config: BenchConfig, cell: Cell) -> CellResult:
    """Run one cell: one estimate per level, combined into the cell's value.

    A plain cell has the one level n.  A Romberg cell runs the coarse n/2 and
    fine n levels over the same source kind and seed and combines them at the
    scheme's weak order; its MC error bar combines the levels batch by batch.
    An IntegrationFailure leaves with the cell, and for a Romberg cell the
    level, named.
    """
    guard = GuardCounter()
    model = heston_model(config.heston, guard)
    heston = config.heston
    t0 = time.perf_counter()
    reports = []
    for plan, source in _levels(config, cell, model):

        def payoff(uniforms: np.ndarray) -> np.ndarray:
            states = run_paths(plan, model, heston.x0, heston.T, uniforms)
            return asian_payoff(states, heston)

        try:
            reports.append(estimate(payoff, source, cell.samples, workers=config.workers))
        except IntegrationFailure as exc:
            exc.cell = f"{cell.kind} n={cell.partitions} {cell.mode}"
            if cell.use_romberg:
                exc.cell += f" +romberg, level n={plan.partitions}"
            raise

    def combine(values):
        return romberg(*values, ROMBERG_ORDER[cell.kind]) if cell.use_romberg else values[0]

    value = combine([r.estimate for r in reports])
    if cell.mode == QMC:
        reference = config.reference_price
        error = None if reference is None else abs(value - reference)
    else:
        # 2 x the standard deviation of the 10 batch means, deliberately not
        # divided by sqrt(10)
        per_batch = [combine(b) for b in zip(*(r.batch_means for r in reports))]
        error = 2.0 * float(np.std(per_batch, ddof=1))
    return CellResult(cell, value, error, time.perf_counter() - t0, guard.fraction)


def convergence_study(config: BenchConfig, cells: Sequence[Cell]) -> tuple[CellResult, ...]:
    """Run every cell in order; deterministic for a fixed config."""
    return tuple(price_cell(config, c) for c in cells)


CSV_HEADER = "scheme,n,samples,mode,romberg,estimate,error"
CSV_HEADER_TIMED = CSV_HEADER + ",seconds"


def result_rows(cells: Sequence[CellResult], timings: bool = False) -> list[str]:
    """CSV lines for priced cells.

    Timings are volatile and excluded by default so that identical configs
    yield byte-identical output regardless of worker count or load.
    """
    lines = [CSV_HEADER_TIMED if timings else CSV_HEADER]
    for r in cells:
        c = r.cell
        err = "" if r.error is None else repr(r.error)
        row = (f"{c.kind},{c.partitions},{c.samples},{c.mode},"
               f"{int(c.use_romberg)},{r.estimate!r},{err}")
        if timings:
            row += f",{r.seconds:.3f}"
        lines.append(row)
    return lines

