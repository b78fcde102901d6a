import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdeweak import heston_bench, schemes
from sdeweak.heston_bench import (
    BenchConfig,
    Cell,
    GuardCounter,
    HestonParams,
    REFERENCE_PRICE,
    asian_payoff,
    check_cell,
    convergence_study,
    heston_model,
    price_cell,
    result_rows,
)
from sdeweak.rk_integrator import IntegrationFailure, integrate, scheme
from sdeweak.schemes import em_step

CFG = BenchConfig(workers=2)


def _column_expressions(p, y, coeffs):
    """Reference: a V0 + b1 V1 + b2 V2 for the Heston fields, one expression per
    column, with the drift coefficient folded into the constants."""
    rb4 = p.rho * p.beta / 4.0
    dv = p.alpha * p.theta - p.beta * p.beta / 4.0
    orth = p.beta * math.sqrt(1.0 - p.rho * p.rho)
    a, b1, b2 = coeffs
    y1, y2 = y[..., 0], y[..., 1]
    q = np.sqrt(np.maximum(y2, 0.0))
    out = np.empty_like(y)
    out[..., 0] = y1 * ((a * (p.mu - rb4) - (a * 0.5) * y2) + b1 * q)
    out[..., 1] = ((b1 * (p.rho * p.beta) + b2 * orth) * q
                   + (a * dv - (a * p.alpha) * y2))
    out[..., 2] = a * y1
    return out


def _drift_expressions(p, y, a):
    """Reference: the drift flow, a V0 plus 0.0 for each left-out diffusion term."""
    rb4 = p.rho * p.beta / 4.0
    dv = p.alpha * p.theta - p.beta * p.beta / 4.0
    y1, y2 = y[..., 0], y[..., 1]
    out = np.empty_like(y)
    out[..., 0] = ((a * (p.mu - rb4) - (a * 0.5) * y2) + 0.0) * y1
    out[..., 1] = 0.0 + (a * dv - (a * p.alpha) * y2)
    out[..., 2] = y1 * a
    return out


def _agrees(out, want):
    """Equal to rounding, which the order of a sum's terms moves; NaN in the same places."""
    return np.allclose(out, want, rtol=1e-13, atol=1e-300, equal_nan=True)


def _same_bits(a, b):
    """Same shape, NaN in the same places, and the same bits elsewhere (zero signs too)."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


class TestHestonParams:
    def test_defaults_satisfy_feller(self):
        p = HestonParams()
        assert 2 * p.alpha * p.theta - p.beta**2 > 0
        assert p.x0 == (1.0, 0.09, 0.0)

    def test_feller_violation_rejected(self):
        with pytest.raises(ValueError):
            HestonParams(alpha=0.05, theta=0.09, beta=0.5)

    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            HestonParams(rho=1.5)

    def test_positivity(self):
        with pytest.raises(ValueError):
            HestonParams(x2=-0.1)

    @pytest.mark.parametrize("value", ["x", True, None], ids=["string", "boolean", "none"])
    def test_non_number_rejected(self, value):
        with pytest.raises(ValueError, match=f"^heston mu must be a number, got {value!r}$"):
            HestonParams(mu=value)


class TestHestonFields:
    def test_drift_field_components(self):
        p = HestonParams()
        model = heston_model(p)
        y = np.array([[1.2, 0.05, 0.3]])
        v0 = model.stratonovich[0](y)[0]
        # at rho = 0: second component is alpha (theta - y2) - beta^2/4
        assert v0[1] == pytest.approx(2.0 * (0.09 - 0.05) - 0.0025)
        assert v0[0] == pytest.approx(1.2 * (0.05 - 0.025))
        assert v0[2] == pytest.approx(1.2)

    def test_second_brownian_field_shape(self):
        model = heston_model(HestonParams())
        y = np.array([[1.2, 0.04, 0.0]])
        v2 = model.stratonovich[2](y)[0]
        assert v2[0] == 0.0 and v2[2] == 0.0
        assert v2[1] == pytest.approx(0.1 * math.sqrt(0.04))

    def test_ito_drift(self):
        model = heston_model(HestonParams())
        y = np.array([[2.0, 0.16, 1.0]])
        drift = model.ito_drift(y)[0]
        assert drift.tolist() == pytest.approx([0.05 * 2.0, 2.0 * (0.09 - 0.16), 2.0])

    def test_correlated_variant_fields(self):
        p = HestonParams(rho=-0.5)
        model = heston_model(p)
        y = np.array([[1.0, 0.09, 0.0]])
        v1 = model.stratonovich[1](y)[0]
        assert v1[1] == pytest.approx(-0.5 * 0.1 * 0.3)
        v0 = model.stratonovich[0](y)[0]
        assert v0[0] == pytest.approx(1.0 * (0.05 - 0.045 - (-0.5 * 0.1) / 4))

    def test_fused_combination_agrees_with_per_field_sum(self):
        guard = GuardCounter()
        model = heston_model(HestonParams(rho=-0.3), guard)
        rng = np.random.default_rng(2)
        y = np.abs(rng.normal(size=(64, 3))) + 0.01
        coeffs = [0.37, rng.normal(size=64), rng.normal(size=64)]
        generic = replace(model, fused_combination=None).combination(y, coeffs)
        fused = model.combination(y, coeffs)
        assert np.allclose(fused, generic, atol=1e-14)

    def test_fused_matches_one_expression_per_column(self):
        # the kernel accumulates in place; its bits must equal the plain
        # per-column expressions in every layout and coefficient shape
        p = HestonParams(rho=-0.5)
        model = heston_model(p)
        rng = np.random.default_rng(9)
        y = np.abs(rng.normal(size=(300, 3))) * [1.0, 0.1, 1.0]
        y[::7, 1] *= -1.0  # negative variances hit the clamp
        per_path = [0.013, rng.normal(size=300), rng.normal(size=300)]
        scalar = [0.013, 0.4, -0.7]
        cases = {
            "C, per-path": (np.ascontiguousarray(y), per_path),
            "F, per-path": (np.asfortranarray(y), per_path),
            "F, scalar": (np.asfortranarray(y), scalar),
            "F, per-path drift": (np.asfortranarray(y), [rng.normal(size=300), 0.0, 0.0]),
            "single state": (y[3].copy(), scalar),
        }
        for name, (state, coeffs) in cases.items():
            out = model.combination(state, coeffs)
            assert np.array_equal(out, _column_expressions(p, state, coeffs)), name
            assert out.shape == state.shape, name

    def test_guard_counts_negative_variance(self):
        guard = GuardCounter()
        model = heston_model(HestonParams(), guard)
        y = np.array([[1.0, -0.01, 0.0], [1.0, 0.02, 0.0]])
        out = model.stratonovich[1](y)
        assert np.all(np.isfinite(out))
        assert guard.negative == 1 and guard.total == 2
        assert guard.fraction == 0.5


class TestReadColumns:
    def test_declares_the_price_and_variance(self):
        assert heston_model(HestonParams()).read_dim == 2

    def test_unread_integral_does_not_change_the_fields(self):
        # the Runge-Kutta stage inputs leave the integral coordinate unset
        model = heston_model(HestonParams(rho=-0.5))
        rng = np.random.default_rng(4)
        y = np.asfortranarray(np.abs(rng.normal(size=(50, 3))) * [1.0, 0.1, 1.0])
        y[::7, 1] *= -1.0
        nan = y.copy(order="F")
        nan[:, 2] = np.nan
        for coeffs in ([0.02, rng.normal(size=50), rng.normal(size=50)], [0.02, 0.0, 0.0],
                       [0.02, None, None], [None, rng.normal(size=50), rng.normal(size=50)]):
            assert _same_bits(model.combination(nan, coeffs), model.combination(y, coeffs))
        for f in model.stratonovich:
            assert _same_bits(f(nan), f(y))
            assert _same_bits(f(nan[5]), f(y[5]))


class TestDriftFlow:
    """The fused kernel's drift flow: V1 and V2 left out (None coefficients)."""

    P = HestonParams(alpha=1.7, rho=-0.5)

    @classmethod
    def _states(cls):
        rng = np.random.default_rng(31)
        y = np.abs(rng.normal(size=(60, 3))) * [1.0, 0.1, 1.0] + [0.0, 0.001, 0.0]
        y[0:2, 0] = [0.0, -0.0]
        y[2:4, 2] = -0.0
        y[4, 0] = -1e300
        y[5, 1] = 1e300  # large variance: mu - y2/2 - rb4 and theta - y2 negative
        y[6, 1] = 0.2
        y[7, 0] = 1e300
        return y

    def _check(self, state, coeffs):
        """The general kernel: its bits, and one clamp record per variance."""
        guard = GuardCounter()
        out = heston_model(self.P, guard).combination(state, coeffs)
        want = _column_expressions(self.P, state, coeffs)
        assert _same_bits(out, want)
        y2 = state[..., 1]
        assert (guard.negative, guard.total) == (np.count_nonzero(y2 < 0.0), y2.size)
        return want

    def _drift(self, state, a):
        """The drift flow: the drift-only bits, the per-field a V0, no clamp record."""
        guard = GuardCounter()
        out = heston_model(self.P, guard).combination(state, [a, None, None])
        assert _same_bits(out, _drift_expressions(self.P, state, a))
        per_field = replace(heston_model(self.P), fused_combination=None)
        assert _agrees(out, per_field.combination(state, [a, None, None]))
        assert (guard.negative, guard.total) == (0, 0)
        return out

    @pytest.mark.parametrize("a", [0.013, 0.0, -0.0, -0.7, 1e300, np.linspace(-1, 1, 60)],
                             ids=["small", "zero", "negative-zero", "negative", "huge",
                                  "per-path"])
    def test_matches_the_general_kernel(self, a):
        # on positive finite variances the drift flow has the bits of the
        # general kernel with zero diffusion coefficients
        y = self._states()
        states = [np.asfortranarray(y), np.ascontiguousarray(y)]
        if not isinstance(a, np.ndarray):
            states += [y[row].copy() for row in range(8)]
        for state in states:
            with np.errstate(over="ignore", invalid="ignore"):
                assert _same_bits(self._drift(state, a), self._check(state, [a, 0.0, 0.0]))

    def test_drift_flow_takes_no_square_root(self, monkeypatch):
        model = heston_model(self.P)
        y = np.asfortranarray(self._states())
        calls = []
        sqrt = np.sqrt
        monkeypatch.setattr(np, "sqrt", lambda *args, **kw: calls.append(1) or sqrt(*args, **kw))
        model.combination(y, [0.013, None, None])
        assert calls == []
        model.combination(y, [0.013, 0.0, 0.0])
        model.combination(y, [0.013, np.zeros(60), None])
        assert calls == [1, 1]

    @pytest.mark.parametrize("special", [0.0, -0.0, -0.01, np.nan, np.inf],
                             ids=["zero", "negative-zero", "negative", "nan", "inf"])
    def test_other_variances_take_the_general_kernel(self, special):
        # zero diffusion coefficients take the general kernel; the drift flow
        # takes no root, so it neither clamps nor turns NaN on 0.0 q
        y = self._states()
        y[9, 1] = special
        for state in (np.asfortranarray(y), y[9].copy()):
            for a in (0.013, 0.0):
                with np.errstate(invalid="ignore"):
                    self._check(state, [a, 0.0, 0.0])
                    self._drift(state, a)

    @pytest.mark.parametrize("coeffs, differs", [
        ([-0.0, -0.0, 0.0], True),   # out0: -0.0 + -0.0 keeps the sign
        ([-0.0, 0.0, -0.0], True),   # out1: rho < 0 makes b1 rho beta + b2 orth -0.0
        ([-0.0, np.float64(0.0), 0.0], False),
        ([-0.0, np.full(60, -0.0), np.zeros(60)], True),
    ], ids=["negative-zero-b1", "negative-zero-b2", "numpy-zero", "zero-arrays"])
    def test_other_coefficients_take_the_general_kernel(self, coeffs, differs):
        # zero coefficients are coefficients: at the negative variance of row
        # 8, where a = -0.0 makes the folded drift terms -0.0, the first two
        # cases keep a sign that the drift flow's added 0.0 would not
        y = self._states()
        y[8, 1] = -0.01
        y = np.asfortranarray(y)
        want = self._check(y, coeffs)
        assert _same_bits(self._drift(y, coeffs[0]), want) != differs


class TestDiffusionFlow:
    """The fused kernel's Gaussian flow: V0 left out (a None coefficient)."""

    P = TestDriftFlow.P

    @staticmethod
    def _coeffs(paths=60):
        rng = np.random.default_rng(37)
        return rng.normal(size=paths), rng.normal(size=paths)

    def _run(self, state, coeffs, p=None):
        p = p or self.P
        guard = GuardCounter()
        out = heston_model(p, guard).combination(state, coeffs)
        y2 = state[..., 1]
        assert (guard.negative, guard.total) == (np.count_nonzero(y2 < 0.0), y2.size)
        if coeffs[0] is None:
            per_field = replace(heston_model(p), fused_combination=None)
            assert _agrees(out, per_field.combination(state, coeffs))
        return out

    @pytest.mark.parametrize("b1, b2", [
        ("per-path", "per-path"), ("per-path", 0.0), (0.0, "per-path"), (-0.0, "per-path"),
        (0.4, -0.7), (0.0, -0.0), (-0.0, 0.0)])
    def test_matches_the_general_kernel(self, b1, b2):
        # up to the sign of a zero: the states hold zero and -0.0 prices and
        # integrals, and a 1e300 variance
        y = TestDriftFlow._states()
        per_path = self._coeffs()
        b1 = per_path[0] if b1 == "per-path" else b1
        b2 = per_path[1] if b2 == "per-path" else b2
        states = [np.asfortranarray(y), np.ascontiguousarray(y)]
        if not isinstance(b1, np.ndarray) and not isinstance(b2, np.ndarray):
            states += [y[row].copy() for row in range(8)]
        for state in states:
            with np.errstate(over="ignore", invalid="ignore"):
                out = self._run(state, [None, b1, b2])
                assert np.array_equal(out, _column_expressions(self.P, state, [0.0, b1, b2]))

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.3])
    def test_nv_flows_keep_the_general_bits(self, rho):
        # N-V's Gaussian flows give each path one coefficient and 0.0 for the
        # other: on positive variances the bits are the general kernel's with
        # a zero drift coefficient
        p = HestonParams(alpha=1.7, rho=rho)
        rng = np.random.default_rng(41)
        y = np.asfortranarray(np.abs(rng.normal(size=(200, 3))) * [1.0, 0.1, 1.0]
                              + [0.0, 0.001, 0.0])
        eta = rng.normal(size=200)
        asc = rng.uniform(size=200) >= 0.5
        for b in ([np.where(asc, eta, 0.0), np.where(~asc, eta, 0.0)],
                  [np.where(~asc, eta, 0.0), np.where(asc, eta, 0.0)],
                  [0.4, -0.7]):
            out = self._run(y, [None, *b], p)
            assert _same_bits(out, _column_expressions(p, y, [0.0, *b]))

    def test_diffusion_flow_takes_one_square_root(self, monkeypatch):
        model = heston_model(self.P)
        y = np.asfortranarray(TestDriftFlow._states())
        b1, b2 = self._coeffs()
        calls = []
        sqrt = np.sqrt
        monkeypatch.setattr(np, "sqrt", lambda *args, **kw: calls.append(1) or sqrt(*args, **kw))
        model.combination(y, [None, b1, b2])
        assert calls == [1]

    @pytest.mark.parametrize("special", [0.0, -0.0, -0.01, np.nan, np.inf],
                             ids=["zero", "negative-zero", "negative", "nan", "inf"])
    def test_other_variances_take_the_general_kernel(self, special):
        # a zero drift coefficient takes the general kernel; the Gaussian flow
        # is the per-field b1 V1 + b2 V2 on every variance
        y = TestDriftFlow._states()
        y[9, 1] = special
        b1, b2 = self._coeffs()
        for state, b in ((np.asfortranarray(y), [b1, b2]), (y[9].copy(), [b1[9], b2[9]])):
            with np.errstate(invalid="ignore"):
                out = self._run(state, [0.0, *b])
                assert _same_bits(out, _column_expressions(self.P, state, [0.0, *b]))
                self._run(state, [None, *b])

    def test_overflowing_drift_factors_take_the_general_kernel(self):
        # alpha y2 overflows at a 1e300 variance, but the general kernel folds
        # a zero drift coefficient into the constants first, so its drift
        # terms are zero and it stays finite, as the Gaussian flow does,
        # which evaluates no drift term
        p = HestonParams(alpha=1e10)
        y = TestDriftFlow._states()
        b1, b2 = self._coeffs()
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._run(y, [0.0, b1, b2], p)
            want = _column_expressions(p, y, [0.0, b1, b2])
            gaussian = self._run(y, [None, b1, b2], p)
        assert p.alpha * float(y[5, 1]) == math.inf
        assert _same_bits(out, want)
        assert np.all(np.isfinite(out)) and np.all(np.isfinite(gaussian))

    @pytest.mark.parametrize("a", [-0.0, np.float64(0.0), np.zeros(60)],
                             ids=["negative-zero", "numpy-zero", "zero-array"])
    def test_other_drift_coefficients_take_the_general_kernel(self, a):
        # every zero drift coefficient, the float 0.0 too, is a coefficient:
        # b1 = -0.0 makes b1 q -0.0, and the drift term +0.0 turns that sum
        # into +0.0 (row 5: mu - y2/2 - rb4 < 0 times -0.0; row 10: > 0 times
        # +0.0), which the Gaussian flow, adding no drift term, leaves -0.0
        model = heston_model(self.P)
        y = np.asfortranarray(TestDriftFlow._states())
        b1, b2 = self._coeffs()
        b1[[5, 10]] = -0.0
        with np.errstate(over="ignore"):
            for coeffs in ([a, b1, b2], [0.0, b1, b2]):
                out = model.combination(y, coeffs)
                assert _same_bits(out, _column_expressions(self.P, y, coeffs))
        assert not _same_bits(out, model.combination(y, [None, b1, b2]))


#: the drift step against integrate, in ulps of the largest term that the
#: Runge-Kutta step sums: float Runge-Kutta rounds each stage, and rk7's large
#: coefficients make its stage terms cancel (a random search found 10 and 310)
DRIFT_STEP_ULPS = {"rk5-butcher": 32, "rk7-butcher": 1024}
RKS = tuple(scheme(name) for name in DRIFT_STEP_ULPS)
#: the head of the sha256 of the reprs of the drift maps of HestonParams() at
#: a = 1/32 and 1/16, joined by a newline: the coefficients' bits
DRIFT_MAP_SHA256 = {"rk5-butcher": "28f0ae0a3451cb63", "rk7-butcher": "155333fb327295ad"}
HUGE = 1e300


def _exact_drift_step(p, tableau, a, y):
    """Reference: the tableau's step of a V0 from one state, in exact arithmetic."""
    mu, al, th, be, rho, a = map(Fraction, (p.mu, p.alpha, p.theta, p.beta, p.rho, a))
    y = [Fraction(v) for v in y]

    def v0(z):
        return [a * z[0] * (mu - z[1] / 2 - rho * be / 4), a * (al * (th - z[1]) - be * be / 4),
                a * z[0]]

    ks = []
    for row in tableau.a:
        ks.append(v0([y[c] + sum(aij * k[c] for aij, k in zip(row, ks)) for c in range(3)]))
    return [float(y[c] + sum(bj * k[c] for bj, k in zip(tableau.b, ks))) for c in range(3)]


class TestDriftStep:
    """Heston's drift step: a tableau's step of a V0 as a polynomial map."""

    P = TestDriftFlow.P
    MODEL = heston_model(P)

    def _integrate(self, rk, a, y):
        """integrate on the flow of a V0, and the largest term each of its sums adds."""
        ks = []

        def field(z):
            ks.append(self.MODEL.combination(z, [a, None, None]))
            return ks[-1]

        out = integrate(rk, field, y, read_dim=self.MODEL.read_dim)
        weights = np.abs(np.array(rk.tableau.a + (rk.tableau.b,), dtype=float)).max(axis=0)
        largest = (weights[:, None, None] * np.abs(np.stack(ks))).max(axis=0)
        return out, np.maximum(largest, np.abs(y))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rk=st.sampled_from(RKS), a=st.floats(0.0, 2.0, exclude_min=True),
           rows=st.lists(st.tuples(
               st.floats(0.0, 10.0),
               st.sampled_from([0.0, -0.0, HUGE, -HUGE]) | st.floats(-1.0, 1.0),
               st.floats(0.0, 10.0)), min_size=1, max_size=6))
    def test_agrees_with_integrate(self, rk, a, rows):
        # a huge variance overflows the step for any a from 1e-6, which then
        # runs integrate and fails as it does, naming the same stage and path
        y = np.asfortranarray(rows, dtype=float)
        huge = np.abs(y[:, 1]) == HUGE
        assume(a >= 1e-6 or not huge.any())
        flow = [a, None, None]
        with np.errstate(all="ignore"):
            if huge.any() and y[huge, 0].any():
                assert not np.isfinite(self.MODEL.drift_step(rk.tableau, a, y)).all()
            try:
                want, largest = self._integrate(rk, a, y)
            except IntegrationFailure as failure:
                with pytest.raises(IntegrationFailure) as got:
                    schemes._flow(self.MODEL, rk, y, flow)
                assert (got.value.stage, got.value.path) == (failure.stage, failure.path)
                return
            out = schemes._flow(self.MODEL, rk, y, flow)
        bound = DRIFT_STEP_ULPS[rk.tableau.name] * np.spacing(largest)
        assert np.all(np.abs(out - want) <= bound)

    @pytest.mark.parametrize("rk", RKS, ids=lambda rk: rk.tableau.name)
    def test_is_the_exact_step_rounded(self, rk):
        # rounded once and evaluated by Horner's rule, each column is within
        # a few ulps of the sum of its terms' magnitudes
        rng = np.random.default_rng(43)
        y = np.asfortranarray(rng.uniform([0.0, -1.0, 0.0], [10.0, 1.0, 10.0], size=(40, 3)))
        s = rk.stages
        for a in (1 / 32, 0.5, 2.0):
            ef, p, q = heston_bench._drift_map(self.P, rk.tableau, a)
            assert (len(ef), len(p), len(q)) == (2, s + 1, s)  # deg P <= s, deg Q <= s - 1
            out = self.MODEL.drift_step(rk.tableau, a, y)
            for row, state in zip(out, y):
                y1, y2, y3 = np.abs(state)
                scale = [y1 * np.polyval(np.abs(p[::-1]), y2), np.polyval(np.abs(ef[::-1]), y2),
                         y3 + y1 * np.polyval(np.abs(q[::-1]), y2)]
                exact = _exact_drift_step(self.P, rk.tableau, a, state)
                assert np.all(np.abs(row - exact) <= 4 * s * np.finfo(float).eps
                              * np.array(scale))
        maps = "\n".join(repr(heston_bench._drift_map(HestonParams(), rk.tableau, a))
                         for a in (1 / 32, 1 / 16))
        assert hashlib.sha256(maps.encode()).hexdigest()[:16] == DRIFT_MAP_SHA256[rk.tableau.name]

    def test_leaves_other_flows_to_integrate(self):
        # a per-path drift coefficient, a single state, a non-finite a and
        # coefficients past the float range run the Runge-Kutta stages
        rk = RKS[0]
        y = np.asfortranarray(TestDriftFlow._states()[8:])
        assert self.MODEL.drift_step(rk.tableau, math.inf, y) is None
        assert heston_model(HestonParams(alpha=1e80)).drift_step(rk.tableau, 0.5, y) is None
        for state, a in ((y, np.linspace(0.1, 0.5, len(y))), (y[3].copy(), 0.5)):
            want = integrate(rk, lambda z: self.MODEL.combination(z, [a, None, None]), state,
                             read_dim=2)
            assert _same_bits(schemes._flow(self.MODEL, rk, state, [a, None, None]), want)

    def test_nv_tableau_picks_the_drift_step(self, monkeypatch):
        # the drift step is derived from the config's nv_tableau, here rk7
        names = []
        derive = heston_bench._drift_map
        monkeypatch.setattr(heston_bench, "_drift_map",
                            lambda p, tableau, a: names.append(tableau.name) or
                            derive(p, tableau, a))
        price_cell(BenchConfig(nv_tableau="rk7-butcher"), Cell("nv", 4, 2000, "qmc"))
        assert names and set(names) == {"rk7-butcher"}


class TestVarianceSqrt:
    @pytest.mark.parametrize("special", [None, -0.01, 0.0, -0.0, np.nan],
                             ids=["positive", "negative", "zero", "negative-zero", "nan"])
    def test_matches_the_clamped_sqrt(self, special):
        # positive variances skip the clamp; every other value must take it
        p = HestonParams(rho=-0.5)
        guard = GuardCounter()
        model = heston_model(p, guard)
        y = np.column_stack([np.linspace(0.5, 2.0, 50), np.linspace(0.01, 0.3, 50),
                             np.zeros(50)])
        if special is not None:
            y[17, 1] = special
        orth = p.beta * math.sqrt(1.0 - p.rho * p.rho)
        for state in (np.asfortranarray(y), y.copy(), y[17].copy()):
            want = orth * np.sqrt(np.maximum(state[..., 1], 0.0))
            assert _same_bits(model.stratonovich[2](state)[..., 1], want)
        negative = special is not None and special < 0.0
        assert (guard.negative, guard.total) == (3 * negative, 101)

    def test_empty_batch(self):
        guard = GuardCounter()
        model = heston_model(HestonParams(), guard)
        assert model.stratonovich[1](np.empty((0, 3))).shape == (0, 3)
        assert guard.total == 0


class TestFusedEuler:
    @staticmethod
    def _case(rng, paths=200):
        y = np.abs(rng.normal(size=(paths, 3))) * [1.0, 0.1, 1.0]
        y[::7, 1] *= -1.0  # negative variances hit the clamp
        y[1, 1], y[2, 1], y[3, 1] = 0.0, -0.0, np.nan
        # -0.0 price and integral under each sign pair of increments: the
        # dB 0.0 terms of the zero field entries decide the sign of the result
        y[4:8, 0] = -0.0
        y[4:8, 2] = -0.0
        y[8, 2] = -0.0
        inc = 0.1 * rng.normal(size=(paths, 2))
        inc[4:8] = [[0.1, 0.2], [0.1, -0.2], [-0.1, 0.2], [-0.1, -0.2]]
        return y, inc

    def test_matches_the_per_field_step(self):
        # alpha = 2 would make the products by alpha exact and hide their order
        p = HestonParams(alpha=1.7, rho=-0.5)
        y, inc = self._case(np.random.default_rng(21))
        cases = {
            "C, per-path": (np.ascontiguousarray(y), np.ascontiguousarray(inc)),
            "F, per-path": (np.asfortranarray(y), np.asfortranarray(inc)),
            "F, scalar": (np.asfortranarray(y), np.array([0.3, -0.2])),
            "F, scalar negative zero": (np.asfortranarray(y), np.array([-0.0, -0.0])),
            "single state, -0.0 price": (y[6].copy(), inc[6].copy()),
            "single state, -0.0 variance": (y[2].copy(), inc[2].copy()),
            "single state, nan variance": (y[3].copy(), inc[3].copy()),
        }
        for name, (state, increments) in cases.items():
            fused_guard, ref_guard = GuardCounter(), GuardCounter()
            model = heston_model(p, fused_guard)
            before = state.copy()
            out = em_step(model, state, 0.37, increments)
            per_field = replace(heston_model(p, ref_guard), fused_euler=None)
            ref = em_step(per_field, state, 0.37, increments)
            assert _same_bits(out, ref), name
            assert _same_bits(state, before), name
            assert fused_guard.fraction == ref_guard.fraction, name
            assert out.flags.f_contiguous == state.flags.f_contiguous, name
        # the per-field step evaluates the variance sqrt twice, the fused one once
        assert ref_guard.total == 2 * fused_guard.total

    def test_negative_zero_coordinates_keep_the_reference_sign(self):
        y, inc = self._case(np.random.default_rng(22))
        model = heston_model(HestonParams())
        out = em_step(model, np.asfortranarray(y), 0.01, inc)
        # out0 = (-0.0 + dB1 (-0.0 q)) + dB2 0.0 and out2 = (-0.0 + dB1 0.0) + dB2 0.0;
        # without the zero terms both columns would read -0.0 more often
        assert np.signbit(out[4:8, 0]).tolist() == [False, True, False, False]
        assert np.signbit(out[4:8, 2]).tolist() == [False, False, False, True]


class TestAsianPayoff:
    def test_at_the_money_boundary(self):
        p = HestonParams()
        assert asian_payoff(np.array([1.0, 0.09, 1.05]), p) == 0.0

    def test_linear_region(self):
        p = HestonParams()
        assert asian_payoff(np.array([1.0, 0.09, 1.15]), p) == pytest.approx(0.10)

    def test_vectorized(self):
        p = HestonParams()
        states = np.array([[1, 1, 1.05], [1, 1, 1.2], [1, 1, 0.2]], dtype=float)
        assert asian_payoff(states, p).tolist() == pytest.approx([0.0, 0.15, 0.0])


class TestBenchmark:
    def test_qmc_price_in_sane_range(self):
        res = price_cell(CFG, Cell("nn", 4, 20_000, "qmc"))
        assert 0.0 < res.estimate < CFG.heston.x1
        assert res.error == abs(res.estimate - REFERENCE_PRICE)

    def test_guard_fraction_small_at_default_parameters(self):
        res = price_cell(CFG, Cell("nn", 4, 50_000, "qmc"))
        assert res.guard_fraction < 1e-4

    def test_nn_discretization_error_is_monotone_second_order(self):
        ns = [1, 2, 4, 8]
        errs = [price_cell(CFG, Cell("nn", n, 200_000, "qmc")).error for n in ns]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert sum(ratios) / len(ratios) >= 2.5

    def test_romberg_cell_needs_even_partitions(self):
        with pytest.raises(ValueError):
            Cell("nn", 3, 1000, "qmc", use_romberg=True)

    @pytest.mark.parametrize("args, message", [
        (("xx", 2, 1000, "qmc"), "scheme must be one of nn, em, nv, got 'xx'"),
        (("nn", 2, 1000, "xx"), "mode must be qmc or mc, got 'xx'"),
        (("nn", 2, 0, "qmc"), "samples must be an integer >= 1, got 0"),
    ], ids=["unknown-scheme", "unknown-mode", "zero-samples"])
    def test_refused_cell_is_not_priced(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            price_cell(BenchConfig(workers=1), Cell(*args))

    @pytest.mark.parametrize("heston, reference, expected", [
        (HestonParams(), None, REFERENCE_PRICE),
        (HestonParams(K=1.0), None, None),
        (HestonParams(K=1.0), 0.06, 0.06),
    ], ids=["pinned-parameters", "changed-parameters", "explicit-reference"])
    def test_pinned_price_is_the_reference_for_the_pinned_parameters_only(
            self, heston, reference, expected):
        cfg = BenchConfig(heston=heston, workers=1, reference=reference)
        assert cfg.reference_price == expected
        res = price_cell(cfg, Cell("nn", 2, 1000, "qmc"))
        assert res.error == (None if expected is None else abs(res.estimate - expected))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(seed=1.5), "seed must be an integer >= 0, got 1.5"),
        (dict(seed=-1), "seed must be an integer >= 0, got -1"),
        (dict(workers=-2), "workers must be an integer >= 1, got -2"),
        (dict(workers=2.5), "workers must be an integer >= 1, got 2.5"),
        (dict(workers=300), "workers must be <= 256, got 300"),
        (dict(sobol_skip=2.5), "sobol_skip must be an integer >= 1, got 2.5"),
        (dict(reference=math.nan), "reference must be a finite number, got nan"),
        (dict(reference=True), "reference must be a finite number, got True"),
        (dict(branch="middle"), "branch must be upper or lower, got 'middle'"),
        (dict(nn_tableau=[5]), r"nn_tableau must be a tableau name, got \[5\]"),
        (dict(nv_tableau="rk9"), r"nv_tableau: unknown tableau 'rk9'; builtins: .*"),
        # u is a Fraction or an int: a float, even one that holds a valid u, is refused
        (dict(u=0.25), "u must be a rational number, got 0.25"),
        (dict(u=0.75), "u must be a rational number, got 0.75"),
        (dict(u=math.inf), "u must be a rational number, got inf"),
        (dict(u=Fraction(1, 4)), "u must be >= 1/2, got 1/4"),
        (dict(u=Fraction(10**400)), "u is too large for a float, got about 1e400"),
        (dict(u=None), "u must be a rational number, got None"),
    ], ids=["fractional-seed", "negative-seed", "negative-workers", "fractional-workers",
            "many-workers", "fractional-sobol-skip", "nan-reference", "boolean-reference",
            "unknown-branch", "non-string-tableau", "unknown-tableau", "low-u", "float-u",
            "infinite-u", "low-fraction-u", "huge-u", "non-number-u"])
    def test_config_refuses_what_the_cli_refuses(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BenchConfig(**kwargs)

    def test_romberg_nn_cell_builds_its_family_once(self, monkeypatch):
        # check_cell and price_cell plan two levels each from the one config
        calls = []
        solution_params = heston_bench.solution_params

        def counted(*args, **kwargs):
            calls.append(args)
            return solution_params(*args, **kwargs)

        monkeypatch.setattr(heston_bench, "solution_params", counted)
        config, cell = BenchConfig(workers=1), Cell("nn", 2, 1000, "qmc", use_romberg=True)
        check_cell(config, cell)
        estimate = price_cell(config, cell).estimate
        assert calls == [(Fraction(3, 4), "lower")]
        assert price_cell(BenchConfig(workers=1), cell).estimate == estimate

    def test_config_stores_counts_and_reference_as_read(self):
        cfg = BenchConfig(seed=2.0, sobol_skip=1e3, workers=1.0, reference=1)
        assert (cfg.seed, cfg.sobol_skip, cfg.workers) == (2, 1000, 1)
        assert all(type(v) is int for v in (cfg.seed, cfg.sobol_skip, cfg.workers))
        assert type(cfg.reference) is float and cfg.reference == 1.0

    @pytest.mark.parametrize("kwargs, cell, message", [
        (dict(nv_tableau="rk9"), Cell("nv", 2, 1000, "qmc"), "nv_tableau: unknown tableau 'rk9'"),
        (dict(u=None), Cell("nn", 2, 1000, "qmc"), "u must be a rational number, got None"),
    ], ids=["unknown-tableau", "non-number-u"])
    def test_check_cell_refuses_with_value_error(self, kwargs, cell, message):
        # neither a KeyError from the tableau lookup nor a TypeError from
        # float(u) leaves check_cell
        with pytest.raises(ValueError, match=f"^{message}"):
            check_cell(BenchConfig(workers=1, **kwargs), cell)

    @pytest.mark.parametrize("args, kwargs, message", [
        (("nn", True, 1000, "qmc"), {}, "n must be an integer >= 1, got True"),
        (("nn", 2.5, 1000, "qmc"), {}, "n must be an integer >= 1, got 2.5"),
        (("nn", 2, 1000.5, "qmc"), {}, "samples must be an integer >= 1, got 1000.5"),
        (("nn", 2, 2**32 + 1, "qmc"), {}, "samples must be <= 4294967296, got 4294967297"),
        (("nn", 2, 1e300, "qmc"), {}, r"samples must be <= 4294967296, got 1e\+300"),
        (("nn", 2, 1000, "qmc"), dict(use_romberg=1), "romberg must be true or false, got 1"),
    ], ids=["boolean-n", "fractional-n", "fractional-samples", "huge-samples",
            "huge-float-samples", "integer-romberg"])
    def test_cell_refuses_what_the_cli_refuses(self, args, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Cell(*args, **kwargs)

    def test_cell_accepts_what_the_cli_accepts(self):
        # an integral float is the count it holds, as --n 2.0 and --samples 2e3 are
        cell = Cell("nn", 2.0, 2e3, "qmc")
        assert (cell.partitions, cell.samples) == (2, 2000)
        assert type(cell.partitions) is int and type(cell.samples) is int
        res = price_cell(BenchConfig(workers=1), cell)
        assert result_rows([res])[1].startswith("nn,2,2000,")

    def test_romberg_at_two_beats_plain_at_six(self):
        # extrapolation from 1+2 partitions outperforms three times the work
        romb = price_cell(CFG, Cell("nn", 2, 200_000, "qmc", use_romberg=True))
        plain = price_cell(CFG, Cell("nn", 6, 200_000, "qmc"))
        assert romb.error < plain.error

    def test_convergence_study_rows(self):
        cells = [Cell("nn", 1, 10_000, "qmc"), Cell("em", 4, 10_000, "qmc")]
        result = convergence_study(CFG, cells)
        assert [r.cell for r in result] == cells
        lines = result_rows(result)
        assert lines[0] == "scheme,n,samples,mode,romberg,estimate,error"
        assert len(lines) == 3
        assert lines[1].startswith("nn,1,10000,qmc,0,")
        timed = result_rows(result, timings=True)
        assert timed[0].endswith(",seconds")

    def test_study_deterministic_across_workers(self):
        cells = [Cell("nn", 2, 20_000, "qmc")]
        rows = []
        for w in (1, 2):
            cfg = BenchConfig(workers=w)
            rows.append(result_rows(convergence_study(cfg, cells)))
        assert rows[0] == rows[1]

    def test_mc_mode_reports_batch_error(self):
        res = price_cell(CFG, Cell("nn", 2, 20_000, "mc"))
        assert res.error is not None and res.error > 0

    @pytest.mark.parametrize("cell, estimate, error, before", [
        (Cell("em", 4, 2000, "mc", use_romberg=True),
         "0.061328786637386896", "0.02230640563864077", 0.06055868354569188),
        (Cell("nv", 2, 2000, "mc"), "0.0625942307652785", "0.01597626988520694",
         0.057395079701646),
    ], ids=["em-romberg", "nv"])
    def test_small_mc_error_bars_pinned(self, cell, estimate, error, before):
        # no benchmark digest covers an MC Romberg or an MC N-V cell; the
        # Romberg error bar combines the two levels batch by batch
        res = price_cell(CFG, cell)
        assert (repr(res.estimate), repr(res.error)) == (estimate, error)
        # ``before`` is the pin while path i owned Philox words i*D onward:
        # the coordinate layout draws other uniforms, a move by sampling noise
        assert abs(res.estimate - before) < res.error

    @pytest.mark.slow
    def test_em_romberg_qmc_matches_table_accuracy(self):
        # the "16 + 8" extrapolated Euler-Maruyama setting at 5e6 samples
        # should reach the 1e-4 accuracy class (tolerance doubled, as for the
        # headline cells, for generator and coordinate-assignment differences)
        res = price_cell(CFG, Cell("em", 16, 5_000_000, "qmc", use_romberg=True))
        assert res.error <= 2e-4

    @pytest.mark.slow
    def test_cross_scheme_consistency(self):
        # the Ito form (EM at fine n, MC) and the Stratonovich form (splitting
        # scheme at n=8, QMC) must price the same law within combined bars
        em = price_cell(CFG, Cell("em", 4096, 50_000, "mc"))
        nn = price_cell(CFG, Cell("nn", 8, 200_000, "qmc"))
        em_disc_bias = 0.2 / 4096  # first-order law, constant fitted well above
        assert abs(em.estimate - nn.estimate) <= em.error + nn.error + em_disc_bias

