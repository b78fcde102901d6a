import dataclasses
import math

import numpy as np
import pytest

from sdeweak.heston_bench import HestonParams, heston_model
from sdeweak.rk_integrator import (
    IntegrationFailure,
    IntegrationScheme,
    VectorField,
    builtin_tableau,
    integrate,
    scheme,
)
from slopes import decay_slope

RK5 = scheme("rk5-butcher")
RK7 = scheme("rk7-butcher")

ROTATE = VectorField(2, lambda y: np.stack([y[..., 1], -y[..., 0]], axis=-1))


def scaled(W, h):
    """The field h W, whose time-1 flow is W's flow over time h."""
    return VectorField(W.dimension, lambda y: h * W(y))


def rotation_error(integ, n):
    """Max-norm error after integrating the unit rotation field over [0,1] in n steps."""
    step = scaled(ROTATE, 1.0 / n)
    y = np.array([1.0, 0.0])
    for _ in range(n):
        y = integrate(integ, step, y)
    exact = np.array([math.cos(1.0), -math.sin(1.0)])
    return float(np.max(np.abs(y - exact)))


def _out_of_place_integrate(integ, W, y0):
    """Reference: every stage combination of the size-1 step as a fresh out-of-place sum."""
    rows = [[(j, float(a)) for j, a in enumerate(row) if a != 0] for row in integ.tableau.a]
    ks = []
    for row in rows:
        yi = y0
        for j, aij in row:
            yi = yi + aij * ks[j]
        ks.append(np.asarray(W(yi), dtype=float))
    out = y0
    for i, bi in enumerate(integ.tableau.b):
        if bi != 0:
            out = out + float(bi) * ks[i]
    return out


class TestBuiltins:
    def test_names(self):
        assert builtin_tableau("rk5-butcher").stages == 6
        assert builtin_tableau("rk7-butcher").stages == 9
        with pytest.raises(KeyError):
            builtin_tableau("rk9")

    def test_known_entries(self):
        t5 = builtin_tableau("rk5-butcher")
        assert float(t5.a[1][0]) == 0.4
        assert [float(b) for b in t5.b] == pytest.approx(
            [7 / 90, 0.0, 32 / 90, 12 / 90, 32 / 90, 7 / 90])
        t7 = builtin_tableau("rk7-butcher")
        assert float(t7.a[8][7]) == pytest.approx(21 / 16)
        assert float(t7.b[3]) == pytest.approx(32 / 105)

    def test_certification_at_construction(self):
        # a scheme is certified at its tableau's declared order
        rk5 = builtin_tableau("rk5-butcher")
        with pytest.raises(ValueError, match="fails order-6 conditions"):
            IntegrationScheme(dataclasses.replace(rk5, declared_order=6))
        IntegrationScheme(builtin_tableau("rk7-butcher"))


class TestRkStep:
    def test_zero_field_fixed_point(self):
        zero = VectorField(3, lambda y: np.zeros_like(y))
        y0 = np.array([1.0, -2.0, 0.5])
        for integ in (RK5, RK7):
            assert np.array_equal(integrate(integ, scaled(zero, 0.7), y0), y0)

    def test_linear_field_matches_degree_five_taylor(self):
        # for W = A y an order-5 step equals the degree-5 Taylor polynomial of
        # exp(sA) exactly; the defect is O(s^6)
        A = np.array([[0.0, 1.0], [-2.0, -0.3]])
        W = VectorField(2, lambda y: y @ A.T)
        y0 = np.array([0.7, -0.2])

        def defect(s):
            taylor = np.eye(2)
            term = np.eye(2)
            for k in range(1, 6):
                term = term @ (s * A) / k
                taylor = taylor + term
            return float(np.max(np.abs(integrate(RK5, scaled(W, s), y0) - taylor @ y0)))

        d1, d2 = defect(0.5), defect(0.25)
        assert d1 / d2 == pytest.approx(2**6, rel=0.25)

    def test_scalar_exponential_ratio_for_rk7(self):
        W = VectorField(1, lambda y: y)

        def err(n):
            step = scaled(W, 1.0 / n)
            y = np.array([1.0])
            for _ in range(n):
                y = integrate(RK7, step, y)
            return abs(float(y[0]) - math.e)

        # one step at s=1 already lands within 1e-6 of e; the halving ratio
        # climbs toward 2^7 = 128 and is well past order 6 (ratio 64) by n=8
        assert err(1) < 1e-6
        assert err(8) / err(16) > 90.0

    def test_batch_matches_scalar(self):
        W = VectorField(2, lambda y: np.stack([y[..., 1], y[..., 0] * 0.5], axis=-1))
        ys = np.array([[1.0, 0.0], [0.3, -0.4], [2.0, 2.0]])
        W = scaled(W, 0.3)
        batch = integrate(RK5, W, ys)
        rows = np.vstack([integrate(RK5, W, y) for y in ys])
        assert np.array_equal(batch, rows)

    def test_determinism(self):
        y0 = np.array([0.2, 0.4])
        a = integrate(RK7, scaled(ROTATE, 0.9), y0)
        b = integrate(RK7, scaled(ROTATE, 0.9), y0)
        assert np.array_equal(a, b)

    def test_affine_equivariance(self):
        # conjugating the field by an affine map commutes with the step
        A = np.array([[2.0, 1.0], [0.5, 3.0]])
        Ainv = np.linalg.inv(A)
        c = np.array([0.3, -0.7])
        W = VectorField(2, lambda y: np.stack(
            [np.sin(y[..., 0]), y[..., 1] - y[..., 0] ** 2], axis=-1))
        Wt = VectorField(2, lambda z: (W((z - c) @ Ainv.T)) @ A.T)
        y0 = np.array([0.4, 0.9])
        lhs = integrate(RK5, scaled(Wt, 0.5), y0 @ A.T + c)
        rhs = integrate(RK5, scaled(W, 0.5), y0) @ A.T + c
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_failure_carries_stage(self):
        bad = VectorField(1, lambda y: np.where(y > 1.5, np.nan, y))
        with pytest.raises(IntegrationFailure) as exc:
            # stages grow past 1.5 for a large field value
            integrate(RK5, scaled(bad, 5.0), np.array([1.4]))
        assert exc.value.stage >= 1

    @pytest.mark.parametrize("integ", [RK5, RK7], ids=["rk5", "rk7"])
    def test_failure_names_first_nonfinite_stage(self, integ):
        bad = VectorField(1, lambda y: np.where(y > 1.5, np.nan, y))
        with pytest.raises(IntegrationFailure) as exc:
            integrate(integ, scaled(bad, 5.0), np.array([1.4]))
        assert exc.value.stage == 2

    def test_failure_in_one_row_of_a_batch(self):
        bad = VectorField(1, lambda y: np.where(y > 1.5, np.nan, y))
        with pytest.raises(IntegrationFailure) as exc:
            integrate(RK5, scaled(bad, 5.0), np.array([[0.1], [1.4], [0.2]]))
        # the time step is the path driver's to add (TestFailureStep in test_schemes)
        assert (exc.value.stage, exc.value.step) == (2, None)

    def test_failure_names_the_first_nonfinite_row(self):
        bad = VectorField(1, lambda y: np.where(y > 1.5, np.nan, y))
        batch = np.asfortranarray([[0.1], [0.2], [1.4], [1.45], [0.3]])
        with pytest.raises(IntegrationFailure) as exc:
            integrate(RK5, scaled(bad, 5.0), batch)
        assert (exc.value.stage, exc.value.step, exc.value.path) == (2, None, 2)
        assert str(exc.value) == "non-finite state in Runge-Kutta stage 2, path 2"
        with pytest.raises(IntegrationFailure) as exc:
            integrate(RK5, scaled(bad, 5.0), np.array([1.4]))
        assert exc.value.path is None

    def test_failure_row_is_the_stages_not_the_results(self):
        # row 0 stays finite in every stage but overflows in the combination;
        # row 1 turns NaN in stage 3, which is the failure to report
        calls = []

        def field(y):
            calls.append(None)
            return np.array([[1e308], [np.nan if len(calls) >= 3 else 1.0]])

        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(IntegrationFailure) as exc:
            integrate(RK5, VectorField(1, field), np.array([[1e308], [0.0]]))
        assert (exc.value.stage, exc.value.path) == (3, 1)

    def test_failure_in_a_zero_weight_stage(self):
        # b_1 = 0 in RK7: stage 1 never reaches the result, so it is screened
        # as it is evaluated
        calls = []

        def first_call_infinite(y):
            calls.append(None)
            return np.full_like(y, np.inf if len(calls) == 1 else 1.0)

        with pytest.raises(IntegrationFailure) as exc:
            integrate(RK7, scaled(VectorField(1, first_call_infinite), 0.1), np.array([0.5]))
        assert exc.value.stage == 1

    @pytest.mark.parametrize("integ", [RK5, RK7], ids=["rk5", "rk7"])
    def test_overflowing_combination_fails_without_a_stage(self, integ):
        huge = VectorField(1, lambda y: np.full_like(y, 1e308))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(IntegrationFailure) as exc:
            integrate(integ, huge, np.array([1e308]))
        assert (exc.value.stage, exc.value.step) == (None, None)
        assert "step combination" in str(exc.value)

    @pytest.mark.parametrize("integ", [RK5, RK7], ids=["rk5", "rk7"])
    def test_matches_out_of_place_loop(self, integ):
        # stage combinations reuse one scratch buffer; the bits must equal
        # the plain left-to-right loop, for a batch (column-major, as the
        # path drivers hold it) and for a single state
        model = heston_model(HestonParams(rho=-0.5))
        rng = np.random.default_rng(5)
        batch = np.asfortranarray(np.abs(rng.normal(size=(257, 3))) * [1.0, 0.1, 1.0])
        batch[::9, 1] *= -1.0  # some negative variances hit the clamp
        per_path = [0.02, 0.3 * rng.normal(size=257), 0.3 * rng.normal(size=257)]
        cases = [(batch, per_path), (np.array([1.1, 0.07, 0.4]), [0.02, 0.25, -0.1])]
        for y0, coeffs in cases:
            W = VectorField(3, lambda y, coeffs=coeffs: model.combination(y, coeffs))
            before = y0.copy()
            out = integrate(integ, W, y0)
            assert np.array_equal(out, _out_of_place_integrate(integ, W, y0))
            assert np.array_equal(y0, before)


class TestReadColumns:
    """Stage inputs formed over the leading coordinates a field reads."""

    @staticmethod
    def _leading_field(calls=None):
        # reads (y1, y2) and writes a third coordinate, like the Heston V0
        def f(y):
            if calls is not None:
                calls.append(None)
            y1, y2 = y[..., 0], y[..., 1]
            return np.stack([y2 * np.sin(y1), -y1 * y2, y1 - 0.3 * y2], axis=-1)
        return VectorField(3, f)

    @pytest.mark.parametrize("integ", [RK5, RK7], ids=["rk5", "rk7"])
    def test_same_bytes_with_and_without_a_read_count(self, integ):
        model = heston_model(HestonParams(rho=-0.5))
        rng = np.random.default_rng(6)
        y = np.abs(rng.normal(size=(129, 3))) * [1.0, 0.1, 1.0]
        y[::11, 1] *= -1.0
        coeffs = {"per-path": [0.02, 0.3 * rng.normal(size=129), 0.3 * rng.normal(size=129)],
                  "drift": [0.02, 0.0, 0.0]}
        for layout, y0 in (("C", np.ascontiguousarray(y)), ("F", np.asfortranarray(y))):
            for name, c in coeffs.items():
                heston = VectorField(3, lambda z, c=c: model.combination(z, c))
                for W in (heston, self._leading_field()):
                    W = scaled(W, 0.7)
                    full = integrate(integ, W, y0)
                    narrow = integrate(integ, W, y0, read_dim=2)
                    assert full.tobytes(order="A") == narrow.tobytes(order="A"), (layout, name)
                    assert narrow.flags.f_contiguous == y0.flags.f_contiguous, (layout, name)
        single = np.array([1.1, 0.07, -0.0])
        for W in (VectorField(3, lambda z: model.combination(z, [0.02, 0.25, -0.1])),
                  self._leading_field()):
            W = scaled(W, 0.7)
            assert integrate(integ, W, single).tobytes() == \
                integrate(integ, W, single, read_dim=2).tobytes()

    @pytest.mark.parametrize("read_dim", [None, 2])
    def test_unread_column_failure_in_a_zero_weight_stage(self, read_dim):
        # b_2 = 0 in RK5: an infinite unread column of stage 2 is screened as
        # that stage is evaluated, and names it and its first bad row
        calls = []
        inner = self._leading_field(calls)

        def field(y):
            out = inner(y)
            if len(calls) == 2:
                out[[3, 1], 2] = np.inf
            return out

        y0 = np.asfortranarray(np.full((5, 3), 0.5))
        with pytest.raises(IntegrationFailure) as exc:
            integrate(RK5, scaled(VectorField(3, field), 0.1), y0, read_dim=read_dim)
        assert (exc.value.stage, exc.value.step, exc.value.path) == (2, None, 1)

    @pytest.mark.parametrize("read_dim", [None, 2])
    def test_unread_column_overflow_in_the_combination(self, read_dim):
        # every stage is finite; the unread column overflows only in the result
        y0 = np.asfortranarray(np.full((4, 3), 0.5))
        y0[2:, 2] = 1.7e308
        W = VectorField(3, lambda y: np.stack([0.0 * y[..., 0], 0.0 * y[..., 1],
                                               1e308 + 0.0 * y[..., 0]], axis=-1))
        with np.errstate(over="ignore"), pytest.raises(IntegrationFailure) as exc:
            integrate(RK5, W, y0, read_dim=read_dim)
        assert (exc.value.stage, exc.value.path) == (None, 2)


class TestConvergenceOrder:
    def test_rotation_slopes(self):
        ns = (4, 8, 16, 32)
        e5 = [rotation_error(RK5, n) for n in ns]
        e7 = [rotation_error(RK7, n) for n in ns]
        assert decay_slope(ns, e5) >= 4.8
        assert decay_slope(ns, e7) >= 6.7
