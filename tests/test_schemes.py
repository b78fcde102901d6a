import dataclasses
import math
import tracemalloc
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest

from sdeweak import sampling, schemes
from sdeweak.moment_match import solution_params
from sdeweak.rk_integrator import IntegrationFailure, VectorField, integrate, scheme
from sdeweak.heston_bench import BenchConfig, Cell, HestonParams, heston_model, price_cell
from sdeweak.sampling import (CHUNK, FLOAT_GROUP, MC, QMC, PhiloxChunk, SobolChunk,
                              UniformSource)
from sdeweak.schemes import (
    EM,
    NN,
    NV,
    SDEModel,
    SchemeStepPlan,
    em_step,
    nn_step,
    nv_step,
    romberg,
    run_paths,
)

DEFAULT_PARAMS = solution_params(Fraction(3, 4))

RK5 = scheme("rk5-butcher")

#: the N-V QMC pin before the drift flows between steps ran as one flow of s V0;
#: the merge moves an estimate by the Runge-Kutta error of the drift flows
NV_BEFORE_MERGE = 0.05998188995138026
#: the N-V QMC pin before the drift flows took the drift step, the tableau's
#: step as a polynomial map: the move is rounding, not Runge-Kutta error
NV_BEFORE_DRIFT_STEP = 0.05998188828312475
#: the MC pins while path i owned Philox words i*D onward: laying the stream
#: out by coordinate draws other uniforms, so an estimate moves by sampling
#: noise, inside its error column
MC_BEFORE_COORDINATE_LAYOUT = {(NN, 2): 0.06203760383778746, (NV, 3): 0.05967567215773015}


def linear_model(a=1.0, b=0.5):
    """Scalar commuting model: V0 = a y, V1 = b y (Stratonovich)."""
    v0 = VectorField(1, lambda y: a * y)
    v1 = VectorField(1, lambda y: b * y)
    # Ito drift: a y + (1/2) b^2 y
    drift = VectorField(1, lambda y: (a + 0.5 * b * b) * y)
    return SDEModel(stratonovich=(v0, v1), ito_drift=drift)


def pure_brownian_model():
    """V0 = 0, V1 = 1: the state is x + B_t."""
    zero = VectorField(1, lambda y: np.zeros_like(y))
    one = VectorField(1, lambda y: np.ones_like(y))
    return SDEModel(stratonovich=(zero, one), ito_drift=zero)


def planar_drift_model():
    """d=2, pure drift rotation field for composition tests."""
    rot = VectorField(2, lambda y: np.stack([y[..., 1], -y[..., 0]], axis=-1))
    zero = VectorField(2, lambda y: np.zeros_like(y))
    return SDEModel(stratonovich=(rot, zero, zero), ito_drift=rot)


class TestNNStep:
    def test_zero_time_is_identity(self):
        model = linear_model()
        out = nn_step(model, DEFAULT_PARAMS, RK5, np.array([2.0]), 0.0,
                      np.zeros((1, 2)))
        assert out.tolist() == [2.0]

    def test_zero_gaussians_give_two_half_drift_flows(self):
        # c1 = c2 = 1/2: both flows are exp((s/2) V0), fifth-order accurate
        model = planar_drift_model()
        s = 0.8
        x0 = np.array([1.0, 0.0])
        out = nn_step(model, DEFAULT_PARAMS, RK5, x0, s, np.zeros((2, 2)))
        exact = np.array([math.cos(s), -math.sin(s)])
        assert np.allclose(out, exact, atol=5e-7)

    def test_pure_brownian_translation_is_exact(self):
        # constant fields: the RK flow is an exact translation by sqrt(s)(S1+S2)
        model = pure_brownian_model()
        g = np.array([[0.7, -0.3]])
        out = nn_step(model, DEFAULT_PARAMS, RK5, np.array([[1.5]]), 0.25, g[:, None, :])
        assert out[0, 0] == pytest.approx(1.5 + 0.5 * (0.7 - 0.3), abs=1e-14)

    def test_commutative_model_second_moment(self):
        # V0 = a y, V1 = b y commute: X_s = x exp(a s + b sqrt(s)(S1+S2)) and
        # E[X_s^2] = x^2 exp(2 a s + 2 b^2 s) since Var(S1+S2) = 1
        a, b, s, x0 = 1.0, 0.5, 0.04, 1.0
        model = linear_model(a, b)
        plan = SchemeStepPlan(NN, 1, params=DEFAULT_PARAMS, integrator=RK5)
        src = UniformSource(MC, plan.uniform_dimension(model), seed=21)
        m = 100_000
        states = run_paths(plan, model, [x0], s, np.asarray(src.chunk(0, m)))
        vals = states[:, 0] ** 2
        exact = x0**2 * math.exp(2 * a * s + 2 * b * b * s)
        sem = vals.std(ddof=1) / math.sqrt(m)
        assert abs(vals.mean() - exact) < 3 * sem

    def test_rejects_bad_gaussian_shape(self):
        with pytest.raises(ValueError):
            nn_step(linear_model(), DEFAULT_PARAMS, RK5, np.array([1.0]), 0.1,
                    np.zeros((3,)))


class TestEMStep:
    def test_no_noise_no_drift(self):
        model = pure_brownian_model()
        out = em_step(model, np.array([[3.0]]), 0.5, np.zeros((1, 1)))
        assert out.tolist() == [[3.0]]

    def test_explicit_update(self):
        model = linear_model(a=1.0, b=0.5)
        x = np.array([[2.0]])
        out = em_step(model, x, 0.1, np.array([[0.3]]))
        drift = (1.0 + 0.125) * 2.0 * 0.1
        assert out[0, 0] == pytest.approx(2.0 + drift + 0.5 * 2.0 * 0.3)

    def test_fused_step_replaces_the_field_loop(self):
        base = linear_model(a=1.0, b=0.5)
        calls = []

        def fused(x, s, increments):
            calls.append((x.dtype, s, increments.dtype))
            return em_step(base, x, s, increments)

        model = SDEModel(base.stratonovich, base.ito_drift, fused_euler=fused)
        x, inc = [[2.0], [-1.0]], [[0.3], [0.1]]
        assert np.array_equal(em_step(model, x, 0.1, inc), em_step(base, x, 0.1, inc))
        assert calls == [(np.float64, 0.1, np.float64)]

    def test_martingale_mean_preserved(self):
        # dX = X dB (Ito): EM keeps E[X_1] = x0 for every n
        zero = VectorField(1, lambda y: np.zeros_like(y))
        ident = VectorField(1, lambda y: y)
        model = SDEModel((zero, ident), zero)
        plan = SchemeStepPlan(EM, 8)
        src = UniformSource(MC, plan.uniform_dimension(model), seed=4)
        m = 200_000
        states = run_paths(plan, model, [1.0], 1.0, np.asarray(src.chunk(0, m)))
        sem = states[:, 0].std(ddof=1) / math.sqrt(m)
        assert abs(states[:, 0].mean() - 1.0) < 3 * sem


def _masked_split_nv_step(model, rk, x, s, bernoulli, etas):
    """Reference: each Bernoulli ordering flows its own subset of the paths,
    between the drift flows of :func:`schemes._flow`."""
    root_s = np.sqrt(s)
    d = model.brownian_dim

    def flow(y, coeffs):
        return integrate(rk, lambda z: model.combination(z, coeffs), y)

    drift = [0.5 * s] + [None] * d
    x = schemes._flow(model, rk, x, drift)
    asc = bernoulli >= 0
    for sel, order in ((asc, range(1, d + 1)), (~asc, range(d, 0, -1))):
        if not np.any(sel):
            continue
        sub = x[sel]
        for i in order:
            coeffs = [0.0] * (d + 1)
            coeffs[i] = root_s * etas[sel, i - 1]
            sub = flow(sub, coeffs)
        x = x.copy()
        x[sel] = sub
    return schemes._flow(model, rk, x, drift)


def three_factor_model():
    """d=3 with non-commuting, state-dependent fields and no fused kernel."""
    def field(f):
        return VectorField(3, lambda y: np.stack(f(y[..., 0], y[..., 1], y[..., 2]), axis=-1))

    v0 = field(lambda a, b, c: (np.sin(b), -0.3 * a, a * c))
    v1 = field(lambda a, b, c: (np.ones_like(a), c, np.zeros_like(a)))
    v2 = field(lambda a, b, c: (np.zeros_like(a), np.cos(a), b))
    v3 = field(lambda a, b, c: (0.5 * b, np.zeros_like(a), a * b))
    return SDEModel((v0, v1, v2, v3), v0)


class TestNVStep:
    def test_matches_masked_split(self):
        # one flow per ordering position over all paths gives the bits of
        # flowing each ordering's paths on their own
        heston = heston_model(HestonParams(rho=-0.5))
        generic = SDEModel(heston.stratonovich, heston.ito_drift)
        rng = np.random.default_rng(13)
        paths = 200
        x = np.asfortranarray(np.abs(rng.normal(size=(paths, 3))) * [1.0, 0.1, 1.0])
        mixed = np.where(rng.uniform(size=paths) >= 0.5, 1.0, -1.0)
        for name, model in (("heston", heston), ("generic", generic),
                            ("three-factor", three_factor_model())):
            etas = rng.normal(size=(paths, model.brownian_dim))
            for bern in (np.ones(paths), -np.ones(paths), mixed):
                out = nv_step(model, RK5, x, 0.05, bern, etas)
                ref = _masked_split_nv_step(model, RK5, x, 0.05, bern, etas)
                assert np.array_equal(out, ref), (name, bern[:4])

    def test_zero_d_draw_gives_the_per_path_bits(self):
        # one 0-d draw for every path flows like that draw given per path: the
        # bits of the full batch, of each one-path batch and of flowing the
        # paths of one ordering on their own
        heston = heston_model(HestonParams(rho=-0.5))
        generic = SDEModel(heston.stratonovich, heston.ito_drift)
        rng = np.random.default_rng(14)
        paths = 40
        x = np.asfortranarray(np.abs(rng.normal(size=(paths, 3))) * [1.0, 0.1, 1.0])
        for name, model in (("heston", heston), ("generic", generic),
                            ("three-factor", three_factor_model())):
            etas = rng.normal(size=(paths, model.brownian_dim))
            for sign in (1.0, -1.0):
                out = nv_step(model, RK5, x, 0.05, np.float64(sign), etas)
                drawn = np.full(paths, sign)
                assert np.array_equal(out, nv_step(model, RK5, x, 0.05, drawn, etas))
                assert np.array_equal(
                    out, _masked_split_nv_step(model, RK5, x, 0.05, drawn, etas)), (name, sign)
                for i in range(0, paths, 13):
                    one = nv_step(model, RK5, x[i:i + 1], 0.05, np.array([sign]), etas[i:i + 1])
                    assert np.array_equal(out[i:i + 1], one), (name, sign, i)

    def test_failure_in_a_middle_flow_names_the_step(self):
        # steps 0-2 draw zero etas; in step 3 path 1 runs descending: V2 with
        # eta 0, then V1 with eta 10/3 pushes stage 5's input to 2.5, past 2
        zero = VectorField(1, lambda y: np.zeros_like(y))
        v1 = VectorField(1, lambda y: np.where(y > 2.0, np.nan, 1.0))
        v2 = VectorField(1, lambda y: np.ones_like(y))
        model = SDEModel((zero, v1, v2), zero)
        uniforms = np.tile([0.7, 0.5, 0.5], (3, 4))
        uniforms[:, 9:] = [[0.7, 0.55, 0.55], [0.2, NormalDist().cdf(10 / 3), 0.5],
                           [0.7, 0.45, 0.55]]
        with pytest.raises(IntegrationFailure) as exc:
            run_paths(SchemeStepPlan(NV, 4, integrator=RK5), model, [0.0], 4.0, uniforms)
        assert (exc.value.stage, exc.value.step, exc.value.path) == (5, 3, 1)

    def test_zero_noise_is_strang_drift(self):
        model = planar_drift_model()
        s = 0.6
        out = nv_step(model, RK5, np.array([[1.0, 0.0]]), s, np.array([1.0]),
                      np.zeros((1, 2)))
        exact = np.array([math.cos(s), -math.sin(s)])
        assert np.allclose(out[0], exact, atol=1e-7)

    def test_single_factor_ignores_bernoulli(self):
        model = linear_model()
        x = np.array([[1.2]])
        eta = np.array([[0.4]])
        up = nv_step(model, RK5, x, 0.3, np.array([1.0]), eta)
        down = nv_step(model, RK5, x, 0.3, np.array([-1.0]), eta)
        assert np.array_equal(up, down)

    def test_ordering_differs_for_noncommuting_fields(self):
        # V1, V2 chosen non-commuting so the Bernoulli branches differ
        v0 = VectorField(2, lambda y: np.zeros_like(y))
        v1 = VectorField(2, lambda y: np.stack([np.ones_like(y[..., 0]),
                                                np.zeros_like(y[..., 1])], axis=-1))
        v2 = VectorField(2, lambda y: np.stack([np.zeros_like(y[..., 0]),
                                                y[..., 0]], axis=-1))
        model = SDEModel((v0, v1, v2), v0)
        x = np.array([[0.0, 0.0]])
        eta = np.array([[1.0, 1.0]])
        up = nv_step(model, RK5, x, 1.0, np.array([1.0]), eta)
        down = nv_step(model, RK5, x, 1.0, np.array([-1.0]), eta)
        assert not np.allclose(up, down)


class TestRunPaths:
    def test_nn_consumes_2dn(self):
        model = planar_drift_model()
        plan = SchemeStepPlan(NN, 1, params=DEFAULT_PARAMS, integrator=RK5)
        assert plan.uniform_dimension(model) == 4
        run_paths(plan, model, [1.0, 0.0], 1.0, np.full((1, 4), 0.5))

    def test_em_consumes_dn(self):
        model = planar_drift_model()
        plan = SchemeStepPlan(EM, 3)
        assert plan.uniform_dimension(model) == 6

    def test_nv_consumes_n_plus_dn(self):
        model = planar_drift_model()
        plan = SchemeStepPlan(NV, 4, integrator=RK5)
        assert plan.uniform_dimension(model) == 12

    @pytest.mark.parametrize("kind, n, model, x0, flows", [
        (NV, 5, heston_model(HestonParams()), (1.0, 0.09, 0.0), 3 * 5 + 1),
        (NV, 4, three_factor_model(), (0.3, 0.2, 0.1), 4 * 4 + 1),
        (NV, 1, heston_model(HestonParams()), (1.0, 0.09, 0.0), 4),
        (NN, 5, heston_model(HestonParams()), (1.0, 0.09, 0.0), 2 * 5),
    ], ids=["nv-heston", "nv-three-factor", "nv-one-step", "nn"])
    def test_flows_per_path(self, monkeypatch, kind, n, model, x0, flows):
        # an N-V path makes (d + 1) n + 1 flows, its drift flows between steps
        # merged; a splitting path makes two per step.  A flow is a drift step
        # or a Runge-Kutta step
        calls = []
        monkeypatch.setattr(schemes, "integrate",
                            lambda *args, **kw: calls.append("rk") or integrate(*args, **kw))
        drifts = n + 1 if kind == NV and model.drift_step is not None else 0
        if model.drift_step is not None:
            step = model.drift_step
            model = dataclasses.replace(
                model, drift_step=lambda *args: calls.append("drift") or step(*args))
        plan = _plan(kind, n)
        block = np.asarray(UniformSource(MC, plan.uniform_dimension(model), seed=3).chunk(0, 8))
        run_paths(plan, model, x0, 1.0, block)
        assert len(calls) == flows
        assert calls.count("drift") == drifts

    def test_one_nv_step_is_the_one_step_map(self):
        # with n = 1 the path is one step with a half drift on each side
        model = heston_model(HestonParams(rho=-0.5))
        plan = _plan(NV, 1)
        block = np.asarray(UniformSource(MC, 3, seed=5).chunk(0, 50))
        bern = np.where(block[:, 0] >= 0.5, 1.0, -1.0)
        x = np.array(np.broadcast_to([1.0, 0.09, 0.0], (50, 3)), order="F")
        want = nv_step(model, RK5, x, 1.0, bern, sampling.inv_normal_cdf(block[:, 1:]))
        assert np.array_equal(run_paths(plan, model, (1.0, 0.09, 0.0), 1.0, block), want)

    def test_dimension_mismatch_rejected(self):
        model = planar_drift_model()
        plan = SchemeStepPlan(EM, 3)
        with pytest.raises(ValueError):
            run_paths(plan, model, [1.0, 0.0], 1.0, np.full((1, 5), 0.5))

    def test_replay_is_identical(self):
        model = linear_model()
        plan = SchemeStepPlan(NN, 4, params=DEFAULT_PARAMS, integrator=RK5)
        src = UniformSource(MC, plan.uniform_dimension(model), seed=8)
        block = np.asarray(src.chunk(0, 64))
        a = run_paths(plan, model, [1.0], 1.0, block)
        b = run_paths(plan, model, [1.0], 1.0, block)
        assert np.array_equal(a, b)

    def test_batch_matches_single_paths(self):
        model = linear_model()
        for kind, kwargs in ((NN, dict(params=DEFAULT_PARAMS, integrator=RK5)),
                             (EM, {}), (NV, dict(integrator=RK5))):
            plan = SchemeStepPlan(kind, 2, **kwargs)
            src = UniformSource(MC, plan.uniform_dimension(model), seed=17)
            block = np.asarray(src.chunk(0, 5))
            batch = run_paths(plan, model, [1.0], 1.0, block)
            singles = np.vstack([run_paths(plan, model, [1.0], 1.0, row[None, :])
                                 for row in block])
            assert np.allclose(batch, singles, atol=0, rtol=0), kind

    def test_block_layout_does_not_change_bits(self):
        model = heston_model(HestonParams())
        for kind, kwargs in ((NN, dict(params=DEFAULT_PARAMS, integrator=RK5)),
                             (EM, {}), (NV, dict(integrator=RK5))):
            plan = SchemeStepPlan(kind, 3, **kwargs)
            block = np.asarray(UniformSource(QMC, plan.uniform_dimension(model)).chunk(0, 300))
            c = run_paths(plan, model, (1.0, 0.09, 0.0), 1.0, np.ascontiguousarray(block))
            f = run_paths(plan, model, (1.0, 0.09, 0.0), 1.0, np.asfortranarray(block))
            assert np.array_equal(c, f), kind
            # the path state is column-major whatever the block layout
            assert c.flags.f_contiguous and f.flags.f_contiguous, kind

    @pytest.mark.parametrize("kind, n, pinned", [
        (EM, 8, "0.05182674617787431"),
        (NN, 2, "0.0615391137596445"),
        (NV, 4, "0.05998188828312479"),
    ])
    def test_small_qmc_estimates_pinned(self, kind, n, pinned):
        # 20000 samples span two estimator chunks; any change to the Sobol
        # values, their consumption order or the per-path arithmetic moves
        # these digits
        res = price_cell(BenchConfig(workers=1), Cell(kind, n, 20_000, QMC))
        assert repr(res.estimate) == pinned
        if kind == NV:
            assert abs(res.estimate - NV_BEFORE_MERGE) < 1e-8
            assert abs(res.estimate - NV_BEFORE_DRIFT_STEP) < 1e-12

    @pytest.mark.parametrize("kind, n, pinned", [
        (NN, 2, "0.06215028850600348"),
        (NV, 3, "0.06068663451317026"),
    ])
    def test_small_mc_estimates_pinned(self, kind, n, pinned):
        # the same with Philox uniforms: ten batches of 2000, coordinate k of
        # path i at stream word k*2^66 + i
        res = price_cell(BenchConfig(workers=1), Cell(kind, n, 20_000, MC))
        assert repr(res.estimate) == pinned
        assert abs(res.estimate - MC_BEFORE_COORDINATE_LAYOUT[kind, n]) < res.error

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SchemeStepPlan(NN, 2)  # missing params/integrator
        with pytest.raises(ValueError, match="^scheme must be one of nn, em, nv, got 'heun'$"):
            SchemeStepPlan("heun", 2)
        with pytest.raises(ValueError):
            SchemeStepPlan(EM, 0)


def _clock_model():
    """V0 moves y1 at unit speed, V1 adds a little noise to it, and V2 turns
    NaN once y1 passes 1.3: from x0 = (1, 0.09, 0) over T = 1 in 8 steps a
    splitting path passes 1.3 in step 2, never earlier.  So does an N-V path:
    step 1's last flow, the merged drift to time 2.5/8, takes it past 1.3 but
    leaves V2 out, and the first flow to run V2 there is a Gaussian flow of
    step 2."""
    def unit(column, value):
        def f(y):
            out = np.zeros_like(y)
            out[..., column] = value
            return out
        return VectorField(3, f)

    def v2(y):
        out = np.zeros_like(y)
        out[..., 1] = np.where(y[..., 0] > 1.3, np.nan, 0.0)
        return out

    fields = (unit(0, 1.0), unit(0, 0.01), VectorField(3, v2))
    return SDEModel(fields, fields[0])


class TestFailureStep:
    """run_paths adds the time step to a Runge-Kutta failure; integrate cannot know it."""

    @staticmethod
    def _first_failure(plan, model, uniforms):
        # (stage, step, path) of the first failing step, one step map at a time,
        # with run_paths' composition: one drift flow between N-V steps
        x = np.array(np.broadcast_to([1.0, 0.09, 0.0], (len(uniforms), 3)), order="F")
        n = plan.partitions
        s = 1.0 / n
        per = plan.step_dimension(model)
        for k in range(n):
            block = uniforms[:, k * per:(k + 1) * per]
            try:
                if plan.kind == NN:
                    z = sampling.inv_normal_cdf(block).reshape(len(x), 2, 2)
                    g = sampling.correlate_pair(z, plan.params.covariance)
                    x = nn_step(model, plan.params, RK5, x, s, g)
                else:
                    bern = np.where(block[:, 0] >= 0.5, 1.0, -1.0)
                    x = nv_step(model, RK5, x, s, bern, sampling.inv_normal_cdf(block[:, 1:]),
                                before=0.5 if k == 0 else 0.0,
                                after=0.5 if k == n - 1 else 1.0)
            except IntegrationFailure as exc:
                assert exc.step is None
                return exc.stage, k, exc.path
        raise AssertionError("no step failed")

    @pytest.mark.parametrize("kind", [NN, NV])
    def test_price_cell_names_the_failing_step(self, monkeypatch, kind):
        from sdeweak import heston_bench
        model = _clock_model()
        monkeypatch.setattr(heston_bench, "heston_model", lambda params, guard: model)
        plan = _plan(kind, 8)
        first = np.asarray(UniformSource(QMC, plan.uniform_dimension(model)).chunk(0, CHUNK))
        stage, step, path = self._first_failure(plan, model, first)
        assert step == 2
        for workers in (1, 3):
            with pytest.raises(IntegrationFailure) as exc:
                price_cell(BenchConfig(workers=workers), Cell(kind, 8, 2 * CHUNK + 100, QMC))
            assert (exc.value.stage, exc.value.step, exc.value.path) == (stage, step, path)
            assert str(exc.value) == (f"non-finite state in Runge-Kutta stage {stage}, "
                                      f"step {step}, path {path}; cell {kind} n=8 qmc")


def _plan(kind, n, integrator=RK5):
    kwargs = {NN: dict(params=DEFAULT_PARAMS, integrator=integrator), EM: {},
              NV: dict(integrator=integrator)}[kind]
    return SchemeStepPlan(kind, n, **kwargs)


class TestStreamedChunk:
    """A chunk is read a window of whole steps at a time, with the block's bits."""

    X0 = (1.0, 0.09, 0.0)

    @pytest.mark.parametrize("kind, n", [
        (NN, 10), (NV, 16), (EM, 200), (EM, 13),
        # both levels of the nn 2+1 and em 14+7 Romberg cells
        (NN, 1), (NN, 2), (EM, 7), (EM, 14)])
    def test_chunk_gives_the_block_bits(self, kind, n, mode=QMC, chunk_type=SobolChunk):
        # skip 1010 is not tile-aligned, so Sobol windows cross tile boundaries
        model = heston_model(HestonParams())
        plan = _plan(kind, n)
        src = UniformSource(mode, plan.uniform_dimension(model), seed=7, skip=1010)
        chunk = src.chunk(300, 700)
        assert isinstance(chunk, chunk_type)
        streamed = run_paths(plan, model, self.X0, 1.0, chunk)
        materialised = run_paths(plan, model, self.X0, 1.0, np.asarray(chunk))
        assert streamed.tobytes() == materialised.tobytes()

    @pytest.mark.parametrize("kind, n", [(NN, 10), (NV, 16), (EM, 200), (EM, 13), (NN, 1)])
    def test_mc_chunk_gives_the_block_bits(self, kind, n):
        self.test_chunk_gives_the_block_bits(kind, n, MC, PhiloxChunk)

    @pytest.mark.parametrize("kind, n, brownian_dim, width", [
        (EM, 200, 2, 16), (NN, 10, 2, 16), (NV, 16, 2, 15), (EM, 3, 2, 16),
        # a step wider than FLOAT_GROUP is a window of its own
        (NN, 3, 9, 18)])
    def test_each_coordinate_requested_once(self, monkeypatch, kind, n, brownian_dim, width):
        # the windows are disjoint, cover the path's coordinates in order, and
        # none is wider than one window of whole steps
        zero = VectorField(1, lambda y: np.zeros_like(y))
        model = SDEModel((zero,) * (brownian_dim + 1), zero)
        plan = _plan(kind, n)
        dim = plan.uniform_dimension(model)
        requests = []
        original = sampling.sobol_points

        def recording(d, start, count, first=0, stop=None):
            requests.append((first, stop))
            return original(d, start, count, first, stop)

        monkeypatch.setattr(sampling, "sobol_points", recording)
        run_paths(plan, model, [0.0], 1.0, UniformSource(QMC, dim).chunk(0, 50))
        per = plan.step_dimension(model)
        assert [c for first, stop in requests for c in range(first, stop)] == list(range(dim))
        assert all(stop - first == width for first, stop in requests[:-1])
        assert 0 < requests[-1][1] - requests[-1][0] <= width
        assert all(first % per == 0 and stop % per == 0 for first, stop in requests)
        assert width == per * max(1, FLOAT_GROUP // per)

    @pytest.mark.parametrize("cell", [
        Cell(NN, 2, 20_000, QMC, use_romberg=True), Cell(NV, 16, 20_000, QMC),
        Cell(EM, 14, 20_000, QMC, use_romberg=True), Cell(NN, 10, 20_000, MC),
        Cell(EM, 14, 20_000, MC, use_romberg=True)],
        ids=["nn-romberg", "nv", "em-romberg", "nn-mc", "em-romberg-mc"])
    def test_price_cell_streams_the_block_bits(self, monkeypatch, cell):
        # 20000 samples span two QMC chunks or ten MC chunks; the estimate and
        # its error are the same with streamed chunks and materialised
        # blocks, for 1 and 3 workers
        def run(workers):
            res = price_cell(BenchConfig(workers=workers, seed=5, sobol_skip=1010), cell)
            return res.estimate, res.error

        streamed = [run(w) for w in (1, 3)]
        chunk = UniformSource.chunk
        monkeypatch.setattr(UniformSource, "chunk",
                            lambda self, start, count: np.asarray(chunk(self, start, count)))
        assert streamed == [run(1)] * 2

    def test_mc_chunk_draws_each_word_once(self, monkeypatch):
        # one counter range per coordinate, in order, of one word per path
        model = heston_model(HestonParams())
        plan = _plan(NN, 10)
        dim = plan.uniform_dimension(model)
        draws = []
        original = sampling.philox_uniforms

        def recording(seed, start, count):
            draws.append((start >> 66, start % 2**66, count))
            return original(seed, start, count)

        monkeypatch.setattr(sampling, "philox_uniforms", recording)
        run_paths(plan, model, self.X0, 1.0, UniformSource(MC, dim, seed=3).chunk(40, 50))
        assert draws == [(k, 40, 50) for k in range(dim)]

    def test_em512_cell_memory_does_not_grow_with_n(self):
        # the whole (16384, 1024) block is 128 MiB; one window is 2 MiB
        cell = Cell(EM, 512, CHUNK, QMC)
        price_cell(BenchConfig(workers=1), Cell(EM, 8, 16, QMC))  # lazy set-up
        tracemalloc.start()
        try:
            price_cell(BenchConfig(workers=1), cell)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_em512_mc_cell_memory_does_not_grow_with_n(self):
        # ten chunks of 2048 paths: a whole (2048, 1024) block would be 16 MiB, one
        # window 256 KiB
        cell = Cell(EM, 512, 10 * 2048, MC)
        price_cell(BenchConfig(workers=1), Cell(EM, 8, 10, MC))  # lazy set-up
        tracemalloc.start()
        try:
            price_cell(BenchConfig(workers=1), cell)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestFusedCombination:
    def test_fused_agrees_with_generic(self):
        base = linear_model()
        fused = SDEModel(
            base.stratonovich, base.ito_drift,
            fused_combination=lambda y, c: c[0] * (1.0 * y) + (
                c[1][..., None] if isinstance(c[1], np.ndarray) else c[1]) * (0.5 * y),
        )
        y = np.array([[1.0], [2.0], [-0.5]])
        coeffs = [0.3, np.array([0.1, -0.2, 0.4])]
        assert np.allclose(base.combination(y, coeffs), fused.combination(y, coeffs),
                           atol=1e-15)

    def test_left_out_fields_are_never_called(self):
        # a None coefficient leaves its field out of the flow: the per-field
        # sum never calls it, and the fused Heston kernel reads no field
        def never(y):
            raise AssertionError("a left-out field was called")

        heston = heston_model(HestonParams(rho=-0.5))
        v0, v1, v2 = heston.stratonovich
        no = VectorField(3, never)
        rng = np.random.default_rng(17)
        y = np.asfortranarray(np.abs(rng.normal(size=(40, 3))) * [1.0, 0.1, 1.0])
        b1, b2 = rng.normal(size=40), rng.normal(size=40)
        for fields, coeffs in (((v0, no, no), [0.02, None, None]),
                               ((no, v1, v2), [None, b1, b2]),
                               ((v0, no, v2), [0.02, None, b2]),
                               ((no, v1, no), [None, b1, None])):
            generic = SDEModel(fields, heston.ito_drift)
            fused = SDEModel(fields, heston.ito_drift, fused_combination=heston.fused_combination)
            want = sum((c[:, None] if isinstance(c, np.ndarray) else c) * f(y)
                       for c, f in zip(coeffs, fields) if c is not None)
            assert np.array_equal(generic.combination(y, coeffs), want)
            assert np.allclose(fused.combination(y, coeffs), want, rtol=1e-13, atol=0.0)


class TestReadDim:
    @staticmethod
    def _full_read_model(read_dim=None):
        # every field reads the last coordinate
        mats = [np.array([[0.1, 0.0, 0.4], [0.0, -0.2, 0.3], [0.5, 0.1, 0.2]]),
                np.array([[0.0, 0.3, -0.5], [0.2, 0.0, 0.1], [0.0, 0.4, 0.3]])]
        fields = tuple(VectorField(3, lambda y, a=a: y @ a.T) for a in mats)
        return SDEModel(fields, fields[0], read_dim=read_dim), mats

    def test_undeclared_model_forms_every_coordinate(self):
        # for W(y) = B y a step is R(B) y, R the tableau's stability polynomial
        model, (a0, a1) = self._full_read_model()
        assert model.read_dim is None
        tab = RK5.tableau
        a = np.array(tab.a, dtype=object)
        coeffs, v = [Fraction(1)], np.ones(tab.stages, dtype=object)
        for _ in range(tab.stages):
            coeffs.append(np.dot(np.array(tab.b, dtype=object), v))
            v = a.dot(v)
        x = np.asfortranarray([[0.3, -0.2, 1.5], [1.0, 0.5, -2.0]])
        g = np.array([[[0.4, -1.1]], [[-0.7, 0.2]]])
        out = nn_step(model, DEFAULT_PARAMS, RK5, x, 0.3, g)
        for p in range(2):
            y = x[p]
            for j in (1, 0):
                b = 0.3 * float(DEFAULT_PARAMS.c[j]) * a0 + math.sqrt(0.3) * g[p, 0, j] * a1
                y = sum(float(c) * np.linalg.matrix_power(b, k) @ y
                        for k, c in enumerate(coeffs))
            assert np.allclose(out[p], y, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("read_dim", [0, 4])
    def test_declaration_within_the_state(self, read_dim):
        with pytest.raises(ValueError, match="read_dim must lie in"):
            self._full_read_model(read_dim)


class TestModelDimensions:
    def test_dimensions_come_from_the_fields(self):
        assert (three_factor_model().dim, three_factor_model().brownian_dim) == (3, 3)
        assert (pure_brownian_model().dim, pure_brownian_model().brownian_dim) == (1, 1)
        assert (heston_model(HestonParams()).dim, heston_model(HestonParams()).brownian_dim) \
            == (3, 2)

    def test_field_dimensions_must_agree(self):
        two, three = VectorField(2, np.zeros_like), VectorField(3, np.zeros_like)
        for stratonovich, drift in (((two, three), three), ((three, three), two)):
            with pytest.raises(ValueError, match="field dimensions disagree"):
                SDEModel(stratonovich, drift)


class TestRomberg:
    def test_fixed_point(self):
        assert romberg(0.7, 0.7, 2) == pytest.approx(0.7)

    def test_order_one(self):
        assert romberg(0.0, 3.0, 1) == pytest.approx(6.0)

    def test_order_two(self):
        assert romberg(0.0, 3.0, 2) == pytest.approx(4.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            romberg(1.0, 1.0, 0)
