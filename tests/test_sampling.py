import math
import threading
import tracemalloc

import numpy as np
import pytest

from sdeweak.rk_integrator import IntegrationFailure, VectorField, integrate, scheme
from sdeweak.sampling import (
    CHUNK,
    FLOAT_GROUP,
    MC,
    QMC,
    PhiloxChunk,
    SobolChunk,
    UniformSource,
    correlate_pair,
    estimate,
    inv_normal_cdf,
    _A,
    _B,
    _C,
    _D,
    _E,
    _F,
    _INV_BLOCK,
    _direction_matrix,
    _direction_rows,
    _gray_state,
    _tile_states,
    philox_raw,
    philox_uniforms,
    sobol_points,
)

RK5 = scheme("rk5-butcher")

# frozen Philox4x64-10 stream head for key=12345: the documented generator
# contract; any change here is a reproducibility break, not a refactor
_GOLDEN_RAW = [11923609910150341984, 14282716219641783572,
               14507188490975060125, 2944039161201405073]


def _row_major_sobol(dim, start, count):
    """The row-major Gray-code scan: (count, dim) states, prefix XOR down axis 0."""
    V = _direction_matrix(dim)
    if count == 0:
        return np.empty((0, dim))
    rows = np.empty((count, dim), dtype=np.uint32)
    rows[0] = _gray_state(start, V)
    idx = np.arange(start + 1, start + count, dtype=np.uint64)
    if count > 1:
        low = (idx & (~idx + np.uint64(1))).astype(np.float64)
        rows[1:] = V[np.log2(low).astype(np.int64)]
    state = np.bitwise_xor.accumulate(rows, axis=0)
    return state.astype(np.float64) * 2.0**-32


def _horner(coeffs, x):
    """Reference: sum_k coeffs[k] x^k by Horner's rule from a filled array."""
    acc = np.full_like(x, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _boolean_mask_as241(u):
    """Reference: AS241 with every tail pass selecting through a boolean mask."""
    flat = np.ascontiguousarray(u, dtype=float).ravel()
    q = flat - 0.5
    r = 0.180625 - q * q
    out = _horner(_A, r) / _horner(_B, r) * q
    tail = np.abs(q) > 0.425
    qt = q[tail]
    rt = np.sqrt(-np.log(np.where(qt < 0, flat[tail], 1.0 - flat[tail])))
    val = np.empty_like(rt)
    near = rt <= 5.0
    val[near] = _horner(_C, rt[near] - 1.6) / _horner(_D, rt[near] - 1.6)
    val[~near] = _horner(_E, rt[~near] - 5.0) / _horner(_F, rt[~near] - 5.0)
    out[tail] = np.copysign(val, qt)
    return out.reshape(np.shape(u))


def _ulp_sweep(centre, ulps=200):
    """The doubles from `ulps` steps below a positive `centre` to `ulps` above it."""
    bits = np.float64(centre).view(np.int64) + np.arange(-ulps, ulps + 1)
    return bits.view(np.float64)


class TestSobol:
    def test_first_coordinate_is_van_der_corput(self):
        assert sobol_points(1, 1, 3).ravel().tolist() == [0.5, 0.75, 0.25]

    def test_index_zero_is_origin(self):
        assert np.all(sobol_points(5, 0, 1) == 0.0)

    def test_dyadic_interval_property_on_aligned_blocks(self):
        # every aligned block of 2^k consecutive indices hits each dyadic
        # interval of width 2^-k exactly once, in every coordinate
        dim = 6
        for k in (2, 4, 6):
            n = 1 << k
            for block_start in (0, n, 4 * n):
                pts = sobol_points(dim, block_start, n)
                cells = np.floor(pts * n).astype(int)
                for j in range(dim):
                    assert sorted(cells[:, j]) == list(range(n)), (k, block_start, j)

    def test_random_access_equals_streaming(self):
        whole = sobol_points(8, 0, 200)
        parts = np.vstack([sobol_points(8, i, 1) for i in range(200)])
        assert np.array_equal(whole, parts)
        chunked = np.vstack([sobol_points(8, 0, 77), sobol_points(8, 77, 123)])
        assert np.array_equal(whole, chunked)

    def test_matches_scipy_reference(self):
        qmc = pytest.importorskip("scipy.stats.qmc")
        for d in (3, 40):
            ref = qmc.Sobol(d=d, scramble=False).random_base2(8)
            assert np.array_equal(sobol_points(d, 0, 256), ref)

    @pytest.mark.parametrize("dim", [1, 2, 40, 400])
    @pytest.mark.parametrize("start", [0, 1, 12345, 255, 256, 257, 2**32 - 1000])
    def test_matches_row_major_scan(self, dim, start):
        # tile edges: a block may begin or end on either side of a 256-index tile
        for count in (0, 1, 2, 3, 255, 256, 257, 1000, 16384):
            if start + count > 2**32:
                continue
            pts = sobol_points(dim, start, count)
            assert pts.shape == (count, dim)
            assert np.array_equal(pts, _row_major_sobol(dim, start, count))
            if count > 1:
                # dimension-major storage: one step's uniforms are one slab
                assert pts.flags.f_contiguous

    @pytest.mark.parametrize("dim", [1, 2, 40, 400])
    def test_tile_states_are_the_first_256_states(self, dim):
        V = _direction_matrix(dim)
        T = _tile_states(dim)
        assert T.shape == (dim, 256) and T.dtype == np.uint32
        for j in range(256):
            assert np.array_equal(T[:, j], _gray_state(j, V)), j

    @pytest.mark.parametrize("dim, first, stop", [
        (400, 0, 16), (400, 15, 17), (400, 16, 32), (400, 10, 40), (400, 392, 400),
        (400, 0, 400), (40, 5, 5), (40, 39, 40), (3, 0, 3)])
    @pytest.mark.parametrize("start", [0, 1, 255, 256, 257, 1010, 2**32 - 1000])
    def test_coordinate_range_is_those_columns(self, dim, first, stop, start):
        # ranges inside, across and on FLOAT_GROUP edges; starts on either side
        # of a 256-index tile; a skip near the end of the index space
        assert FLOAT_GROUP == 16
        for count in (0, 1, 255, 257, 1000):
            whole = sobol_points(dim, start, count)
            part = sobol_points(dim, start, count, first, stop)
            assert part.shape == (count, stop - first)
            assert part.tobytes("F") == whole[:, first:stop].tobytes("F")
            if count > 1 and stop > first:
                assert part.flags.f_contiguous

    def test_coordinate_range_errors(self):
        for first, stop in ((-1, 2), (3, 2), (0, 8)):
            with pytest.raises(ValueError, match="coordinate range"):
                sobol_points(7, 0, 4, first, stop)

    def test_index_space_errors(self):
        for start, count in ((2**32 - 1, 2), (2**32, 1), (0, 2**32 + 1)):
            with pytest.raises(ValueError, match="exhausted"):
                sobol_points(7, start, count)
        with pytest.raises(ValueError, match="nonnegative"):
            sobol_points(7, -1, 1)

    def test_dimension_beyond_table_rejected(self):
        with pytest.raises(ValueError):
            sobol_points(5000, 0, 4)

    def test_direction_file_parses(self):
        rows = _direction_rows()
        assert len(rows) >= 512
        s, a, ms = rows[0]  # dimension 2
        assert (s, a, ms) == (1, 0, [1])

    def test_chunk_is_the_block_on_demand(self):
        src = UniformSource(QMC, dimension=40, skip=1010)
        chunk = src.chunk(3, 500)
        block = sobol_points(40, 1013, 500)
        assert chunk == SobolChunk(40, 1013, 500) and chunk.shape == block.shape
        assert np.asarray(chunk).tobytes() == block.tobytes()
        assert chunk.columns(14, 19).tobytes() == block[:, 14:19].tobytes()

    def test_mc_chunk_window_is_those_columns_of_the_block(self):
        chunk = UniformSource(MC, dimension=40, seed=3).chunk(5, 300)
        assert chunk == PhiloxChunk(40, 3, 5, 300) and chunk.shape == (300, 40)
        block = np.asarray(chunk)
        assert block.shape == (300, 40)
        for first, stop in ((0, 16), (14, 19), (32, 40), (7, 7)):
            window = chunk.columns(first, stop)
            assert window.shape == (300, stop - first) and window.flags.f_contiguous
            assert window.tobytes("F") == block[:, first:stop].tobytes("F")

    def test_source_emits_open_interval(self):
        src = UniformSource(QMC, dimension=16)
        pts = np.asarray(src.chunk(0, 4096))
        assert pts.min() > 0.0 and pts.max() < 1.0

    def test_l2_discrepancy_beats_pseudo(self):
        # Warnock's formula for the L2 star discrepancy
        def l2_star(pts):
            n, d = pts.shape
            t1 = (1.0 / 3.0) ** d
            t2 = np.prod((1.0 - pts**2) / 2.0, axis=1).sum() * (2.0 / n)
            prods = np.prod(1.0 - np.maximum(pts[:, None, :], pts[None, :, :]), axis=2)
            t3 = prods.sum() / n**2
            return math.sqrt(t1 - t2 + t3)

        sob = l2_star(np.asarray(UniformSource(QMC, 2).chunk(0, 1024)))
        pseudo = np.median([
            l2_star(np.asarray(UniformSource(MC, 2, seed=s).chunk(0, 1024))) for s in range(10)
        ])
        assert sob < pseudo


class TestPhilox:
    def test_frozen_stream_head(self):
        assert philox_raw(12345, 0, 4).tolist() == _GOLDEN_RAW

    def test_offset_slices_one_stream(self):
        whole = philox_uniforms(7, 0, 40)
        parts = np.concatenate([philox_uniforms(7, 0, 13), philox_uniforms(7, 13, 27)])
        assert np.array_equal(whole, parts)

    def test_open_interval(self):
        u = philox_uniforms(0, 0, 1 << 16)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_coordinate_k_of_path_i_is_word_k_times_2_66_plus_i(self):
        block = np.asarray(UniformSource(MC, dimension=5, seed=3).chunk(2, 7))
        for k in range(5):
            assert np.array_equal(block[:, k], philox_uniforms(3, k * 2**66 + 2, 7))

    def test_points_do_not_depend_on_the_dimension(self):
        short = np.asarray(UniformSource(MC, dimension=5, seed=3).chunk(0, 64))
        long = np.asarray(UniformSource(MC, dimension=40, seed=3).chunk(0, 64))
        assert np.array_equal(long[:, :5], short)

    def test_points_do_not_depend_on_the_chunk(self):
        src = UniformSource(MC, dimension=5, seed=3)
        assert np.array_equal(np.asarray(src.chunk(0, 9))[2:9], np.asarray(src.chunk(2, 7)))

    def test_coordinate_range_errors(self):
        chunk = UniformSource(MC, dimension=5, seed=3).chunk(0, 4)
        for first, stop in ((-1, 2), (3, 2), (0, 6)):
            with pytest.raises(ValueError, match="coordinate range"):
                chunk.columns(first, stop)

    def test_seeds_differ(self):
        assert not np.array_equal(philox_uniforms(1, 0, 8), philox_uniforms(2, 0, 8))

    @pytest.mark.parametrize("seed, start, count", [
        (0, 0, 0), (5, 2, 3), (7, 1, (1 << 16) + 1), (2**40, 13, 16384 * 40 + 3)])
    def test_uniforms_are_the_formula_of_the_words(self, seed, start, count):
        # converting slice by slice in place gives the whole-block formula's bytes
        expected = ((philox_raw(seed, start, count) >> np.uint64(11)).astype(np.float64)
                    + 0.5) * 2.0**-53
        got = philox_uniforms(seed, start, count)
        assert (got.dtype, got.shape) == (np.float64, (count,))
        assert got.tobytes() == expected.tobytes()

    def test_block_is_held_once(self):
        # one nn n=10 MC chunk: 16384 paths x 40 words = 5 MiB of uint64 words
        tracemalloc.start()
        try:
            philox_uniforms(0, 0, 16384 * 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestInvNormal:
    def test_median_is_zero(self):
        assert inv_normal_cdf(0.5) == 0.0

    def test_upper_quantile(self):
        assert inv_normal_cdf(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_round_trip_against_erf(self):
        grid = np.concatenate([
            10.0 ** np.linspace(-300, -2, 300),
            np.linspace(0.01, 0.99, 99),
            1.0 - 10.0 ** np.linspace(-16, -2, 200),
        ])
        z = inv_normal_cdf(grid)
        cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])
        assert np.max(np.abs(cdf - grid)) <= 1e-9

    def test_antisymmetry_on_exact_complements(self):
        us = np.arange(1, 2**20, 991, dtype=np.float64) / 2.0**21
        dev = np.abs(inv_normal_cdf(1.0 - us) + inv_normal_cdf(us))
        assert np.max(dev) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            inv_normal_cdf(bad)

    def test_nan_inside_an_array_rejected(self):
        u = np.full(3 * _INV_BLOCK, 0.3)
        u[_INV_BLOCK + 5] = np.nan
        for view in (u, u.reshape(3, -1), np.asfortranarray(u.reshape(-1, 3))):
            with pytest.raises(ValueError):
                inv_normal_cdf(view)

    def test_array_shape_preserved(self):
        u = np.full((3, 4), 0.25)
        assert inv_normal_cdf(u).shape == (3, 4)

    def test_layout_independent_bits(self):
        # AS241 is elementwise: every memory layout gives the C-order bits,
        # the input's shape, and leaves the input untouched
        c = np.linspace(1e-12, 1.0 - 1e-12, 6 * 70 * 5).reshape(6, 70, 5)
        ref = inv_normal_cdf(c)
        views = {
            "c": lambda a: a,
            "fortran": np.asfortranarray,
            "column slice of fortran": lambda a: np.asfortranarray(a)[:, 10:12, :],
            "strided": lambda a: a[::2, 3::5, ::-1],
            "transposed": lambda a: a.transpose(2, 0, 1),
            "broadcast": lambda a: np.broadcast_to(a[:1], a.shape),
        }
        for name, view in views.items():
            u = view(c)
            before = u.copy()
            z = inv_normal_cdf(u)
            assert z.shape == u.shape, name
            assert np.array_equal(z, view(ref)), name
            assert np.array_equal(u, before), name
        assert inv_normal_cdf(np.asfortranarray(c)).flags.f_contiguous

    def test_matches_boolean_mask_tail(self):
        # central, near-tail and far-tail regimes, the extreme doubles, and
        # more values than one transform block
        rng = np.random.default_rng(11)
        u = np.concatenate([
            rng.uniform(0.075, 0.925, 40_000),
            rng.uniform(1e-10, 0.075, 15_000),
            1.0 - rng.uniform(1e-10, 0.075, 15_000),
            10.0 ** rng.uniform(-300, -12, 2_000),
            [5e-324, 1.0 - 2.0**-53, 1e-300, 0.425 + 0.5, 0.5 - 0.425],
        ])
        u = rng.permutation(u)[:72_000].reshape(720, 100)
        for name, view in {"c": lambda a: a, "fortran": np.asfortranarray,
                           "strided": lambda a: a[::3, 1::2]}.items():
            assert np.array_equal(inv_normal_cdf(view(u)), _boolean_mask_as241(view(u))), name
        more = {
            # a scheme step's slice of a Sobol block: every tail value near
            "sobol step slice": sobol_points(400, 1, 16384)[:, 10:12],
            "philox": philox_uniforms(4, 0, 100_000),
            "tail all far": np.concatenate([10.0 ** np.linspace(-300, -11, 500),
                                            1.0 - 2.0 ** -np.arange(37, 54)]),
            "boundary sweeps": np.concatenate([_ulp_sweep(c) for c in
                                               (0.075, 0.925, 0.5 - 0.425, 0.5 + 0.425)]),
        }
        for name, v in more.items():
            assert np.array_equal(inv_normal_cdf(v), _boolean_mask_as241(v)), name

    def test_tail_mask_is_the_central_r_sign(self):
        # the tail is read off r = 0.180625 - q*q, which the central regime
        # already holds: r < 0 exactly where |q| > 0.425
        for centre in (0.075, 0.925, 0.5 - 0.425, 0.5 + 0.425):
            q = _ulp_sweep(centre) - 0.5
            assert np.array_equal(0.180625 - q * q < 0, np.abs(q) > 0.425), centre
        q = _ulp_sweep(0.425)
        assert np.array_equal(0.180625 - q * q < 0, np.abs(q) > 0.425)
        # no double squares to 0.180625, so `r < 0` and `r <= 0` are one mask
        assert not np.any(0.180625 - q * q == 0)

    def test_zero_and_one_dimensional_inputs(self):
        us = np.array([1e-300, 0.02, 0.3, 0.5, 0.97, 1.0 - 2.0**-53])
        z = inv_normal_cdf(us)
        assert z.shape == us.shape
        for u, zi in zip(us, z):
            assert inv_normal_cdf(float(u)) == zi
            zero_d = inv_normal_cdf(np.array(u))
            assert isinstance(zero_d, float) and zero_d == zi
        assert np.array_equal(inv_normal_cdf(us[::-2]), z[::-2])
        assert inv_normal_cdf(np.empty(0)).shape == (0,)


class TestCorrelatePair:
    def test_identity_covariance(self):
        z = np.array([[0.3, -1.2], [2.0, 0.1]])
        assert np.array_equal(correlate_pair(z, ((1, 0), (0, 1))), z)

    def test_default_parameters_cholesky(self):
        # R = [[3/4, -1/4], [-1/4, 3/4]]: S1 = sqrt(3)/2 z1,
        # S2 = -z1/(2 sqrt(3)) + sqrt(2/3) z2
        z = np.array([1.0, 1.0])
        s = correlate_pair(z, ((0.75, -0.25), (-0.25, 0.75)))
        assert s[0] == pytest.approx(math.sqrt(3) / 2)
        assert s[1] == pytest.approx(-1 / (2 * math.sqrt(3)) + math.sqrt(2 / 3))

    def test_sample_covariance(self):
        cov = ((0.75, -0.25), (-0.25, 0.75))
        z = philox_uniforms(11, 0, 2_000_000).reshape(-1, 2)
        s = correlate_pair(inv_normal_cdf(z), cov)
        emp = np.cov(s.T, ddof=1)
        assert np.max(np.abs(emp - np.asarray(cov))) < 5e-3


class TestEstimate:
    def test_constant_payoff(self):
        src = UniformSource(MC, 3, seed=0)
        rep = estimate(lambda u: np.ones(len(np.asarray(u))), src, 1000)
        assert rep.estimate == 1.0
        assert rep.batch_means == (1.0,) * 10

    def test_first_coordinate_mean_qmc(self):
        src = UniformSource(QMC, 4)
        rep = estimate(lambda u: np.asarray(u)[:, 0], src, 1 << 16)
        assert abs(rep.estimate - 0.5) < 1e-4

    def test_qmc_is_one_batch(self):
        src = UniformSource(QMC, 2)
        rep = estimate(lambda u: np.asarray(u)[:, 0], src, 256)
        assert rep.batch_means == (rep.estimate,)

    def test_mc_error_scales_like_clt(self):
        src = UniformSource(MC, 1, seed=5)
        e1 = np.std(estimate(lambda u: np.asarray(u)[:, 0], src, 40_000).batch_means, ddof=1)
        e2 = np.std(estimate(lambda u: np.asarray(u)[:, 0], src, 160_000).batch_means, ddof=1)
        ratio = e1 / e2
        assert 2 / 1.5 <= ratio <= 2 * 1.5

    def test_mc_requires_divisible_samples(self):
        src = UniformSource(MC, 1)
        with pytest.raises(ValueError):
            estimate(lambda u: u[:, 0], src, 1001)

    def test_kind_is_the_mode(self):
        with pytest.raises(ValueError, match="^mode must be qmc or mc, got 'sobol'$"):
            UniformSource("sobol", 2)

    def test_worker_count_does_not_change_bits(self):
        src = UniformSource(MC, 6, seed=9)

        def payoff(u):
            return np.sin(u).sum(axis=1)

        reps = [estimate(payoff, src, 50_000, workers=w) for w in (1, 2, 4)]
        assert len({r.estimate for r in reps}) == 1
        assert len({r.batch_means for r in reps}) == 1

    def test_integration_failure_names_the_path(self):
        # the first point with both coordinates near 1 lies past the first chunk
        src = UniformSource(QMC, 2)
        near_one = lambda u: (u[:, :1] > 0.999) & (u[:, 1:] > 0.99)
        field = VectorField(2, lambda y: np.where(near_one(y), np.nan, 0.0))
        first = int(np.flatnonzero(near_one(np.asarray(src.chunk(0, 60_000)))[:, 0])[0])
        assert first >= CHUNK
        for workers in (1, 3):
            with pytest.raises(IntegrationFailure) as exc:
                estimate(lambda u: integrate(RK5, field, np.asarray(u))[:, 0], src, 60_000,
                         workers=workers)
            assert (exc.value.stage, exc.value.path) == (1, first)

    def test_one_worker_runs_on_the_calling_thread(self):
        # a pool of one thread would only add hand-off cost
        threads = set()

        def payoff(u):
            threads.add(threading.get_ident())
            return np.asarray(u)[:, 0]

        estimate(payoff, UniformSource(QMC, 2), 40_000, workers=1)
        assert threads == {threading.get_ident()}

    def test_chunks_never_straddle_an_mc_batch(self):
        sizes = []

        def payoff(u):
            sizes.append(u.shape[0])
            return np.asarray(u)[:, 0]

        estimate(payoff, UniformSource(MC, 1), 200_000, workers=1)
        assert sizes == [16384, 3616] * 10
        sizes.clear()
        estimate(payoff, UniformSource(QMC, 1), 40_000, workers=1)
        assert sizes == [16384, 16384, 7232]

    def test_sobol_index_space_bounds_the_samples(self):
        src = UniformSource(QMC, 2, skip=2**32 - 10)
        rep = estimate(lambda u: np.asarray(u)[:, 0], src, 10, workers=1)
        assert rep.estimate == float(np.add.reduce(np.asarray(src.chunk(0, 10))[:, 0])) / 10

        def payoff(u):
            raise AssertionError("a refused estimate must not call the payoff")

        with pytest.raises(ValueError, match="sobol_skip .* samples"):
            estimate(payoff, src, 11, workers=1)

    @pytest.mark.parametrize("source, samples, message", [
        (UniformSource(QMC, 2, skip=2**32 - 10), 11, r"sobol_skip \+ samples must be <= 2\^32"),
        (UniformSource(QMC, 1026), 10, "requested 1026 Sobol dimensions"),
        (UniformSource(MC, 2), 15, "MC sample count must be divisible by 10"),
        (UniformSource(MC, 2, seed=2**128), 10,
         r"seed must be < 2\^128 for an MC cell \(the Philox key\), got "
         "340282366920938463463374607431768211456"),
        (UniformSource(QMC, 2), 0, "samples must be at least 1, got 0"),
        # -10 is divisible by the 10 MC batches
        (UniformSource(MC, 2), -10, "samples must be at least 1, got -10"),
        (UniformSource(MC, 2**20 + 1), 10,
         "^an MC cell takes at most 1048576 uniforms per path, got 1048577$"),
    ], ids=["sobol-span", "sobol-width", "indivisible-mc", "seed-past-philox-key",
            "zero-samples", "negative-mc-samples", "mc-path-too-long"])
    def test_check_is_what_estimate_refuses(self, source, samples, message):
        def payoff(u):
            raise AssertionError("a refused estimate must not call the payoff")

        with pytest.raises(ValueError, match=message):
            source.check(samples)
        with pytest.raises(ValueError, match=message):
            estimate(payoff, source, samples, workers=1)

    @pytest.mark.parametrize("source, samples", [
        (UniformSource(MC, 2, seed=2**128 - 1), 10),
        (UniformSource(QMC, 2, seed=2**128), 2**32 - 1),  # QMC reads no seed
        (UniformSource(QMC, 1025), 15),
        (UniformSource(MC, 2**20), 10),
    ], ids=["largest-philox-key", "qmc-ignores-seed", "full-direction-table",
            "longest-mc-path"])
    def test_check_accepts_the_limits(self, source, samples):
        source.check(samples)

    def test_repeat_call_bit_identical(self):
        src = UniformSource(QMC, 3)
        a = estimate(lambda u: np.asarray(u).prod(axis=1), src, 30_000)
        b = estimate(lambda u: np.asarray(u).prod(axis=1), src, 30_000)
        assert a.estimate == b.estimate
