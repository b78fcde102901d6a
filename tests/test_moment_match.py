import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from sdeweak import moment_match
from sdeweak.freealg import Word, words_up_to
from sdeweak.moment_match import (
    LOWER,
    UPPER,
    SchemeParams,
    _ResidualPolynomial,
    check_family,
    gaussian_moment,
    gaussian_moment_pairings,
    infeasibility_search,
    residual_table,
    scheme_coefficient,
    solution_params,
    symbolic_expectation,
    target_coefficient,
)

DEFAULT_PARAMS = solution_params(Fraction(3, 4), LOWER)


def random_psd(rng: random.Random, M: int) -> tuple:
    """Random rational covariance built as L L^T."""
    L = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if j <= i else Fraction(0)
          for j in range(M)] for i in range(M)]
    cov = tuple(
        tuple(sum(L[i][k] * L[j][k] for k in range(M)) for j in range(M)) for i in range(M)
    )
    return cov


class TestGaussianMoment:
    def test_second_moment(self):
        assert gaussian_moment(((Fraction(9, 4),),), (2,)) == Fraction(9, 4)

    def test_fourth_moment_is_three(self):
        cov = ((Fraction(1),),)
        assert gaussian_moment(cov, (4,)) == 3
        assert gaussian_moment_pairings(cov, (4,)) == 3

    def test_two_by_two(self):
        a, b, c = Fraction(2), Fraction(3), Fraction(1, 2)
        assert gaussian_moment(((a, c), (c, b)), (2, 2)) == a * b + 2 * c**2

    def test_odd_total_degree_vanishes(self):
        cov = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        assert gaussian_moment(cov, (2, 1)) == 0

    def test_matches_pairing_oracle(self):
        # closed form vs brute-force Isserlis enumeration, exact rationals
        rng = random.Random(7)
        cases = 0
        while cases < 20:
            M = rng.randint(1, 3)
            cov = random_psd(rng, M)
            powers = tuple(rng.randint(0, 4) for _ in range(M))
            if sum(powers) > 8:
                continue
            assert gaussian_moment(cov, powers) == gaussian_moment_pairings(cov, powers)
            cases += 1

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError, match="^powers length 2 does not match covariance size 1$"):
            gaussian_moment(((Fraction(1),),), (2, 2))

    def test_pairing_counts_two_by_two(self):
        # E[Y1^2 Y2^2] = 2 R12^2 + R11 R22: d over (R11, R12, R22), in lexicographic order
        assert moment_match._pairing_counts((2, 2)) == (((0, 2, 0), 2), ((1, 0, 1), 1))


def test_splits_into_three_segments():
    # the word v0 v1 cut at 0 <= c1 <= c2 <= 2: (prod k_j!, v0 counts, v1 counts)
    assert list(moment_match._splits((0, 1), 3)) == [
        (2, (0, 0, 1), [(0, 0, 1)]),
        (1, (0, 1, 0), [(0, 0, 1)]),
        (2, (0, 1, 0), [(0, 1, 0)]),
        (1, (1, 0, 0), [(0, 0, 1)]),
        (1, (1, 0, 0), [(0, 1, 0)]),
        (2, (1, 0, 0), [(1, 0, 0)]),
    ]


class TestSolutionParams:
    def test_u_half_branches_coincide(self):
        for branch in (UPPER, LOWER):
            p = solution_params(Fraction(1, 2), branch)
            assert (p.c1, p.c2) == (0, 1)
            assert (p.r11, p.r22, p.r12) == (Fraction(1, 2), Fraction(3, 2), -Fraction(1, 2))

    def test_three_quarters_lower(self):
        p = solution_params(Fraction(3, 4), LOWER)
        assert (p.c1, p.c2) == (Fraction(1, 2), Fraction(1, 2))
        assert (p.r11, p.r22, p.r12) == (Fraction(3, 4), Fraction(3, 4), -Fraction(1, 4))
        assert p.is_exact

    def test_three_quarters_upper(self):
        p = solution_params(Fraction(3, 4), UPPER)
        assert (p.c1, p.c2) == (-Fraction(1, 2), Fraction(3, 2))
        assert (p.r11, p.r22, p.r12) == (Fraction(3, 4), Fraction(11, 4), -Fraction(5, 4))

    def test_irrational_radical_goes_float(self):
        p = solution_params(Fraction(1), LOWER)
        assert not p.is_exact
        assert p.c1 == pytest.approx(2**0.5 / 2)

    def test_below_half_rejected(self):
        with pytest.raises(ValueError):
            solution_params(Fraction(2, 5), LOWER)

    @pytest.mark.parametrize("u, message", [
        (float("nan"), "u must be a rational number, got nan"),
        (float("inf"), "u must be a rational number, got inf"),
        (0.75, "u must be a rational number, got 0.75"),
        # a huge u is named by its power of ten: str refuses ints past 4300 digits
        (Fraction(10**400), "u is too large for a float, got about 1e400"),
        (10**400, "u is too large for a float, got about 1e400"),
        (Fraction(10**5000), "u is too large for a float, got about 1e5000"),
        (-Fraction(10**5000), "u must be >= 1/2, got about -1e5000"),
        (Fraction(1, 10**5000), "u must be >= 1/2, got about 1e-5000"),
        # u fits a float, but 2(2u - 1) does not
        (Fraction(10**308), r"u is too large for the closed form in floats, got 1e\+308"),
        (None, "u must be a rational number, got None"),
        (True, "u must be a rational number, got True"),
    ], ids=["nan", "inf", "float", "huge-fraction", "huge-int", "past-str-limit",
            "negative-past-str-limit", "tiny-past-str-limit", "huge-radicand", "none", "boolean"])
    def test_non_finite_u_rejected(self, u, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            solution_params(u)

    def test_check_family_returns_a_fraction(self):
        for u in (1, Fraction(3, 4), 10**300):
            assert type(check_family(u, LOWER)) is Fraction
            assert check_family(u, LOWER) == u

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError, match="^branch must be upper or lower, got 'middle'$"):
            solution_params(Fraction(3, 4), "middle")

    def test_float_family_of_an_exact_u(self):
        # the floats nn steps with: the exact family's entries, each rounded once
        exact = solution_params(Fraction(3, 4), UPPER)
        floats = solution_params(Fraction(3, 4), UPPER, floats=True)
        assert not floats.is_exact
        assert (floats.c1, floats.c2, floats.r11, floats.r12, floats.r22) == tuple(
            float(v) for v in (exact.c1, exact.c2, exact.r11, exact.r12, exact.r22))

    def test_non_finite_float_entry_rejected(self):
        with pytest.raises(ValueError, match="c1 must be finite, got nan"):
            SchemeParams(float("nan"), 0.5, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="r22 must be finite, got inf"):
            SchemeParams(0.5, 0.5, 1.0, 0.0, float("inf"))
        # an exact entry past every float is still a valid entry
        big = Fraction(10**400)
        assert SchemeParams(big, 1 - big, 1, 0, 1).is_exact

    def test_c_sum_enforced(self):
        with pytest.raises(ValueError):
            SchemeParams(Fraction(1, 2), Fraction(1, 3),
                         Fraction(3, 4), -Fraction(1, 4), Fraction(3, 4))

    def test_psd_enforced(self):
        with pytest.raises(ValueError):
            SchemeParams(Fraction(1, 2), Fraction(1, 2),
                         Fraction(1, 4), Fraction(2), Fraction(1, 4))


class TestSchemeCoefficient:
    def test_drift_letter(self):
        assert scheme_coefficient(DEFAULT_PARAMS, Word((0,))) == 1

    def test_odd_parity_word_vanishes(self):
        assert scheme_coefficient(DEFAULT_PARAMS, Word((1, 2))) == 0

    def test_brownian_square(self):
        # R11/2 + R22/2 + R12 with the default parameters
        assert scheme_coefficient(DEFAULT_PARAMS, Word((1, 1))) == Fraction(1, 2)

    def test_empty_word(self):
        assert scheme_coefficient(DEFAULT_PARAMS, Word(())) == 1


class TestTargetCoefficient:
    def test_empty_word(self):
        assert target_coefficient(Word(())) == 1

    def test_single_pair_block(self):
        assert target_coefficient(Word((1, 1))) == Fraction(1, 2)

    def test_two_drift_blocks(self):
        assert target_coefficient(Word((0, 0))) == Fraction(1, 2)

    def test_unfactorable_word(self):
        assert target_coefficient(Word((1, 0, 1))) == 0
        assert target_coefficient(Word((1, 2))) == 0

    def test_mixed_blocks(self):
        # v0 . v1v1 : two blocks, |w| = 3
        assert target_coefficient(Word((0, 1, 1))) == Fraction(1, 4)


class TestSymbolicExpectation:
    def test_degree_zero(self):
        s = symbolic_expectation(DEFAULT_PARAMS, 0, 2)
        assert s.coefficient(Word(())) == 1
        assert len(s.support()) == 1

    def test_drift_coefficient_is_one(self):
        s = symbolic_expectation(DEFAULT_PARAMS, 2, 1)
        assert s.coefficient(Word((0,))) == 1

    def test_agrees_with_closed_form_for_default_params(self):
        s = symbolic_expectation(DEFAULT_PARAMS, 5, 2)
        for w in words_up_to(5, 2):
            assert s.coefficient(w) == scheme_coefficient(DEFAULT_PARAMS, w), str(w)

    def test_agrees_with_closed_form_for_random_params(self):
        rng = random.Random(13)
        for _ in range(10):
            c1 = Fraction(rng.randint(-2, 3), rng.randint(1, 3))
            (r11, r12), (_, r22) = random_psd(rng, 2)
            params = SchemeParams(c1, 1 - c1, r11, r12, r22)
            s = symbolic_expectation(params, 5, 2)
            for w in words_up_to(5, 2):
                assert s.coefficient(w) == scheme_coefficient(params, w), str(w)


    def test_independent_of_the_closed_form(self, monkeypatch):
        # the oracle is what the closed form is checked against, so it must
        # not reach the closed form or its pairing-count recursion
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached the closed form")

        for name in ("scheme_coefficient", "gaussian_moment", "_pairing_counts"):
            monkeypatch.setattr(moment_match, name, forbidden)
        s = symbolic_expectation(DEFAULT_PARAMS, 4, 2)
        assert s.coefficient(Word((1, 1))) == Fraction(1, 2)

    # the reprs of the float oracle's coefficients, computed before it was
    # rebuilt on TruncatedSeries; a reordered float sum changes them
    FLOAT_LOWER = {
        "1": "1.0", "v0": "1.0", "v1.v1": "0.5", "v2.v2": "0.5", "v3.v3": "0.5",
        "v0.v0": "0.5000000000000001", "v0.v1.v1": "0.25", "v0.v2.v2": "0.25",
        "v0.v3.v3": "0.25", "v1.v0.v1": "1.3877787807814457e-17", "v1.v1.v0": "0.25",
        "v2.v0.v2": "1.3877787807814457e-17", "v2.v2.v0": "0.25",
        "v3.v0.v3": "1.3877787807814457e-17", "v3.v3.v0": "0.25",
        **{f"v{i}.v{i}.v{j}.v{j}": "0.125" for i in (1, 2, 3) for j in (1, 2, 3)},
    }

    def test_float_oracle_bits_pinned(self):
        s = symbolic_expectation(solution_params(Fraction(5, 8), LOWER), 5, 3)
        got = {str(w): repr(s.coefficient(w)) for w in words_up_to(5, 3)}
        assert len(got) == 516
        assert {w: r for w, r in got.items() if r != "0.0"} == self.FLOAT_LOWER
        s = symbolic_expectation(solution_params(Fraction(5, 8), UPPER), 5, 3)
        text = "\n".join(f"{w},{s.coefficient(w)!r}" for w in words_up_to(5, 3))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0e83edd6b0d559b13a73d1b352cc868d2f2767b371766a6c00407da3134335c8")


class TestMomentResiduals:
    def test_exact_zero_at_level_five(self):
        res = {w: r for w, _, _, r in residual_table(DEFAULT_PARAMS, 5, 2)}
        assert all(r == 0 for r in res.values())

    def test_solution_family_members(self):
        for u in (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2)):
            for branch in (UPPER, LOWER):
                params = solution_params(u, branch)
                res = {w: r for w, _, _, r in residual_table(params, 5, 2)}
                worst = max(abs(r) for r in res.values())
                if params.is_exact:
                    assert worst == 0, (u, branch)
                else:
                    assert worst <= 1e-12, (u, branch)

    def test_perturbed_r12_shows_in_brownian_square(self):
        params = DEFAULT_PARAMS.perturbed(r12=Fraction(1, 10))
        res = {w: r for w, _, _, r in residual_table(params, 5, 2)}
        assert res[Word((1, 1))] == Fraction(1, 10)

    def test_perturbed_takes_the_entries_number_type(self):
        delta = Fraction(1, 10)
        assert DEFAULT_PARAMS.perturbed(r12=delta).r12 == DEFAULT_PARAMS.r12 + delta
        floats = solution_params(Fraction(1)).perturbed(r12=delta)
        assert type(floats.r12) is float and not floats.is_exact
        assert floats.r12 == solution_params(Fraction(1)).r12 + 0.1

    def test_perturbed_refuses_a_shift_past_every_float(self):
        with pytest.raises(ValueError, match="^r22 must be finite, got -inf$"):
            solution_params(Fraction(1)).perturbed(r22=-Fraction(10**400))

    @pytest.mark.parametrize("key", ["c1", "R12", "r21"])
    def test_perturbed_refuses_an_unknown_key(self, key):
        message = f"^only r11, r12, r22 can be perturbed, got '{key}'$"
        with pytest.raises(ValueError, match=message):
            DEFAULT_PARAMS.perturbed(**{key: Fraction(1, 10)})

    def test_odd_parity_word_always_zero(self):
        params = DEFAULT_PARAMS.perturbed(r12=Fraction(1, 10))
        res = {w: r for w, _, _, r in residual_table(params, 5, 2)}
        assert res[Word((1,))] == 0

    def test_residuals_nonzero_off_family(self):
        params = DEFAULT_PARAMS.perturbed(r22=Fraction(1, 5))
        res = {w: r for w, _, _, r in residual_table(params, 5, 2)}
        assert any(r != 0 for r in res.values())


    @pytest.mark.parametrize("params, m, d", [
        (DEFAULT_PARAMS, 5, 3),
        (solution_params(Fraction(5, 8), UPPER), 6, 2),
        (DEFAULT_PARAMS.perturbed(r12=Fraction(1, 100), r22=Fraction(-1, 7)), 5, 3),
        (solution_params(Fraction(5, 8)).perturbed(r11=0.01), 5, 2),
    ], ids=["exact", "float", "perturbed-exact", "perturbed-float"])
    def test_rows_equal_the_per_word_path(self, params, m, d):
        rows = residual_table(params, m, d)
        assert [w for w, *_ in rows] == words_up_to(m, d)
        zeros = set()
        for w, cw, tw, rw in rows:
            want_c = scheme_coefficient(params, w)
            want_t = target_coefficient(w) if params.is_exact else float(target_coefficient(w))
            want = (want_c, want_t, want_c - want_t)
            assert (cw, tw, rw) == want, w
            assert [str(v) for v in (cw, tw, rw)] == [str(v) for v in want], w
            assert [type(v) for v in (cw, tw, rw)] == [type(v) for v in want], w
            if moment_match._odd_brownian(w.letters):
                zeros.update(id(v) for v in (cw, tw, rw))
        assert len(zeros) == 1  # every odd-word row holds one shared zero

    def test_parity_predicate(self):
        odd = moment_match._odd_brownian
        assert not odd(()) and not odd((0,)) and not odd((1, 0, 1)) and not odd((2, 1, 1, 2))
        assert odd((1,)) and odd((0, 2)) and odd((1, 1, 2)) and odd((3, 1, 3, 0))


class TestResidualPolynomial:
    def test_matches_fraction_path_on_solution(self):
        for d in (1, 2):
            poly = _ResidualPolynomial(5, 2, d)
            x = np.array([0.5, 0.5, 0.75, -0.25, 0.75])
            assert poly.norm(x) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_fraction_path_off_solution(self, d):
        poly = _ResidualPolynomial(5, 2, d)
        params = SchemeParams(Fraction(1, 3), Fraction(2, 3),
                              Fraction(1, 2), -Fraction(1, 8), Fraction(5, 8))
        x = np.array([1 / 3, 2 / 3, 1 / 2, -1 / 8, 5 / 8])
        res = {w: r for w, _, _, r in residual_table(params, 5, d)}
        expected = [float(r) for w, r in res.items()
                    if all(sum(1 for i in w.letters if i == p) % 2 == 0
                           for p in range(1, d + 1))]
        got = poly.residuals(x)
        assert np.allclose(sorted(got), sorted(expected), atol=1e-13)

    @pytest.mark.parametrize("m, M, d", [(7, 3, 2), (7, 3, 1), (5, 2, 3), (5, 2, 2)])
    def test_same_bits_as_per_term_evaluation(self, m, M, d):
        # a power table gathered per distinct monomial and a bincount reduction give
        # the bits of raising x to every term's exponents and reducing with np.add.at
        poly = _ResidualPolynomial(m, M, d)
        exps = poly.monos[poly.mono_of]
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, size=exps.shape[1])
            terms = poly.coeffs * np.prod(x[None, :] ** exps, axis=1)
            vals = np.zeros(len(poly.words))
            np.add.at(vals, poly.word_ids, terms)
            assert poly.residuals(x).tobytes() == (vals - poly.targets).tobytes()


def theta_to_x_by_loops(theta: np.ndarray, M: int) -> np.ndarray:
    """The (c, R) map written out element by element, as the reference for its bits."""
    c = np.empty(M)
    c[: M - 1] = theta[: M - 1]
    c[M - 1] = 1.0 - np.sum(theta[: M - 1])
    L = np.zeros((M, M))
    idx = M - 1
    for i in range(M):
        for j in range(i + 1):
            L[i, j] = theta[idx]
            idx += 1
    R = L @ L.T
    x = np.empty(M + M * (M + 1) // 2)
    x[:M] = c
    k = M
    for i in range(M):
        for j in range(i, M):
            x[k] = R[i, j]
            k += 1
    return x


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_theta_to_x_same_bits_as_loops(M):
    rng = np.random.default_rng(M)
    lower = np.tri(M, dtype=bool)
    for _ in range(50):
        theta = rng.uniform(-1.5, 1.5, size=(M - 1) + M * (M + 1) // 2)
        assert moment_match._theta_to_x(theta, lower).tobytes() == \
            theta_to_x_by_loops(theta, M).tobytes()


class TestInfeasibilitySearches:
    def test_two_factor_level_five_is_feasible(self):
        # sanity check of the search itself: the known-solvable case reaches ~0
        val, _ = infeasibility_search(5, 2, starts=8, iters=500, seed=1)
        assert val < 1e-5

    def test_single_letter_level_seven_is_feasible(self):
        # with d=1 the m=7 / M=3 system is solvable; only mixed words rule it out
        val, x = infeasibility_search(7, 3, d=1, starts=40, iters=1200, seed=42)
        assert val < 1e-6
        # and the search's best norm and point are pinned bit for bit
        assert repr(val) == "9.570678960844932e-11"
        assert hashlib.sha256(x.tobytes()).hexdigest()[:16] == "9fff57573e2a78a1"

    def test_benchmark_search_bits(self):
        # the certify benchmark's search: its best norm and point are pinned bit for bit
        val, x = infeasibility_search(7, 3, d=2, starts=2, iters=600, seed=0)
        assert repr(val) == "0.04028384468247156"
        assert hashlib.sha256(x.tobytes()).hexdigest()[:16] == "287097662dcef91c"

    def test_acceptance_search_bits(self):
        # the acceptance test's 24-start search, pinned bit for bit
        val, x = infeasibility_search(7, 3, starts=24, iters=600, seed=0)
        assert repr(val) == "0.007625618564256333"
        assert hashlib.sha256(x.tobytes()).hexdigest()[:16] == "4dbec944cb4c42bb"

    @pytest.mark.parametrize("kwargs, name", [({"starts": 0}, "starts"), ({"iters": -1}, "iters")])
    def test_empty_search_is_refused(self, kwargs, name):
        # no start tried is no evidence: an inf best norm must not read as infeasible
        with pytest.raises(ValueError, match=name):
            infeasibility_search(7, 3, **kwargs)

    @pytest.mark.parametrize("args, message", [
        ((-1, 2), "m must be nonnegative, got -1"),
        ((7, 0), "M must be at least 1, got 0"),
        ((7, 3, -1), "d must be nonnegative, got -1"),
    ], ids=["negative-m", "no-factors", "negative-d"])
    def test_bad_system_size_is_refused(self, args, message):
        with pytest.raises(ValueError, match=message):
            infeasibility_search(*args)

    @pytest.mark.parametrize("m, d", [(0, 2), (5, 0)], ids=["m0", "d0"])
    def test_trivial_systems_are_solved(self, m, d):
        # only the empty word (target 1) and drift words are left: exactly matchable
        assert infeasibility_search(m, 2, d=d, starts=2, iters=50)[0] == 0.0

    @pytest.mark.slow
    def test_three_factor_level_seven_floor(self):
        val, _ = infeasibility_search(7, 3, starts=12, iters=500, seed=0)
        assert val > 1e-3
