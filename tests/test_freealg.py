from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdeweak import freealg as fa
from sdeweak.freealg import EMPTY_WORD, TruncatedSeries, Word, exp, words_up_to


def series(terms, m):
    return TruncatedSeries({Word(w): c for w, c in terms.items()}, m)


def terms(p):
    """What makes two series equal: the truncation and the terms in canonical order."""
    return p.degree, list(p.items())


class TestWord:
    def test_scaled_degree_empty(self):
        assert EMPTY_WORD.scaled_degree == 0

    def test_scaled_degree_no_zeros(self):
        assert Word((1, 2)).scaled_degree == 2

    def test_scaled_degree_counts_zeros_twice(self):
        # 3 letters + 2 zero letters
        assert Word((0, 1, 0)).scaled_degree == 5

    def test_equality_is_letterwise(self):
        assert Word((1, 2)) == Word((1, 2))
        assert Word((1, 2)) != Word((2, 1))

    def test_concatenation(self):
        assert Word((1,)) * Word((2, 0)) == Word((1, 2, 0))

    def test_canonical_order(self):
        ws = words_up_to(2, 2)
        assert ws[0] == EMPTY_WORD
        assert ws[1:3] == [Word((1,)), Word((2,))]
        # degree 2: v0 (length 1) sorts before the length-2 words
        assert ws[3] == Word((0,))


def _frontier_words(max_degree, d):
    """The canonical word list by the plain method: extend every word by every
    letter while the scaled degree allows, then sort."""
    out = frontier = [EMPTY_WORD]
    while frontier:
        frontier = [ext for w in frontier for i in range(d + 1)
                    if (ext := Word(w.letters + (i,))).scaled_degree <= max_degree]
        out = out + frontier
    return sorted(out, key=lambda w: w.sort_key)


class TestWordsUpTo:
    @pytest.mark.parametrize("m, d", [(0, 2), (3, 1), (5, 2), (5, 6), (7, 2), (7, 3)])
    def test_same_words_in_the_same_order(self, m, d):
        got = words_up_to(m, d)
        assert type(got) is list
        assert [w.letters for w in got] == [w.letters for w in _frontier_words(m, d)]

    @pytest.mark.parametrize("d", [1, 2, 6])
    def test_count_recurrence(self, d):
        # a word of scaled degree k ends in a Brownian letter after a word of
        # degree k - 1, or in v0 after a word of degree k - 2
        a = [1, d]
        for _ in range(2, 8):
            a.append(d * a[-1] + a[-2])
        degrees = [w.scaled_degree for w in words_up_to(7, d)]
        assert [degrees.count(k) for k in range(8)] == a

    @pytest.mark.parametrize("d", [1, 2, 6])
    def test_words_per_degree_counts_the_built_words(self, d):
        degrees = [w.scaled_degree for w in words_up_to(7, d)]
        counts = [c for _, c in zip(range(8), fa.words_per_degree(d))]
        assert counts == [degrees.count(k) for k in range(8)]

    def test_certify_size(self):
        assert len(words_up_to(5, 6)) == 10335

    def test_fast_words_are_plain_words(self):
        for w in words_up_to(4, 2):
            plain = Word(list(w.letters))
            assert w == plain and hash(w) == hash(plain) and str(w) == str(plain)
            assert type(w.letters) is tuple
            with pytest.raises(AttributeError):
                w.letters = (1,)
            assert {w: 1}[plain] == 1


class TestMul:
    def test_distributes(self):
        one = series({(): 1}, 2)
        p = one + series({(1,): 1}, 2)
        q = one + series({(2,): 1}, 2)
        expected = series({(): 1, (1,): 1, (2,): 1, (1, 2): 1}, 2)
        assert terms(p * q) == terms(expected)

    def test_letter_square(self):
        v1 = series({(1,): 1}, 2)
        assert terms(v1 * v1) == terms(series({(1, 1): 1}, 2))

    def test_truncation_drops_heavy_words(self):
        # v0.v0 has scaled degree 4 > 3
        v0 = series({(0,): 1}, 3)
        assert (v0 * v0).is_zero()

    def test_mismatched_truncation_rejected(self):
        with pytest.raises(fa.TruncationError):
            series({(): 1}, 2) * series({(): 1}, 3)


class TestExpLog:
    def test_exp_zero(self):
        assert terms(exp(series({}, 3))) == terms(series({(): 1}, 3))

    def test_exp_single_letter(self):
        got = exp(series({(1,): 1}, 3))
        expected = series(
            {(): 1, (1,): 1, (1, 1): Fraction(1, 2), (1, 1, 1): Fraction(1, 6)}, 3
        )
        assert terms(got) == terms(expected)

    def test_exp_rejects_constant_term(self):
        with pytest.raises(ValueError):
            exp(series({(): 1}, 3))

    def test_exp_float_coefficients(self):
        # the coefficient ring is whatever the series holds: 1/k! times a float
        got = exp(series({(1,): 0.5}, 3))
        assert [got.coefficient(Word((1,) * k)) for k in range(4)] == [1, 0.5, 0.125, 0.125 / 6]
        assert isinstance(got.coefficient(Word((1, 1, 1))), float)


def small_series(m=4, d=2, zero_constant=True):
    """Hypothesis strategy: a series with small rational coefficients."""
    words = [w for w in words_up_to(m, d) if w.letters or not zero_constant]
    rationals = st.builds(
        Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
    )
    return st.lists(
        st.tuples(st.sampled_from(words), rationals), min_size=0, max_size=5
    ).map(lambda items: TruncatedSeries(
        {w: sum(c for ww, c in items if ww == w) for w, _ in items}, m
    ))


@settings(max_examples=50, deadline=None)
@given(small_series())
def test_exp_of_negation_is_inverse(p):
    # p and -p commute, so exp(p) exp(-p) = 1 although the letters do not
    assert terms(exp(p) * exp(p.scale(-1))) == terms(series({(): 1}, p.degree))


@settings(max_examples=30, deadline=None)
@given(small_series(zero_constant=False), small_series(zero_constant=False),
       small_series(zero_constant=False))
def test_mul_associative_and_distributive(p, q, r):
    assert terms((p * q) * r) == terms(p * (q * r))
    assert terms(p * (q + r)) == terms(p * q + p * r)


class TestRendering:
    def test_terms_in_canonical_order(self):
        p = series({(1, 1): Fraction(1, 2), (): 1, (0,): 1}, 2)
        assert [(str(w), a) for w, a in p.items()] == [
            ("1", 1), ("v0", 1), ("v1.v1", Fraction(1, 2))]

    def test_coefficient_off_the_support_is_the_ring_zero(self):
        p = TruncatedSeries({Word((1,)): 0.5, Word((2,)): 0.0}, 2, zero=0.0)
        assert p.support() == [Word((1,))]
        assert repr(p.coefficient(Word((2,)))) == "0.0"
        assert repr((p * p).coefficient(Word((2, 1)))) == "0.0"
