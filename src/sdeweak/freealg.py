"""Truncated non-commutative power series over the alphabet {v0, v1, ..., vd}.

Words carry the scaled degree ``|w| + (number of v0 letters)``, which weights
the time letter v0 twice; series are truncated by that degree.  Coefficients
come from whatever commutative ring the caller supplies: Fraction on every
verification path, so that identities are equality tests, float where
irrational square roots appear, or a polynomial type such as the one the
moment-matching oracle expands in.  Values are immutable after construction
and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping


class TruncationError(ValueError):
    """Mixing series with different truncation degrees."""


class Word:
    """An immutable word over letter indices {0, ..., d}; () is the empty word."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters: Iterable[int] = ()):
        letters = tuple(int(i) for i in letters)
        if any(i < 0 for i in letters):
            raise ValueError(f"letter indices must be nonnegative: {letters}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_hash", hash(letters))

    def __setattr__(self, *_):
        raise AttributeError("Word is immutable")

    @property
    def scaled_degree(self) -> int:
        """``|w|`` plus the count of v0 letters."""
        return len(self.letters) + sum(1 for i in self.letters if i == 0)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    @property
    def sort_key(self) -> tuple:
        return (self.scaled_degree, len(self.letters), self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return ".".join(f"v{i}" for i in self.letters)


EMPTY_WORD = Word()


def _word(letters: tuple[int, ...]) -> Word:
    """A Word from a tuple of nonnegative ints, taken as it is: no copy, no check."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    object.__setattr__(w, "_hash", hash(letters))
    return w


def words_up_to(max_degree: int, d: int) -> list[Word]:
    """All words over {v0, ..., vd} with scaled degree <= max_degree, canonically ordered.

    ``by_shape[n, z]`` lists the letter tuples of length n with z zeros in
    lexicographic order: 0 before each tuple of ``by_shape[n-1, z-1]``, then
    each letter 1..d before each tuple of ``by_shape[n-1, z]``.  Only shapes
    with scaled degree n + z <= max_degree are built, and the canonical order
    (scaled degree, length, letters) reads them off shape by shape.
    """
    by_shape = {(0, 0): [()]}
    for n in range(1, max_degree + 1):
        for z in range(min(n, max_degree - n) + 1):
            with_zero = by_shape.get((n - 1, z - 1), ())
            without = by_shape.get((n - 1, z), ())
            by_shape[n, z] = [(0,) + t for t in with_zero] + \
                [(i,) + t for i in range(1, d + 1) for t in without]
    return [_word(t) for k in range(max_degree + 1)
            for n in range((k + 1) // 2, k + 1) for t in by_shape[n, k - n]]


def words_per_degree(d: int) -> Iterator[int]:
    """How many words of scaled degree 0, 1, 2, ... there are over {v0, ..., vd}.

    The shape recurrence of :func:`words_up_to` summed over lengths: a word of
    degree k is a letter 1..d before a word of degree k - 1, or v0 before one
    of degree k - 2.  Counts come without end and no word is built.
    """
    before, count = 0, 1
    while True:
        yield count
        before, count = count, d * count + before


class TruncatedSeries:
    """A finitely supported map Word -> coefficient, truncated at a fixed scaled degree.

    Addition and multiplication close over the truncation: any product word of
    scaled degree beyond ``degree`` is discarded.  Coefficients need +, *,
    truth testing (false exactly for zero) and mixing with the integers 0 and
    1 and with Fraction scalars (:func:`exp` divides by k!); ``zero`` is what
    :meth:`coefficient` returns off the support.  Terms are kept, and
    combined, in the order they were formed.
    """

    __slots__ = ("_coeffs", "degree", "_zero")

    def __init__(self, coeffs: Mapping[Word, object], degree: int, zero=0):
        if degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        store = {}
        for w, a in coeffs.items():
            if w.scaled_degree > degree:
                raise TruncationError(
                    f"word {w} has scaled degree {w.scaled_degree} > truncation {degree}"
                )
            if a:
                store[w] = a
        object.__setattr__(self, "_coeffs", store)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_zero", zero)

    def __setattr__(self, *_):
        raise AttributeError("TruncatedSeries is immutable")

    def _like(self, coeffs: Mapping[Word, object]) -> "TruncatedSeries":
        return TruncatedSeries(coeffs, self.degree, self._zero)

    # -- access ---------------------------------------------------------

    def coefficient(self, w: Word):
        return self._coeffs.get(w, self._zero)

    def items(self) -> Iterator[tuple[Word, object]]:
        """Terms in canonical word order (scaled degree, length, letters)."""
        for w in self.support():
            yield w, self._coeffs[w]

    def support(self) -> list[Word]:
        return sorted(self._coeffs, key=lambda w: w.sort_key)

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- arithmetic -----------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.degree != other.degree:
            raise TruncationError(
                f"truncation degrees differ: {self.degree} vs {other.degree}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        out = dict(self._coeffs)
        for w, a in other._coeffs.items():
            out[w] = out.get(w, 0) + a
        return self._like(out)

    def scale(self, c) -> "TruncatedSeries":
        return self._like({w: a * c for w, a in self._coeffs.items()})

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._check_compatible(other)
        out = {}
        m = self.degree
        right = [(v, v.scaled_degree, b) for v, b in other._coeffs.items()]
        for u, a in self._coeffs.items():
            du = u.scaled_degree
            for v, dv, b in right:
                if du + dv <= m:
                    w = u * v
                    out[w] = out.get(w, 0) + a * b
        return self._like(out)


def exp(p: TruncatedSeries) -> TruncatedSeries:
    """exp(p) = 1 + sum p^k / k!, finite because p has no constant term."""
    if p.coefficient(EMPTY_WORD):
        raise ValueError("exp requires a series with zero constant term")
    result = power = p._like({EMPTY_WORD: 1})
    k = 0
    while True:
        k += 1
        power = power * p
        if power.is_zero():
            return result
        result = result + power.scale(Fraction(1, math.factorial(k)))
