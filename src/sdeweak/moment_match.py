"""Moment matching for the Gaussian splitting construction.

The scheme draws Lie-series random variables Z_j = c_j v0 + sum_i S^i_j v_i
with E[S^i_j S^i'_j'] = R_jj' delta_ii', chosen so that the expected product
of exponentials matches exp(v0 + (1/2) sum_i v_i^2) coefficient by
coefficient on every word of scaled degree <= m.  This module computes both
sides exactly, exposes the closed-form m=5 / M=2 solution family, and runs
best-effort residual-minimization searches for the infeasible cases.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .freealg import TruncatedSeries, Word, exp, words_up_to

Matrix = tuple[tuple, ...]


# ---------------------------------------------------------------------------
# Gaussian moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianSpec:
    """A centered Gaussian vector (Y_1, ..., Y_M) given by its covariance matrix."""

    covariance: Matrix

    def __post_init__(self):
        cov = tuple(tuple(row) for row in self.covariance)
        object.__setattr__(self, "covariance", cov)
        n = len(cov)
        if any(len(row) != n for row in cov):
            raise ValueError("covariance must be square")
        for i in range(n):
            for j in range(n):
                if cov[i][j] != cov[j][i]:
                    raise ValueError("covariance must be symmetric")

    @property
    def M(self) -> int:
        return len(self.covariance)


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _pairs(M: int) -> list[tuple[int, int]]:
    """The index pairs i <= j of an M x M symmetric matrix, in row order."""
    return [(i, j) for i in range(M) for j in range(i, M)]


@lru_cache(maxsize=None)
def _pairing_counts(powers: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Every pairing-count matrix for ``powers``, as (d, prod d_ij!, sum d_ii).

    d lists the symmetric nonnegative integer matrix (d_ij) over
    :func:`_pairs` and satisfies the row condition
    sum_{j<i} d_ji + 2 d_ii + sum_{j>i} d_ij = m_i.  Matrices come depth
    first, each d_ij ascending; odd total degree admits none.
    """
    pairs = _pairs(len(powers))
    out = []

    def assign(k: int, remaining: list[int], dvec: list[int]) -> None:
        if k == len(pairs):
            if not any(remaining):
                diag = sum(dv for (i, j), dv in zip(pairs, dvec) if i == j)
                out.append((tuple(dvec), math.prod(math.factorial(dv) for dv in dvec), diag))
            return
        i, j = pairs[k]
        top = remaining[i] // 2 if i == j else min(remaining[i], remaining[j])
        for dval in range(top + 1):
            remaining[i] -= 2 * dval if i == j else dval
            if i != j:
                remaining[j] -= dval
            assign(k + 1, remaining, dvec + [dval])
            remaining[i] += 2 * dval if i == j else dval
            if i != j:
                remaining[j] += dval

    assign(0, list(powers), [])
    return tuple(out)


def gaussian_moment(spec: GaussianSpec, powers: Sequence[int]) -> Fraction | float:
    """E[Y_1^m_1 ... Y_M^m_M] by the closed-form sum over pairing-count matrices.

    The sum runs over the matrices of :func:`_pairing_counts`; each
    contributes 2^(-sum d_ii) * prod(m_i!) / prod(d_ij!) * prod R_ij^d_ij.
    Odd total degree gives 0 by symmetry.
    """
    cov = spec.covariance
    m = tuple(int(p) for p in powers)
    M = len(m)
    if M != spec.M:
        raise ValueError(f"powers length {M} does not match covariance size {spec.M}")
    if any(p < 0 for p in m):
        raise ValueError("powers must be nonnegative")
    pairs = _pairs(M)
    numer = math.prod(math.factorial(p) for p in m)
    exact = _is_exact(itertools.chain.from_iterable(cov))
    total = Fraction(0) if exact else 0.0
    for dvec, dfact, diag in _pairing_counts(m):
        coeff = Fraction(numer, dfact * 2**diag) if exact else numer / (dfact * 2.0**diag)
        rprod = Fraction(1) if exact else 1.0
        for (i, j), d in zip(pairs, dvec):
            val = 1
            for _ in range(d):
                val = val * cov[i][j]
            rprod = rprod * val
        total += coeff * rprod
    return total


def gaussian_moment_pairings(spec: GaussianSpec, powers: Sequence[int]) -> Fraction | float:
    """Brute-force Isserlis oracle: sum over perfect matchings of the product terms.

    Enumerates every pairing of the multiset {Y_i repeated m_i times} and sums
    the products of pairwise covariances.  Exponential cost; it shares no code
    with :func:`gaussian_moment`, so it is the independent reference the
    closed form is tested against, and the substitution rule of
    :func:`symbolic_expectation`.
    """
    cov = spec.covariance
    labels: list[int] = []
    for i, p in enumerate(powers):
        labels.extend([i] * int(p))
    exact = _is_exact(itertools.chain.from_iterable(cov))
    if len(labels) % 2 == 1:
        return Fraction(0) if exact else 0.0

    def match(items: tuple[int, ...]):
        if not items:
            return Fraction(1) if exact else 1.0
        first, rest = items[0], items[1:]
        acc = Fraction(0) if exact else 0.0
        for k in range(len(rest)):
            factor = cov[first][rest[k]]
            if factor != 0:
                acc += factor * match(rest[:k] + rest[k + 1:])
        return acc

    return match(tuple(labels))


def _is_exact(values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


# ---------------------------------------------------------------------------
# Scheme parameters
# ---------------------------------------------------------------------------

UPPER = "upper"
LOWER = "lower"

# the scalar modes of a parameter set: Fraction arithmetic or floats
EXACT = "exact"
FLOAT = "float"


@dataclass(frozen=True)
class SchemeParams:
    """The (c, R) pair defining the scheme's Gaussian family.

    c1 + c2 must equal 1 and R must be a valid covariance.  Instances built by
    :func:`solution_params` additionally satisfy the m=5 / M=2 matching
    identities; hand-built or perturbed instances need not.
    """

    c1: Fraction | float
    c2: Fraction | float
    r11: Fraction | float
    r12: Fraction | float
    r22: Fraction | float

    def __post_init__(self):
        tol = 0 if self.is_exact else 1e-12
        if abs(self.c1 + self.c2 - 1) > tol:
            raise ValueError("c1 + c2 must equal 1")
        if self.r11 < 0 or self.r22 < 0 or self.r11 * self.r22 - self.r12**2 < -tol:
            raise ValueError("R must be positive semidefinite")

    @cached_property
    def is_exact(self) -> bool:
        return _is_exact((self.c1, self.c2, self.r11, self.r12, self.r22))

    @property
    def mode(self) -> str:
        return EXACT if self.is_exact else FLOAT

    @property
    def c(self) -> tuple:
        return (self.c1, self.c2)

    @property
    def covariance(self) -> Matrix:
        return ((self.r11, self.r12), (self.r12, self.r22))

    @cached_property
    def gaussian_spec(self) -> GaussianSpec:
        return GaussianSpec(self.covariance)

    def perturbed(self, **deltas) -> "SchemeParams":
        """A copy with R entries shifted; keys r11, r12, r22 (case-insensitive)."""
        fields = {"r11": self.r11, "r12": self.r12, "r22": self.r22}
        for key, delta in deltas.items():
            k = key.lower()
            if k not in fields:
                raise ValueError(f"only R entries can be perturbed, got {key!r}")
            fields[k] = fields[k] + delta
        return SchemeParams(self.c1, self.c2, **fields)


def solution_params(u, branch: str = LOWER) -> SchemeParams:
    """The closed-form m=5 / M=2 solution family, parameterized by u >= 1/2.

    The two sign branches coincide at u = 1/2.  Exact rationals are used when
    sqrt(2(2u-1)) is rational, floats otherwise.
    """
    if branch not in (UPPER, LOWER):
        raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")
    if isinstance(u, (int, Fraction)):
        u = Fraction(u)
    else:
        u = float(u)
    if u < Fraction(1, 2):
        raise ValueError(f"u must be >= 1/2, got {u}")
    disc = 2 * (2 * u - 1)
    root: Fraction | float
    if isinstance(u, Fraction):
        num, den = disc.numerator, disc.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            root = Fraction(rn, rd)
        else:
            u = float(u)
            root = math.sqrt(float(disc))
    else:
        root = math.sqrt(disc)
    half = root / 2
    if branch == UPPER:
        c1, c2 = -half, 1 + half
        r22 = 1 + u + root
        r12 = -u - half
    else:
        c1, c2 = half, 1 - half
        r22 = 1 + u - root
        r12 = -u + half
    try:
        return SchemeParams(c1, c2, u, r12, r22)
    except ValueError:
        # the family's identities hold exactly; only float rounding at a large u breaks them
        raise ValueError(f"u is too large for the closed form in floats, got {u!r}") from None


DEFAULT_PARAMS = solution_params(Fraction(3, 4), LOWER)


# ---------------------------------------------------------------------------
# Coefficients of E[exp(Z_1) ... exp(Z_M)]
# ---------------------------------------------------------------------------


def _odd_brownian(letters: tuple[int, ...]) -> bool:
    """Whether some Brownian letter occurs an odd number of times: then C(w) = 0."""
    return any(letters.count(p) % 2 for p in set(letters) if p)


def _splits(letters: tuple[int, ...], M: int):
    """Every split of a word into M consecutive segments k_1 + ... + k_M = |w|.

    Yields (prod k_j!, the v0 count per segment, and for each Brownian letter
    in ascending order its count per segment).
    """
    brownian = sorted(set(letters) - {0})
    for k in _compositions(len(letters), M):
        segments = []
        pos = 0
        for kj in k:
            segments.append(letters[pos:pos + kj])
            pos += kj
        yield (math.prod(math.factorial(kj) for kj in k),
               tuple(seg.count(0) for seg in segments),
               [tuple(seg.count(p) for seg in segments) for p in brownian])


def product_coefficient(c: Sequence, spec: GaussianSpec, w: Word):
    """Coefficient of the word w in E[exp(Z_1) ... exp(Z_M)] for general M.

    Sums over all splits of w into M consecutive segments; segment j's letters
    are drawn from Z_j, so the v0 letters contribute c_j powers and the
    Brownian letters contribute a joint Gaussian moment per letter index.
    Words in which some Brownian letter occurs an odd number of times have
    coefficient zero.
    """
    letters = w.letters
    M = len(c)
    if M != spec.M:
        raise ValueError("c and covariance sizes differ")
    exact = _is_exact(c) and _is_exact(itertools.chain.from_iterable(spec.covariance))
    zero = Fraction(0) if exact else 0.0
    if _odd_brownian(letters):
        return zero

    total = zero
    for kfact, n0, per_letter in _splits(letters, M):
        term = Fraction(1, kfact) if exact else 1.0 / kfact
        for cj, nj in zip(c, n0):
            if nj:
                term *= cj ** nj
        if term == 0:
            continue
        for powers in per_letter:
            mom = gaussian_moment(spec, powers)
            if mom == 0:
                term = zero
                break
            term *= mom
        total += term
    return total


def scheme_coefficient(params: SchemeParams, w: Word):
    """C(w) = <E[exp(Z_1) exp(Z_2)], w> for the two-factor scheme."""
    return product_coefficient(params.c, params.gaussian_spec, w)


def target_coefficient(w: Word) -> Fraction:
    """Coefficient of w in exp(v0 + (1/2) sum v_i^2).

    Nonzero exactly when w factors into blocks from {v0, v1v1, ..., vdvd};
    the factorization is unique when it exists (a block starting at v0 must be
    the singleton block, a block starting at v_i must be v_i v_i), and the
    value is 1 / (2^(|w|-l) l!) with l the number of blocks.
    """
    letters = w.letters
    blocks = 0
    idx = 0
    n = len(letters)
    while idx < n:
        if letters[idx] == 0:
            idx += 1
        elif idx + 1 < n and letters[idx + 1] == letters[idx]:
            idx += 2
        else:
            return Fraction(0)
        blocks += 1
    return Fraction(1, 2 ** (n - blocks) * math.factorial(blocks))


# ---------------------------------------------------------------------------
# Symbolic expectation (the brute-force oracle)
# ---------------------------------------------------------------------------

class _Poly:
    """A polynomial in the Gaussian symbols S^i_j, the oracle's coefficient ring.

    A monomial is the sorted tuple of its (i, j) factors, with multiplicity.
    Sums and products keep terms in the order they are formed, so float
    coefficients are always combined in the same order.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __bool__(self) -> bool:
        return any(self.terms.values())

    def __add__(self, other: "_Poly") -> "_Poly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return _Poly(out)

    def __radd__(self, zero) -> "_Poly":
        return self  # 0 + p: the start of a series coefficient's sum

    def __mul__(self, other) -> "_Poly":
        if not isinstance(other, _Poly):  # a scalar, commuting with every coefficient
            return _Poly({mono: c * other for mono, c in self.terms.items()})
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                key = tuple(sorted(ma + mb))
                out[key] = out.get(key, 0) + ca * cb
        return _Poly(out)

    __rmul__ = __mul__


def symbolic_expectation(params: SchemeParams, m: int, d: int) -> TruncatedSeries:
    """E[j_m(exp(Z_1) exp(Z_2))] by full symbolic expansion.

    Expands exp(Z_1) exp(Z_2) as a series over :class:`_Poly`, with the
    S^i_j kept as symbols, then replaces every symbol monomial by its
    Gaussian moment computed by brute-force pairing enumeration.
    Exponentially slower than :func:`scheme_coefficient`, and deliberately
    independent of it and of :func:`gaussian_moment`: this is the oracle the
    closed form is tested against.
    """
    exact = params.is_exact
    one = Fraction(1) if exact else 1.0

    def z(j: int) -> TruncatedSeries:
        terms = {Word((0,)): _Poly({(): params.c[j] * one})}
        for i in range(1, d + 1):
            terms[Word((i,))] = _Poly({((i, j + 1),): one})
        return TruncatedSeries({w: a for w, a in terms.items() if w.scaled_degree <= m}, m)

    product = exp(z(0)) * exp(z(1))
    spec = params.gaussian_spec

    coeffs: dict[Word, Fraction | float] = {}
    for w, poly in product.items():
        if not isinstance(poly, _Poly):  # the empty word, exp's unit squared
            poly = _Poly({(): poly})
        acc = Fraction(0) if exact else 0.0
        for mono, coeff in poly.terms.items():
            if coeff == 0:
                continue
            factor = one
            for i in sorted({i for i, _ in mono}):
                powers = tuple(sum(1 for a, b in mono if (a, b) == (i, j)) for j in (1, 2))
                mom = gaussian_moment_pairings(spec, powers)
                if mom == 0:
                    factor = 0
                    break
                factor *= mom
            if factor != 0:
                acc += coeff * factor
        coeffs[w] = acc
    return TruncatedSeries(coeffs, m, Fraction(0) if exact else 0.0)


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------


def residual_table(params: SchemeParams, m: int, d: int) -> list[tuple[Word, object, object, object]]:
    """Rows (word, C(w), target, residual) for every word of scaled degree <= m.

    A word with a Brownian letter an odd number of times has C(w) = target = 0;
    all such rows share one zero of the parameters' mode.
    """
    exact = params.is_exact
    zero = Fraction(0) if exact else 0.0
    rows = []
    for w in words_up_to(m, d):
        if _odd_brownian(w.letters):
            rows.append((w, zero, zero, zero))
            continue
        cw = scheme_coefficient(params, w)
        tw = target_coefficient(w)
        if not exact:
            tw = float(tw)
        rows.append((w, cw, tw, cw - tw))
    return rows


# ---------------------------------------------------------------------------
# Best-effort infeasibility searches
# ---------------------------------------------------------------------------


class _ResidualPolynomial:
    """The residual vector as a polynomial in (c_1..c_M, R_11, R_12, ..., R_MM).

    Precomputes, for every word of scaled degree <= m over {v0, ..., vd} in
    which each Brownian letter occurs an even number of times, the monomial
    expansion of C(w); evaluation is then a small numpy computation, fast
    enough for multi-start searches.  d >= 2 matters: with a single Brownian
    letter the m=7 / M=3 system turns out to be solvable, and only the mixed
    words (the covariance R being shared across letter indices) make it
    overdetermined.
    """

    def __init__(self, m: int, M: int, d: int = 2):
        pairs = _pairs(M)
        pair_index = {p: M + k for k, p in enumerate(pairs)}

        words = [w for w in words_up_to(m, d) if not _odd_brownian(w.letters)]
        self.words = words

        coeffs: list[float] = []
        exps: list[list[int]] = []
        word_ids: list[int] = []
        for wi, w in enumerate(words):
            for kfact, n0, counts in _splits(w.letters, M):
                base = 1.0 / kfact
                c_exp = list(n0) + [0] * len(pairs)
                per_letter = []
                for powers in counts:
                    numer = math.prod(math.factorial(q) for q in powers)
                    per_letter.append([(numer / (dfact * 2.0**diag), dvec)
                                       for dvec, dfact, diag in _pairing_counts(powers)])
                for combo in itertools.product(*per_letter):
                    e = list(c_exp)
                    const = base
                    for term_const, dvec in combo:
                        const *= term_const
                        for p, dval in zip(pairs, dvec):
                            e[pair_index[p]] += dval
                    coeffs.append(const)
                    exps.append(e)
                    word_ids.append(wi)
        self.coeffs = np.asarray(coeffs)
        # the terms share few distinct monomials: evaluate each once, index per term
        self.monos, self.mono_of = np.unique(np.asarray(exps, dtype=np.int64), axis=0,
                                             return_inverse=True)
        self.word_ids = np.asarray(word_ids, dtype=np.int64)
        self.targets = np.asarray([float(target_coefficient(w)) for w in words])
        # row k of the power table x ** exponents holds x ** k; gather[v, t] is
        # where monomial t's factor x[v] ** monos[t, v] sits in the flat table
        self.exponents = np.arange(self.monos.max() + 1)[:, None]
        nvars = self.monos.shape[1]
        self.gather = np.ascontiguousarray((self.monos * nvars + np.arange(nvars)).T)

    def residuals(self, x: np.ndarray) -> np.ndarray:
        # each table entry is the pow call that x ** monos would make, and the
        # product over axis 0 multiplies in v order: the bits of np.prod(x ** monos, axis=1)
        factors = (x ** self.exponents).take(self.gather)
        terms = factors.prod(axis=0)[self.mono_of] * self.coeffs
        # bincount sums each word's terms in index order from 0.0: the bits of a plain loop
        vals = np.bincount(self.word_ids, weights=terms, minlength=len(self.words))
        return vals - self.targets

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt((self.residuals(x) ** 2).sum()))


#: the initial simplex's edge along each coordinate, and the spread of values
#: at which the simplex counts as converged
_SIMPLEX_EDGE = 0.4
_SIMPLEX_TOL = 1e-12


def _nelder_mead(f, x0: np.ndarray, iters: int) -> tuple[np.ndarray, float]:
    """Minimal deterministic Nelder-Mead; enough for low-dimensional smooth residuals."""
    n = len(x0)
    simplex = np.repeat(np.array(x0, dtype=float)[None, :], n + 1, axis=0)
    axes = np.arange(n)
    simplex[axes + 1, axes] += _SIMPLEX_EDGE
    vals = np.array([f(p) for p in simplex])
    for _ in range(iters):
        order = np.argsort(vals)
        simplex, vals = simplex[order], vals[order]
        if vals[-1] - vals[0] < _SIMPLEX_TOL:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]  # a view: every read comes before its row is replaced
        refl = centroid + (centroid - worst)
        fr = f(refl)
        if fr < vals[0]:
            expd = centroid + 2.0 * (centroid - worst)
            fe = f(expd)
            if fe < fr:
                simplex[-1], vals[-1] = expd, fe
            else:
                simplex[-1], vals[-1] = refl, fr
        elif fr < vals[-2]:
            simplex[-1], vals[-1] = refl, fr
        else:
            contr = centroid + 0.5 * (worst - centroid)
            fc = f(contr)
            if fc < vals[-1]:
                simplex[-1], vals[-1] = contr, fc
            else:
                best = simplex[0]
                simplex[1:] = best + 0.5 * (simplex[1:] - best)
                vals[1:] = [f(p) for p in simplex[1:]]
    best = int(np.argmin(vals))
    return simplex[best], float(vals[best])


def _theta_to_x(theta: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Map free parameters (c_1..c_{M-1}, lower-triangular L) to (c, R) variables.

    `lower` is the M x M lower-triangle mask ``np.tri(M, dtype=bool)``: it fills
    L in row order, and its transpose reads R's upper triangle in row order.
    R = L L^T keeps the covariance positive semidefinite throughout the search;
    the last drift weight is 1 - sum of the others.
    """
    M = len(lower)
    x = np.empty(M + M * (M + 1) // 2)
    x[: M - 1] = theta[: M - 1]
    x[M - 1] = 1.0 - theta[: M - 1].sum()
    L = np.zeros((M, M))
    L[lower] = theta[M - 1:]
    x[M:] = (L @ L.T)[lower.T]
    return x


def infeasibility_search(m: int, M: int, d: int = 2, starts: int = 24, iters: int = 500,
                         seed: int = 0) -> tuple[float, np.ndarray]:
    """Multi-start residual minimization for the level-m matching with M factors.

    Returns the smallest residual norm found and the corresponding (c, R)
    variable vector.  This is a numerical smoke test, not a proof: a large
    value is evidence of infeasibility, never a certificate.  d defaults to 2
    because the single-letter (d=1) system is strictly weaker; see
    :class:`_ResidualPolynomial`.
    """
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    if iters < 0:
        raise ValueError(f"iters must be nonnegative, got {iters}")
    poly = _ResidualPolynomial(m, M, d)
    nfree = (M - 1) + M * (M + 1) // 2
    lower = np.tri(M, dtype=bool)
    rng = np.random.default_rng(seed)

    def objective(theta: np.ndarray) -> float:
        return poly.norm(_theta_to_x(theta, lower))

    best_val = math.inf
    best_x = None
    for _ in range(starts):
        theta0 = rng.uniform(-1.5, 1.5, size=nfree)
        theta, val = _nelder_mead(objective, theta0, iters)
        if val < best_val:
            best_val = val
            best_x = _theta_to_x(theta, lower)
    return best_val, best_x

