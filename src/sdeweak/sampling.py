"""Uniform-variate sources, the inverse normal transform, and estimators.

A source's kind is the estimate's mode, and each mode has one generator:

* ``mc``: the Philox4x64-10 counter-based generator (numpy's ``Philox``)
  viewed as one global uniform stream; path ``i`` of a D-dimensional problem
  owns stream words ``i*D .. (i+1)*D - 1``.  Uniforms are
  ``((raw >> 11) + 0.5) * 2**-53``, strictly inside (0, 1).
* ``qmc``: an own Sobol low-discrepancy implementation (Gray-code order)
  with Joe-Kuo direction numbers loaded from a bundled data file; raw index 0
  is the all-zeros point and is skipped by default.

Every point is a pure function of (descriptor, index): blocks may be gathered
in any order, in parallel, with bit-identical results.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from .refusal import shown
from .rk_integrator import IntegrationFailure

_SOBOL_BITS = 32
_SOBOL_SCALE = 2.0 ** -_SOBOL_BITS


# ---------------------------------------------------------------------------
# Sobol
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _direction_rows() -> list[tuple[int, int, list[int]]]:
    """The bundled direction-number table, parsed once from its ``d s a m_i`` layout.

    Returns rows (s, a, m-list) for dimensions 2, 3, ...; dimension 1 is the
    van der Corput sequence and carries no file entry.
    """
    rows: list[tuple[int, int, list[int]]] = []
    table = resources.files("sdeweak").joinpath("data", "joe_kuo_directions.txt")
    with table.open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("d"):
                continue
            parts = line.split()
            d, s, a = int(parts[0]), int(parts[1]), int(parts[2])
            ms = [int(x) for x in parts[3 : 3 + s]]
            if len(ms) != s:
                raise ValueError(f"dimension {d}: expected {s} initial values, got {len(ms)}")
            rows.append((s, a, ms))
    return rows


def check_sobol_dimension(dim: int) -> None:
    """Raise ValueError if the bundled direction table has fewer than ``dim`` coordinates."""
    supported = len(_direction_rows()) + 1
    if dim > supported:
        raise ValueError(f"requested {dim} Sobol dimensions; direction table supports {supported}")


@lru_cache(maxsize=4)
def _direction_matrix(dim: int) -> np.ndarray:
    """uint32 matrix V[bit, coordinate]; V[k] is the k-th direction number * 2^32."""
    check_sobol_dimension(dim)
    rows = _direction_rows()
    V = np.zeros((_SOBOL_BITS, dim), dtype=np.uint32)
    # first coordinate: van der Corput in base 2
    for k in range(_SOBOL_BITS):
        V[k, 0] = np.uint32(1 << (_SOBOL_BITS - 1 - k))
    for j in range(1, dim):
        s, a, m_init = rows[j - 1]
        m = list(m_init)
        for k in range(s, _SOBOL_BITS):
            new = m[k - s] ^ (m[k - s] << s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    new ^= m[k - i] << i
            m.append(new)
        for k in range(_SOBOL_BITS):
            V[k, j] = np.uint32(m[k] << (_SOBOL_BITS - 1 - k))
    return V


def _gray_state(index: int, V: np.ndarray) -> np.ndarray:
    """Sobol integer state at one index: XOR of direction rows over gray-code bits."""
    x = np.zeros(V.shape[1], dtype=np.uint32)
    gray = index ^ (index >> 1)
    bit = 0
    while gray:
        if gray & 1:
            x ^= V[bit]
        gray >>= 1
        bit += 1
    return x


_TILE_BITS = 8
_TILE = 1 << _TILE_BITS
#: coordinates whose uint32 states exist at one time, and the width of the
#: uniform windows ``schemes.run_paths`` reads
FLOAT_GROUP = 16


def _ruler(first: int, stop: int) -> np.ndarray:
    """ctz(k) for k = first .. stop-1 (first >= 1): the direction row index k flips."""
    k = np.arange(first, stop, dtype=np.uint64)
    return np.log2((k & (~k + np.uint64(1))).astype(np.float64)).astype(np.intp)


@lru_cache(maxsize=4)
def _tile_states(dim: int) -> np.ndarray:
    """uint32 states of indices 0 .. 255, shape (dim, 256): one XOR scan of ruler rows."""
    rows = np.zeros((_TILE, dim), dtype=np.uint32)
    rows[1:] = _direction_matrix(dim)[_ruler(1, _TILE)]
    np.bitwise_xor.accumulate(rows, axis=0, out=rows)
    return np.ascontiguousarray(rows.T)


def sobol_points(dim: int, start: int, count: int, first: int = 0,
                 stop: int | None = None) -> np.ndarray:
    """Points start .. start+count-1 of the Sobol sequence, shape (count, dim).

    Gray-code order.  Index 256 m + j has gray code gray(256 m) ^ gray(j), so
    its state is B[m] ^ T[j]: T, the states of 0 .. 255, is cached per
    dimension, and the tile bases follow B[m+1] = B[m] ^ V[7] ^ V[8 + ctz(m+1)]
    from the directly computed B[m0].  A block is one broadcast XOR over the
    tiles that cover it, converted to float a few coordinates at a time.
    Random access and streaming agree bit for bit.  The block is stored
    dimension-major (a transposed view of a (dim, count) array), so the
    uniforms of one coordinate, and of one scheme step, lie contiguous.

    Given a coordinate range first .. stop-1, only those coordinates are
    computed, shape (count, stop - first), stored the same way and equal to
    those columns of the full block bit for bit.
    """
    if count < 0 or start < 0:
        raise ValueError("start and count must be nonnegative")
    if start + count > 1 << _SOBOL_BITS:
        raise ValueError("Sobol index space exhausted (2^32 points)")
    stop = dim if stop is None else stop
    if not 0 <= first <= stop <= dim:
        raise ValueError(f"coordinate range [{first}, {stop}) must lie in [0, {dim}]")
    V = _direction_matrix(dim)[:, first:stop]
    width = stop - first
    if count == 0:
        return np.empty((0, width))
    T = _tile_states(dim)[first:stop]
    m0, m1 = start >> _TILE_BITS, (start + count - 1) >> _TILE_BITS
    # B[:, k] is the state of index 256 (m0 + k)
    B = np.empty((width, m1 - m0 + 1), dtype=np.uint32)
    B[:, 0] = _gray_state(m0 << _TILE_BITS, V)
    B[:, 1:] = (V[_TILE_BITS - 1] ^ V[_TILE_BITS + _ruler(m0 + 1, m1 + 1)]).T
    np.bitwise_xor.accumulate(B, axis=1, out=B)
    lo = start - (m0 << _TILE_BITS)
    points = np.empty((width, count))
    for g in range(0, width, FLOAT_GROUP):
        h = min(g + FLOAT_GROUP, width)
        states = np.bitwise_xor(B[g:h, :, None], T[g:h, None, :]).reshape(h - g, -1)
        np.multiply(states[:, lo:lo + count], _SOBOL_SCALE, out=points[g:h])
    return points.T


# ---------------------------------------------------------------------------
# Philox pseudo-random stream
# ---------------------------------------------------------------------------


def philox_raw(seed: int, start: int, count: int) -> np.ndarray:
    """Words start .. start+count-1 of the Philox4x64-10 output stream for this seed.

    Counter block c holds words 4c..4c+3, so any offset is reachable by
    setting the 256-bit counter; no sequential state is kept anywhere.
    """
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    from numpy.random import Philox  # deferred: numpy.random costs MBs of RSS Sobol runs never use

    block, offset = divmod(start, 4)
    bitgen = Philox(key=seed, counter=block)
    raw = bitgen.random_raw(offset + count)
    return raw[offset:]


#: words converted to uniforms at a time
_PHILOX_SLICE = 1 << 16


def philox_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms in the open interval (0,1): ((raw >> 11) + 0.5) * 2^-53.

    The words become their uniforms in place, a slice at a time, so the block
    is never held twice (numpy buffers an overlapping cast whole).
    """
    raw = philox_raw(seed, start, count)
    out = raw.view(np.float64)
    for lo in range(0, count, _PHILOX_SLICE):
        words, floats = raw[lo:lo + _PHILOX_SLICE], out[lo:lo + _PHILOX_SLICE]
        words >>= np.uint64(11)
        floats[...] = words
        floats += 0.5
        floats *= 2.0**-53
    return out


# ---------------------------------------------------------------------------
# Uniform sources
# ---------------------------------------------------------------------------

MC = "mc"
QMC = "qmc"


def check_mode(mode) -> None:
    """Refuse a sampling mode other than :data:`QMC` and :data:`MC`."""
    if mode not in (QMC, MC):
        raise ValueError(f"mode must be {QMC} or {MC}, got {shown(mode)}")


@dataclass(frozen=True)
class SobolChunk:
    """Sobol points start .. start+count-1 in (0,1)^dimension, generated on demand.

    What ``estimate`` hands a QMC payoff in place of the (count, dimension)
    block: a reader that takes the coordinates a range at a time, as
    ``schemes.run_paths`` does, never holds them all.  ``np.asarray`` gives the
    whole block.
    """

    dimension: int
    start: int
    count: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.count, self.dimension

    def columns(self, first: int, stop: int) -> np.ndarray:
        """Coordinates first .. stop-1 of every point, shape (count, stop - first)."""
        return sobol_points(self.dimension, self.start, self.count, first, stop)

    def __array__(self, dtype=None, copy=None):
        points = self.columns(0, self.dimension)
        return points if dtype is None else points.astype(dtype, copy=False)


@dataclass(frozen=True)
class UniformSource:
    """A random-access source of points in (0,1)^dimension.

    ``kind`` is the estimate's mode: ``mc`` reads the Philox stream of
    ``seed``, ``qmc`` the Sobol sequence from index ``skip``, which defaults
    to 1 so the all-zeros point never appears (its inverse-normal image is
    -infinity).
    """

    kind: str
    dimension: int
    seed: int = 0
    skip: int = 1

    def __post_init__(self):
        check_mode(self.kind)
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind == QMC and self.skip < 1:
            raise ValueError("sobol skip must be >= 1 (index 0 is the zero point)")

    def check(self, samples: int) -> None:
        """Raise ValueError if ``estimate`` cannot draw ``samples`` points: fewer than 1, Sobol
        indices past 2^32 or the direction table's width, MC samples not in 10 batches, or a
        seed >= 2^128."""
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {shown(samples)}")
        if self.kind == QMC:
            if self.skip + samples > 1 << _SOBOL_BITS:
                raise ValueError(f"sobol_skip + samples must be <= 2^32 (the Sobol index space), "
                                 f"got sobol_skip {shown(self.skip)} and samples {shown(samples)}")
            check_sobol_dimension(self.dimension)
        elif samples % MC_BATCHES != 0:
            raise ValueError(f"MC sample count must be divisible by {MC_BATCHES}")
        elif self.seed >= 1 << 128:
            raise ValueError(f"seed must be < 2^128 for an MC cell (the Philox key), "
                             f"got {shown(self.seed)}")

    def chunk(self, start: int, count: int) -> np.ndarray | SobolChunk:
        """Points start .. start+count-1 as ``estimate`` hands them to its payoff.

        QMC points come as a :class:`SobolChunk`.  MC points come as the
        (count, dimension) Philox block: path i owns Philox words i*D onward,
        so a coordinate range of every path is no cheaper to generate than the
        whole block.
        """
        if self.kind == MC:
            flat = philox_uniforms(self.seed, start * self.dimension, count * self.dimension)
            return flat.reshape(count, self.dimension)
        return SobolChunk(self.dimension, self.skip + start, count)


# ---------------------------------------------------------------------------
# Inverse normal CDF (AS241, double precision)
# ---------------------------------------------------------------------------

_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
      2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
      1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
      7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def horner(coeffs: Sequence[float], x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """coeffs[0] + coeffs[1] x + ... + coeffs[n] x^n by Horner's rule (n >= 1),
    into ``out`` when given; its first product coeffs[n] x needs no filled array."""
    acc = np.multiply(x, coeffs[-1], out=out)
    acc += coeffs[-2]
    for c in reversed(coeffs[:-2]):
        acc *= x
        acc += c
    return acc


_INV_BLOCK = 1 << 16


def _inv_normal_block(flat: np.ndarray, out: np.ndarray) -> None:
    """AS241 on one flat block; central regime computed unconditionally, tails fixed up."""
    q = flat - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    num = horner(_A, r)
    # the denominator is built in out, and the quotient replaces it there
    np.divide(num, horner(_B, r, out=out), out=out)
    out *= q

    # the tails are a scattered ~15% of the block, exactly where r < 0
    # (|q| > 0.425): gather and scatter them through one index list
    tail = np.flatnonzero(r < 0.0)
    if tail.size:
        ft = flat[tail]
        qt = ft - 0.5
        rt = np.minimum(ft, 1.0 - ft)
        np.log(rt, out=rt)
        np.negative(rt, out=rt)
        np.sqrt(rt, out=rt)
        # the near-tail ratio is finite on the whole tail (rt <= 27.3 and D > 0
        # there), so it runs unmasked and the few far values (none for Sobol:
        # u >= 2^-32 gives rt <= 4.72) are overwritten by index
        far = np.flatnonzero(rt > 5.0)
        rf = rt[far] - 5.0
        rt -= 1.6
        val = horner(_C, rt)
        val /= horner(_D, rt)
        if far.size:
            val[far] = horner(_E, rf) / horner(_F, rf)
        np.copysign(val, qt, out=val)
        out[tail] = val


def inv_normal_cdf(u):
    """The standard normal quantile, absolute error below 1e-9 on (0, 1).

    Wichura's AS241 rational approximation: a central regime in q = u - 1/2
    and two tail regimes in sqrt(-log(min(u, 1-u))).  Accepts scalars or
    arrays; raises ValueError on values outside the open interval, NaN
    included.  Large inputs are processed in cache-sized blocks.  A
    Fortran-ordered input, such as one step's columns of a dimension-major
    Sobol block, is read where it lies through its C-ordered transpose and
    gives a Fortran-ordered result.
    """
    arr = np.asarray(u, dtype=float)
    fortran = arr.flags.f_contiguous and not arr.flags.c_contiguous
    src = arr.T if fortran else arr
    flat = src.ravel()
    # one min/max pair, which a NaN also fails
    if flat.size and not (flat.min() > 0.0 and flat.max() < 1.0):
        raise ValueError("inv_normal_cdf requires 0 < u < 1")
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _INV_BLOCK):
        hi = min(lo + _INV_BLOCK, flat.size)
        _inv_normal_block(flat[lo:hi], out[lo:hi])
    if arr.ndim == 0:
        return float(out[0])
    out = out.reshape(src.shape)
    return out.T if fortran else out


def correlate_pair(z: np.ndarray, cov: Sequence[Sequence[float]]) -> np.ndarray:
    """Map iid N(0,1) pairs to covariance ``cov`` by the lower Cholesky factor.

    z has shape (..., 2); returns the same shape.  ``cov`` is taken as
    given, symmetric and positive semidefinite, as ``SchemeParams.covariance``
    builds and checks it.
    """
    r11, r12 = float(cov[0][0]), float(cov[0][1])
    r22 = float(cov[1][1])
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    l11 = math.sqrt(r11)
    l21 = r12 / l11
    l22 = math.sqrt(max(r22 - l21 * l21, 0.0))
    out[..., 0] = l11 * z[..., 0]
    out[..., 1] = l21 * z[..., 0] + l22 * z[..., 1]
    return out


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

MC_BATCHES = 10
CHUNK = 16384


@dataclass(frozen=True)
class EstimatorReport:
    """The mean of every sample, and the means of 10 contiguous MC batches or one QMC batch."""

    estimate: float
    batch_means: tuple[float, ...]


def estimate(payoff: Callable[[np.ndarray | SobolChunk], np.ndarray], source: UniformSource,
             samples: int, workers: int | None = None) -> EstimatorReport:
    """Average ``payoff`` over ``samples`` source points.

    payoff maps a chunk of points, ``source.chunk``: an MC block (count, D) or a
    QMC :class:`SobolChunk`, to a value vector (count,).  Points are processed
    in fixed chunks whose sums are reduced in index order, so the
    result is bit-identical for every worker count.  MC estimates 10 batches,
    QMC one.  What ``source.check`` refuses is refused before any chunk runs.
    With at most one worker the chunks run on the calling thread.  An
    IntegrationFailure from payoff leaves with its row turned into a path
    index.
    """
    source.check(samples)
    batches = MC_BATCHES if source.kind == MC else 1
    size = samples // batches
    # no chunk straddles a batch, so every batch is the same number of chunks
    ranges = [(a, min(a + CHUNK, lo + size))
              for lo in range(0, samples, size) for a in range(lo, lo + size, CHUNK)]

    def chunk_sum(rg: tuple[int, int]) -> float:
        lo, hi = rg
        try:
            vals = payoff(source.chunk(lo, hi - lo))
        except IntegrationFailure as exc:
            if exc.path is not None:
                exc.path += lo  # row r of this chunk is path lo + r
            raise
        return float(np.add.reduce(np.asarray(vals, dtype=float)))

    if workers is not None and workers <= 1:
        sums = np.array([chunk_sum(rg) for rg in ranges])
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            sums = np.array(list(pool.map(chunk_sum, ranges)))

    per = len(ranges) // batches
    batch_means = tuple(float(np.add.reduce(sums[k:k + per])) / size
                        for k in range(0, len(ranges), per))
    return EstimatorReport(float(np.add.reduce(sums)) / samples, batch_means)
