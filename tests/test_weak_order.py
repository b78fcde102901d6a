"""Weak order without sampling: a linear SDE through the production step code.

For fields V_k(x) = A_k x every step of every scheme is linear in x and the
steps are i.i.d., so E[X_n] = M^n x0 with M = E[one step].  M comes from the
production ``nn_step``, ``nv_step`` and ``em_step`` run on the identity
columns over a tensor Gauss-Hermite grid.  A K-stage flow is a polynomial of
degree K in its Gaussians and a splitting step multiplies two of them, so
K + 1 nodes per Gaussian integrate it exactly.  The exact value is
expm(T (A0 + 1/2 sum A_i^2)) x0.  No sample is drawn, so the ratio of
successive weak errors has no integration floor: it reads 2^p for weak order
p.  The ratio bands were fixed on the code before stage inputs were narrowed
to the read coordinates, where they read 3.99 (nn/RK5), 4.01 (nv/RK5), 2.00
(em), 7.92 (nn Romberg), 1.99 (nn/RK3) and 3.98 / 3.96 for the model with an
unread integral, which declares ``read_dim`` so that its flows form stage
inputs over the leading coordinates only.

The second moment follows the same way: X_n (x) X_n = (S_n (x) S_n) ... (S_1
(x) S_1)(x0 (x) x0), so E[X_n (x) X_n] = M2^n (x0 (x) x0) with M2 = E[S (x) S].
S (x) S has twice the degree, so 2K + 1 nodes per Gaussian integrate it
exactly.  X (x) X solves the linear Stratonovich SDE with fields
A_k (+) A_k, where A (+) B = A (x) I + I (x) B, so the exact value is
expm(T L2)(x0 (x) x0) with L2 = A0 (+) A0 + 1/2 sum (A_i (+) A_i)^2.  Its
ratio bands, the first moment's, were fixed on the code before ``run_paths``
read its uniforms in windows, where they read 3.87 (nn/RK5), 3.97 (nv/RK5),
1.99 (em), 1.97 (nn/RK3) and 7.78 (nn Romberg).
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.linalg import expm

from sdeweak.moment_match import solution_params
from sdeweak.rk_integrator import IntegrationScheme, VectorField, scheme
from sdeweak.rk_trees import ButcherTableau
from sdeweak.sampling import correlate_pair
from sdeweak.schemes import SDEModel, em_step, nn_step, nv_step, romberg

DEFAULT_PARAMS = solution_params(Fraction(3, 4))
RK5 = scheme("rk5-butcher")
# Kutta's third-order method: an ODE order too low for weak order 2
RK3 = IntegrationScheme(ButcherTableau(a=((0, 0, 0), ("1/2", 0, 0), (-1, 2, 0)),
                                       b=("1/6", "2/3", "1/6"), declared_order=3,
                                       name="rk3-kutta"))

T = 1.0
ORDER_TWO = (3.7, 4.3)
ORDER_ONE = (1.8, 2.2)


def _grid(nodes: int, dims: int):
    """Tensor Gauss-Hermite points (P, dims) and weights (P,) for N(0, I)."""
    x, w = hermegauss(nodes)
    w = w / w.sum()
    points = np.stack([g.ravel() for g in np.meshgrid(*[x] * dims, indexing="ij")], axis=-1)
    weights = np.prod(np.meshgrid(*[w] * dims, indexing="ij"), axis=0).ravel()
    return points, weights


def _linear_model(mats, read_dim=None):
    """V_k(y) = A_k y, reading the first ``read_dim`` coordinates (all by default)."""
    dim = mats[0].shape[0]
    r = dim if read_dim is None else read_dim

    def field(a):
        return VectorField(dim, lambda y: y[..., :r] @ a[:, :r].T)

    generator = mats[0] + 0.5 * sum(a @ a for a in mats[1:])
    model = SDEModel(stratonovich=tuple(field(a) for a in mats), ito_drift=field(generator),
                     read_dim=read_dim)
    return model, generator


def _mean_step(step, dim: int, weights, moment: int = 1) -> np.ndarray:
    """M = E[S] (moment 1) or M2 = E[S (x) S] (moment 2) of the step's matrix S.

    Column j of S is step(e_j), the step run on column-major identity columns.
    """
    cols = []
    for j in range(dim):
        x = np.zeros((len(weights), dim), order="F")
        x[:, j] = 1.0
        cols.append(step(x))
    if moment == 1:
        return np.stack([weights @ c for c in cols], axis=1)
    s = np.stack(cols, axis=2)  # (P, dim, dim): S at every grid point
    # (S (x) S)[(i, k), (j, l)] = S[i, j] S[k, l]
    return np.einsum("p,pij,pkl->ikjl", weights, s, s).reshape(dim * dim, dim * dim)


def nn_mean(model, rk, s, moment=1):
    d = model.brownian_dim
    z, w = _grid(moment * rk.stages + 1, 2 * d)
    pairs = correlate_pair(z.reshape(-1, d, 2), DEFAULT_PARAMS.covariance)
    return _mean_step(lambda x: nn_step(model, DEFAULT_PARAMS, rk, x, s, pairs), model.dim, w,
                      moment)


def nv_mean(model, rk, s, moment=1):
    # both Bernoulli orderings, each with half the Gaussian weight
    z, w = _grid(moment * rk.stages + 1, model.brownian_dim)
    bern = np.repeat([1.0, -1.0], len(w))
    z, w = np.concatenate([z, z]), np.concatenate([w, w]) / 2
    return _mean_step(lambda x: nv_step(model, rk, x, s, bern, z), model.dim, w, moment)


def em_mean(model, s, moment=1):
    z, w = _grid(moment + 1, model.brownian_dim)
    return _mean_step(lambda x: em_step(model, x, s, np.sqrt(s) * z), model.dim, w, moment)


def _kron_sum(a):
    eye = np.eye(len(a))
    return np.kron(a, eye) + np.kron(eye, a)


def _setting(unread_integral=False, moment=1):
    """The model, its start (x0, or x0 (x) x0 for moment 2) and the exact moment at T."""
    rng = np.random.default_rng(7)
    mats = [0.5 * rng.normal(size=(3, 3)) for _ in range(3)]
    x0 = rng.normal(size=3)
    if unread_integral:
        for a in mats:
            a[:, -1] = 0.0  # no field reads the last coordinate
    model, generator = _linear_model(mats, 2 if unread_integral else None)
    if moment == 2:
        x0 = np.kron(x0, x0)
        generator = _kron_sum(mats[0]) + 0.5 * sum(_kron_sum(a) @ _kron_sum(a)
                                                   for a in mats[1:])
    return model, x0, expm(T * generator) @ x0


def _expectation(mean, n, x0):
    return np.linalg.matrix_power(mean(T / n), n) @ x0


def _error_ratio(mean, n, x0, exact):
    e = [np.max(np.abs(_expectation(mean, k, x0) - exact)) for k in (n, 2 * n)]
    return e[0] / e[1]


SCHEME_RATIOS = pytest.mark.parametrize("kind, n, band", [
    ("nn-rk5", 16, ORDER_TWO),
    ("nv-rk5", 16, ORDER_TWO),
    ("em", 128, ORDER_ONE),
    # negative control: an order-3 flow drops the splitting scheme to weak order 1
    ("nn-rk3", 16, ORDER_ONE),
])


def _scheme_error_ratio(kind, n, moment):
    model, x0, exact = _setting(moment=moment)
    mean = {"nn-rk5": lambda s: nn_mean(model, RK5, s, moment),
            "nv-rk5": lambda s: nv_mean(model, RK5, s, moment),
            "em": lambda s: em_mean(model, s, moment),
            "nn-rk3": lambda s: nn_mean(model, RK3, s, moment)}[kind]
    return _error_ratio(mean, n, x0, exact)


@SCHEME_RATIOS
def test_weak_error_ratio(kind, n, band):
    assert band[0] < _scheme_error_ratio(kind, n, 1) < band[1]


@SCHEME_RATIOS
def test_second_moment_error_ratio(kind, n, band):
    assert band[0] < _scheme_error_ratio(kind, n, 2) < band[1]


def _romberg_ratio(moment):
    # the residual of a 2-level nn cell shrinks by about 2^3 as n doubles
    model, x0, exact = _setting(moment=moment)
    v = {n: _expectation(lambda s: nn_mean(model, RK5, s, moment), n, x0) for n in (8, 16, 32)}
    e = [np.max(np.abs(romberg(v[n], v[2 * n], 2) - exact)) for n in (8, 16)]
    return e[0] / e[1]


def test_romberg_cell_cancels_the_second_order_term():
    assert 7.0 < _romberg_ratio(1) < 9.0


def test_romberg_cell_cancels_the_second_order_term_of_the_second_moment():
    assert 7.0 < _romberg_ratio(2) < 9.0


def test_second_moment_grid_is_exact():
    # one node more per Gaussian changes M2 only by rounding
    model, _, _ = _setting()
    d, s = model.brownian_dim, 0.1
    z, w = _grid(2 * RK5.stages + 2, 2 * d)
    pairs = correlate_pair(z.reshape(-1, d, 2), DEFAULT_PARAMS.covariance)
    finer = _mean_step(lambda x: nn_step(model, DEFAULT_PARAMS, RK5, x, s, pairs), model.dim,
                       w, 2)
    assert np.max(np.abs(nn_mean(model, RK5, s, 2) - finer)) < 1e-12


@pytest.mark.parametrize("mean", [nn_mean, nv_mean], ids=["nn-rk5", "nv-rk5"])
def test_unread_integral_keeps_weak_order_two(mean):
    model, x0, exact = _setting(unread_integral=True)
    ratio = _error_ratio(lambda s: mean(model, RK5, s), 16, x0, exact)
    assert ORDER_TWO[0] < ratio < ORDER_TWO[1]


@pytest.mark.parametrize("mean", [nn_mean, nv_mean], ids=["nn-rk5", "nv-rk5"])
def test_unread_integral_declaration_keeps_every_bit(mean):
    # stage inputs over the two read coordinates give the full-width bits
    declared, _, _ = _setting(unread_integral=True)
    full = dataclasses.replace(declared, read_dim=None)
    assert declared.read_dim == 2
    assert mean(declared, RK5, 0.1).tobytes() == mean(full, RK5, 0.1).tobytes()
