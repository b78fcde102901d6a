"""Weak-approximation drivers over a path-functional payoff.

Three one-step maps over a common SDE model: the new splitting scheme (two
correlated Gaussian vector-field draws per step, each flowed by a certified
Runge-Kutta integrator), the Euler-Maruyama baseline, and the
reference-reconstructed N-V competitor.  A step plan fixes the scheme kind,
the partition count, and exactly how a path's uniform block is consumed, so
that pseudo-random and low-discrepancy sources are interchangeable.

Uniform consumption order (part of the public contract; QMC accuracy depends
on it): step-major, then Brownian index, then the factor index j = 1, 2 for
the splitting scheme.  The N-V block per step is the Bernoulli uniform first,
then the d Gaussian uniforms.  Bernoulli maps u >= 1/2 to +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .moment_match import SchemeParams
from .refusal import shown
from .rk_integrator import IntegrationFailure, IntegrationScheme, VectorField, integrate
from .sampling import FLOAT_GROUP, SobolChunk, correlate_pair, inv_normal_cdf

NN = "nn"
EM = "em"
NV = "nv"
KINDS = (NN, EM, NV)


def check_kind(kind) -> None:
    """Refuse a scheme kind outside :data:`KINDS`."""
    if kind not in KINDS:
        raise ValueError(f"scheme must be one of {', '.join(KINDS)}, got {shown(kind)}")


@dataclass(frozen=True)
class SDEModel:
    """A Stratonovich SDE dX = sum_i V_i(X) o dB^i plus its Ito-form drift.

    ``stratonovich`` holds V_0..V_d, so the Brownian dimension d is one less
    than its length, and the state dimension is the fields' ``dimension``.
    The diffusion columns of the Ito form are the Stratonovich fields V_1..V_d
    (true whenever, as for Heston, only the drift picks up a correction).
    ``fused_combination``, when given, evaluates sum_k coeffs[k] V_k(y) in one
    pass; it must agree with the per-field sum and exists purely for speed.
    Like the per-field sum, it must give each path a value that depends only
    on that path's state and coefficients, give a scalar coefficient the same
    result as that value broadcast over the paths, leave out (and never
    evaluate) the field of a None coefficient, and accept any memory layout
    of y.  ``fused_euler``, when given, is the whole Euler-Maruyama
    step x + s drift(x) + sum_i dB^i V_i(x) in one call; it must give the
    per-field :func:`em_step` bits, for per-path (P, d) and scalar (d,)
    increments and any layout of x.

    ``read_dim``, when given, declares that the Stratonovich fields and
    ``fused_combination`` read only the first ``read_dim`` coordinates of
    their input (None: every coordinate).  The Runge-Kutta flows then form
    each stage input over those coordinates only, and the value of a later
    coordinate of a stage input is unspecified, so a field must not read it;
    it must still return every coordinate.  Each flow's result covers every
    coordinate.

    ``drift_step``, when given, is ``drift_step(tableau, a, y)``: one step of
    ``tableau`` for the time-1 flow of a V0, for a finite scalar a and a
    (P, N) batch y, or None where the model does not give it.  It must agree
    with :func:`integrate` on that flow to rounding, and it too exists purely
    for speed.
    """

    stratonovich: tuple[VectorField, ...]
    ito_drift: VectorField
    fused_combination: Callable | None = None
    fused_euler: Callable | None = None
    read_dim: int | None = None
    drift_step: Callable | None = None

    def __post_init__(self):
        if any(f.dimension != self.dim for f in self.stratonovich):
            raise ValueError("field dimensions disagree with the state dimension")
        if self.read_dim is not None and not 1 <= self.read_dim <= self.dim:
            raise ValueError(f"read_dim must lie in [1, {self.dim}], got {self.read_dim}")

    @property
    def dim(self) -> int:
        return self.ito_drift.dimension

    @property
    def brownian_dim(self) -> int:
        return len(self.stratonovich) - 1

    def combination(self, y: np.ndarray, coeffs: Sequence) -> np.ndarray:
        """sum_k coeffs[k] V_k(y) over the fields of a flow: scalar or per-path
        (P,) coefficients, and None for a field the flow leaves out (a flow
        has at least one field)."""
        if self.fused_combination is not None:
            return self.fused_combination(y, coeffs)
        acc = None
        for c, field in zip(coeffs, self.stratonovich):
            if c is None:
                continue
            if isinstance(c, np.ndarray) and c.ndim == y.ndim - 1:
                c = c[..., None]
            term = c * field(y)
            acc = term if acc is None else acc + term
        return acc


@dataclass(frozen=True)
class SchemeStepPlan:
    """Scheme kind, partition count, and the per-path uniform layout."""

    kind: str
    partitions: int
    params: SchemeParams | None = None
    integrator: IntegrationScheme | None = None

    def __post_init__(self):
        check_kind(self.kind)
        if self.partitions < 1:
            raise ValueError("partitions must be >= 1")
        if self.kind == NN and (self.params is None or self.integrator is None):
            raise ValueError("the splitting scheme needs params and an integrator")
        if self.kind == NV and self.integrator is None:
            raise ValueError("the N-V scheme needs an integrator")

    def step_dimension(self, model: SDEModel) -> int:
        """Uniform variates consumed per step: 2d (NN), d (EM), 1 + d (NV)."""
        d = model.brownian_dim
        return {NN: 2 * d, EM: d, NV: 1 + d}[self.kind]

    def uniform_dimension(self, model: SDEModel) -> int:
        """Uniform variates consumed per full path: 2dn (NN), dn (EM), n+dn (NV)."""
        return self.partitions * self.step_dimension(model)


# ---------------------------------------------------------------------------
# One-step maps
# ---------------------------------------------------------------------------


def _flow(model: SDEModel, rk: IntegrationScheme, x: np.ndarray, coeffs: Sequence) -> np.ndarray:
    """The time-1 flow of sum_k coeffs[k] V_k from x: one step of rk.

    A flow of V0 alone, with a scalar coefficient over a batch, takes the
    model's drift step; a flow it does not give, or gives non-finite, runs
    rk through :func:`integrate`, so a failure names its stage and path.
    """
    a = coeffs[0]
    if (model.drift_step is not None and x.ndim == 2 and a is not None
            and not isinstance(a, np.ndarray) and all(c is None for c in coeffs[1:])):
        out = model.drift_step(rk.tableau, a, x)
        if out is not None and np.isfinite(out).all():
            return out
    return integrate(rk, lambda y: model.combination(y, coeffs), x, read_dim=model.read_dim)


def nn_step(model: SDEModel, params: SchemeParams, rk: IntegrationScheme, x: np.ndarray,
            s: float, gaussians: np.ndarray) -> np.ndarray:
    """One splitting step: the flow of W_2 applied first, then the flow of W_1.

    gaussians has shape (..., d, 2) holding the correlated pair (S^i_1, S^i_2)
    for each Brownian index i; W_j(y) = s c_j V0(y) + sqrt(s) sum_i S^i_j V_i(y).
    Each flow is the integrator's one-shot time-1 map.
    """
    x = np.asarray(x, dtype=float)
    gaussians = np.asarray(gaussians, dtype=float)
    if gaussians.shape[-2:] != (model.brownian_dim, 2):
        raise ValueError(f"gaussians must end in shape (d, 2), got {gaussians.shape}")
    root_s = np.sqrt(s)
    c = (float(params.c1), float(params.c2))
    for j in (1, 0):  # Z_2's flow first, then Z_1's
        coeffs = [s * c[j]] + [root_s * gaussians[..., i, j]
                               for i in range(model.brownian_dim)]
        x = _flow(model, rk, x, coeffs)
    return x


def em_step(model: SDEModel, x: np.ndarray, s: float, increments: np.ndarray) -> np.ndarray:
    """Euler-Maruyama: x + drift(x) s + sum_i V_i(x) dB^i, increments ~ N(0, s)."""
    x = np.asarray(x, dtype=float)
    increments = np.asarray(increments, dtype=float)
    if model.fused_euler is not None:
        return model.fused_euler(x, s, increments)
    out = x + s * model.ito_drift(x)
    for i in range(model.brownian_dim):
        dbi = increments[..., i]
        if isinstance(dbi, np.ndarray) and dbi.ndim == x.ndim - 1:
            dbi = dbi[..., None]
        out = out + dbi * model.stratonovich[i + 1](x)
    return out


def nv_step(model: SDEModel, rk: IntegrationScheme, x: np.ndarray, s: float,
            bernoulli: np.ndarray, etas: np.ndarray, before: float = 0.5,
            after: float = 0.5) -> np.ndarray:
    """One N-V step: a drift flow, the d Gaussian flows, a drift flow.

    The drift flows are the time-1 flows of ``before`` s V0 and ``after`` s V0,
    which leave V1..Vd out; a fraction of 0 skips that flow.  The defaults
    give the one-step map, half drift on each side.  :func:`run_paths` runs
    the half drift that ends one step and the half drift that starts the next
    as one flow of s V0, which the exact flows compose to, so a path of n
    steps makes (d + 1) n + 1 flows: d n Runge-Kutta flows and n + 1 drift
    flows, each the model's drift step where it has one (see :func:`_flow`).
    The middle flows run in ascending Brownian order where the Bernoulli draw
    is +1 and descending where -1; bernoulli holds one draw per path, or one
    0-d draw for every path.  This competitor is a reconstruction of the
    well-known splitting method it is benchmarked against, included for
    comparison parity and excluded from exactness claims (see README).
    """
    x = np.asarray(x, dtype=float)
    bernoulli = np.asarray(bernoulli)
    etas = np.asarray(etas, dtype=float)
    root_s = np.sqrt(s)
    d = model.brownian_dim

    if before:
        x = _flow(model, rk, x, [before * s] + [None] * d)
    # flow position p runs V_p on ascending paths and V_{d+1-p} on descending
    # ones, as one flow of both fields over all paths: each path's
    # coefficient of the other field is 0.0
    asc = bernoulli >= 0
    for p in range(1, d + 1):
        q = d + 1 - p
        coeffs = [None] * (d + 1)
        if p == q:
            coeffs[p] = root_s * etas[..., p - 1]
        else:
            coeffs[p] = np.where(asc, root_s * etas[..., p - 1], 0.0)
            coeffs[q] = np.where(~asc, root_s * etas[..., q - 1], 0.0)
        x = _flow(model, rk, x, coeffs)
    if after:
        x = _flow(model, rk, x, [after * s] + [None] * d)
    return x


# ---------------------------------------------------------------------------
# Path drivers
# ---------------------------------------------------------------------------


def run_paths(plan: SchemeStepPlan, model: SDEModel, x0: Sequence[float], T: float,
              uniforms: np.ndarray | SobolChunk) -> np.ndarray:
    """Drive a batch of paths to time T from a (P, dims) uniform block or Sobol chunk.

    Uniforms are consumed step-major; within a step, Brownian-index major,
    with the factor index j = 1, 2 innermost (splitting scheme), or the
    Bernoulli variate first (N-V).  They are read a window of whole steps at
    a time, about FLOAT_GROUP coordinates and at least one step, so a chunk
    generates each coordinate once and never holds more than one window.
    Identical blocks, or a chunk and its block, give identical outputs.  An
    IntegrationFailure leaves with its time step k (0-based) added; the N-V
    drift flow between steps k and k + 1 is step k's.
    """
    if isinstance(uniforms, SobolChunk):
        columns = uniforms.columns
    else:
        uniforms = np.atleast_2d(np.asarray(uniforms, dtype=float))
        columns = lambda first, stop: uniforms[:, first:stop]
    paths = uniforms.shape[0]
    want = plan.uniform_dimension(model)
    if uniforms.shape[1] != want:
        raise ValueError(
            f"{plan.kind} with n={plan.partitions}, d={model.brownian_dim} needs "
            f"{want} uniforms per path, got {uniforms.shape[1]}"
        )
    n = plan.partitions
    s = T / n
    d = model.brownian_dim
    per = plan.step_dimension(model)
    # column-major: each state coordinate is one contiguous column in every
    # field evaluation and stage combination
    x = np.array(np.broadcast_to(np.asarray(x0, dtype=float), (paths, model.dim)),
                 order="F")

    steps = max(1, FLOAT_GROUP // per)  # per window
    for k in range(n):
        if k % steps == 0:
            window = columns(k * per, min(k + steps, n) * per)
        j = k % steps * per
        block = window[:, j:j + per]
        try:
            if plan.kind == NN:
                z = inv_normal_cdf(block).reshape(paths, d, 2)
                gaussians = correlate_pair(z, plan.params.covariance)
                x = nn_step(model, plan.params, plan.integrator, x, s, gaussians)
            elif plan.kind == EM:
                increments = inv_normal_cdf(block)
                increments *= np.sqrt(s)
                x = em_step(model, x, s, increments)
            else:
                bern = np.where(block[:, 0] >= 0.5, 1.0, -1.0)
                etas = inv_normal_cdf(block[:, 1:])
                # the drift flows between steps merge into one of s V0
                x = nv_step(model, plan.integrator, x, s, bern, etas,
                            before=0.5 if k == 0 else 0.0,
                            after=0.5 if k == n - 1 else 1.0)
        except IntegrationFailure as exc:
            exc.step = k
            raise
    return x


def romberg(estimate_n: float, estimate_2n: float, p: int) -> float:
    """Cancel the leading 1/n^p error term of a weak order-p scheme.

    (2^p estimate_2n - estimate_n) / (2^p - 1).
    """
    if p < 1:
        raise ValueError("extrapolation order p must be >= 1")
    w = 2.0**p
    return (w * estimate_2n - estimate_n) / (w - 1.0)
