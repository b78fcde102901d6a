"""Explicit Runge-Kutta stepping for autonomous vector fields.

An integration scheme wraps a certified tableau and integrates a field W to
time 1 (the step size is folded into the field by the caller, matching the
rescaling convention of the splitting construction).  The appendix tableaus
of order 5 (6 stages) and order 7 (9 stages) are built in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .refusal import shown
from .rk_trees import ButcherTableau, has_order


class IntegrationFailure(RuntimeError):
    """A non-finite state appeared during a Runge-Kutta step.

    ``stage`` is the 1-based index of the first non-finite stage, or None when
    every stage was finite and the step's final combination overflowed.
    ``path`` is the first row of a batch that is non-finite there (None for a
    single state); the estimator turns it into a path index.  The context the
    step cannot know is added where it is known: ``step`` is the path
    driver's time step, once ``run_paths`` has added it, and ``cell`` names
    the pricing cell, once ``price_cell`` has added it.
    """

    def __init__(self, stage: int | None, path: int | None = None):
        super().__init__(stage, path)
        self.stage = stage
        self.path = path
        self.step: int | None = None
        self.cell: str | None = None

    def __str__(self) -> str:
        where = "the step combination" if self.stage is None else f"stage {self.stage}"
        where += f", step {self.step}" if self.step is not None else ""
        where += f", path {self.path}" if self.path is not None else ""
        where += f"; cell {self.cell}" if self.cell is not None else ""
        return f"non-finite state in Runge-Kutta {where}"


@dataclass(frozen=True)
class VectorField:
    """An autonomous field on R^N; func maps (..., N) state arrays to (..., N)."""

    dimension: int
    func: Callable[[np.ndarray], np.ndarray]

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.func(y)


_RK5_BUTCHER = ButcherTableau(
    name="rk5-butcher",
    declared_order=5,
    a=(
        (0, 0, 0, 0, 0, 0),
        ("2/5", 0, 0, 0, 0, 0),
        ("11/64", "5/64", 0, 0, 0, 0),
        (0, 0, "1/2", 0, 0, 0),
        ("3/64", "-15/64", "3/8", "9/16", 0, 0),
        (0, "5/7", "6/7", "-12/7", "8/7", 0),
    ),
    b=("7/90", 0, "32/90", "12/90", "32/90", "7/90"),
)

_RK7_BUTCHER = ButcherTableau(
    name="rk7-butcher",
    declared_order=7,
    a=(
        (0, 0, 0, 0, 0, 0, 0, 0, 0),
        ("1/6", 0, 0, 0, 0, 0, 0, 0, 0),
        (0, "1/3", 0, 0, 0, 0, 0, 0, 0),
        ("1/8", 0, "3/8", 0, 0, 0, 0, 0, 0),
        ("148/1331", 0, "150/1331", "-56/1331", 0, 0, 0, 0, 0),
        ("-404/243", 0, "-170/27", "4024/1701", "10648/1701", 0, 0, 0, 0),
        ("2466/2401", 0, "1242/343", "-19176/16807", "-51909/16807",
         "1053/2401", 0, 0, 0),
        ("5/154", 0, 0, "96/539", "-1815/20384", "-405/2464",
         "49/1144", 0, 0),
        ("-113/32", 0, "-195/22", "32/7", "29403/3584", "-729/512",
         "1029/1408", "21/16", 0),
    ),
    b=(0, 0, 0, "32/105", "1771561/6289920", "243/2560", "16807/74880",
       "77/1440", "11/270"),
)

_BUILTINS = {t.name: t for t in (_RK5_BUTCHER, _RK7_BUTCHER)}


def builtin_tableau(name: str) -> ButcherTableau:
    """The appendix tableaus by name: "rk5-butcher" or "rk7-butcher"."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown tableau {shown(name)}; builtins: {sorted(_BUILTINS)}") from None


@lru_cache(maxsize=None)
def _certify(tableau: ButcherTableau) -> bool:
    return has_order(tableau, tableau.declared_order)


@dataclass(frozen=True)
class IntegrationScheme:
    """A tableau certified (at construction) to satisfy its declared order's conditions."""

    tableau: ButcherTableau
    # float views of (A, b), precomputed with the nonzero structure
    _rows: tuple = field(init=False, repr=False, compare=False)
    _weights: tuple = field(init=False, repr=False, compare=False)
    _unweighted: frozenset = field(init=False, repr=False, compare=False)  # stages with b_i = 0

    def __post_init__(self):
        if not _certify(self.tableau):
            raise ValueError(f"tableau {self.tableau.name or '<anonymous>'} fails "
                             f"order-{self.tableau.declared_order} conditions")
        rows = tuple(
            tuple((j, float(aij)) for j, aij in enumerate(row) if aij != 0)
            for row in self.tableau.a
        )
        weights = tuple((i, float(bi)) for i, bi in enumerate(self.tableau.b) if bi != 0)
        unweighted = frozenset(i for i, bi in enumerate(self.tableau.b) if bi == 0)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_unweighted", unweighted)

    @property
    def stages(self) -> int:
        return self.tableau.stages


def scheme(name: str) -> IntegrationScheme:
    return IntegrationScheme(builtin_tableau(name))


def _combine(y0: np.ndarray, ks: list[np.ndarray], terms,
             tmp: np.ndarray, cols: int) -> np.ndarray:
    """y0 + c_1 k_1 + c_2 k_2 + ..., left to right, over the leading ``cols``
    coordinates, as one fresh array shaped like y0.

    Its later coordinates are left unset; with no terms y0 itself is
    returned.  tmp is scratch for each product; y0 and the ks are only read.
    """
    if not terms:
        return y0
    acc = np.empty_like(y0)
    head, part = acc[..., :cols], tmp[..., :cols]
    for n, (j, cj) in enumerate(terms):
        np.multiply(ks[j][..., :cols], cj, out=part)
        if n:
            head += part
        else:
            np.add(y0[..., :cols], part, out=head)
    return acc


def _failure(ks: list[np.ndarray], out: np.ndarray | None) -> IntegrationFailure:
    """The failure of a step: its first non-finite stage (else the result ``out``)
    and that array's first non-finite row."""
    stage = next((i + 1 for i, k in enumerate(ks) if not np.all(np.isfinite(k))), None)
    bad = out if stage is None else ks[stage - 1]
    path = None
    if bad.ndim > 1:
        path = int(np.flatnonzero(~np.isfinite(bad).reshape(len(bad), -1).all(axis=1))[0])
    return IntegrationFailure(stage, path)


def integrate(integ: IntegrationScheme, W, y0: np.ndarray,
              read_dim: int | None = None) -> np.ndarray:
    """The time-1 flow approximation g(W)(y0) = y0 + sum_i b_i W(Y_i): one
    explicit step of size 1, the scheme's defining form, whose one-step error
    bound is exactly what the splitting construction consumes.

    y0 may be a single state (N,) or a batch (P, N); W must broadcast
    accordingly.  Neither y0 nor any output of W is written to.  When W
    reads only the first ``read_dim`` coordinates of its input, each stage
    input Y_i is formed over those only and the rest of it is unspecified;
    the result covers all N (None: W reads every coordinate).  A non-finite
    value raises IntegrationFailure naming the first non-finite stage, as if
    every stage were screened when evaluated, and that stage's first
    non-finite row.  The screen runs once per step, on the result: a
    non-finite stage with a nonzero weight always makes the result
    non-finite, so only zero-weight stages are screened as they are
    evaluated.  A result that is non-finite although every stage is finite
    (an overflowing sum) raises with stage None.
    """
    y0 = np.asarray(y0, dtype=float)
    tmp = np.empty_like(y0)
    dim = y0.shape[-1]
    cols = dim if read_dim is None else read_dim
    ks: list[np.ndarray] = []
    for i, row in enumerate(integ._rows):
        ki = np.asarray(W(_combine(y0, ks, row, tmp, cols)), dtype=float)
        ks.append(ki)
        if i in integ._unweighted and not np.all(np.isfinite(ki)):
            raise _failure(ks, None)
    out = _combine(y0, ks, integ._weights, tmp, dim)
    if not np.all(np.isfinite(out)):
        raise _failure(ks, out)
    return out
