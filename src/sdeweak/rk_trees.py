"""Rooted-tree combinatorics and exact Runge-Kutta order conditions.

Non-labelled rooted trees are kept in a canonical form (children sorted under
a total order), so structural equality is tree isomorphism.  The symmetry
factor sigma, the density gamma and the stage derivative weights zeta_i are
combined into the classical order conditions 1/(sigma gamma) = Phi/sigma,
checked in exact rational arithmetic so that certification is an equality
test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .refusal import shown


class Tree:
    """A non-labelled rooted tree; children stored sorted, so equality = isomorphism."""

    __slots__ = ("children", "order", "_key", "_hash")

    def __init__(self, children: Iterable["Tree"] = ()):
        kids = tuple(sorted(children, key=lambda t: t._key))
        object.__setattr__(self, "children", kids)
        object.__setattr__(self, "order", 1 + sum(c.order for c in kids))
        object.__setattr__(self, "_key", (self.order, tuple(c._key for c in kids)))
        object.__setattr__(self, "_hash", hash(self._key))

    def __setattr__(self, *_):
        raise AttributeError("Tree is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Tree) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self.children:
            return "t"
        return "[" + "".join(str(c) for c in self.children) + "]"


TAU = Tree()


@lru_cache(maxsize=None)
def trees_of_order(m: int) -> tuple[Tree, ...]:
    """All non-labelled rooted trees with exactly m vertices, canonically ordered."""
    if m < 1:
        raise ValueError("order must be >= 1")
    if m == 1:
        return (TAU,)
    pool: list[Tree] = []
    for k in range(1, m):
        pool.extend(trees_of_order(k))

    found: list[Tree] = []

    def extend(budget: int, start: int, chosen: list[Tree]) -> None:
        if budget == 0:
            found.append(Tree(chosen))
            return
        for i in range(start, len(pool)):
            c = pool[i]
            if c.order > budget:
                continue
            chosen.append(c)
            extend(budget - c.order, i, chosen)
            chosen.pop()

    extend(m - 1, 0, [])  # non-decreasing pool indices: each child multiset once
    return tuple(sorted(found, key=lambda t: t._key))


def trees_up_to(max_order: int) -> list[Tree]:
    """Trees of order 1..max_order, by order; one representative per isomorphism class."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    return [t for m in range(1, max_order + 1) for t in trees_of_order(m)]


@lru_cache(maxsize=None)
def sigma(t: Tree) -> int:
    """Symmetry factor: product over distinct children of m! sigma(child)^m."""
    out = 1
    for child, run in itertools.groupby(t.children):  # equal children are adjacent
        m = len(list(run))
        out *= math.factorial(m) * sigma(child) ** m
    return out


@lru_cache(maxsize=None)
def _density(t: Tree) -> int:
    """Product of subtree sizes (the tree density gamma)."""
    return t.order * math.prod(_density(c) for c in t.children)


# ---------------------------------------------------------------------------
# Butcher tableaus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ButcherTableau:
    """An explicit Runge-Kutta coefficient pair (A, b) with exact rational entries.

    The hash is computed once: the order checks' caches look a tableau up
    for every tree, and hashing its Fractions anew each time would dominate.
    """

    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    declared_order: int
    name: str = ""
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = tuple(tuple(Fraction(x) for x in row) for row in self.a)
        b = tuple(Fraction(x) for x in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        k = len(b)
        if len(a) != k or any(len(row) != k for row in a):
            raise ValueError("A must be KxK with K = len(b)")
        for i in range(k):
            for j in range(i, k):
                if a[i][j] != 0:
                    raise ValueError(f"not explicit: a[{i + 1}][{j + 1}] != 0")
        object.__setattr__(self, "_hash", hash((a, b, self.declared_order, self.name)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def stages(self) -> int:
        return len(self.b)

    @classmethod
    def from_mapping(cls, data: dict) -> "ButcherTableau":
        """Build from a JSON-style dict with rational strings such as "11/64"."""
        if not isinstance(data, dict):
            raise ValueError(f"a tableau must be a JSON object, got {type(data).__name__}")
        missing = [key for key in ("a", "b", "order") if key not in data]
        if missing:
            raise ValueError(f"missing key(s) {', '.join(missing)}")
        a = tuple(tuple(_entry(x) for x in row) for row in data["a"])
        b = tuple(_entry(x) for x in data["b"])
        try:
            order = int(data["order"])
        except (TypeError, ValueError):
            raise ValueError(f"order must be an integer, got {shown(data['order'])}") from None
        return cls(a=a, b=b, declared_order=order, name=data.get("name", ""))


def _entry(x) -> Fraction:
    """A tableau file's entry: a rational string such as "11/64", or a number."""
    try:
        return Fraction(str(x))
    except ValueError:
        raise ValueError(f"a tableau entry must be a rational number, got {shown(x)}") from None


def _stage_sum(weights: tuple[Fraction, ...], child_weights: list) -> Fraction:
    """sum_j w_j prod_k zeta_j(t_k) over the stages j, for a tree's children's weights.

    The sum starts at Fraction(0), so all-zero weights still give a Fraction.
    """
    acc = Fraction(0)
    for j, w in enumerate(weights):
        if w:
            for cw in child_weights:
                w *= cw[j]
            acc += w
    return acc


@lru_cache(maxsize=None)
def elementary_weight(t: Tree, tableau: ButcherTableau) -> tuple[Fraction, ...]:
    """The derivative weights zeta_i(t; A), one per stage.

    zeta_i(tau) = sum_j a_ij; zeta_i([t_1..t_l]) = sum_j a_ij prod_k zeta_j(t_k).
    """
    child_weights = [elementary_weight(c, tableau) for c in t.children]
    return tuple(_stage_sum(row, child_weights) for row in tableau.a)


@dataclass(frozen=True)
class OrderCondition:
    """One order condition 1/(sigma(t) gamma(t)) = (sum_i b_i prod_k zeta_i(t_k)) / sigma(t)."""

    tree: Tree
    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def check_order(tableau: ButcherTableau, m: int) -> list[OrderCondition]:
    """Evaluate every order condition for trees with at most m vertices.

    For t = [t_1 ... t_l] the right side uses the children's weights at the
    summation stage; the empty product for tau reduces to sum_i b_i = 1.
    """
    reports = []
    for t in trees_up_to(m):
        child_weights = [elementary_weight(c, tableau) for c in t.children]
        reports.append(OrderCondition(
            tree=t,
            lhs=Fraction(1, sigma(t) * _density(t)),
            rhs=_stage_sum(tableau.b, child_weights) / sigma(t),
        ))
    return reports


def has_order(tableau: ButcherTableau, m: int) -> bool:
    return all(c.passed for c in check_order(tableau, m))
