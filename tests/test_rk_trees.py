import math
from collections import Counter
from fractions import Fraction

import pytest

from sdeweak.rk_trees import (
    TAU,
    ButcherTableau,
    Tree,
    _density,
    check_order,
    elementary_weight,
    has_order,
    sigma,
    trees_of_order,
    trees_up_to,
)
from sdeweak.rk_integrator import builtin_tableau


def labelled_trees(n: int):
    """Every monotone labelled rooted tree on vertices 1..n, as a canonical Tree.

    Vertex k's parent is any vertex with a smaller label, so there are (n-1)!
    of them; this is the brute-force oracle for alpha(t) = r!/(sigma gamma),
    the number of monotone labellings of t.
    """
    def build(parents):
        kids = {v: [] for v in range(1, n + 1)}
        for child, parent in parents.items():
            kids[parent].append(child)

        def shape(v):
            return Tree([shape(c) for c in kids[v]])

        return shape(1)

    def rec(k, parents):
        if k > n:
            yield build(parents)
            return
        for p in range(1, k):
            parents[k] = p
            yield from rec(k + 1, parents)
        parents.pop(k, None)

    yield from rec(2, {})


class TestEnumeration:
    def test_counts_through_order_seven(self):
        assert [len(trees_of_order(m)) for m in range(1, 8)] == [1, 1, 2, 4, 9, 20, 48]
        assert len(trees_up_to(7)) == 85
        assert len(trees_up_to(5)) == 17

    def test_order_one(self):
        assert trees_of_order(1) == (TAU,)

    def test_order_three(self):
        bushy = Tree([TAU, TAU])
        chain = Tree([Tree([TAU])])
        assert set(trees_of_order(3)) == {bushy, chain}

    def test_child_permutation_is_same_tree(self):
        t1, t2 = Tree([TAU]), Tree([TAU, TAU])
        assert Tree([t1, t2]) == Tree([t2, t1])
        assert hash(Tree([t1, t2])) == hash(Tree([t2, t1]))

    def test_completeness_against_bruteforce(self):
        # every labelled-tree shape on m vertices appears exactly once
        for m in range(1, 7):
            shapes = set(labelled_trees(m))
            assert shapes == set(trees_of_order(m))


def condition_lhs(t: Tree) -> Fraction:
    """The left side 1/(sigma gamma) that check_order reports for t."""
    report = check_order(builtin_tableau("rk5-butcher"), t.order)
    return next(c.lhs for c in report if c.tree == t)


class TestAlphaSigma:
    def test_lhs_single_vertex(self):
        assert condition_lhs(TAU) == 1

    def test_lhs_cherry_with_leaf(self):
        assert condition_lhs(Tree([TAU, Tree([TAU])])) == Fraction(1, 8)

    def test_lhs_four_chain(self):
        chain = Tree([Tree([Tree([TAU])])])
        assert condition_lhs(chain) == Fraction(1, 24)

    def test_sigma_values(self):
        assert sigma(TAU) == 1
        assert sigma(Tree([TAU, TAU])) == 2
        assert sigma(Tree([TAU, Tree([TAU])])) == 1

    def test_alpha_matches_labelling_enumeration(self):
        for m in range(1, 7):
            counts = Counter(labelled_trees(m))
            for t in trees_of_order(m):
                assert math.factorial(m) == counts[t] * sigma(t) * _density(t), str(t)

    def test_alpha_sums_to_monotone_tree_count(self):
        for m in range(1, 7):
            total = sum(Fraction(math.factorial(m), sigma(t) * _density(t))
                        for t in trees_of_order(m))
            assert total == math.factorial(m - 1)


class TestElementaryWeight:
    def test_tau_gives_row_sums(self):
        tab = builtin_tableau("rk5-butcher")
        zeta = elementary_weight(TAU, tab)
        assert zeta == tuple(sum(row) for row in tab.a)
        assert zeta[1] == Fraction(2, 5)

    def test_zero_matrix_gives_zero(self):
        tab = ButcherTableau(a=((0, 0), (0, 0)), b=(1, 0), declared_order=1)
        for t in trees_up_to(4):
            assert all(z == 0 for z in elementary_weight(t, tab))


class TestTableauValidation:
    def test_non_explicit_rejected(self):
        with pytest.raises(ValueError):
            ButcherTableau(a=((Fraction(1), 0), (0, 0)), b=(1, 0), declared_order=1)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            ButcherTableau(a=((0,),), b=(1, 0), declared_order=1)

    def test_from_mapping_rational_strings(self):
        tab = ButcherTableau.from_mapping(
            {"order": 2, "a": [["0", "0"], ["1/2", "0"]], "b": ["0", "1"]}
        )
        assert tab.a[1][0] == Fraction(1, 2)
        assert has_order(tab, 2)


class TestTableauHash:
    def test_hash_follows_equality(self):
        rk5 = builtin_tableau("rk5-butcher")
        copy = ButcherTableau(a=rk5.a, b=rk5.b, declared_order=5, name="rk5-butcher")
        assert copy == rk5 and hash(copy) == hash(rk5)
        other = ButcherTableau(a=rk5.a, b=rk5.b, declared_order=5, name="other")
        assert other != rk5

    def test_hash_reads_no_fraction(self, monkeypatch):
        # computed once, when the tableau is built; the order checks' caches
        # look it up for every tree
        rk7 = builtin_tableau("rk7-butcher")
        calls = []
        fraction_hash = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__",
                            lambda self: calls.append(1) or fraction_hash(self))
        assert hash(rk7) == hash(rk7)
        assert calls == []


class TestCheckOrder:
    def test_rk5_passes_all_seventeen(self):
        report = check_order(builtin_tableau("rk5-butcher"), 5)
        assert len(report) == 17
        assert all(c.passed for c in report)

    def test_rk5_fails_at_six(self):
        report = check_order(builtin_tableau("rk5-butcher"), 6)
        assert any(not c.passed for c in report)

    def test_rk7_passes_all_eightyfive(self):
        report = check_order(builtin_tableau("rk7-butcher"), 7)
        assert len(report) == 85
        assert all(c.passed for c in report)

    def test_b_sums_to_one_for_builtins(self):
        for name in ("rk5-butcher", "rk7-butcher"):
            assert sum(builtin_tableau(name).b) == 1

    def test_midpoint_has_order_two_not_three(self):
        mid = ButcherTableau(a=((0, 0), (Fraction(1, 2), 0)), b=(0, 1), declared_order=2)
        assert has_order(mid, 2)
        assert not has_order(mid, 3)
