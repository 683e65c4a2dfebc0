import re

import pytest

from ogmirror import potential
from ogmirror.diagrams import (
    StructuralError,
    add_unique_box,
    box_moves,
    full_columns,
    staircase_prefix,
)
from ogmirror.polynomials import QUANTUM, Polynomial, plucker_var, torus_var
from ogmirror.potential import (
    box_derivation,
    denominator_pair_levels,
    numerator_pair_levels,
    plucker_poly,
    potential_term,
    signed_pair_sum,
    superpotential,
)


def p(*rows):
    return Polynomial.variable(plucker_var(rows))


def test_denominator_pair_levels_n4_i3():
    assert denominator_pair_levels(4, 3) == (
        (((1, 2, 0, 0), (1, 2, 3, 3)),),
        (((1, 1, 0, 0), (1, 2, 3, 4)),),
    )


def test_denominator_pair_levels_n4_i2():
    assert denominator_pair_levels(4, 2) == (
        (((1, 0, 0, 0), (1, 2, 2, 2)),),
        (((0, 0, 0, 0), (1, 2, 3, 2)),),
    )


@pytest.mark.parametrize("n", range(3, 8))
def test_denominator_levels_seed(n):
    for i in range(2, n):
        levels = denominator_pair_levels(n, i)
        assert levels[0] == ((staircase_prefix(n, i - 1), full_columns(n, i)),)


@pytest.mark.parametrize("n", range(3, 8))
def test_denominator_levels_terminate_within_bound(n):
    for i in range(2, n):
        levels = denominator_pair_levels(n, i)
        assert len(levels) <= i * (i - 1) // 2 + 1
        assert all(levels)


@pytest.mark.parametrize("n", range(3, 8))
def test_pair_appears_in_at_most_one_level(n):
    for i in range(2, n):
        seen = set()
        for level in denominator_pair_levels(n, i):
            for pair in level:
                assert pair not in seen
                seen.add(pair)


def test_numerator_pair_levels_n4_i3():
    assert numerator_pair_levels(4, 3) == (
        (((1, 2, 1, 0), (1, 2, 3, 3)),),
        (((1, 1, 1, 0), (1, 2, 3, 4)),),
    )


def test_numerator_pair_levels_n4_i2():
    assert numerator_pair_levels(4, 2) == (
        (((1, 1, 0, 0), (1, 2, 2, 2)),),
        (((0, 0, 0, 0), (1, 2, 3, 3)),),
    )


@pytest.mark.parametrize("n", range(3, 8))
def test_numerator_seed_is_unique_extension(n):
    for i in range(2, n):
        levels = numerator_pair_levels(n, i)
        expected = (add_unique_box(n, staircase_prefix(n, i - 1)), full_columns(n, i))
        assert levels[0] == (expected,)


def test_numerator_promotion_faults_on_double_add(monkeypatch):
    # label 2 is addable to both copies of (1,2,0,0) at rank 4
    crafted = ((((1, 2, 0, 0), (1, 2, 0, 0)),),)
    potential.numerator_pair_levels.cache_clear()
    monkeypatch.setattr(potential, "denominator_pair_levels", lambda n, i: crafted)
    with pytest.raises(StructuralError):
        numerator_pair_levels(4, 3)


def test_signed_pair_sum_alternates():
    levels = (
        (((1, 0, 0, 0), (1, 2, 2, 2)),),
        (((0, 0, 0, 0), (1, 2, 3, 2)),),
    )
    expected = p(1, 0, 0, 0) * p(1, 2, 2, 2) - p(0, 0, 0, 0) * p(1, 2, 3, 2)
    assert signed_pair_sum(levels) == expected


def test_signed_pair_sum_combines_like_terms():
    pair = ((1, 0, 0, 0), (1, 2, 2, 2))
    assert signed_pair_sum(((pair,), (pair,))) == 0
    square = ((1, 1, 0, 0), (1, 1, 0, 0))
    assert signed_pair_sum(((square,),)) == p(1, 1, 0, 0) ** 2


def test_box_derivation_on_middle_denominator():
    phi = p(1, 2, 0, 0) * p(1, 2, 3, 3) - p(1, 1, 0, 0) * p(1, 2, 3, 4)
    expected = p(1, 2, 1, 0) * p(1, 2, 3, 3) - p(1, 1, 1, 0) * p(1, 2, 3, 4)
    assert box_derivation(4, 3, phi) == expected


def test_box_derivation_on_empty_diagram():
    assert box_derivation(4, 0, p(0, 0, 0, 0)) == p(1, 0, 0, 0)


def test_box_derivation_of_zero_and_constants():
    assert box_derivation(4, 2, Polynomial.zero()) == 0
    assert box_derivation(4, 2, Polynomial.constant(7)) == 0


def test_box_derivation_leibniz_on_powers():
    square = p(1, 1, 0, 0) * p(1, 1, 0, 0)
    assert box_derivation(4, 3, square) == 2 * p(1, 1, 0, 0) * p(1, 1, 1, 0)


def test_box_derivation_rejects_other_variables():
    with pytest.raises(ValueError):
        box_derivation(4, 1, Polynomial.variable(torus_var(1, 1)))
    with pytest.raises(ValueError):
        box_derivation(4, 1, Polynomial.variable(QUANTUM) * p(1, 0, 0, 0))
    with pytest.raises(ValueError):
        box_derivation(4, 5, p(1, 0, 0, 0))


@pytest.mark.parametrize("rows", ((1, 1), (2, 0, 0, 0), (1, 1, 0, 0, 0)))
def test_box_derivation_rejects_variables_that_are_not_diagrams(rows):
    # the short spelling p[1,1] of p[1,1,0,0] included, as restriction does
    name = "p[" + ",".join(map(str, rows)) + "]"
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} is not a diagram of rank 4$"):
        box_derivation(4, 3, p(1, 2, 0, 0) * p(*rows))


def test_potential_term_goldens_n4():
    quantum = potential_term(4, 5)
    assert quantum.quantum
    assert quantum.numerator == Polynomial.variable(QUANTUM) * p(1, 2, 0, 0)
    assert quantum.denominator == p(1, 2, 3, 4)

    first = potential_term(4, 1)
    assert first.numerator == p(1, 2, 1, 1)
    assert first.denominator == p(1, 1, 1, 1)

    last = potential_term(4, 4)
    assert last.numerator == p(1, 2, 3, 1)
    assert last.denominator == p(1, 2, 3, 0)


def test_superpotential_n4_matches_display():
    terms = superpotential(4)
    assert [term.quantum for term in terms] == [False] * 5 + [True]
    assert terms[0].numerator == p(1, 0, 0, 0)
    assert terms[0].denominator == p(0, 0, 0, 0)
    assert terms[2].numerator == p(1, 1, 0, 0) * p(1, 2, 2, 2) - p(0, 0, 0, 0) * p(1, 2, 3, 3)
    assert terms[2].denominator == p(1, 0, 0, 0) * p(1, 2, 2, 2) - p(0, 0, 0, 0) * p(1, 2, 3, 2)
    assert terms[3].numerator == p(1, 2, 1, 0) * p(1, 2, 3, 3) - p(1, 1, 1, 0) * p(1, 2, 3, 4)
    assert terms[3].denominator == p(1, 2, 0, 0) * p(1, 2, 3, 3) - p(1, 1, 0, 0) * p(1, 2, 3, 4)


def test_superpotential_n2():
    terms = superpotential(2)
    assert len(terms) == 4
    assert terms[0].numerator == p(1, 0) and terms[0].denominator == p(0, 0)
    assert terms[1].numerator == p(1, 2) and terms[1].denominator == p(1, 1)
    assert terms[2].numerator == p(1, 1) and terms[2].denominator == p(1, 0)
    assert terms[3].numerator == Polynomial.variable(QUANTUM) * p(0, 0)
    assert terms[3].denominator == p(1, 2)
    assert all(term.denominator.plucker_degree() == 1 for term in terms)


@pytest.mark.parametrize("n", range(2, 13))
def test_boundary_terms_in_closed_form(n):
    """Terms 0, 1 and n are one Plücker variable over another."""
    prefix = tuple(range(1, n))
    rows = {
        0: ((1,) + (0,) * (n - 1), (0,) * n),
        1: ((1, 2) + (1,) * (n - 2), (1,) * n),
        n: (prefix + (1,), prefix + (0,)),
    }
    for i, (numerator, denominator) in rows.items():
        term = potential_term(n, i)
        assert (term.numerator, term.denominator) == (p(*numerator), p(*denominator))


def test_superpotential_n3_degrees():
    degrees = [term.denominator.plucker_degree() for term in superpotential(3)]
    assert degrees == [1, 1, 2, 1, 1]


@pytest.mark.parametrize("n", range(2, 8))
def test_denominator_degrees_sum_to_2n(n):
    terms = superpotential(n)
    assert sum(term.denominator.plucker_degree() for term in terms) == 2 * n
    for term in terms:
        assert term.numerator.plucker_degree() == term.denominator.plucker_degree()


@pytest.mark.parametrize("n", range(2, 8))
def test_numerator_is_derived_denominator(n):
    for term in superpotential(n)[: n + 1]:
        assert box_derivation(n, term.index, term.denominator) == term.numerator


def test_term_index_errors():
    with pytest.raises(ValueError):
        potential_term(4, -1)
    with pytest.raises(ValueError):
        potential_term(4, 6)
    with pytest.raises(ValueError):
        denominator_pair_levels(4, 4)
    with pytest.raises(ValueError):
        denominator_pair_levels(2, 2)


@pytest.mark.parametrize("n", range(2, 7))
def test_vanished_derivation_stays_zero_along_moves(n):
    # once the derivation kills a pair product, it kills all its move-descendants
    for i in range(2, n):
        seen = {}

        def vanishes(pair):
            if pair not in seen:
                product = plucker_poly(pair[0]) * plucker_poly(pair[1])
                seen[pair] = not box_derivation(n, i, product)
            return seen[pair]

        stack = [(staircase_prefix(n, i - 1), full_columns(n, i))]
        visited = set()
        while stack:
            pair = stack.pop()
            if pair in visited:
                continue
            visited.add(pair)
            children = box_moves(n, pair)
            if vanishes(pair):
                assert all(vanishes(child) for child in children)
            stack.extend(children)
