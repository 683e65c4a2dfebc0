import json
import re
from collections import Counter

import pytest

from ogmirror import potential
from ogmirror.diagrams import (
    StructuralError,
    add_box,
    add_unique_box,
    box_moves,
    full_columns,
    staircase_prefix,
)
from ogmirror.polynomials import QUANTUM, Polynomial, plucker_var, torus_var, variable_name
from ogmirror.potential import (
    SuperpotentialTerm,
    _term_seeds,
    box_derivation,
    denominator_pair_levels,
    numerator_pair_levels,
    plucker_poly,
    potential_term,
    potential_to_json,
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


@pytest.mark.parametrize("n", range(3, 10))
def test_denominator_levels_are_sorted(n):
    for i in range(2, n):
        for level in denominator_pair_levels(n, i):
            assert list(level) == sorted(level)


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


def _public_pair_levels(n, i):
    """Denominator levels by box_moves and promotions by add_box."""
    label = n + 1 - i
    levels, promotions = [], []
    level = {(staircase_prefix(n, i - 1), full_columns(n, i))}
    while level:
        levels.append(tuple(sorted(level)))
        promoted = set()
        for first, second in level:
            up_first, up_second = add_box(n, first, label), add_box(n, second, label)
            assert up_first is None or up_second is None
            if up_first is not None:
                promoted.add((up_first, second))
            elif up_second is not None:
                promoted.add((first, up_second))
        promotions.append(tuple(sorted(promoted)))
        level = {moved for pair in level for moved in box_moves(n, pair)}
    return tuple(levels), tuple(promotions)


@pytest.mark.parametrize("n", range(3, 11))
def test_pair_levels_match_the_public_box_calculus(n):
    for i in range(2, n):
        expected = _public_pair_levels(n, i)
        assert (denominator_pair_levels(n, i), numerator_pair_levels(n, i)) == expected


def test_numerator_promotion_faults_on_double_add(monkeypatch):
    # rank 4, index 3 then seeds the pair ((1,2,0,0), (1,2,0,0)), and label 2
    # is addable to both copies of (1,2,0,0)
    monkeypatch.setattr(potential, "full_columns", lambda n, i: (1, 2, 0, 0))
    potential._pair_levels.cache_clear()
    try:
        with pytest.raises(StructuralError, match="label 2 addable to both components"):
            numerator_pair_levels(4, 3)
    finally:
        potential._pair_levels.cache_clear()


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


def test_signed_pair_sum_makes_its_variables_from_int_rows():
    """Caller-built levels go through plucker_var: list rows name the tuple
    variable, and a float row raises instead of spelling a second one."""
    lists = (([1, 0, 0, 0], [1, 2, 2, 2]),)
    tuples = (((1, 0, 0, 0), (1, 2, 2, 2)),)
    assert signed_pair_sum((lists,)) == signed_pair_sum((tuples,))
    floats = (((1.0, 0, 0, 0), (1, 2, 2, 2)),)
    with pytest.raises(ValueError, match=r"^Plücker rows must be ints, got \(1\.0, 0, 0, 0\)$"):
        signed_pair_sum((floats,))


def exponent_counter_pair_sum(levels):
    """The reference signed_pair_sum: one exponent Counter per pair, each
    made canonical by the Polynomial constructor."""
    return Polynomial(
        (-1 if j % 2 else 1, Counter((plucker_var(first), plucker_var(second))))
        for j, level in enumerate(levels)
        for first, second in level
    )


@pytest.mark.parametrize("n", range(3, 11))
def test_signed_pair_sum_matches_exponent_counters(n):
    for i in range(2, n):
        for levels in (denominator_pair_levels(n, i), numerator_pair_levels(n, i)):
            assert signed_pair_sum(levels) == exponent_counter_pair_sum(levels)


def test_signed_pair_sum_matches_exponent_counters_on_cancellation_and_squares():
    low, high, other = (0, 0, 0, 0), (1, 2, 3, 4), (1, 1, 0, 0)
    levels = (
        ((low, high), (other, other), (high, other)),
        ((high, low), (other, low)),  # the first pair again, written the other way
        ((other, other), [list(low), list(other)]),
    )
    total = signed_pair_sum(levels)
    assert total == exponent_counter_pair_sum(levels)
    assert total == 2 * p(*other) ** 2 + p(*high) * p(*other)


def _reference_derivation(n, i, poly):
    """The derivation as a Leibniz rule over the public add_box, which
    validates every variable and label it reads: the oracle for
    box_derivation, which validates each variable once."""
    label = n + 1 - i
    terms = []
    for mono, coeff in poly.sorted_terms():
        for var, exp in mono:
            grown = add_box(n, var[1], label)
            if grown is not None:
                exps = Counter(dict(mono))
                exps[var] -= 1
                exps[plucker_var(grown)] += 1
                terms.append((coeff * exp, exps))
    return Polynomial(terms)


@pytest.mark.parametrize("n", range(2, 10))
def test_box_derivation_matches_a_leibniz_rule_over_add_box(n):
    for term in superpotential(n):
        for i in range(n + 1):
            derived = box_derivation(n, i, term.denominator)
            assert derived == _reference_derivation(n, i, term.denominator), (term.index, i)


def test_box_derivation_matches_the_reference_on_squares_and_bool_rows():
    # a raw variable with bool rows, not built by plucker_var, still has its
    # image spelt with ints
    raw = Polynomial.variable((plucker_var(())[0], (True, True, False, False)))
    cases = (p(1, 1, 0, 0) ** 2 * p(1, 2, 0, 0), raw, raw**2 * p(1, 2, 0, 0) - 3 * raw)
    for poly in cases:
        for i in range(5):
            assert box_derivation(4, i, poly) == _reference_derivation(4, i, poly), i
    assert box_derivation(4, 3, raw).to_text() == "p[1,1,1,0]"


def test_box_derivation_on_middle_denominator():
    phi = p(1, 2, 0, 0) * p(1, 2, 3, 3) - p(1, 1, 0, 0) * p(1, 2, 3, 4)
    expected = p(1, 2, 1, 0) * p(1, 2, 3, 3) - p(1, 1, 1, 0) * p(1, 2, 3, 4)
    assert box_derivation(4, 3, phi) == expected


def test_box_derivation_on_empty_diagram():
    assert box_derivation(4, 0, p(0, 0, 0, 0)) == p(1, 0, 0, 0)


def test_box_derivation_of_zero_and_constants():
    assert box_derivation(4, 2, Polynomial.zero()) == 0
    assert box_derivation(4, 2, Polynomial.constant(7)) == 0
    for i in range(5):  # an int is a constant
        assert box_derivation(4, i, 5) == box_derivation(4, i, 0) == 0


@pytest.mark.parametrize("operand, name", (("x", "str"), (1.5, "float")))
def test_box_derivation_refuses_other_operands(operand, name):
    with pytest.raises(TypeError) as raised:
        box_derivation(3, 1, operand)
    assert str(raised.value) == f"cannot differentiate a {name}: not a polynomial or an int"


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


def _seed_table(n):
    """Each term's seed diagrams, written out row by row."""

    def prefix(k):
        return tuple(range(1, k + 1)) + (0,) * (n - k)

    def columns(k):
        return tuple(min(r, k) for r in range(1, n + 1))

    table = {0: ((0,) * n,), 1: ((1,) * n,), n: (prefix(n - 1),), n + 1: (prefix(n),)}
    table.update({i: (prefix(i - 1), columns(i)) for i in range(2, n)})
    return table


@pytest.mark.parametrize("n", range(2, 13))
def test_term_seeds_are_the_seed_table_in_plain_ints(n):
    table = _seed_table(n)
    assert sorted(table) == list(range(n + 2))
    for i in (*table, False, True):  # a bool index gives its int's seeds
        seeds = _term_seeds(n, i)
        assert seeds == table[i]
        assert all(type(row) is int for seed in seeds for row in seed)


@pytest.mark.parametrize("n", range(3, 13))
def test_pair_levels_start_at_the_term_seeds(n):
    for i in range(2, n):
        assert denominator_pair_levels(n, i)[0] == (_term_seeds(n, i),)


@pytest.mark.parametrize("n", range(2, 13))
def test_boundary_terms_are_grown_from_their_seed(n):
    for i in (0, 1, n, n + 1):
        (seed,) = _term_seeds(n, i)
        term = potential_term(n, i)
        assert term.denominator == plucker_poly(seed)
        if i <= n:
            assert term.numerator == plucker_poly(add_unique_box(n, seed))


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


def json_document(terms):
    """The potential's JSON document, built from sorted_terms and variable_name."""

    def records(poly):
        return [
            {"coefficient": coeff, "exponents": {variable_name(var): exp for var, exp in mono}}
            for mono, coeff in poly.sorted_terms()
        ]

    return [
        {
            "index": term.index,
            "quantum": term.quantum,
            "numerator": records(term.numerator),
            "denominator": records(term.denominator),
        }
        for term in terms
    ]


def assert_json_writes_its_document(terms):
    text = potential_to_json(terms)
    document = json_document(terms)
    assert text == json.dumps(document, indent=2)
    assert json.loads(text) == document


@pytest.mark.parametrize("n", range(2, 12))
def test_potential_json_is_the_indented_dump_of_its_document(n):
    assert_json_writes_its_document(superpotential(n))


def test_potential_json_writes_edge_terms():
    a, b = plucker_var((1, 0, 0)), plucker_var((1, 2, 1))
    terms = [
        SuperpotentialTerm(0, Polynomial.zero(), Polynomial.one()),
        SuperpotentialTerm(
            1, Polynomial.term(-3, {a: 1, b: 2}), Polynomial.constant(10**30) - p(1, 1, 0)
        ),
        SuperpotentialTerm(2, Polynomial.term(7, {b: 2}), Polynomial.constant(-1)),
        potential_term(3, 4),
    ]
    assert_json_writes_its_document([])
    for term in terms:
        assert_json_writes_its_document([term])
    assert_json_writes_its_document(terms)


def test_a_bool_term_index_is_stored_as_its_int():
    term = potential_term(4, True)
    assert type(term.index) is int
    document = potential_to_json([term])
    assert '"index": 1,' in document
    assert json.loads(document)[0]["index"] == 1
