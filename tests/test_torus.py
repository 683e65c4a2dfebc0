import functools
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from _bruteforce import (
    chart_word,
    column_cells,
    enumerate_restrictions,
    random_cells,
    subsequence_count,
)
from _polynomial_reference import (
    reference_laurent,
    reference_restrict,
    reference_restrict_all,
    reference_term_sum,
)
from ogmirror.diagrams import all_diagrams, box_count, box_label, staircase, staircase_prefix
from ogmirror.polynomials import (
    QUANTUM,
    Polynomial,
    RationalExpression,
    plucker_var,
    torus_var,
)
from ogmirror import diagrams, torus
from ogmirror.potential import potential_term, superpotential
from ogmirror.torus import (
    _FIELD_MAX,
    _Packed,
    _path_sums,
    coordinate_sum,
    laurent_potential,
    predicted_denominator_restriction,
    reduced_word,
    restrict_all,
    restrict_plucker,
    restrict_polynomial,
    restricted_term_sum,
    restriction_residuals,
    term_restriction_factor,
    term_restriction_residual,
    verify_term_restriction,
)


def a(i, j):
    return Polynomial.variable(torus_var(i, j))


def p(*rows):
    return Polynomial.variable(plucker_var(rows))


def _field_variables(n):
    """q, then the rank-n coordinates in (label, column) order: one per field."""
    return [QUANTUM] + [torus_var(*box) for box in sorted(reduced_word(n))]


def _decode(packed):
    """The plain Polynomial a packed one stands for, read field by field."""
    variables = _field_variables(packed.n)
    assert all(key >> 8 * len(variables) == 0 for key in packed.terms)
    return Polynomial(
        (coeff, {var: key >> 8 * field & 0xFF for field, var in enumerate(variables)})
        for key, coeff in packed.terms.items()
    )


def _largest_exponent(packed):
    """The largest byte-wide field of any key of a packed polynomial."""
    count = len(_field_variables(packed.n))
    return max((max(key.to_bytes(count, "little")) for key in packed.terms), default=0)


# the rank-4 torus restriction of phi_3, frozen from the worked example
EQ2 = Polynomial.term(
    1,
    {
        torus_var(5, 1): 2,
        torus_var(3, 1): 2,
        torus_var(4, 2): 2,
        torus_var(2, 1): 1,
        torus_var(3, 2): 1,
        torus_var(5, 3): 1,
        torus_var(1, 1): 1,
        torus_var(2, 2): 1,
        torus_var(3, 3): 1,
    },
)


def test_reduced_word_n4_golden():
    assert reduced_word(4) == (
        (5, 1), (3, 1), (4, 2), (2, 1), (3, 2), (5, 3), (1, 1), (2, 2), (3, 3), (4, 4),
    )


def test_reduced_word_n2():
    assert reduced_word(2) == ((3, 1), (1, 1), (2, 2))


@pytest.mark.parametrize("n", range(2, 9))
def test_reduced_word_reads_the_staircase(n):
    word = reduced_word(n)
    assert len(word) == n * (n + 1) // 2
    staircase_boxes = sorted(
        (box_label(n, r, c), c) for r in range(1, n + 1) for c in range(1, r + 1)
    )
    assert sorted(word) == staircase_boxes


def test_restrict_plucker_goldens():
    assert restrict_plucker(4, (1, 2, 0, 0)) == (
        a(5, 1) * (a(3, 1) * a(4, 2) + a(3, 1) * a(4, 4) + a(3, 2) * a(4, 4) + a(3, 3) * a(4, 4))
        + a(5, 3) * a(3, 3) * a(4, 4)
    )
    assert restrict_plucker(4, (1, 1, 0, 0)) == (
        a(5, 1) * (a(3, 1) + a(3, 2) + a(3, 3)) + a(5, 3) * a(3, 3)
    )
    assert restrict_plucker(4, (1, 2, 3, 3)) == (
        a(5, 1) * a(3, 1) * a(4, 2) * a(2, 1) * a(3, 2) * a(5, 3) * a(1, 1) * a(2, 2) * a(3, 3)
    )
    assert restrict_plucker(4, (1, 2, 3, 4)) == (
        a(5, 1) * a(3, 1) * a(4, 2) * a(2, 1) * a(3, 2)
        * a(5, 3) * a(1, 1) * a(2, 2) * a(3, 3) * a(4, 4)
    )
    assert restrict_plucker(4, (0, 0, 0, 0)) == 1


def test_restrict_plucker_numerator_goldens():
    assert restrict_plucker(4, (1, 2, 1, 0)) == a(5, 1) * (
        a(3, 1) * a(4, 2) * (a(2, 1) + a(2, 2))
        + a(3, 1) * a(4, 4) * (a(2, 1) + a(2, 2))
        + a(3, 2) * a(4, 4) * a(2, 2)
    )
    assert restrict_plucker(4, (1, 1, 1, 0)) == (
        a(5, 1) * a(3, 1) * (a(2, 1) + a(2, 2)) + a(5, 1) * a(3, 2) * a(2, 2)
    )


def test_restrict_polynomial_middle_denominator_is_monomial():
    phi = potential_term(4, 3).denominator
    assert restrict_polynomial(4, phi) == EQ2
    assert predicted_denominator_restriction(4, 3) == EQ2


def test_restrict_polynomial_derived_numerator_factors():
    term = potential_term(4, 3)
    assert restrict_polynomial(4, term.numerator) == EQ2 * (a(2, 1) + a(2, 2))


def test_restrict_polynomial_constant_and_quantum():
    assert restrict_polynomial(4, Polynomial.one()) == 1
    quantum_times_plucker = Polynomial.variable(QUANTUM) * p(1, 2, 0, 0)
    assert restrict_polynomial(4, quantum_times_plucker) == (
        Polynomial.variable(QUANTUM) * restrict_plucker(4, (1, 2, 0, 0))
    )


def test_restrict_polynomial_rejects_torus_input():
    with pytest.raises(ValueError):
        restrict_polynomial(4, a(1, 1))


@pytest.mark.parametrize("rows", ((1, 1, 0), (2, 0, 0, 0), (1, 1, 0, 0, 0)))
def test_restrict_polynomial_rejects_variables_that_are_not_diagrams(rows):
    name = "p[" + ",".join(map(str, rows)) + "]"
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} is not a diagram of rank 4$"):
        restrict_polynomial(4, p(1, 1, 0, 0) * p(*rows))


def test_predicted_denominator_boundaries():
    assert predicted_denominator_restriction(4, 0) == 1
    full = Polynomial.one()
    for label, col in reduced_word(4):
        full = full * a(label, col)
    assert predicted_denominator_restriction(4, 5) == full
    column_one = a(5, 1) * a(3, 1) * a(2, 1) * a(1, 1)
    assert predicted_denominator_restriction(4, 1) == column_one
    first_six = a(5, 1) * a(3, 1) * a(4, 2) * a(2, 1) * a(3, 2) * a(5, 3)
    assert predicted_denominator_restriction(4, 4) == first_six


@pytest.mark.parametrize("n", range(2, 7))
def test_denominators_restrict_to_predicted_monomials(n):
    for term in superpotential(n):
        assert restrict_polynomial(n, term.denominator) == (
            predicted_denominator_restriction(n, term.index)
        )


def test_term_restriction_factors_n4():
    assert term_restriction_factor(4, 3) == a(2, 1) + a(2, 2)
    assert term_restriction_factor(4, 0) == a(5, 1) + a(5, 3)


def test_verify_term_restriction_examples():
    assert verify_term_restriction(4, 3)
    assert verify_term_restriction(4, 0)
    for i in range(3):
        assert verify_term_restriction(2, i)
    assert term_restriction_residual(3, 2) == 0


def test_coordinate_sum_shape():
    for n in (2, 3, 4):
        total = coordinate_sum(n)
        assert total.term_count() == n * (n + 1) // 2
        assert all(coeff == 1 for _, coeff in total.sorted_terms())


def test_laurent_potential_n2_explicit():
    full = a(3, 1) * a(1, 1) * a(2, 2)
    coords = a(3, 1) + a(1, 1) + a(2, 2)
    expected = RationalExpression(
        coords * full + Polynomial.variable(QUANTUM), full
    )
    assert laurent_potential(2) == expected


def test_laurent_potential_n4_quantum_part():
    full = restrict_plucker(4, staircase(4))
    expected = RationalExpression(
        coordinate_sum(4) * full
        + Polynomial.variable(QUANTUM) * restrict_plucker(4, (1, 2, 0, 0)),
        full,
    )
    assert laurent_potential(4) == expected


@pytest.mark.parametrize("n", range(2, 10))
def test_laurent_potential_packs_like_its_closed_form(n):
    """Numerator and denominator carry exactly the closed form's packed
    terms and bounds, which cross-multiplied equality would not see."""
    full = restrict_plucker(n, staircase(n))
    prefix = restrict_plucker(n, staircase_prefix(n, n - 2))
    quantum = _Packed(n, {1: 1}, 1) * prefix
    expected = RationalExpression(coordinate_sum(n) * full + quantum, full)
    actual = laurent_potential(n)
    for part in ("numerator", "denominator"):
        got, want = getattr(actual, part), getattr(expected, part)
        assert (got.terms, got.bound) == (want.terms, want.bound)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_restricted_term_sum_matches_laurent(n):
    assert restricted_term_sum(n) == laurent_potential(n)


@pytest.mark.parametrize("n", range(2, 6))
def test_restriction_monomials_count_boxes(n):
    for rows in all_diagrams(n):
        restricted = restrict_plucker(n, rows)
        assert restricted
        for mono, coeff in restricted.sorted_terms():
            assert coeff >= 1
            assert sum(exp for _, exp in mono) == box_count(rows)


@pytest.mark.parametrize("n", range(2, 6))
def test_staircase_restriction_is_squarefree_monomial(n):
    restricted = restrict_plucker(n, staircase(n))
    assert restricted.term_count() == 1
    ((mono, coeff),) = restricted.sorted_terms()
    assert coeff == 1
    assert all(exp == 1 for _, exp in mono)
    assert len(mono) == n * (n + 1) // 2


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_path_sum_matches_bruteforce_small(n):
    oracle = enumerate_restrictions(n)
    for rows in all_diagrams(n):
        assert restrict_plucker(n, rows) == oracle[rows]


@pytest.mark.parametrize("n", range(2, 7))
def test_packed_restrictions_decode_to_polynomial_reference(n):
    table = reference_restrict_all(n)
    assert set(restrict_all(n)) == set(table)
    for rows, expected in table.items():
        assert restrict_plucker(n, rows).sorted_terms() == expected.sorted_terms()
    for term in superpotential(n):
        for poly in (term.numerator, term.denominator):
            assert restrict_polynomial(n, poly).sorted_terms() == (
                reference_restrict(n, table, poly).sorted_terms()
            )
    for packed, expected in (
        (restricted_term_sum(n), reference_term_sum(n, table)),
        (laurent_potential(n), reference_laurent(n, table)),
    ):
        assert packed.numerator.sorted_terms() == expected.numerator.sorted_terms()
        assert packed.denominator.sorted_terms() == expected.denominator.sorted_terms()


# Four products whose alternating sum is a spinor quadric: nonzero in the
# Plücker variables, zero on OG (which at n = 3 is a quadric in P^7).
_QUADRIC_PAIRS = {
    3: (
        ((0, 0, 0), (1, 2, 3)),
        ((1, 0, 0), (1, 2, 2)),
        ((1, 1, 0), (1, 2, 1)),
        ((1, 1, 1), (1, 2, 0)),
    ),
    4: (
        ((0, 0, 0, 0), (1, 2, 3, 2)),
        ((1, 0, 0, 0), (1, 2, 2, 2)),
        ((1, 1, 1, 0), (1, 2, 1, 1)),
        ((1, 1, 1, 1), (1, 2, 1, 0)),
    ),
}


def _restriction_shapes(n):
    """Polynomials of shapes the battery never forms, from a seeded sweep:
    zero, constants, single variables, squares of Plücker variables, powers
    of q, monomials of degree 3, signed sums, and at n = 3 and 4 sums whose
    restrictions cancel in whole or in part."""
    rng = random.Random(n)
    variables = [plucker_var(rows) for rows in all_diagrams(n)] + [QUANTUM]

    def monomial(degree):
        coeff = rng.choice([c for c in range(-5, 6) if c])
        return Polynomial.term(coeff, Counter(rng.choices(variables, k=degree)))

    shapes = [Polynomial.zero(), Polynomial.constant(1), Polynomial.constant(-7)]
    shapes += [Polynomial.variable(var) for var in variables]
    shapes += [Polynomial.variable(var, 2) for var in variables]
    shapes += [Polynomial.variable(QUANTUM, power) for power in (3, 7)]
    shapes += [monomial(3) for _ in range(12)]
    for _ in range(12):
        shapes.append(sum((monomial(rng.randint(0, 3)) for _ in range(4)), 0))
    if n in _QUADRIC_PAIRS:
        quadric = sum(
            (-1) ** k * p(*first) * p(*second)
            for k, (first, second) in enumerate(_QUADRIC_PAIRS[n])
        )
        shapes += [quadric, 3 * quadric * Polynomial.variable(rng.choice(variables))]
        shapes += [quadric + monomial(2) for _ in range(4)]
    return shapes


def _expected_bound(poly):
    """The largest sum of factor bounds over the monomials: 1 for q and for
    every Plücker variable but the empty diagram's, which restricts to 1."""
    return max(
        (
            sum(exp for var, exp in mono if var == QUANTUM or any(var[1]))
            for mono, _ in poly.sorted_terms()
        ),
        default=0,
    )


@pytest.mark.parametrize("n", range(2, 6))
def test_restriction_of_shapes_the_battery_never_forms(n):
    table = reference_restrict_all(n)
    cancelled = 0
    for poly in _restriction_shapes(n):
        restricted = restrict_polynomial(n, poly)
        expected = reference_restrict(n, table, poly)
        assert restricted.sorted_terms() == expected.sorted_terms()
        assert restricted == expected
        assert 0 not in restricted.terms.values()
        assert restricted.bound == _expected_bound(poly)
        cancelled += bool(poly) and not restricted
    # the quadric and its multiple restrict to zero
    assert cancelled == (2 if n in _QUADRIC_PAIRS else 0)


@pytest.mark.parametrize("n", range(2, 9))
def test_single_target_path_sums_match_restrict_all(n):
    table = restrict_all(n)
    assert list(table) == list(all_diagrams(n))
    for rows in all_diagrams(n):
        (single,) = _path_sums(n, (rows,)).values()
        assert single == table[rows]
        assert single.bound == table[rows].bound
    # a target set returns exactly its targets
    some = all_diagrams(n)[1::3]
    picked = _path_sums(n, some)
    assert list(picked) == list(some)
    assert all(picked[rows] == table[rows] for rows in some)


def test_single_target_path_sums_at_rank_9():
    # one diagram from each of the 32 strata of equal size, by restriction size
    table = restrict_all(9)
    ordered = sorted(table, key=lambda rows: (table[rows].term_count(), rows))
    for rows in ordered[::16]:
        (single,) = _path_sums(9, (rows,)).values()
        assert single == table[rows]
        assert single.bound == table[rows].bound
        assert single.term_count() == subsequence_count(9, rows)


@pytest.mark.parametrize("n", range(2, 13))
def test_a_removed_label_is_not_removable_again(n):
    # why _path_sums needs one phase per position: no diagram written at a
    # position is read there as the smaller diagram of another removal
    for rows in all_diagrams(n):
        for label, smaller in diagrams._shrunk(n, rows).items():
            assert label not in diagrams._shrunk(n, smaller), (rows, label)


def test_path_sums_refuse_a_repeated_monomial(monkeypatch):
    # with every shift zero, two subsequences building one diagram give one key
    monkeypatch.setattr(torus, "_position_bits", lambda n: (0,) * len(reduced_word(n)))
    assert subsequence_count(3, (1, 1, 0)) > 1
    with pytest.raises(RuntimeError, match=re.escape("(1, 1, 0) repeats a monomial")):
        _path_sums(3, [(1, 1, 0)])


# Entries one early (e - 1) need no test: that mutant is equivalent.  It
# would also keep a removal D -> D' at t with e(D') = t + 1, but then the
# last cell of D' sits at position t and carries t's label, and a last cell
# is always removable, while D' has just lost its box of that label:
# test_a_removed_label_is_not_removable_again shows no label is removable
# twice, so no such removal exists.
@pytest.mark.parametrize(
    "mutant",
    (lambda entry, rows: 0, lambda entry, rows: entry(rows) + 1),
    ids=("no pruning", "one late"),
)
@pytest.mark.parametrize("n", range(3, 6))
def test_path_sums_refuse_a_missing_smaller_sum(n, mutant, monkeypatch):
    # no pruning files removals before their smaller diagram has a sum;
    # entries one late drop the removals that build it
    monkeypatch.setattr(torus, "_entry", functools.partial(mutant, torus._entry))
    with pytest.raises(RuntimeError, match=r"^no path sum of \(.*\) at position \d+$"):
        restrict_all(n)


def _prefix_diagram(n, t):
    """The diagram of the first t staircase cells in reading order."""
    return tuple(min(r, max(0, t - r * (r - 1) // 2)) for r in range(1, n + 1))


def _recursive_entry(n):
    """e(D) as the fewest leading letters of the chart's word that build D:
    through its cheapest last box, the first letter of that label at or
    after the entry of D without it."""
    labels = [label for label, _ in torus.reduced_word(n)]

    @functools.cache
    def entry(rows):
        return min(
            (
                1 + labels.index(label, entry(smaller))
                for label, smaller in diagrams._shrunk(n, rows).items()
                if label in labels[entry(smaller):]
            ),
            default=0,
        )

    return entry


@pytest.mark.parametrize("n", range(2, 13))
def test_entry_matches_its_recursive_definition(n):
    entry = _recursive_entry(n)
    for rows in all_diagrams(n):
        assert torus._entry(rows) == entry(rows), rows
        if n <= 9:
            for t in range(len(reduced_word(n)) + 1):
                fits = all(c <= p for c, p in zip(rows, _prefix_diagram(n, t)))
                assert (torus._entry(rows) <= t) == fits, (rows, t)


def _build_paths(n):
    """Per diagram, the nonempty diagrams that some admissible subsequence
    building it passes through: by subset enumeration of the chart's word."""
    word = torus.reduced_word(n)
    paths = {}
    for mask in range(2 ** len(word)):
        rows = diagrams.empty_diagram(n)
        passed = []
        for t, (label, _) in enumerate(word):
            if mask >> t & 1:
                if (rows := diagrams.add_box(n, rows, label)) is None:
                    break
                passed.append(rows)
        else:
            paths.setdefault(rows, set()).update(passed)
    return paths


@pytest.mark.parametrize("n", range(2, 6))
def test_path_sums_scan_exactly_the_diagrams_on_build_paths(n, monkeypatch):
    scanned = []
    shrunk = torus._shrunk

    def recording_shrunk(rank, rows):
        scanned.append(rows)
        return shrunk(rank, rows)

    monkeypatch.setattr(torus, "_shrunk", recording_shrunk)
    for target, passed in _build_paths(n).items():
        scanned.clear()
        _path_sums(n, (target,))
        assert sorted(filter(any, scanned)) == sorted(passed), target


# The restriction identities hold on the chart of every reduced word, not
# only the row reading word: the reduced words are the linear extensions of
# the staircase cells, and identities between regular functions on the open
# cell do not depend on the chart.  Another word runs the dynamic program,
# its pruning and the packed layout on other positions, and the denominator
# prediction must hold there with no position arithmetic.  The swap patches
# torus.reduced_word; monkeypatch clears no cache, so the fixture clears the
# caches that read the word on both sides of the swap.
_CHARTS = {
    "row": None,
    "column": column_cells,
    **{f"random {seed}": functools.partial(random_cells, seed=seed) for seed in range(3)},
}
# the tables that read the word's order; torus._variables reads only the
# sorted cells, which are the same for every reduced word
_WORD_CACHES = (torus._position_bits, torus._row_ends)


@pytest.fixture(params=list(_CHARTS))
def chart(request, monkeypatch):
    """Restrict on the reduced word that reads the cells in one order; "row"
    keeps the shipped reading word."""
    cells = _CHARTS[request.param]
    for cached in _WORD_CACHES:
        cached.cache_clear()
    if cells is not None:
        monkeypatch.setattr(torus, "reduced_word", lambda n: chart_word(n, cells(n)))
    yield request.param
    monkeypatch.undo()
    for cached in _WORD_CACHES:
        cached.cache_clear()


@pytest.mark.parametrize("n", range(2, 10))
def test_restriction_identities_hold_on_every_chart(chart, n):
    word = torus.reduced_word(n)
    assert sorted(word) == sorted(reduced_word(n))
    # below rank 4 some of these orders are the row order
    assert n < 4 or (word == reduced_word(n)) == (chart == "row")
    denominator_residuals, term_residuals, holds = restriction_residuals(
        n, superpotential(n)
    )
    assert holds and not any(denominator_residuals) and not any(term_residuals)
    entry = _recursive_entry(n)
    for rows in all_diagrams(n):
        assert torus._entry(rows) == entry(rows), rows


@pytest.mark.parametrize("n", range(2, 13))
def test_position_bits_read_the_field_layout_on_every_chart(chart, n):
    # each position's bit sits in its coordinate's field of the test's own
    # layout, whichever reduced word is read
    word = torus.reduced_word(n)
    assert torus._position_bits(n) == tuple(
        1 << 8 * _field_variables(n).index(torus_var(*box)) for box in word
    )


@pytest.mark.parametrize("chart", ("column", "random 0"), indirect=True)
@pytest.mark.parametrize("n", range(2, 6))
def test_path_sums_match_bruteforce_on_other_charts(chart, n, monkeypatch):
    assert restrict_all(n) == enumerate_restrictions(n)
    test_path_sums_scan_exactly_the_diagrams_on_build_paths(n, monkeypatch)


def test_restrict_polynomial_takes_an_int_and_refuses_other_operands():
    assert restrict_polynomial(3, 5) == 5
    assert restrict_polynomial(3, 0) == 0
    with pytest.raises(TypeError, match=r"^cannot restrict a float: not a polynomial or an int$"):
        restrict_polynomial(3, 1.5)


@pytest.mark.parametrize(
    "call",
    (
        lambda: restrict_all(4),
        lambda: restrict_plucker(4, (1, 1, 0, 0)),
        lambda: restrict_polynomial(4, p(1, 1, 0, 0) * p(1, 0, 0, 0) + 1),
        lambda: term_restriction_residual(4, 2),
        lambda: restricted_term_sum(4),
        lambda: laurent_potential(4),
        lambda: restriction_residuals(4, superpotential(4)),
    ),
)
def test_each_public_restriction_runs_one_dynamic_program(call, monkeypatch):
    calls = []
    path_sums = torus._path_sums

    def counting_path_sums(rank, targets):
        calls.append(rank)
        return path_sums(rank, targets)

    monkeypatch.setattr(torus, "_path_sums", counting_path_sums)
    call()
    assert calls == [4]


def test_single_target_scans_only_diagrams_inside_it(monkeypatch):
    n, target = 9, (1, 2, 1, 1, 0, 0, 0, 0, 0)
    scanned = []
    shrunk = torus._shrunk

    def recording_shrunk(rank, rows):
        scanned.append(rows)
        return shrunk(rank, rows)

    monkeypatch.setattr(torus, "_shrunk", recording_shrunk)
    _path_sums(n, (target,))
    inside = [
        rows for rows in all_diagrams(n) if all(c <= t for c, t in zip(rows, target))
    ]
    assert sorted(scanned) == inside


_full_table = functools.cache(restrict_all)


@given(
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.sampled_from(all_diagrams(n))))
    )
)
def test_target_subsets_match_the_full_table(case):
    n, targets = case
    picked = _path_sums(n, targets)
    assert set(picked) == targets
    full = _full_table(n)
    for rows, packed in picked.items():
        assert packed.terms == full[rows].terms
        assert packed.bound == full[rows].bound


def test_restriction_scans_removable_boxes_only(monkeypatch):
    n = 5
    terms = superpotential(n)

    def refuse(rank, rows):
        raise AssertionError("the path-sum recurrence reads removable boxes only")

    monkeypatch.setattr(torus, "_grown", refuse, raising=False)
    monkeypatch.setattr(diagrams, "_grown", refuse)
    table = restrict_all(n)
    for rows in all_diagrams(n):
        assert restrict_plucker(n, rows).term_count() == table[rows].term_count()
    denominator_residuals, term_residuals, holds = restriction_residuals(n, terms)
    assert not any(denominator_residuals)
    assert not any(term_residuals)
    assert holds


def test_subsequence_count_matches_restriction_sizes():
    # each admissible subsequence is one monomial of coefficient 1, so a key
    # the dynamic program lost or invented shows in the count
    for n in range(2, 9):
        table = restrict_all(n)
        for rows in all_diagrams(n):
            assert subsequence_count(n, rows) == table[rows].term_count()
            assert set(table[rows].terms.values()) == {1}


def _assert_renders_like(packed, plain):
    """packed renders in every format exactly as its decoded polynomial.

    Mismatches are reported by name: a diff of two large renderings would
    take minutes to print.
    """
    assert type(plain) is Polynomial
    text = packed.to_json()
    renderings = (
        ("sorted_terms", packed.sorted_terms(), plain.sorted_terms()),
        ("variables", packed.variables(), plain.variables()),
        ("to_text", packed.to_text(), plain.to_text()),
        ("to_latex", packed.to_latex(), plain.to_latex()),
        ("to_json_terms", packed.to_json_terms(), plain.to_json_terms()),
        ("to_json", text, json.dumps(plain.to_json_terms())),
        ("plain to_json", plain.to_json(), json.dumps(plain.to_json_terms())),
        ("to_json round trip", json.loads(text), plain.to_json_terms()),
    )
    assert [name for name, got, expected in renderings if got != expected] == []


@pytest.mark.parametrize("n", range(2, 8))
def test_restriction_renders_like_its_polynomial(n):
    for rows in all_diagrams(n):
        restricted = restrict_plucker(n, rows)
        _assert_renders_like(restricted, _decode(restricted))


def test_largest_rank9_restriction_renders_like_its_polynomial():
    table = restrict_all(9)
    largest = max(table, key=lambda rows: table[rows].term_count())
    restricted = restrict_plucker(9, largest)
    assert restricted.term_count() == subsequence_count(9, largest) == 12_870
    _assert_renders_like(restricted, _decode(restricted))


def test_restrictions_render_without_decoding(monkeypatch):
    """Restrictions render from their packed rows, never through Polynomial."""

    def refuse(*args):
        raise AssertionError("a restriction rendered through Polynomial")

    monkeypatch.setattr(Polynomial, "_render", refuse)
    monkeypatch.setattr(Polynomial, "to_json", refuse)
    largest = restrict_plucker(9, (1, 2, 3, 4, 5, 2, 1, 0, 0))
    assert largest.term_count() == 12_870
    restrictions = [
        restrict_plucker(n, rows) for n in range(2, 8) for rows in all_diagrams(n)
    ]
    for restricted in restrictions + [largest]:
        restricted.to_text()
        restricted.to_latex()
        restricted.to_json()


def test_packed_rendering_edge_cases():
    empty = restrict_plucker(4, (0, 0, 0, 0))
    assert empty.to_text() == empty.to_latex() == "1"
    assert empty.to_json() == '[{"coefficient": 1, "exponents": {}}]'
    zero = _Packed(4, {}, 0)
    assert zero.to_text() == zero.to_latex() == "0"
    assert zero.to_json() == "[]"
    # q a[5,1] against a[1,1] a[2,1]: q is the least variable, so its term
    # comes first although a[1,1] precedes a[5,1]
    a11, a21, a51 = (1 << 8 * _field_variables(4).index(torus_var(*box))
                     for box in ((1, 1), (2, 1), (5, 1)))
    carrying_q = _Packed(4, {a11 + a21: 1, 1 + a51: 1}, 1)
    assert carrying_q.to_text() == "q*a[5,1] + a[1,1]*a[2,1]"
    assert carrying_q.to_latex() == "q a_{5,1} + a_{1,1} a_{2,1}"
    for packed in (empty, zero, carrying_q):
        _assert_renders_like(packed, _decode(packed))


@pytest.mark.parametrize(
    "terms",
    (
        {2 << 8: 1},  # a[1,1]^2 at rank 4
        {1 << 8: 2},  # coefficient 2
        {1 << 8: -1},  # coefficient -1
        {1 << 8: 1, (1 << 16) + (1 << 24): 1},  # degrees 1 and 2
    ),
)
def test_packed_rendering_refuses_what_it_cannot_order(terms):
    """Terms the byte sort cannot order render from their decoded monomials."""
    packed = _Packed(4, terms, 2)
    _assert_renders_like(packed, _decode(packed))


def test_packed_rendering_refuses_keys_past_the_last_field():
    # rank 4 has 11 fields: q and ten coordinates; a ValueError, not the
    # OverflowError of int.to_bytes
    for key in (1 << 8 * 11, (1 << 8 * 11) + 1, 1 << 8 * 40):
        packed = _Packed(4, {key: 1}, 1)
        for render in (
            packed.to_text,
            packed.to_latex,
            packed.to_json,
            packed.to_json_terms,
            packed.sorted_terms,
            packed.variables,
        ):
            with pytest.raises(ValueError, match="runs past the last field"):
                render()


def test_packed_product_refuses_field_overflow():
    # q^a * q^b lands in field 0; a + b past the field width must raise, not
    # carry into the field of the first coordinate.
    assert (_Packed(2, {100: 1}, 100) * _Packed(2, {155: 1}, 155)).terms == {
        _FIELD_MAX: 1
    }
    assert _FIELD_MAX == 255
    with pytest.raises(OverflowError):
        _Packed(2, {200: 1}, 200) * _Packed(2, {200: 1}, 200)
    with pytest.raises(OverflowError):
        _Packed(2, {_FIELD_MAX: 1}, _FIELD_MAX) * _Packed(2, {1: 1}, 1)
    # the bound, not the actual exponents, decides: a bounded product
    # refuses even when its terms would fit
    with pytest.raises(OverflowError):
        _Packed(2, {1: 1}, 200) * _Packed(2, {1: 1}, 200)
    # the bound is per field, not on the total degree: the sixth power of
    # the 45-coordinate staircase monomial has degree 270 but field bound 6
    full = restrict_plucker(9, staircase(9))
    power = full * full * full * full * full * full
    assert power.bound == 6
    assert power == _decode(full) ** 6
    assert sum(exp for _, exp in power.sorted_terms()[0][0]) == 270 > _FIELD_MAX
    # through the public path: p[1,0]^256 restricts to a[3,1]^256
    with pytest.raises(OverflowError):
        restrict_polynomial(2, Polynomial.variable(plucker_var((1, 0)), _FIELD_MAX + 1))
    assert restrict_polynomial(
        2, Polynomial.variable(plucker_var((1, 0)), _FIELD_MAX)
    ) == Polynomial.variable(torus_var(3, 1), _FIELD_MAX)


def test_packed_restrictions_carry_field_bound():
    # every restriction is squarefree: field bound 1, and 0 for the empty
    # diagram, whose restriction is the constant 1
    for rows, packed in restrict_all(5).items():
        assert packed.bound == (1 if any(rows) else 0)
        assert _largest_exponent(packed) == packed.bound
        assert packed.term_count() == restrict_plucker(5, rows).term_count()


@pytest.mark.parametrize("n", range(2, 8))
def test_packed_bounds_equal_the_largest_field(n):
    # a restricted product's bound is a sum of factor bounds and may exceed
    # its largest field, so only single restrictions and closed forms here
    for rows in all_diagrams(n):
        packed = restrict_plucker(n, rows)
        assert packed.bound == _largest_exponent(packed), rows
    for i in range(n + 1):
        factor = term_restriction_factor(n, i)
        assert factor.bound == _largest_exponent(factor) == 1
    # seeds sharing cells: staircase_prefix(n, i - 1) and full_columns(n, i)
    # share every cell of the first i - 1 rows for every middle i >= 2
    bounds = [0, 1] + [2] * (n - 2) + [1, 1]
    for i, bound in enumerate(bounds):
        predicted = predicted_denominator_restriction(n, i)
        assert predicted.bound == _largest_exponent(predicted) == bound, i
    total = coordinate_sum(n)
    assert total.bound == _largest_exponent(total) == 1
    # the packed zero that _quotient_sum starts from: 0 over the constant 1
    zero = torus._quotient_sum(n, [])
    assert (zero.numerator.terms, zero.numerator.bound) == ({}, 0)
    assert (zero.denominator.terms, zero.denominator.bound) == ({0: 1}, 0)


def test_packed_key_past_the_last_field_names_the_key():
    # rank 2 has four fields, q and three coordinates: bit 32 is past them
    with pytest.raises(ValueError) as raised:
        _Packed(2, {1 << 32: 1}, 1).to_text()
    assert str(raised.value) == "packed key 0x100000000 runs past the last field"


@pytest.mark.parametrize("n", range(2, 10))
def test_position_bits_use_each_coordinate_field_once_in_canonical_order(n):
    word = reduced_word(n)
    bits = torus._position_bits(n)
    assert len(bits) == len(word)
    fields = [(bit.bit_length() - 1) // 8 for bit in bits]
    assert bits == tuple(1 << 8 * field for field in fields)
    assert sorted(fields) == list(range(1, len(word) + 1))
    variables = _field_variables(n)
    assert [variables[field] for field in fields] == [torus_var(*box) for box in word]


@pytest.mark.parametrize("n", range(2, 10))
def test_restriction_residuals_stay_within_the_field_bound(n, monkeypatch):
    built = []
    init = _Packed.__init__

    def recording_init(self, rank, terms, bound):
        init(self, rank, terms, bound)
        built.append(self)

    monkeypatch.setattr(_Packed, "__init__", recording_init)
    denominator_residuals, term_residuals, holds = restriction_residuals(
        n, superpotential(n)
    )
    assert holds and not any(denominator_residuals) and not any(term_residuals)
    assert all(_largest_exponent(packed) <= packed.bound for packed in built)
    # the Laurent cross-multiplication reaches 2n + 1, far below the field
    # maximum, and some exponent attains it
    assert max(packed.bound for packed in built) == 2 * n + 1
    assert max(map(_largest_exponent, built)) == 2 * n + 1


# Packed polynomials in q and the six rank-3 coordinates: field exponents
# 0..3 under the field bound 3, so cancellations and repeated factors both
# occur.
_RANK3_FIELDS = 1 + len(reduced_word(3))
_packed = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * _RANK3_FIELDS),
    st.integers(-3, 3).filter(bool),
    max_size=5,
).map(
    lambda terms: _Packed(
        3,
        {
            sum(exp << 8 * field for field, exp in enumerate(exps)): coeff
            for exps, coeff in terms.items()
        },
        max(map(max, terms), default=0),
    )
)


@given(_packed, _packed)
def test_packed_arithmetic_matches_polynomial(x, y):
    plain_x, plain_y = _decode(x), _decode(y)
    for packed, expected in (
        (x * y, plain_x * plain_y),
        (x + y, plain_x + plain_y),
        (x - y, plain_x - plain_y),
    ):
        assert 0 not in packed.terms.values()
        assert _decode(packed) == expected
    assert (x - y) * (x + y) == x * x - y * y
    # mixed with a plain Polynomial, in both orders
    for mixed, expected in (
        (x * plain_y, plain_x * plain_y),
        (plain_x * y, plain_x * plain_y),
        (x + plain_y, plain_x + plain_y),
        (plain_x + y, plain_x + plain_y),
        (x - plain_y, plain_x - plain_y),
        (plain_x - y, plain_x - plain_y),
    ):
        assert mixed.sorted_terms() == expected.sorted_terms()
    assert x == plain_x and plain_x == x
    assert (x == plain_y) == (plain_x == plain_y)
    assert (x == 0) == (plain_x == 0) == (not plain_x)
    assert x - x == 0
