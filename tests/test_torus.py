import functools
import json
import re

import pytest
from hypothesis import given, strategies as st

from _bruteforce import enumerate_restrictions, subsequence_count
from _polynomial_reference import (
    reference_laurent,
    reference_restrict,
    reference_restrict_all,
    reference_term_sum,
)
from ogmirror.diagrams import all_diagrams, box_count, box_label, staircase
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
