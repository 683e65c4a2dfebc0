import json
import re

import pytest
from hypothesis import given, strategies as st

from ogmirror.polynomials import (
    QUANTUM,
    Polynomial,
    RationalExpression,
    plucker_var,
    torus_var,
    variable_latex,
    variable_name,
)
from ogmirror.torus import restrict_plucker


def a(i, j):
    return Polynomial.variable(torus_var(i, j))


def p(*rows):
    return Polynomial.variable(plucker_var(rows))


def test_variable_names():
    assert variable_name(QUANTUM) == "q"
    assert variable_name(torus_var(3, 2)) == "a[3,2]"
    assert variable_name(plucker_var((1, 2, 0, 0))) == "p[1,2,0,0]"


def test_plucker_rows_have_one_spelling():
    """A row that is not an int raises at construction, so whichever operand
    comes first, no sum can carry a float spelling of a diagram; bool rows
    become their ints."""
    ints = p(1, 1, 1, 1)
    for rows in ((1.0,) * 4, (1, 1, 1.0, 1), (1, 1, "1", 1), (1, 1, None, 1)):
        message = re.escape(f"Plücker rows must be ints, got {rows!r}")
        with pytest.raises(ValueError, match=message):
            ints + p(*rows)
        with pytest.raises(ValueError, match=message):
            p(*rows) + ints
    var = plucker_var((True, True, False, True))
    assert var == plucker_var((1, 1, 0, 1))
    assert [type(row) for row in var[1]] == [int] * 4
    for total in (p(*(True,) * 4) + ints, ints + p(*(True,) * 4)):
        assert total.to_text() == "2*p[1,1,1,1]"
    assert plucker_var(row for row in (1, 0)) == plucker_var([1, 0])


def test_torus_indices_have_one_spelling():
    """Torus coordinates keep the Plücker rows' rule: a bool index becomes its
    int and any other non-int raises, so two spellings of a[1,1] add to one
    variable that renders alike in either operand order."""
    var = torus_var(True, 1)
    assert var == torus_var(1, 1)
    assert [type(i) for i in var[1:]] == [int, int]
    assert variable_name(var) == "a[1,1]"
    for total in (a(True, 1) + a(1, 1), a(1, 1) + a(True, 1)):
        assert total.to_text() == "2*a[1,1]"
    for indices in ((1.0, 1), (1, 1.0), (1, "1"), (None, 1)):
        message = re.escape(f"torus indices must be ints, got {indices!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            torus_var(*indices)


def test_variable_latex():
    assert variable_latex(QUANTUM) == "q"
    assert variable_latex(torus_var(3, 2)) == "a_{3,2}"
    assert variable_latex(plucker_var((1, 2, 0, 0))) == "p_{(1,2)}"
    assert variable_latex(plucker_var((0, 0))) == r"p_{\varnothing}"


def test_mul_distributes_over_add():
    left = a(5, 1) * (a(3, 1) + a(3, 3))
    right = a(5, 1) * a(3, 1) + a(5, 1) * a(3, 3)
    assert left == right
    assert left.term_count() == 2


def test_sub_self_is_zero():
    poly = a(5, 1) * a(3, 3) + 2 * p(1, 1, 0, 0)
    assert poly - poly == Polynomial.zero()
    assert poly - poly == 0


def test_grouped_and_expanded_products_agree():
    # a[5,1]*(a[3,1]+a[3,2]+a[3,3]) + a[5,3]*a[3,3], assembled two ways
    grouped = a(5, 1) * (a(3, 1) + a(3, 2) + a(3, 3)) + a(5, 3) * a(3, 3)
    expanded = (
        a(5, 1) * a(3, 1)
        + a(5, 1) * a(3, 2)
        + a(5, 1) * a(3, 3)
        + a(5, 3) * a(3, 3)
    )
    assert grouped == expanded
    assert grouped.to_text() == (
        "a[3,1]*a[5,1] + a[3,2]*a[5,1] + a[3,3]*a[5,1] + a[3,3]*a[5,3]"
    )


def test_equals_zero_and_empty():
    assert Polynomial.zero() == 0
    assert Polynomial.zero() == Polynomial([])
    assert Polynomial.constant(0) == Polynomial.zero()
    assert not Polynomial.zero()


def test_integer_coercion_both_sides():
    poly = p(1, 0)
    assert 1 + poly == poly + 1
    assert 2 * poly == poly + poly
    assert 1 - poly == -(poly - 1)


def _operand_cases():
    """(id, expression, result or TypeError) for operands of every kind."""
    poly = p(1, 0)
    ratio = RationalExpression(poly, 2)
    packed_one = restrict_plucker(3, (0, 0, 0))
    packed_top = restrict_plucker(3, (1, 1, 1))
    return (
        ("p == str", lambda: poly == "x", False),
        ("r == str", lambda: ratio == "x", False),
        ("p != float", lambda: poly != 1.5, True),
        ("p + str", lambda: poly + "x", TypeError),
        ("str + p", lambda: "x" + poly, TypeError),
        ("p - float", lambda: poly - 1.5, TypeError),
        ("float - p", lambda: 1.5 - poly, TypeError),
        ("p * str", lambda: poly * "x", TypeError),
        ("float * p", lambda: 1.5 * poly, TypeError),
        ("r + float", lambda: ratio + 1.5, TypeError),
        ("float + r", lambda: 1.5 + ratio, TypeError),
        ("r * str", lambda: ratio * "x", TypeError),
        ("r + int", lambda: (ratio + 1).to_text(), "(2 + p[1,0]) / (2)"),
        ("int * r", lambda: (2 * ratio).to_text(), "(2*p[1,0]) / (2)"),
        ("packed == other rank", lambda: packed_one == restrict_plucker(2, (0, 0)), True),
        ("packed + int", lambda: type(packed_one + 1), Polynomial),
        ("packed - p", lambda: type(packed_top - poly), Polynomial),
        ("packed + str", lambda: packed_top + "x", TypeError),
    )


OPERAND_CASES = _operand_cases()


@pytest.mark.parametrize(
    "expression, expected",
    [case[1:] for case in OPERAND_CASES],
    ids=[case[0] for case in OPERAND_CASES],
)
def test_operand_protocol(expression, expected):
    if expected is TypeError:
        with pytest.raises(TypeError):
            expression()
    else:
        assert expression() == expected


@pytest.mark.parametrize(
    "build",
    (
        lambda: Polynomial.constant(0.5),
        lambda: Polynomial.term(1.9, {QUANTUM: 1}),
        lambda: Polynomial([(2.5, {})]),
        lambda: Polynomial.variable(QUANTUM, 1.5),
        lambda: Polynomial.term(1, {QUANTUM: 2.0}),
    ),
)
def test_non_integer_coefficients_and_exponents_are_rejected(build):
    with pytest.raises(TypeError, match="must be an int"):
        build()


@pytest.mark.parametrize(
    "build",
    (
        lambda: Polynomial.variable(torus_var(1, 1), True),
        lambda: Polynomial([(1, {torus_var(1, 1): True})]),
    ),
)
def test_a_bool_exponent_is_stored_as_its_int(build):
    poly = build()
    assert poly.to_json() == '[{"coefficient": 1, "exponents": {"a[1,1]": 1}}]'
    ((mono, _),) = poly.sorted_terms()
    assert [type(exp) for _, exp in mono] == [int]


def test_negative_exponents_and_powers_below_one_are_rejected():
    with pytest.raises(ValueError, match="^negative exponent -1 for q$"):
        Polynomial([(1, {QUANTUM: -1})])
    with pytest.raises(ValueError, match="^power must be >= 1, got 0$"):
        Polynomial.variable(QUANTUM, 0)


def test_rational_expression_rejects_a_string():
    with pytest.raises(TypeError):
        RationalExpression("x")


def test_polynomial_repr():
    assert repr(Polynomial.variable(torus_var(1, 1))) == "Polynomial<a[1,1]>"


def test_pow():
    base = a(1, 1) + 1
    assert base**0 == 1
    assert base**2 == base * base
    with pytest.raises(ValueError):
        base ** (-1)


def test_plucker_degree_examples():
    phi = p(1, 2, 0, 0) * p(1, 2, 3, 3) - p(1, 1, 0, 0) * p(1, 2, 3, 4)
    assert phi.plucker_degree() == 2
    assert p(0, 0, 0, 0).plucker_degree() == 1
    with pytest.raises(ValueError):
        Polynomial.zero().plucker_degree()
    with pytest.raises(ValueError):
        (p(1, 0) + p(1, 0) * p(1, 1)).plucker_degree()


def test_plucker_degree_ignores_other_kinds():
    poly = Polynomial.variable(QUANTUM) * p(1, 2, 0, 0)
    assert poly.plucker_degree() == 1


def test_rational_cross_multiplied_equality():
    ratio = RationalExpression(p(1, 0), p(1, 1))
    scale = a(2, 1) + a(2, 2)
    scaled = RationalExpression(scale * p(1, 0), scale * p(1, 1))
    assert ratio == scaled
    assert ratio != RationalExpression(p(1, 1), p(1, 0))


def test_rational_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalExpression(p(1, 0), Polynomial.zero())


def test_rational_addition():
    half_like = RationalExpression(Polynomial.one(), p(1, 0))
    total = half_like + RationalExpression(Polynomial.one(), p(1, 1))
    assert total == RationalExpression(p(1, 0) + p(1, 1), p(1, 0) * p(1, 1))
    assert total + 0 == total


def test_rational_product_and_text():
    ratio = RationalExpression(p(1, 0), p(1, 1))
    product = ratio * RationalExpression(p(1, 1), p(1, 2))
    assert product.numerator == p(1, 0) * p(1, 1)
    assert product.denominator == p(1, 1) * p(1, 2)
    assert product == RationalExpression(p(1, 0), p(1, 2))
    assert 2 * ratio == ratio * 2 == RationalExpression(2 * p(1, 0), p(1, 1))
    assert p(1, 1) * ratio == p(1, 0)
    assert ratio.to_text() == str(ratio) == "(p[1,0]) / (p[1,1])"
    assert repr(ratio) == "RationalExpression<(p[1,0]) / (p[1,1])>"


def test_substitute_is_homomorphism():
    poly = p(1, 0) * p(1, 1) + 2 * p(1, 0)

    def image(var):
        return a(1, 1) + 1 if var == plucker_var((1, 0)) else Polynomial.variable(var)

    expected = (a(1, 1) + 1) * p(1, 1) + 2 * (a(1, 1) + 1)
    assert poly.substitute(image) == expected


def test_text_rendering_signs_and_exponents():
    poly = a(5, 1) ** 2 * a(3, 1) - 3 * a(2, 1) - 1
    assert poly.to_text() == "−1 − 3*a[2,1] + a[3,1]*a[5,1]^2"
    assert poly.to_latex() == "-1 - 3 a_{2,1} + a_{3,1} a_{5,1}^{2}"
    assert poly.to_json_terms() == [
        {"coefficient": -1, "exponents": {}},
        {"coefficient": -3, "exponents": {"a[2,1]": 1}},
        {"coefficient": 1, "exponents": {"a[3,1]": 1, "a[5,1]": 2}},
    ]
    assert Polynomial.zero().to_text() == "0"
    assert Polynomial.zero().to_latex() == "0"
    assert Polynomial.zero().to_json_terms() == []


def test_json_terms_round_trip_through_json():
    poly = 2 * Polynomial.variable(QUANTUM) * p(1, 2, 0, 0) - a(1, 1)
    document = json.loads(json.dumps(poly.to_json_terms()))
    assert document == [
        {"coefficient": 2, "exponents": {"q": 1, "p[1,2,0,0]": 1}},
        {"coefficient": -1, "exponents": {"a[1,1]": 1}},
    ]


_VARS = [
    QUANTUM,
    torus_var(1, 1),
    torus_var(2, 1),
    plucker_var((1, 0)),
    plucker_var((1, 1)),
]

_term_st = st.tuples(
    st.integers(min_value=-4, max_value=4),
    st.dictionaries(st.sampled_from(_VARS), st.integers(min_value=1, max_value=3), max_size=3),
)

_poly_st = st.lists(_term_st, max_size=4).map(Polynomial)


@given(_poly_st, _poly_st, _poly_st)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + Polynomial.zero() == x
    assert x * Polynomial.one() == x
    assert x - x == Polynomial.zero()


@given(st.lists(_term_st, max_size=5), st.randoms())
def test_canonical_form_independent_of_insertion_order(terms, rng):
    shuffled = list(terms)
    rng.shuffle(shuffled)
    assert Polynomial(terms) == Polynomial(shuffled)
    assert Polynomial(terms).to_text() == Polynomial(shuffled).to_text()


@given(_poly_st)
def test_coefficients_stay_integers(x):
    square = x * x
    assert all(isinstance(coeff, int) for _, coeff in square.sorted_terms())
