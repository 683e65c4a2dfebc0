import json

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


def a(i, j):
    return Polynomial.variable(torus_var(i, j))


def p(*rows):
    return Polynomial.variable(plucker_var(rows))


def test_variable_names():
    assert variable_name(QUANTUM) == "q"
    assert variable_name(torus_var(3, 2)) == "a[3,2]"
    assert variable_name(plucker_var((1, 2, 0, 0))) == "p[1,2,0,0]"


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
