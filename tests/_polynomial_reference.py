"""Reference torus restriction built from generic Polynomial arithmetic.

The same forward dynamic program, substitution and unreduced rational sums
as the packed torus code, written with tuple-keyed Polynomial products and
no packed exponents.  The packed path must decode to exactly these
polynomials, term for term; exact but slow, so only for small ranks.
"""

from ogmirror.diagrams import add_box, empty_diagram, staircase, staircase_prefix
from ogmirror.polynomials import (
    QUANTUM,
    Polynomial,
    RationalExpression,
    is_plucker,
    is_quantum,
    torus_var,
)
from ogmirror.potential import superpotential
from ogmirror.torus import reduced_word


def reference_restrict_all(n):
    """Restriction of every diagram, keyed by diagram."""
    state = {empty_diagram(n): Polynomial.one()}
    for label, col in reduced_word(n):
        weight = Polynomial.variable(torus_var(label, col))
        grown_state = dict(state)
        for rows, poly in state.items():
            grown = add_box(n, rows, label)
            if grown is not None:
                grown_state[grown] = grown_state.get(grown, Polynomial.zero()) + poly * weight
        state = grown_state
    return state


def reference_restrict(n, table, poly):
    """Substitute each Plücker variable by its restriction; q passes through."""

    def image(var):
        if is_plucker(var):
            return table[var[1]]
        assert is_quantum(var), var
        return Polynomial.variable(QUANTUM)

    return poly.substitute(image)


def reference_term_sum(n, table):
    """Unreduced sum of restrict(numerator)/restrict(denominator) over all terms."""
    total = RationalExpression(Polynomial.zero(), Polynomial.one())
    for term in superpotential(n):
        total = total + RationalExpression(
            reference_restrict(n, table, term.numerator),
            reference_restrict(n, table, term.denominator),
        )
    return total


def reference_laurent(n, table):
    """Coordinate sum plus q times the row-prefix n-2 restriction, over the staircase."""
    full = table[staircase(n)]
    coordinates = Polynomial.zero()
    for label, col in reduced_word(n):
        coordinates = coordinates + Polynomial.variable(torus_var(label, col))
    quantum = Polynomial.variable(QUANTUM) * table[staircase_prefix(n, n - 2)]
    return RationalExpression(coordinates * full + quantum, full)
