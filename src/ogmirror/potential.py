"""Assembly of the canonical superpotential.

The superpotential for rank n is a sum of n+2 rational terms in Plücker
variables.  The terms with index 0, 1, n and n+1 are single-variable
quotients; the quantum term (index n+1) additionally carries the parameter
q.  Each middle term (2 <= i <= n-1) is the quotient of two signed sums of
products p_τ p_τ' over levels of a box-moving recursion on diagram pairs:
the denominator levels start from the pair (row-prefix i-1, column-fill i)
and move one box per level from the first diagram to the second, while the
numerator levels are obtained by adding one box with label n+1-i to
whichever component of each pair accepts it.

The denominator recursion and the numerator promotion each run once per
(rank, index): both level sets are memoised, so the check battery's pair
and seed checks and the terms read the same levels.  Each signed sum, and
each derivation, is built in one Polynomial construction over its
(coefficient, exponents) pairs.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .diagrams import (
    DiagramPair,
    StructuralError,
    _grown,
    add_box,
    add_unique_box,
    box_moves,
    check_index,
    check_rank,
    empty_diagram,
    full_columns,
    is_valid,
    staircase,
    staircase_prefix,
)
from .polynomials import QUANTUM, Polynomial, is_plucker, plucker_var, variable_name


@dataclass(frozen=True)
class SuperpotentialTerm:
    index: int
    numerator: Polynomial
    denominator: Polynomial
    quantum: bool = False


def check_plucker(n: int, rows) -> None:
    """Reject Plücker indices that are not full-length valid rank-n diagrams."""
    if len(rows) != n or not is_valid(n, rows):
        name = variable_name(plucker_var(rows))
        raise ValueError(f"{name} is not a diagram of rank {n}")


def plucker_poly(rows) -> Polynomial:
    """The Plücker variable of a diagram, as a polynomial."""
    return Polynomial.variable(plucker_var(rows))


@lru_cache(maxsize=None)
def denominator_pair_levels(n: int, i: int) -> tuple[tuple[DiagramPair, ...], ...]:
    """Levels of the box-moving recursion for the i-th denominator.

    Level 0 holds the single pair (row-prefix i-1, column-fill i); level j+1
    holds every pair reached from level j by moving one box from the first
    diagram to the second.  The recursion stops at the first empty level,
    which happens within binomial(i, 2) + 1 levels because the first
    component loses a box per move.
    """
    check_rank(n)
    check_index("middle term index", i, 2, n - 1)
    level = [(staircase_prefix(n, i - 1), full_columns(n, i))]
    levels = []
    while level:
        levels.append(tuple(sorted(level)))
        moved = {after for pair in level for after in box_moves(n, pair)}
        level = sorted(moved)
    return tuple(levels)


@lru_cache(maxsize=None)
def numerator_pair_levels(n: int, i: int) -> tuple[tuple[DiagramPair, ...], ...]:
    """One-box promotions of the memoised denominator levels.

    For each pair, a box labeled n+1-i is added to whichever component
    accepts it; pairs where neither component accepts contribute nothing,
    and both components accepting is a structural fault.  The recursion
    built every diagram it promotes, so they are grown without validation.
    """
    label = n + 1 - i
    levels = []
    for level in denominator_pair_levels(n, i):
        promoted = set()
        for first, second in level:
            grown_first = _grown(n, first).get(label)
            grown_second = _grown(n, second).get(label)
            if grown_first is not None and grown_second is not None:
                raise StructuralError(
                    f"label {label} addable to both components of"
                    f" ({first}, {second})"
                )
            if grown_first is not None:
                promoted.add((grown_first, second))
            elif grown_second is not None:
                promoted.add((first, grown_second))
        levels.append(tuple(sorted(promoted)))
    return tuple(levels)


def signed_pair_sum(levels) -> Polynomial:
    """Alternating sum over levels of the products p_first * p_second."""
    return Polynomial(
        (-1 if j % 2 else 1, Counter((plucker_var(first), plucker_var(second))))
        for j, level in enumerate(levels)
        for first, second in level
    )


def box_derivation(n: int, i: int, poly: Polynomial) -> Polynomial:
    """The derivation adding a box labeled n+1-i to one Plücker factor.

    A variable p_τ maps to p of τ with the box added when that addition is
    valid and to 0 otherwise; products follow the Leibniz rule and the whole
    map is linear.  Only polynomials in Plücker variables indexed by
    full-length rank-n diagrams are accepted.
    """
    check_rank(n)
    check_index("derivation index", i, 0, n)
    label = n + 1 - i

    def leibniz_terms():
        for mono, coeff in poly.sorted_terms():
            for var, exp in mono:
                if not is_plucker(var):
                    raise ValueError(
                        "derivation is defined on polynomials in Plücker"
                        f" variables only, found {variable_name(var)}"
                    )
                check_plucker(n, var[1])
                grown = add_box(n, var[1], label)
                if grown is not None:
                    exps = Counter(dict(mono))
                    exps[var] -= 1
                    exps[plucker_var(grown)] += 1
                    yield coeff * exp, exps

    return Polynomial(leibniz_terms())


def potential_term(n: int, i: int) -> SuperpotentialTerm:
    """The i-th superpotential summand, 0 <= i <= n+1.

    Terms 0, 1 and n are a base diagram's variable under the variable of
    that base with its unique addable box added.
    """
    check_rank(n)
    check_index("term index", i, 0, n + 1)
    bases = {0: empty_diagram(n), 1: full_columns(n, 1), n: staircase_prefix(n, n - 1)}
    if i in bases:
        base = bases[i]
        return SuperpotentialTerm(
            i, plucker_poly(add_unique_box(n, base)), plucker_poly(base)
        )
    if i == n + 1:
        numerator = Polynomial.variable(QUANTUM) * plucker_poly(
            staircase_prefix(n, n - 2)
        )
        return SuperpotentialTerm(
            n + 1, numerator, plucker_poly(staircase(n)), quantum=True
        )
    return SuperpotentialTerm(
        i,
        signed_pair_sum(numerator_pair_levels(n, i)),
        signed_pair_sum(denominator_pair_levels(n, i)),
    )


def superpotential(n: int) -> list[SuperpotentialTerm]:
    """All n+2 terms in index order; denominator degrees add up to 2n."""
    check_rank(n)
    return [potential_term(n, i) for i in range(n + 2)]


def term_to_json(term: SuperpotentialTerm) -> dict:
    return {
        "index": term.index,
        "quantum": term.quantum,
        "numerator": term.numerator.to_json_terms(),
        "denominator": term.denominator.to_json_terms(),
    }


def potential_to_json(terms) -> list[dict]:
    return [term_to_json(term) for term in terms]


def term_to_latex(term: SuperpotentialTerm) -> str:
    """Render one term as a LaTeX fraction, factoring q out of the quantum term."""
    numerator = term.numerator
    if term.quantum:
        numerator = numerator.substitute(
            lambda var: Polynomial.one() if var == QUANTUM else Polynomial.variable(var)
        )
    frac = rf"\frac{{{numerator.to_latex()}}}{{{term.denominator.to_latex()}}}"
    return rf"q\,{frac}" if term.quantum else frac


def potential_to_latex(terms) -> str:
    return " + ".join(term_to_latex(term) for term in terms)
