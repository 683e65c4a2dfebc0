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

The denominator recursion and the numerator promotion run in one memoised
pass per (rank, index), so the check battery's pair and seed checks and the
terms read the same levels.  Each signed sum puts every pair straight into
its canonical monomial; each derivation is built in one Polynomial
construction over its (coefficient, exponents) pairs.

The text, LaTeX and JSON forms of a whole potential each name a variable
once, however many terms it occurs in; the JSON text is written directly.
"""

import json
from functools import cache, lru_cache
from typing import NamedTuple

from .diagrams import (
    DiagramPair,
    StructuralError,
    _grown,
    _shrunk,
    add_unique_box,
    check_index,
    check_rank,
    empty_diagram,
    full_columns,
    is_valid,
    staircase,
    staircase_prefix,
)
from .polynomials import (
    QUANTUM,
    Polynomial,
    is_plucker,
    plucker_var,
    variable_latex,
    variable_name,
)


class SuperpotentialTerm(NamedTuple):
    index: int
    numerator: Polynomial
    denominator: Polynomial
    quantum: bool = False


def check_plucker(n: int, rows) -> None:
    """Reject Plücker indices that are not full-length valid rank-n diagrams."""
    if len(rows) != n or not is_valid(n, rows):
        name = "p[" + ",".join(map(str, rows)) + "]"
        raise ValueError(f"{name} is not a diagram of rank {n}")


def plucker_poly(rows) -> Polynomial:
    """The Plücker variable of a diagram, as a polynomial."""
    return Polynomial.variable(plucker_var(rows))


def _term_seeds(n: int, i: int) -> tuple:
    """The seed diagrams of the i-th term, 0 <= i <= n+1, with plain ints.

    Each boundary index has one seed: the empty diagram for 0, the first
    column for 1, the row-prefix n-1 for n and the staircase for n+1.  A
    middle index 2 <= i <= n-1 has the pair (row-prefix i-1, column-fill i)
    where its box-moving recursion starts.  This is the one statement of
    the seeds: the terms, the battery's pair and seed checks and the
    predicted denominator restrictions all read it.
    """
    check_rank(n)
    check_index("term index", i, 0, n + 1)
    if 2 <= i <= n - 1:
        return staircase_prefix(n, i - 1), full_columns(n, i)
    if i <= 1:
        return (full_columns(n, 1) if i else empty_diagram(n),)
    return (staircase_prefix(n, n - 1) if i == n else staircase(n),)


@lru_cache(maxsize=None, typed=True)
def _pair_levels(n: int, i: int) -> tuple[tuple, tuple]:
    """The denominator levels of the i-th middle term and their promotions.

    Level 0 holds the single pair _term_seeds(n, i), that is (row-prefix
    i-1, column-fill i); level j+1 holds every pair reached from level j by
    moving one box from the first diagram to the second.  The recursion
    stops at the first empty level, which happens within binomial(i, 2) + 1
    levels because the first component loses a box per move.  Promoting a
    level adds a box labeled n+1-i to whichever component of each pair
    accepts it; pairs where neither component accepts contribute nothing,
    and both components accepting is a structural fault.  One removable scan
    of the first component and one addable scan of each component serve both
    the moves and the promotion.  Every diagram the recursion reads is one
    it built from valid diagrams, so it scans them without re-validating
    them.
    """
    check_rank(n)
    check_index("middle term index", i, 2, n - 1)
    label = n + 1 - i
    denominator, numerator = [], []
    level = (_term_seeds(n, i),)
    while level:
        moved, promoted = set(), set()
        for first, second in level:
            shrunk, grown = _shrunk(n, first), _grown(n, second)
            moved.update((shrunk[k], grown[k]) for k in shrunk if k in grown)
            up_first, up_second = _grown(n, first).get(label), grown.get(label)
            if up_first and up_second:
                raise StructuralError(
                    f"label {label} addable to both components of ({first}, {second})"
                )
            if up_first or up_second:
                promoted.add((up_first or first, up_second or second))
        denominator.append(level)
        numerator.append(tuple(sorted(promoted)))
        level = tuple(sorted(moved))
    return tuple(denominator), tuple(numerator)


def denominator_pair_levels(n: int, i: int) -> tuple[tuple[DiagramPair, ...], ...]:
    """Levels of the box-moving recursion for the i-th denominator (see
    _pair_levels)."""
    return _pair_levels(n, i)[0]


def numerator_pair_levels(n: int, i: int) -> tuple[tuple[DiagramPair, ...], ...]:
    """The one-box promotions of the denominator levels (see _pair_levels)."""
    return _pair_levels(n, i)[1]


def signed_pair_sum(levels) -> Polynomial:
    """Alternating sum over levels of the products p_first * p_second.

    Each pair is written straight as its canonical monomial, the smaller
    variable first or one variable squared, and its sign is added into one
    dict; cancelled monomials are dropped once, at the end.
    """
    acc: dict = {}
    get = acc.get
    for j, level in enumerate(levels):
        sign = -1 if j % 2 else 1
        for first, second in level:
            a = plucker_var(first)
            b = plucker_var(second)
            if a < b:
                mono = ((a, 1), (b, 1))
            elif b < a:
                mono = ((b, 1), (a, 1))
            else:
                mono = ((a, 2),)
            acc[mono] = get(mono, 0) + sign
    return Polynomial.from_terms({mono: coeff for mono, coeff in acc.items() if coeff})


def box_derivation(n: int, i: int, poly: Polynomial) -> Polynomial:
    """The derivation adding a box labeled n+1-i to one Plücker factor.

    A variable p_τ maps to p of τ with the box added when that addition is
    valid and to 0 otherwise; products follow the Leibniz rule and the whole
    map is linear.  Only polynomials in Plücker variables indexed by
    full-length rank-n diagrams are accepted; check_plucker validates each
    variable once, so the grown diagram is read straight off _grown.  An int
    is a constant, as for the polynomial operators, so its derivation is 0;
    any other operand raises TypeError.
    """
    check_rank(n)
    check_index("derivation index", i, 0, n)
    if (coerced := Polynomial._coerce(poly)) is None:
        raise TypeError(
            f"cannot differentiate a {type(poly).__name__}: not a polynomial or an int"
        )
    label = n + 1 - i

    def leibniz_terms():
        for mono, coeff in coerced.sorted_terms():
            for var, exp in mono:
                if not is_plucker(var):
                    raise ValueError(
                        "derivation is defined on polynomials in Plücker"
                        f" variables only, found {variable_name(var)}"
                    )
                check_plucker(n, var[1])
                grown = _grown(n, var[1]).get(label)
                if grown is not None:
                    exps = dict(mono)
                    exps[var] -= 1
                    image = plucker_var(grown)
                    exps[image] = exps.get(image, 0) + 1
                    yield coeff * exp, exps

    return Polynomial(leibniz_terms())


def potential_term(n: int, i: int) -> SuperpotentialTerm:
    """The i-th superpotential summand, 0 <= i <= n+1, grown from its seeds.

    A middle term is the quotient of the signed sums over its promoted and
    its denominator pair levels (see _pair_levels).  Every other term has
    one seed and that seed's variable as its denominator: the quantum term
    n+1 has q * p[row-prefix n-2] as its numerator, and terms 0, 1 and n the
    variable of the seed with its unique addable box added.
    """
    seeds = _term_seeds(n, i)
    i = int(i)  # a bool index is stored as its int
    if len(seeds) == 2:
        levels = numerator_pair_levels(n, i), denominator_pair_levels(n, i)
        return SuperpotentialTerm(i, *map(signed_pair_sum, levels))
    (seed,) = seeds
    if i == n + 1:
        numerator = Polynomial.variable(QUANTUM) * plucker_poly(staircase_prefix(n, n - 2))
        return SuperpotentialTerm(i, numerator, plucker_poly(seed), quantum=True)
    return SuperpotentialTerm(i, plucker_poly(add_unique_box(n, seed)), plucker_poly(seed))


def superpotential(n: int) -> list[SuperpotentialTerm]:
    """All n+2 terms in index order; denominator degrees add up to 2n."""
    check_rank(n)
    return [potential_term(n, i) for i in range(n + 2)]


def potential_to_text(terms) -> str:
    """One line W[i] = (numerator) / (denominator) per term, in text form."""
    namer = cache(variable_name)
    return "\n".join(
        f"W[{term.index}] = ({term.numerator.to_text(namer)})"
        f" / ({term.denominator.to_text(namer)})"
        for term in terms
    )


def potential_to_json(terms) -> str:
    """The terms as JSON text indented by two spaces.

    The bytes are those of json.dumps(document, indent=2), where the
    document holds one {index, quantum, numerator, denominator} record per
    term and each polynomial is its Polynomial.to_json_terms list.  The text
    is written directly, with no record built, and the line of each
    (variable, exponent) factor is made once.
    """

    @cache
    def line(factor) -> str:
        var, exp = factor
        name = json.encoder.encode_basestring_ascii(variable_name(var))
        return f"\n          {name}: {exp}"

    def polynomial(poly: Polynomial) -> str:
        records = []
        for mono, coeff in poly.sorted_terms():
            exponents = "{" + ",".join(map(line, mono)) + "\n        }" if mono else "{}"
            records.append(
                f'\n      {{\n        "coefficient": {coeff},'
                f'\n        "exponents": {exponents}\n      }}'
            )
        return "[" + ",".join(records) + "\n    ]" if records else "[]"

    records = [
        f'\n  {{\n    "index": {term.index},'
        f'\n    "quantum": {json.dumps(term.quantum)},'
        f'\n    "numerator": {polynomial(term.numerator)},'
        f'\n    "denominator": {polynomial(term.denominator)}\n  }}'
        for term in terms
    ]
    return "[" + ",".join(records) + "\n]" if records else "[]"


def term_to_latex(term: SuperpotentialTerm, namer) -> str:
    """Render one term as a LaTeX fraction, factoring q out of the quantum term."""
    numerator = term.numerator
    if term.quantum:
        numerator = numerator.substitute(
            lambda var: Polynomial.one() if var == QUANTUM else Polynomial.variable(var)
        )
    frac = (
        rf"\frac{{{numerator.to_latex(namer)}}}"
        rf"{{{term.denominator.to_latex(namer)}}}"
    )
    return rf"q\,{frac}" if term.quantum else frac


def potential_to_latex(terms) -> str:
    namer = cache(variable_latex)
    return " + ".join(term_to_latex(term, namer) for term in terms)
