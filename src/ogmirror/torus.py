"""Restriction of Plücker variables and potential terms to the torus chart.

The torus chart carries one coordinate a[label, column] per staircase box,
ordered by the reduced word: the boxes read row by row, left to right.
reduced_word is the only statement of that order here; every other function
reads it from there, so any linear extension of the cells runs unchanged.
The restriction of a Plücker variable p_D sums, over the admissible
subsequences of the word that build D, the product of the coordinates used.
With a_t the coordinate at word position t and R_t(D) that sum over the
first t positions, R_0 is 1 on the empty diagram and 0 elsewhere, and

    R_{t+1}(D) = R_t(D) + a_t * R_t(D minus the box of position t's label),

the second summand counting only when that box is removable from D.  Only
that summand uses a_t, so the two share no monomial: each R_t(D) is a
disjoint union of coefficient-1 monomials, one per admissible subsequence.
_path_sums evaluates this for a set of target diagrams and only those.  By
the subword property, R_t(D) is nonzero exactly when all of D's cells sit
among the first t word positions, that is when its entry position e(D)
(_entry) is at most t, so the program reads a removal at t only when the
smaller diagram's entry is at most t: every other removal adds zero.

Packed exponents.  Every coordinate a[label, column] sits at exactly one
word position, so the whole torus side works on packed polynomials in q
and the coordinates of one rank.  A monomial is a single Python int cut
into 8-bit fields in canonical variable order, least significant first:
field 0 holds the exponent of q and field k the exponent of the k-th
coordinate in (label, column) order.  Multiplying two monomials is adding
their ints, and adding the box at word position t to a build sequence is
adding _position_bits(n)[t].  A packed polynomial maps such ints to nonzero
integer coefficients and carries an upper bound on every field: 1 for a
restriction (0 for the empty diagram's), the sum of the bounds for a
product and their maximum for a sum.  A product whose bound would exceed
255 raises OverflowError instead of carrying one field into the next; one
function, _product_bound, makes that check for every product.

restrict_all and restrict_plucker return path sums.  Every polynomial in
Plücker variables and q restricts through _restricted, one dynamic program
per call, and every function here returns a packed polynomial, _Packed.
"""

import json
from collections import Counter
from functools import lru_cache, reduce
from itertools import compress, cycle, product
from operator import getitem, or_

from .diagrams import (
    _label_table,
    _shrunk,
    all_diagrams,
    check_index,
    check_rank,
    diagram,
    empty_diagram,
    staircase,
    staircase_prefix,
)
from .polynomials import (
    QUANTUM,
    Polynomial,
    RationalExpression,
    _accumulate,
    is_plucker,
    is_quantum,
    torus_var,
    variable_name,
)
from .potential import _term_seeds, check_plucker, plucker_poly, potential_term, superpotential

_FIELD_BITS = 8
_FIELD_MAX = (1 << _FIELD_BITS) - 1


def _product_bound(left: int, right: int) -> int:
    """The field bound of a product of two packed polynomials with these
    bounds: their sum, which must not exceed the packed field maximum."""
    bound = left + right
    if bound > _FIELD_MAX:
        raise OverflowError(
            f"product exponent bound {bound} exceeds the packed field"
            f" maximum {_FIELD_MAX}"
        )
    return bound


class _Packed(Polynomial):
    """Polynomial in q and the coordinates of rank n, on packed exponent ints.

    ``terms`` maps packed monomials to nonzero integer coefficients and is
    never mutated; ``bound`` bounds every exponent of every term.  With a
    packed polynomial of the same rank, + - * and == stay packed; anything
    else goes through Polynomial, which reads the terms decoded into tuple
    monomials on each read; the packed terms are the only stored form.
    """

    __slots__ = ("n", "terms", "bound")

    def __init__(self, n: int, terms: dict, bound: int):
        self.n = n
        self.terms = terms
        self.bound = bound

    @property
    def _terms(self) -> dict:
        variables = _variables(self.n)
        return {
            tuple(zip(compress(variables, row), compress(row, row))): coeff
            for row, coeff in zip(self._rows(self.terms), self.terms.values())
        }

    def _rows(self, keys) -> list:
        """The exponent row of each key: one byte per field, field 0 first."""
        count = len(_variables(self.n))
        try:
            return [key.to_bytes(count, "little") for key in keys]
        except OverflowError:
            union = reduce(or_, keys, 0)
            message = f"packed key {union:#x} runs past the last field"
            raise ValueError(message) from None

    def _same_packing(self, other) -> bool:
        return isinstance(other, _Packed) and other.n == self.n

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not self._same_packing(other):
            return super().__eq__(other)
        return self.terms == other.terms

    def term_count(self) -> int:
        return len(self.terms)

    def __neg__(self) -> "_Packed":
        negated = {key: -coeff for key, coeff in self.terms.items()}
        return _Packed(self.n, negated, self.bound)

    def __add__(self, other):
        if not self._same_packing(other):
            return super().__add__(other)
        terms = dict(self.terms)
        _accumulate(terms, other.terms)
        return _Packed(self.n, terms, max(self.bound, other.bound))

    def __mul__(self, other):
        if not self._same_packing(other):
            return super().__mul__(other)
        bound = _product_bound(self.bound, other.bound)
        acc: dict = {}
        get = acc.get
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = k1 + k2
                acc[key] = get(key, 0) + c1 * c2
        return _Packed(self.n, {key: c for key, c in acc.items() if c}, bound)

    def _squarefree_factors(self, names: list):
        """The names of each term's factors in canonical term order, or None.

        When every term is squarefree with coefficient 1 and of one degree,
        as in a restriction, the exponent rows compared in descending order
        give exactly the order Polynomial.sorted_terms gives, so one sort on
        them replaces decoding and sorting tuple monomials.  One pass over
        all terms follows: the sorted rows, joined, select the names of
        every factor of every term in order, and cutting that stream into
        runs of the common degree gives the terms.  The constant 1 is one
        empty term.  Other polynomials (and keys past the last field) return
        None.
        """
        ones = int.from_bytes(b"\1" * len(_variables(self.n)), "little")
        keys = self.terms
        if (
            reduce(or_, keys, 0) | ones != ones
            or len(set(map(int.bit_count, keys))) > 1
            or not set(keys.values()) <= {1}
        ):
            return None
        rows = self._rows(keys)
        rows.sort(reverse=True)
        degree = rows[0].count(1) if rows else 0
        if not degree:
            return [()] * len(rows)
        factors = compress(cycle(names), b"".join(rows))
        return zip(*[factors] * degree)

    def _render(self, namer, times: str, power: str, minus: str) -> str:
        """A restriction renders in one pass over all its terms.

        Its sorted rows select every factor's name in order, the stream is
        cut into terms of the common degree, and each term is one join of
        its names, with no per-term decoding.  Any other polynomial renders
        as Polynomial does.
        """
        names = [namer(var) for var in _variables(self.n)]
        terms = self._squarefree_factors(names)
        if terms is None:
            return super()._render(namer, times, power, minus)
        return " + ".join(map(times.join, terms)) or ("1" if self.terms else "0")

    def to_json(self) -> str:
        members = [json.dumps(variable_name(var)) + ": 1" for var in _variables(self.n)]
        terms = self._squarefree_factors(members)
        if terms is None:
            return super().to_json()
        if not self.terms:
            return "[]"
        head = '{"coefficient": 1, "exponents": {'
        body = ("}}, " + head).join(map(", ".join, terms))
        return "[" + head + body + "}}]"


def reduced_word(n: int) -> tuple[tuple[int, int], ...]:
    """(label, column) pairs of the staircase boxes in reading order.

    The one statement of the chart's order.  Any other linear extension of
    the cells, each cell after the cell above it and the cell to its left,
    is a reduced word too; the tests swap such words in here.
    """
    return tuple(
        (label, c) for row in _label_table(n) for c, label in enumerate(row, 1)
    )


@lru_cache(maxsize=None)
def _row_ends(n: int) -> tuple[tuple[int, ...], ...]:
    """Per row, at index d, the entry of its first d cells alone: one past
    the word position of its d-th cell, and 0 for d = 0."""
    positions = {box: t for t, box in enumerate(reduced_word(n), 1)}
    cells = [[(label, c) for c, label in enumerate(row, 1)] for row in _label_table(n)]
    return tuple((0, *map(positions.get, row)) for row in cells)


def _entry(rows) -> int:
    """e(D): the fewest leading letters of the reduced word that build D.

    The first t letters build D exactly when D's cells all sit among the
    first t word positions (the subword property), so e(D) is one past the
    last word position among D's cells, and 0 for the empty diagram.  A cell
    comes after the cell to its left, so that last cell ends a row.
    """
    return max(map(getitem, _row_ends(len(rows)), rows))


@lru_cache(maxsize=None)
def _variables(n: int) -> tuple:
    """The variable of each packed field, the one statement of the field
    order: field 0 holds q and field k the k-th coordinate in (label,
    column) order.  It reads the sorted cells, which are the same for every
    reduced word, so it does not depend on which word is read."""
    return (QUANTUM,) + tuple(torus_var(*box) for box in sorted(reduced_word(n)))


@lru_cache(maxsize=None)
def _position_bits(n: int) -> tuple[int, ...]:
    """The packed monomial of the coordinate at each word position: a 1 in
    the field _variables gives that coordinate."""
    field = {var: k for k, var in enumerate(_variables(n))}
    return tuple(1 << _FIELD_BITS * field[torus_var(*box)] for box in reduced_word(n))


def _path_sums(n: int, targets) -> dict:
    """Packed restrictions of the target diagrams, keyed by diagram.

    Evaluates R_{t+1}(D) = R_t(D) + a_t * R_t(D minus box_t) on live diagrams
    only: those that some admissible subsequence building a target passes
    through.  The backward pass scans each diagram once, when it becomes
    live, and files it under every label it can lose, so the removals at
    position t are the diagrams filed under t's label; each step records
    them and the diagrams they made live.  A removal is filed with the
    smaller diagram's entry e, and only while e is at most t: the first t
    letters build no diagram of a later entry, so any other removal adds
    zero.  A position drops the removals it reads whose e exceeds it; t
    only falls, so no later position needs them.  Only the smaller
    diagrams of the removals kept become live.  The forward pass
    keeps each live diagram's packed keys and, per removal in one loop,
    appends to a diagram the smaller one's keys shifted by t's field; then
    it drops the diagrams made live at t, as t is the last position that
    reads them.  Every removal kept finds its smaller diagram's keys, so a
    missing one is a fault of the program and raises RuntimeError.  Both
    passes cost in proportion to the removals and the keys moved, not to
    positions times live diagrams.

    Nothing is staged: a diagram that loses t's label at cell (r, c) has no
    removable box of that label left, so no diagram written at t is read at
    t as a smaller one.  The other cells of that label are (r - k, c - k)
    and (r + k, c + k) for k >= 1 (labels n and n+1 sit on the main
    diagonal only, every other row).  Those up-left still have a box below
    them, at (r - k + 1, c - k), and those down-right are empty, as
    (r + 1, c) is.

    The two summands are disjoint and every coefficient is 1, so the lists
    are concatenated, never merged, and each target's list becomes a packed
    polynomial once, at the end, with coefficient 1 on every key: _restricted
    relies on that to expand products without multiplying coefficients.
    Every coordinate sits at one word position, so two subsequences never
    give one key: a repeated key can only be a fault of the program and
    raises RuntimeError.
    """
    word = reduced_word(n)
    filed: dict = {label: [] for label, _ in word}
    live = set(targets)
    born = live
    steps = []
    for t in reversed(range(len(word))):
        # file what the later position made live (the targets, at first),
        # under every label whose smaller diagram the first t letters build
        for rows in born:
            for lost, smaller in _shrunk(n, rows).items():
                if (entry := _entry(smaller)) <= t:
                    filed[lost].append((entry, rows, smaller))
        # t only falls, so a removal dropped here is never read again;
        # the copy keeps later filings under this label out of this step
        label = word[t][0]
        removals = [removal for removal in filed[label] if removal[0] <= t]
        filed[label] = removals[:]
        born = {smaller for _, _, smaller in removals} - live
        live |= born
        steps.append((removals, born))
    state = {empty_diagram(n): [0]}
    get = state.get
    for t, (shift, (removals, born)) in enumerate(zip(_position_bits(n), reversed(steps))):
        for _, rows, smaller in removals:
            if (keys := get(smaller)) is None:
                raise RuntimeError(f"no path sum of {smaller} at position {t}")
            moved = [key + shift for key in keys]
            if (kept := get(rows)) is None:
                state[rows] = moved
            else:
                kept += moved
        for rows in born:
            del state[rows]
    table = {}
    for rows in targets:
        keys = state[rows]
        terms = dict.fromkeys(keys, 1)
        if len(terms) != len(keys):
            raise RuntimeError(f"the path sum of {rows} repeats a monomial")
        table[rows] = _Packed(n, terms, int(any(rows)))
    return table


def restrict_all(n: int) -> dict:
    """Packed restrictions of all Plücker variables, keyed by diagram: the
    path-sum dynamic program with every diagram as a target."""
    return _path_sums(n, all_diagrams(n))


def restrict_plucker(n: int, rows) -> Polynomial:
    """Path-sum restriction of one Plücker variable.

    Runs the dynamic program with this diagram as the only target, so a
    rank whose full table does not fit in memory still restricts a small
    diagram.
    """
    rows = diagram(n, rows)
    return _path_sums(n, (rows,))[rows]


def _restricted(n: int, polys) -> list:
    """Packed restrictions of polynomials in Plücker variables and q, in order.

    First every Plücker variable of every polynomial is checked: one that is
    not a full-length rank-n diagram raises ValueError, the least such
    variable named.  Then one _path_sums call restricts the diagrams the
    polynomials read, and each polynomial expands into its own accumulator.
    Every factor of a monomial c * f_1 * ... * f_k is a path sum, whose
    coefficients _path_sums makes all 1, or q, the single key 1 with
    coefficient 1, so each choice of one key per factor adds c at the sum of
    the keys chosen, with no intermediate polynomial.  Cancelled keys are
    dropped once per polynomial, and its bound is the largest sum of factor
    bounds over its monomials.  The monomials are read in canonical order,
    so a torus variable, or a partial product bound past the packed field
    maximum, raises at the first monomial that has one.
    """
    targets = {var[1] for poly in polys for var in poly.variables() if is_plucker(var)}
    for rows in sorted(targets):
        check_plucker(n, rows)
    table = _path_sums(n, targets)
    quantum = _Packed(n, {1: 1}, 1)
    restricted = []
    for poly in polys:
        acc: dict = {}
        get = acc.get
        bound = 0
        for mono, coeff in poly.sorted_terms():
            factors = []
            mono_bound = 0
            for var, exp in mono:
                if not (is_plucker(var) or is_quantum(var)):
                    raise ValueError(f"input already contains the torus variable {var!r}")
                factor = table[var[1]] if is_plucker(var) else quantum
                factors += [factor.terms] * exp
                mono_bound = reduce(_product_bound, [factor.bound] * exp, mono_bound)
            for key in map(sum, product(*factors)):
                acc[key] = get(key, 0) + coeff
            bound = max(bound, mono_bound)
        restricted.append(_Packed(n, {key: c for key, c in acc.items() if c}, bound))
    return restricted


def restrict_polynomial(n: int, poly: Polynomial) -> Polynomial:
    """Restrict a polynomial in Plücker variables (q passes through).

    Every Plücker variable is replaced by its restriction and the result is
    expanded exactly; polynomials already containing torus variables, or
    Plücker variables that are not diagrams of rank n, are rejected.  An int
    is a constant, as for the polynomial operators; any other operand
    raises TypeError.
    """
    if (coerced := Polynomial._coerce(poly)) is None:
        raise TypeError(f"cannot restrict a {type(poly).__name__}: not a polynomial or an int")
    (restricted,) = _restricted(n, [coerced])
    return restricted


def predicted_denominator_restriction(n: int, i: int) -> Polynomial:
    """Closed-form monomial the restricted i-th denominator must equal.

    It is the product of the coordinates of the cells of term i's seed
    diagrams, potential._term_seeds(n, i), where a cell of both seeds of a
    middle term counts twice.
    """
    seeds = _term_seeds(n, i)
    uses = Counter(
        end for seed in seeds for ends, d in zip(_row_ends(n), seed) for end in ends[1 : d + 1]
    )
    bits = _position_bits(n)
    key = sum(bits[end - 1] * count for end, count in uses.items())
    return _Packed(n, {key: 1}, max(uses.values(), default=0))


def term_restriction_factor(n: int, i: int) -> Polynomial:
    """Sum of a[n+1-i, column] over the columns where label n+1-i occurs."""
    check_rank(n)
    check_index("term index", i, 0, n)
    label = n + 1 - i
    positions = [t for t, (lab, _) in enumerate(reduced_word(n)) if lab == label]
    bits = _position_bits(n)
    return _Packed(n, dict.fromkeys([bits[t] for t in positions], 1), 1)


def _fractions(terms) -> list:
    """The numerator and denominator of each term, in term order."""
    return [poly for term in terms for poly in (term.numerator, term.denominator)]


def _has_term_identity(n: int, term) -> bool:
    """Whether a term has a derivation and a term-restriction identity: each
    term of index at most n does, wherever it stands in its list."""
    return term.index <= n


def _term_residual(n: int, i: int, numerator, denominator) -> _Packed:
    """A restricted numerator minus its restricted denominator times the
    i-th term_restriction_factor: zero iff the term identity holds."""
    return numerator - denominator * term_restriction_factor(n, i)


def term_restriction_residual(n: int, i: int) -> Polynomial:
    """Term residual of the i-th superpotential term (see restriction_residuals)."""
    return _term_residual(n, i, *_restricted(n, _fractions([potential_term(n, i)])))


def verify_term_restriction(n: int, i: int) -> bool:
    """True iff the restricted i-th term equals its predicted column sum."""
    return not term_restriction_residual(n, i)


def coordinate_sum(n: int) -> Polynomial:
    """The sum of all torus coordinates a[label, column]."""
    return _Packed(n, dict.fromkeys(_position_bits(n), 1), 1)


def _laurent_polys(n: int) -> list:
    """p[staircase] and q * p[row-prefix n-2], whose restrictions are the
    denominator and the quantum part of the Laurent form.

    This states the quantum term a second time on purpose: the Laurent
    verdict is the one check that compares term n+1 with a form the
    construction does not build, so a wrong quantum term from potential_term
    would not cancel on both sides of it.
    """
    full, prefix = map(plucker_poly, (staircase(n), staircase_prefix(n, n - 2)))
    return [full, Polynomial.variable(QUANTUM) * prefix]


def _laurent_form(n: int, full: _Packed, quantum: _Packed) -> RationalExpression:
    """The Laurent form from the restrictions of _laurent_polys(n)."""
    return RationalExpression(coordinate_sum(n) * full + quantum, full)


def laurent_potential(n: int) -> RationalExpression:
    """The restricted potential in closed form, as one rational expression.

    The non-quantum part is the plain sum of all torus coordinates; the
    quantum part is q times the restriction of the row-prefix n-2 diagram
    over the full staircase monomial, so the whole expression is a Laurent
    polynomial in the torus coordinates.
    """
    return _laurent_form(n, *_restricted(n, _laurent_polys(n)))


def _quotient_sum(n: int, restricted: list) -> RationalExpression:
    """Restricted numerators and denominators, alternating, added as quotients.

    The packed zero quotient is the explicit start, so no pairs sum to it
    rather than to the int 0.
    """
    zero = RationalExpression(_Packed(n, {}, 0), _Packed(n, {0: 1}, 0))
    return sum(map(RationalExpression, restricted[::2], restricted[1::2]), zero)


def restricted_term_sum(n: int) -> RationalExpression:
    """Sum over all terms of restrict(numerator)/restrict(denominator)."""
    return _quotient_sum(n, _restricted(n, _fractions(superpotential(n))))


def restriction_residuals(n: int, terms) -> tuple[list, list, bool]:
    """The restriction identities of the terms, restricting each term once.

    Returns (denominator residuals, term residuals, Laurent verdict): per
    term, restrict(denominator) minus predicted_denominator_restriction;
    per term of index i <= n, restrict(numerator) minus restrict(denominator)
    times term_restriction_factor; and whether the restricted terms, added
    as rational expressions, equal laurent_potential(n).  Both residual
    lists follow the order of the terms given, and a term's index, not its
    place in the list, decides whether it has a term identity; a list that
    lacks some terms fails only the Laurent verdict, as a partial sum is not
    the Laurent form.  The verdict is False when some denominator restricts
    to zero, as no quotient exists.
    A residual is zero iff its identity holds.  One _restricted call
    restricts the terms' numerators and denominators and, at the end of the
    same list, the two polynomials of the Laurent form, so one dynamic
    program reads exactly the diagrams these identities need.  A Plücker
    variable that is not a diagram of rank n raises ValueError.
    """
    *restricted, full, quantum = _restricted(n, _fractions(terms) + _laurent_polys(n))
    numerators, denominators = restricted[::2], restricted[1::2]
    denominator_residuals = [
        denominator - predicted_denominator_restriction(n, term.index)
        for term, denominator in zip(terms, denominators)
    ]
    term_residuals = [
        _term_residual(n, term.index, numerator, denominator)
        for term, numerator, denominator in zip(terms, numerators, denominators)
        if _has_term_identity(n, term)
    ]
    holds = all(denominators) and (
        _quotient_sum(n, restricted) == _laurent_form(n, full, quantum)
    )
    return denominator_residuals, term_residuals, holds
