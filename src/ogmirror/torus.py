"""Restriction of Plücker variables and potential terms to the torus chart.

The torus chart carries one coordinate a[label, column] per staircase box,
ordered by reading the boxes row by row, left to right (the reduced word).
The restriction of a Plücker variable p_D sums, over the admissible
subsequences of the word that build D, the product of the coordinates used.
With a_t the coordinate at word position t and R_t(D) that sum over the
first t positions, R_0 is 1 on the empty diagram and 0 elsewhere, and

    R_{t+1}(D) = R_t(D) + a_t * R_t(D minus the box of position t's label),

the second summand counting only when that box is removable from D.  Only
that summand uses a_t, so the two share no monomial: each R_t(D) is a
disjoint union of coefficient-1 monomials, one per admissible subsequence,
and the recurrence concatenates key lists without any arithmetic.  One
dynamic program evaluates this for a set of target diagrams and only those.
A backward pass over the word finds the live diagrams, those that can still
grow into a target: it scans each once, when it becomes live, for its
removable boxes and files it under each label it can lose, so the removals
at a position are the live diagrams filed under its label, with no test of
the others.  The forward pass replays those removals, each one read, shifted
and appended in a single step, and drops each diagram right after the last
position that reads it, the position where the backward pass made it live.
One phase per position is enough: a diagram that loses its box of some label
at cell (r, c) has no removable box of that label left.  The other cells of
that label are (r - k, c - k) and (r + k, c + k) for k >= 1 (labels n and n+1
sit on the main diagonal only, every other row).  Those up-left still have a
box below them, at (r - k + 1, c - k), and those down-right are empty, as
(r + 1, c) is.  So no list that a position reads is one that it writes.  Both
passes cost in proportion to the removals and the keys moved, not to
positions times live diagrams.  restrict_all targets every diagram,
restrict_plucker one, and restriction_residuals the diagrams its terms and
laurent_potential read, so a caller pays for the restrictions it reads.

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
255 raises OverflowError instead of carrying one field into the next.

The packed polynomial is itself a Polynomial of its rank, and every function
here returns one: it decodes its fields into tuple monomials on each read
of that kind, and stores no decoded copy.  A key's little-endian bytes are its exponent row in canonical
order, so a restriction, squarefree with coefficient 1, renders from one
sort of those rows and one pass that selects every factor's name from the
joined rows.  restriction_residuals restricts each term's numerator and
denominator once and decides every identity from those pairs; the restricted
quotients add, and compare with the Laurent form, as RationalExpression
does, by exact cross-multiplication.
"""

import json
from collections import Counter
from functools import lru_cache, reduce
from itertools import compress, cycle, starmap
from operator import or_

from .diagrams import (
    Diagram,
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
from .potential import check_plucker, potential_term, superpotential

_FIELD_BITS = 8
_FIELD_MAX = (1 << _FIELD_BITS) - 1


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
        bound = self.bound + other.bound
        if bound > _FIELD_MAX:
            raise OverflowError(
                f"product exponent bound {bound} exceeds the packed field"
                f" maximum {_FIELD_MAX}"
            )
        small, large = sorted((self.terms, other.terms), key=len)
        if len(small) == 1:
            ((shift, scale),) = small.items()
            terms = {key + shift: coeff * scale for key, coeff in large.items()}
            return _Packed(self.n, terms, bound)
        acc: dict = {}
        get = acc.get
        for k1, c1 in small.items():
            for k2, c2 in large.items():
                key = k1 + k2
                acc[key] = get(key, 0) + c1 * c2
        terms = {key: coeff for key, coeff in acc.items() if coeff}
        return _Packed(self.n, terms, bound)

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
    """(label, column) pairs of the staircase boxes in reading order."""
    return tuple(
        (label, c) for row in _label_table(n) for c, label in enumerate(row, 1)
    )


@lru_cache(maxsize=None)
def _variables(n: int) -> tuple:
    """The variable of each packed field: q, then the coordinates in order."""
    return (QUANTUM,) + tuple(torus_var(*box) for box in sorted(reduced_word(n)))


@lru_cache(maxsize=None)
def _position_bits(n: int) -> tuple[int, ...]:
    """The packed monomial of the coordinate at each word position."""
    word = reduced_word(n)
    field = {box: k for k, box in enumerate(sorted(word), 1)}
    return tuple(1 << _FIELD_BITS * field[box] for box in word)


def _path_sums(n: int, targets) -> dict:
    """Packed restrictions of the target diagrams, keyed by diagram.

    Evaluates R_{t+1}(D) = R_t(D) + a_t * R_t(D minus box_t) on live diagrams
    only: those that can still grow into a target.  The backward pass scans
    each diagram once, when it becomes live, and files it under every label
    it can lose, so the removals at position t are the diagrams filed under
    t's label; each step records them and the diagrams they made live.  The
    forward pass keeps each live diagram's packed keys and, per removal in
    one loop, appends to a diagram the smaller one's keys shifted by t's
    field; then it drops the diagrams made live at t, as t is the last
    position that reads them.  Nothing is staged: a diagram that loses t's
    label cannot lose it again (see the module docstring), so no diagram
    written at t is read at t as a smaller one.  The two summands are
    disjoint and every coefficient is 1, so the lists are concatenated,
    never merged, and each target's list becomes a packed polynomial once,
    at the end.  Every coordinate sits at one word position, so two
    subsequences never give one key: a repeated key can only be a fault of
    the program and raises RuntimeError.
    """
    word = reduced_word(n)
    filed: dict = {label: [] for label, _ in word}
    live = set(targets)
    born = live
    steps = []
    for label, _ in reversed(word):
        # file what the later position made live (the targets, at first)
        for rows in born:
            for lost, smaller in _shrunk(n, rows).items():
                filed[lost].append((rows, smaller))
        # a copy: diagrams made live later file under this label too
        removals = filed[label][:]
        born = {smaller for _, smaller in removals} - live
        live |= born
        steps.append((removals, born))
    state = {empty_diagram(n): [0]}
    get = state.get
    for shift, (removals, born) in zip(_position_bits(n), reversed(steps)):
        for rows, smaller in removals:
            if (keys := get(smaller)) is None:
                continue
            moved = [key + shift for key in keys]
            if (kept := get(rows)) is None:
                state[rows] = moved
            else:
                kept += moved
        for rows in born:
            state.pop(rows, None)
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


def _restriction_table(n: int, polys, *extra: Diagram) -> dict:
    """Path sums of the Plücker diagrams the polynomials read, plus extra ones.

    A Plücker variable that is not a full-length rank-n diagram raises
    ValueError, the least such variable named.
    """
    targets = {var[1] for poly in polys for var in poly.variables() if is_plucker(var)}
    for rows in sorted(targets):
        check_plucker(n, rows)
    return _path_sums(n, targets.union(extra))


def _restrict(n: int, table: dict, poly: Polynomial) -> _Packed:
    """Packed restriction of a polynomial in Plücker variables and q.

    table holds the path sum of every Plücker variable of poly.
    """
    total = _Packed(n, {}, 0)
    for mono, coeff in poly.sorted_terms():
        piece = _Packed(n, {0: coeff}, 0)
        for var, exp in mono:
            if is_plucker(var):
                factor = table[var[1]]
            elif is_quantum(var):
                factor = _Packed(n, {1: 1}, 1)
            else:
                raise ValueError(f"input already contains the torus variable {var!r}")
            for _ in range(exp):
                piece = piece * factor
        total = total + piece
    return total


def restrict_polynomial(n: int, poly: Polynomial) -> Polynomial:
    """Restrict a polynomial in Plücker variables (q passes through).

    Every Plücker variable is replaced by its restriction and the result is
    expanded exactly; polynomials already containing torus variables, or
    Plücker variables that are not diagrams of rank n, are rejected.
    """
    return _restrict(n, _restriction_table(n, [poly]), poly)


def predicted_denominator_restriction(n: int, i: int) -> Polynomial:
    """Closed-form monomial the restricted i-th denominator must equal.

    Writing ell_k = k(k+1)/2 for the number of boxes in the first k rows:
    index 0 gives 1, index 1 the product over column-1 positions, index n
    the product over the first ell_{n-1} positions, index n+1 the product
    over all positions, and a middle index i the product over the first
    ell_{i-1} positions times the product over positions with column <= i.
    """
    check_rank(n)
    check_index("term index", i, 0, n + 1)
    word = reduced_word(n)
    if i == 0:
        positions = []
    elif i == n:
        positions = range((n - 1) * n // 2)
    elif i == n + 1:
        positions = range(len(word))
    else:  # also index 1, whose first ell_0 = 0 positions add nothing
        positions = [*range((i - 1) * i // 2)]
        positions += [t for t in range(len(word)) if word[t][1] <= i]
    # a middle index reads the positions of the first rows twice
    uses = Counter(positions)
    bits = _position_bits(n)
    key = sum(bits[t] * count for t, count in uses.items())
    return _Packed(n, {key: 1}, max(uses.values(), default=0))


def term_restriction_factor(n: int, i: int) -> Polynomial:
    """Sum of a[n+1-i, column] over the columns where label n+1-i occurs."""
    check_rank(n)
    check_index("term index", i, 0, n)
    label = n + 1 - i
    positions = [t for t, (lab, _) in enumerate(reduced_word(n)) if lab == label]
    bits = _position_bits(n)
    return _Packed(n, dict.fromkeys([bits[t] for t in positions], 1), 1)


def _restricted_pairs(n: int, terms, *extra: Diagram) -> tuple[dict, list]:
    """The path sums of the terms' Plücker diagrams plus extra ones, and the
    packed restricted (numerator, denominator) of each term, one pass each."""
    polys = [poly for term in terms for poly in (term.numerator, term.denominator)]
    table = _restriction_table(n, polys, *extra)
    pairs = [
        (_restrict(n, table, term.numerator), _restrict(n, table, term.denominator))
        for term in terms
    ]
    return table, pairs


def _term_residual(n: int, i: int, numerator, denominator) -> _Packed:
    """A restricted numerator minus its restricted denominator times the
    i-th term_restriction_factor: zero iff the term identity holds."""
    return numerator - denominator * term_restriction_factor(n, i)


def term_restriction_residual(n: int, i: int) -> Polynomial:
    """Term residual of the i-th superpotential term (see restriction_residuals)."""
    _, (pair,) = _restricted_pairs(n, [potential_term(n, i)])
    return _term_residual(n, i, *pair)


def verify_term_restriction(n: int, i: int) -> bool:
    """True iff the restricted i-th term equals its predicted column sum."""
    return not term_restriction_residual(n, i)


def coordinate_sum(n: int) -> Polynomial:
    """The sum of all torus coordinates a[label, column]."""
    return _Packed(n, dict.fromkeys(_position_bits(n), 1), 1)


def _laurent_diagrams(n: int) -> tuple[Diagram, Diagram]:
    """The staircase and the row-prefix n-2 diagram laurent_potential reads."""
    return staircase(n), staircase_prefix(n, n - 2)


def _laurent_potential(n: int, table: dict) -> RationalExpression:
    full, prefix = (table[rows] for rows in _laurent_diagrams(n))
    quantum = _Packed(n, {1: 1}, 1) * prefix
    return RationalExpression(coordinate_sum(n) * full + quantum, full)


def laurent_potential(n: int) -> RationalExpression:
    """The restricted potential in closed form, as one rational expression.

    The non-quantum part is the plain sum of all torus coordinates; the
    quantum part is q times the restriction of the row-prefix n-2 diagram
    over the full staircase monomial, so the whole expression is a Laurent
    polynomial in the torus coordinates.
    """
    return _laurent_potential(n, _path_sums(n, _laurent_diagrams(n)))


def _quotient_sum(n: int, pairs) -> RationalExpression:
    """The restricted (numerator, denominator) pairs added as quotients.

    The packed zero quotient is the explicit start, so no pairs sum to it
    rather than to the int 0.
    """
    zero = RationalExpression(_Packed(n, {}, 0), _Packed(n, {0: 1}, 0))
    return sum(starmap(RationalExpression, pairs), zero)


def restricted_term_sum(n: int) -> RationalExpression:
    """Sum over all terms of restrict(numerator)/restrict(denominator)."""
    _, pairs = _restricted_pairs(n, superpotential(n))
    return _quotient_sum(n, pairs)


def restriction_residuals(n: int, terms) -> tuple[list, list, bool]:
    """The restriction identities of the terms, restricting each term once.

    Returns (denominator residuals, term residuals, Laurent verdict): per
    term, restrict(denominator) minus predicted_denominator_restriction;
    per term of index i <= n, restrict(numerator) minus restrict(denominator)
    times term_restriction_factor; and whether the restricted terms, added
    as rational expressions, equal laurent_potential(n).  The verdict is
    False when some denominator restricts to zero, as no quotient exists.
    A residual is zero iff its identity holds.  One dynamic program
    restricts exactly the diagrams these identities read: the Plücker
    variables of the terms and the two diagrams of laurent_potential.  A
    Plücker variable that is not a diagram of rank n raises ValueError.
    """
    table, pairs = _restricted_pairs(n, terms, *_laurent_diagrams(n))
    denominator_residuals = [
        denominator - predicted_denominator_restriction(n, term.index)
        for term, (_, denominator) in zip(terms, pairs)
    ]
    term_residuals = [
        _term_residual(n, term.index, *pair)
        for term, pair in zip(terms[: n + 1], pairs)
    ]
    holds = all(denominator for _, denominator in pairs) and (
        _quotient_sum(n, pairs) == _laurent_potential(n, table)
    )
    return denominator_residuals, term_residuals, holds
