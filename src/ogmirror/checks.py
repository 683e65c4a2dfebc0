"""Named verification checks backing the verify command.

Each check covers one structural or restriction identity for a given rank;
run_checks executes the whole battery and returns flat records that the CLI
renders as text or JSON.  The checks go through the public construction
functions, so a passing battery exercises the box calculus, the pair
recursion, the derivation and the path-sum restriction together; only
unique_positions reads the diagram scans directly, to count a label that
fits twice where the public functions raise StructuralError.  A check whose
computation rejects a broken term fails, naming the term and the error,
instead of aborting the battery; terms that cannot be restricted fail every
restriction check with the restriction's error.  The pair recursion and
the numerator promotion each run once per middle term: the pair and seed
checks read the memoised levels that the terms are built from, not a
second recursion or promotion.  The three restriction checks are built
from one torus.restriction_residuals pass, which restricts each term once.
The derivation and term-restriction identities belong to the terms of index
at most n, in whatever order they are given: a reordered list passes as the
canonical one does, and a list without some terms fails laurent_assembly
and nothing else.
"""

from types import SimpleNamespace
from typing import NamedTuple

from .diagrams import (
    _addable_cells,
    _removable_cells,
    add_unique_box,
    all_diagrams,
    box_count,
    check_rank,
)
from .polynomials import Polynomial
from .potential import (
    _term_seeds,
    box_derivation,
    denominator_pair_levels,
    numerator_pair_levels,
    superpotential,
)
from .torus import _has_term_identity, restriction_residuals

# Failure details name a residual's size and only its leading terms.
DETAIL_TERMS = 3


class CheckResult(NamedTuple):
    name: str
    n: int
    index: int | None
    passed: bool
    detail: str = ""


# perfbench/selftest.py fakes a failed check with dataclasses.replace, from
# when this record was a dataclass.  That function reads only the name, init
# flag and field type of each entry here, and builds the copy by keyword;
# no other dataclasses function works on the record.
CheckResult.__dataclass_fields__ = {
    name: SimpleNamespace(name=name, init=True, _field_type=None)
    for name in CheckResult._fields
}


def all_passed(results) -> bool:
    return all(result.passed for result in results)


def _diagram_count(n):
    count = len(all_diagrams(n))
    return CheckResult("diagram_count", n, None, count == 2**n, f"{count} diagrams")


def _unique_positions(n):
    bad = []
    for rows in all_diagrams(n):
        fits = [(label, "addable") for _, _, label in _addable_cells(n, rows)]
        fits += [(label, "removable") for _, _, label in _removable_cells(n, rows)]
        if len(set(fits)) < len(fits):
            repeated = sorted({fit for fit in fits if fits.count(fit) > 1})
            bad += [(kind, rows, label) for label, kind in repeated]
    return CheckResult(
        "unique_positions", n, None, not bad, f"violations: {bad}" if bad else ""
    )


def _pair_recursion(n, i, denominator_levels):
    bound = i * (i - 1) // 2 + 1
    issues = []
    if len(denominator_levels) > bound:
        issues.append(f"{len(denominator_levels)} levels exceed bound {bound}")
    first_boxes, second_boxes = map(box_count, _term_seeds(n, i))
    for j, level in enumerate(denominator_levels):
        if not level:
            issues.append(f"empty level {j}")
        for first, second in level:
            if box_count(first) != first_boxes - j or box_count(second) != second_boxes + j:
                issues.append(f"level {j} grading broken at ({first}, {second})")
    return CheckResult(
        "pair_recursion", n, i, not issues, "; ".join(issues)
    )


def _numerator_seed(n, i, numerator_levels):
    first, second = _term_seeds(n, i)
    expected = ((add_unique_box(n, first), second),)
    ok = numerator_levels[0] == expected
    return CheckResult(
        "numerator_seed", n, i, ok, "" if ok else f"level 0 is {numerator_levels[0]}"
    )


def _derivation_identity(n, term):
    try:
        derived = box_derivation(n, term.index, term.denominator)
    except ValueError as err:
        return CheckResult(
            "derivation_identity", n, term.index, False, f"term {term.index}: {err}"
        )
    ok = derived == term.numerator
    return CheckResult(
        "derivation_identity", n, term.index, ok,
        "" if ok else f"derived {derived} != numerator {term.numerator}",
    )


def _degree_sum(n, terms):
    total = 0
    for term in terms:
        try:
            total += term.denominator.plucker_degree()
        except ValueError as err:
            return CheckResult(
                "degree_sum", n, None, False, f"term {term.index}: {err}"
            )
    return CheckResult("degree_sum", n, None, total == 2 * n, f"sum {total}")


def _residual_detail(residual: Polynomial) -> str:
    """Term count of a nonzero residual plus its first DETAIL_TERMS terms."""
    count = residual.term_count()
    leading = residual.sorted_terms()[:DETAIL_TERMS]
    more = " + ..." if count > DETAIL_TERMS else ""
    return (
        f"residual has {count} terms, first {len(leading)}:"
        f" {Polynomial.from_terms(dict(leading))}{more}"
    )


def _restriction(name, n, index, residual):
    ok = not residual
    return CheckResult(name, n, index, ok, "" if ok else _residual_detail(residual))


def _denominator_restriction(n, index, residual):
    return _restriction("denominator_restriction", n, index, residual)


def _term_restriction(n, index, residual):
    return _restriction("term_restriction", n, index, residual)


def _laurent_assembly(n, holds):
    return CheckResult("laurent_assembly", n, None, holds)


def run_checks(n: int) -> list[CheckResult]:
    """Run the full battery for one rank, in deterministic order."""
    check_rank(n)
    results = [_diagram_count(n), _unique_positions(n)]
    for i in range(2, n):
        results.append(_pair_recursion(n, i, denominator_pair_levels(n, i)))
        results.append(_numerator_seed(n, i, numerator_pair_levels(n, i)))
    terms = superpotential(n)
    results += [_derivation_identity(n, t) for t in terms if _has_term_identity(n, t)]
    results.append(_degree_sum(n, terms))
    return results + restriction_checks(n, terms)


def restriction_checks(n: int, terms) -> list[CheckResult]:
    """The torus-restriction checks of the battery, run on the given terms.

    Every term has a denominator check and each term of index at most n a
    term check, in the order of the list; a list without some terms fails
    only laurent_assembly, as a partial sum is not the Laurent form.  If
    the terms cannot be restricted (a Plücker variable that is not a
    diagram of rank n, or an exponent past the packed field maximum), every
    check fails with that error as its detail.
    """
    identity_terms = [term for term in terms if _has_term_identity(n, term)]
    try:
        denominator_residuals, term_residuals, holds = restriction_residuals(n, terms)
    except (ValueError, OverflowError) as err:
        failed = [("denominator_restriction", term.index) for term in terms]
        failed += [("term_restriction", term.index) for term in identity_terms]
        failed.append(("laurent_assembly", None))
        return [CheckResult(name, n, index, False, str(err)) for name, index in failed]
    results = [
        _denominator_restriction(n, term.index, residual)
        for term, residual in zip(terms, denominator_residuals)
    ]
    results += [
        _term_restriction(n, term.index, residual)
        for term, residual in zip(identity_terms, term_residuals)
    ]
    results.append(_laurent_assembly(n, holds))
    return results
