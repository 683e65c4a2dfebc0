"""Negative controls: the restriction checks fail on broken potentials.

Each control builds a deliberately broken list of superpotential terms and
runs the torus-restriction checks on it directly (nothing is monkeypatched),
showing that the packed restriction path reports every fault it should.
"""

import dataclasses

import pytest

from ogmirror.checks import DETAIL_TERMS, restriction_checks, run_checks
from ogmirror.diagrams import all_diagrams
from ogmirror.polynomials import QUANTUM, Polynomial, plucker_var
from ogmirror.potential import superpotential
from ogmirror.torus import (
    denominator_residual,
    laurent_assembly_holds,
    restrict_plucker,
    term_residual,
)


def _leading(poly):
    mono, coeff = poly.sorted_terms()[0]
    return Polynomial.term(coeff, dict(mono))


def flipped_numerator_sign(n):
    terms = superpotential(n)
    term = terms[2]
    numerator = term.numerator - 2 * _leading(term.numerator)
    terms[2] = dataclasses.replace(term, numerator=numerator)
    return terms, {("term_restriction", 2), ("laurent_assembly", None)}


def dropped_denominator_pair(n):
    terms = superpotential(n)
    term = terms[2]
    denominator = term.denominator - _leading(term.denominator)
    terms[2] = dataclasses.replace(term, denominator=denominator)
    return terms, {
        ("denominator_restriction", 2),
        ("term_restriction", 2),
        ("laurent_assembly", None),
    }


def quantum_on_wrong_term(n):
    terms = superpotential(n)
    q = Polynomial.variable(QUANTUM)
    terms[0] = dataclasses.replace(terms[0], numerator=q * terms[0].numerator)
    ((mono, coeff),) = terms[n + 1].numerator.sorted_terms()
    unquantized = Polynomial.term(coeff, {var: exp for var, exp in mono if var != QUANTUM})
    terms[n + 1] = dataclasses.replace(terms[n + 1], numerator=unquantized)
    return terms, {("term_restriction", 0), ("laurent_assembly", None)}


CONTROLS = (flipped_numerator_sign, dropped_denominator_pair, quantum_on_wrong_term)


def _failures(results):
    return {(result.name, result.index) for result in results if not result.passed}


@pytest.mark.parametrize("n", (3, 4, 6))
def test_intact_potential_passes_restriction_checks(n):
    terms = superpotential(n)
    assert not _failures(restriction_checks(n, terms))
    assert laurent_assembly_holds(n, terms)
    for term in terms:
        assert not denominator_residual(n, term)
    for term in terms[: n + 1]:
        assert not term_residual(n, term)


@pytest.mark.parametrize("control", CONTROLS, ids=lambda control: control.__name__)
@pytest.mark.parametrize("n", (3, 4, 6))
def test_broken_potential_fails_named_checks(n, control):
    terms, expected = control(n)
    assert _failures(restriction_checks(n, terms)) == expected
    assert not laurent_assembly_holds(n, terms)
    for name, index in expected:
        if name == "term_restriction":
            assert term_residual(n, terms[index])
        elif name == "denominator_restriction":
            assert denominator_residual(n, terms[index])


def _detail_terms(detail):
    """The rendered leading terms of a failure detail, split at their signs."""
    shown = detail.split(": ", 1)[1].removesuffix(" + ...")
    return shown.replace(" − ", " + ").split(" + ")


def test_failure_detail_is_bounded():
    n = 6
    big = max(all_diagrams(n), key=lambda rows: restrict_plucker(n, rows).term_count())
    extra = Polynomial.variable(plucker_var(big))
    terms = superpotential(n)
    terms[2] = dataclasses.replace(
        terms[2],
        numerator=terms[2].numerator + extra,
        denominator=terms[2].denominator + extra,
    )
    results = {
        (result.name, result.index): result for result in restriction_checks(n, terms)
    }
    for name, residual in (
        ("denominator_restriction", denominator_residual(n, terms[2])),
        ("term_restriction", term_residual(n, terms[2])),
    ):
        result = results[name, 2]
        count = residual.term_count()
        assert not result.passed
        assert count > 10 * DETAIL_TERMS
        assert result.detail.startswith(f"residual has {count} terms, first 3: ")
        assert result.detail.endswith(" + ...")
        assert len(_detail_terms(result.detail)) == DETAIL_TERMS
        assert len(result.detail) < len(str(residual)) // 4


def test_run_checks_still_reports_every_restriction_check():
    names = [result.name for result in run_checks(4)]
    assert names.count("denominator_restriction") == 6
    assert names.count("term_restriction") == 5
    assert names[-1] == "laurent_assembly"
