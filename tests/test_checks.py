"""Negative controls: the restriction checks fail on broken potentials.

Each control builds a deliberately broken list of superpotential terms and
runs the torus-restriction checks on it directly (nothing is monkeypatched),
showing that the packed restriction path reports every fault it should.
One more control corrupts a single entry of the restriction table instead.
Two battery controls break a term so that a check outside the restriction
path cannot even compute its value, and a third so that no term can be
restricted; they run the whole battery with checks.superpotential patched,
and the checks must fail, not raise.  A fourth spells one denominator's
Plücker variable without its trailing zero, which the derivation must
reject as the restriction does.  A zero denominator, whose quotient does
not exist, runs both ways: through the restriction checks and through the
patched battery; so does a term whose restriction needs an exponent past
the packed field maximum, which must fail every restriction check.  A
fifth spells term 1's denominator with float rows, which no check may use
to index the staircase: they fail as a variable that is not a diagram.
"""

import dataclasses

import pytest

from ogmirror import checks, potential, torus
from ogmirror.checks import DETAIL_TERMS, all_passed, restriction_checks, run_checks
from ogmirror.diagrams import all_diagrams, staircase, staircase_prefix
from ogmirror.polynomials import QUANTUM, Polynomial, plucker_var
from ogmirror.potential import (
    box_derivation,
    denominator_pair_levels,
    signed_pair_sum,
    superpotential,
)
from ogmirror.torus import restrict_plucker, restriction_residuals


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


def flipped_level_sign(n):
    """The last middle denominator with the sign of its level 1 flipped."""
    terms = superpotential(n)
    i = n - 1
    levels = denominator_pair_levels(n, i)
    level_1 = signed_pair_sum(levels[:2]) - signed_pair_sum(levels[:1])
    term = terms[i]
    terms[i] = dataclasses.replace(term, denominator=term.denominator - 2 * level_1)
    return terms, {
        ("denominator_restriction", i),
        ("term_restriction", i),
        ("laurent_assembly", None),
    }


def wrong_derivation_label(n):
    """Term 2's numerator derived with term 3's label, which no factor accepts."""
    terms = superpotential(n)
    term = terms[2]
    numerator = box_derivation(n, 3, term.denominator)
    terms[2] = dataclasses.replace(term, numerator=numerator)
    return terms, {("term_restriction", 2), ("laurent_assembly", None)}


def zero_denominator(n):
    """Term 2's denominator replaced by zero: no restricted quotient exists."""
    terms = superpotential(n)
    terms[2] = dataclasses.replace(terms[2], denominator=Polynomial.zero())
    return terms, {
        ("denominator_restriction", 2),
        ("term_restriction", 2),
        ("laurent_assembly", None),
    }


CONTROLS = (
    flipped_numerator_sign,
    dropped_denominator_pair,
    quantum_on_wrong_term,
    flipped_level_sign,
    wrong_derivation_label,
    zero_denominator,
)


def non_homogeneous_denominator(n):
    """Term 2's denominator plus 1, of Plücker degrees 0 and 2."""
    terms = superpotential(n)
    terms[2] = dataclasses.replace(terms[2], denominator=terms[2].denominator + 1)
    return terms, {
        ("degree_sum", None),
        ("denominator_restriction", 2),
        ("term_restriction", 2),
        ("laurent_assembly", None),
    }


def quantum_in_denominator(n):
    """Both parts of term 2 times q: the quotient is unchanged, but the
    derivation rejects q and the restricted denominator gains a factor q."""
    terms = superpotential(n)
    q = Polynomial.variable(QUANTUM)
    term = terms[2]
    terms[2] = dataclasses.replace(
        term, numerator=q * term.numerator, denominator=q * term.denominator
    )
    return terms, {("derivation_identity", 2), ("denominator_restriction", 2)}


BATTERY_CONTROLS = (non_homogeneous_denominator, quantum_in_denominator)


def invalid_plucker_variable(n):
    """Term 0's numerator p[2,0,...,0], whose row 1 overfills the staircase:
    the derivation differs, and nothing can be restricted."""
    terms = superpotential(n)
    bad = Polynomial.variable(plucker_var((2,) + (0,) * (n - 1)))
    terms[0] = dataclasses.replace(terms[0], numerator=bad)
    restriction = {("denominator_restriction", i) for i in range(n + 2)}
    restriction |= {("term_restriction", i) for i in range(n + 1)}
    restriction.add(("laurent_assembly", None))
    return terms, restriction | {("derivation_identity", 0)}


def trimmed_plucker_spelling(n):
    """Term n's denominator p[1,2,...,n-1,0] spelt without its trailing zero:
    neither the derivation nor the restriction accepts it."""
    terms = superpotential(n)
    (var,) = terms[n].denominator.variables()
    short = Polynomial.variable(plucker_var(var[1][:-1]))
    terms[n] = dataclasses.replace(terms[n], denominator=short)
    restriction = {("denominator_restriction", i) for i in range(n + 2)}
    restriction |= {("term_restriction", i) for i in range(n + 1)}
    restriction.add(("laurent_assembly", None))
    return terms, restriction | {("derivation_identity", n)}


def float_rows(n):
    """Term 1's denominator p[1,...,1] spelt with float rows: it is not a
    diagram, so the derivation rejects it and nothing can be restricted."""
    terms = superpotential(n)
    floats = Polynomial.variable(plucker_var((1.0,) * n))
    terms[1] = dataclasses.replace(terms[1], denominator=floats)
    restriction = {("denominator_restriction", i) for i in range(n + 2)}
    restriction |= {("term_restriction", i) for i in range(n + 1)}
    restriction.add(("laurent_assembly", None))
    return terms, restriction | {("derivation_identity", 1)}


def overflowing_power(n):
    """Term 1's numerator times its denominator variable to the 300th power:
    restricting it needs an exponent past the packed field maximum."""
    terms = superpotential(n)
    term = terms[1]
    numerator = term.numerator * term.denominator**300
    terms[1] = dataclasses.replace(term, numerator=numerator)
    restriction = {("denominator_restriction", i) for i in range(n + 2)}
    restriction |= {("term_restriction", i) for i in range(n + 1)}
    restriction.add(("laurent_assembly", None))
    return terms, restriction


def _failures(results):
    return {(result.name, result.index) for result in results if not result.passed}


def _nonzero_residuals(n, terms):
    """The failing checks as read off restriction_residuals directly."""
    denominator_residuals, term_residuals, holds = restriction_residuals(n, terms)
    assert len(denominator_residuals) == n + 2
    assert len(term_residuals) == n + 1
    failing = {("laurent_assembly", None)} if not holds else set()
    for name, residuals in (
        ("denominator_restriction", denominator_residuals),
        ("term_restriction", term_residuals),
    ):
        failing |= {(name, i) for i, residual in enumerate(residuals) if residual}
    return failing


@pytest.mark.parametrize("n", (3, 4, 6))
def test_intact_potential_passes_restriction_checks(n):
    terms = superpotential(n)
    assert not _failures(restriction_checks(n, terms))
    assert not _nonzero_residuals(n, terms)


@pytest.mark.parametrize("control", CONTROLS, ids=lambda control: control.__name__)
@pytest.mark.parametrize("n", (3, 4, 6))
def test_broken_potential_fails_named_checks(n, control):
    terms, expected = control(n)
    assert _failures(restriction_checks(n, terms)) == expected
    assert _nonzero_residuals(n, terms) == expected


@pytest.mark.parametrize(
    "control", BATTERY_CONTROLS, ids=lambda control: control.__name__
)
@pytest.mark.parametrize("n", (3, 4, 6))
def test_battery_fails_a_check_that_cannot_compute(n, control, monkeypatch):
    terms, expected = control(n)
    monkeypatch.setattr(checks, "superpotential", lambda rank: list(terms))
    results = run_checks(n)
    assert _failures(results) == expected
    (raised,) = [
        result
        for result in results
        if result.name in ("degree_sum", "derivation_identity") and not result.passed
    ]
    assert raised.detail.startswith("term 2: ")
    assert "\n" not in raised.detail


@pytest.mark.parametrize("n", (3, 4, 6))
def test_battery_fails_on_a_zero_denominator(n, monkeypatch):
    terms, expected = zero_denominator(n)
    monkeypatch.setattr(checks, "superpotential", lambda rank: list(terms))
    results = run_checks(n)
    assert _failures(results) == expected | {
        ("degree_sum", None),
        ("derivation_identity", 2),
    }
    (degree_sum,) = [result for result in results if result.name == "degree_sum"]
    assert degree_sum.detail == "term 2: zero polynomial has no Plücker degree"


@pytest.mark.parametrize("n", (3, 4, 6))
def test_battery_fails_every_restriction_check_on_an_invalid_diagram(n, monkeypatch):
    terms, expected = invalid_plucker_variable(n)
    monkeypatch.setattr(checks, "superpotential", lambda rank: list(terms))
    results = run_checks(n)
    assert _failures(results) == expected
    detail = "p[2" + ",0" * (n - 1) + f"] is not a diagram of rank {n}"
    restriction = [result for result in results if result.name != "derivation_identity"]
    assert {result.detail for result in restriction if not result.passed} == {detail}
    assert _failures(restriction_checks(n, terms)) == expected - {("derivation_identity", 0)}


@pytest.mark.parametrize("n", (3, 4, 6))
def test_battery_fails_every_restriction_check_on_float_rows(n, monkeypatch):
    terms, expected = float_rows(n)
    monkeypatch.setattr(checks, "superpotential", lambda rank: list(terms))
    results = run_checks(n)
    assert _failures(results) == expected
    error = "p[" + ",".join(["1.0"] * n) + f"] is not a diagram of rank {n}"
    details = {
        (result.name == "derivation_identity", result.detail)
        for result in results
        if not result.passed
    }
    assert details == {(False, error), (True, f"term 1: {error}")}


@pytest.mark.parametrize("n", (3, 4, 6))
def test_packed_field_overflow_fails_every_restriction_check(n, monkeypatch):
    terms, expected = overflowing_power(n)
    overflow = "product exponent bound 256 exceeds the packed field maximum 255"
    results = restriction_checks(n, terms)
    assert _failures(results) == expected
    assert {result.detail for result in results} == {overflow}
    monkeypatch.setattr(checks, "superpotential", lambda rank: list(terms))
    assert _failures(run_checks(n)) == expected | {("derivation_identity", 1)}


@pytest.mark.parametrize("n", (3, 4, 6))
def test_battery_fails_the_derivation_on_a_trimmed_diagram(n, monkeypatch):
    terms, expected = trimmed_plucker_spelling(n)
    monkeypatch.setattr(checks, "superpotential", lambda rank: list(terms))
    results = run_checks(n)
    assert _failures(results) == expected
    error = "p[" + ",".join(map(str, range(1, n))) + f"] is not a diagram of rank {n}"
    details = {result.detail for result in results if not result.passed}
    assert details == {error, f"term {n}: {error}"}


@pytest.mark.parametrize("n", (2, 3, 6))
def test_each_term_is_restricted_once(n, monkeypatch):
    calls = []
    restrict = torus._restrict

    def counting_restrict(rank, table, poly):
        calls.append(poly)
        return restrict(rank, table, poly)

    monkeypatch.setattr(torus, "_restrict", counting_restrict)
    restriction_checks(n, superpotential(n))
    assert len(calls) == 2 * (n + 2)


def test_corrupted_restriction_entry_fails_named_checks(monkeypatch):
    """p[1,1,0,0] sits in term 2's numerator and term 3's denominator.

    The battery reads the path sums of its own target set, so the corrupted
    entry is dropped from that table, as the battery receives it.
    """
    n, rows = 4, (1, 1, 0, 0)
    fresh = torus.restrict_all(n)[rows]
    path_sums = torus._path_sums
    read = []

    def corrupted_path_sums(rank, targets):
        table = path_sums(rank, targets)
        entry = table[rows]
        read.append((entry, dict(entry.terms)))
        kept = dict(entry.terms)
        del kept[min(kept)]
        return {**table, rows: torus._Packed(rank, kept, entry.bound)}

    monkeypatch.setattr(torus, "_path_sums", corrupted_path_sums)
    expected = {
        ("denominator_restriction", 3),
        ("term_restriction", 2),
        ("term_restriction", 3),
        ("laurent_assembly", None),
    }
    terms = superpotential(n)
    assert _failures(restriction_checks(n, terms)) == expected
    assert _nonzero_residuals(n, terms) == expected
    assert len(read) == 2
    monkeypatch.undo()
    assert all(entry.terms == seen for entry, seen in read)
    assert torus.restrict_all(n)[rows] == fresh


def _used_diagrams(n, terms):
    """The Plücker diagrams of the terms, plus the two the Laurent form reads."""
    used = {staircase(n), staircase_prefix(n, n - 2)}
    for term in terms:
        for poly in (term.numerator, term.denominator):
            used |= {var[1] for var in poly.variables() if var != QUANTUM}
    return used


@pytest.mark.parametrize("n", (5, 6, 7, 8, 9))
def test_battery_restricts_only_the_diagrams_it_reads(n, monkeypatch):
    calls = []
    path_sums = torus._path_sums

    def recording_path_sums(rank, targets):
        table = path_sums(rank, targets)
        calls.append((rank, set(targets), set(table)))
        return table

    monkeypatch.setattr(torus, "_path_sums", recording_path_sums)
    assert all_passed(run_checks(n))
    used = _used_diagrams(n, superpotential(n))
    assert calls == [(n, used, used)]
    if n == 9:
        assert (len(used), len(all_diagrams(n))) == (93, 512)


@pytest.mark.parametrize("n", (5, 6, 7))
def test_run_checks_runs_each_pair_recursion_once(n, monkeypatch):
    calls = []
    moves = potential.box_moves

    def counting_moves(rank, pair):
        calls.append(pair)
        return moves(rank, pair)

    # only the numerator promotion calls _grown through potential
    promoted = []
    grown = potential._grown

    def counting_grown(rank, rows):
        promoted.append(rows)
        return grown(rank, rows)

    potential.denominator_pair_levels.cache_clear()
    potential.numerator_pair_levels.cache_clear()
    monkeypatch.setattr(potential, "box_moves", counting_moves)
    monkeypatch.setattr(potential, "_grown", counting_grown)
    run_checks(n)
    pairs = [
        pair
        for i in range(2, n)
        for level in denominator_pair_levels(n, i)
        for pair in level
    ]
    assert sorted(calls) == sorted(pairs)
    assert len(promoted) == 2 * len(pairs) == {5: 16, 6: 24, 7: 40}[n]


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
    denominator_residuals, term_residuals, _ = restriction_residuals(n, terms)
    for name, residual in (
        ("denominator_restriction", denominator_residuals[2]),
        ("term_restriction", term_residuals[2]),
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


def _graded_pair(j):
    """A crafted pair on level j of term 2 at rank 4: only box counts matter,
    1 - j in the first component and 7 + j in the second."""
    return (1 - j, 0, 0, 0), (7 + j, 0, 0, 0)


@pytest.mark.parametrize(
    "levels, detail",
    (
        (tuple((_graded_pair(j),) for j in range(3)), "3 levels exceed bound 2"),
        (((_graded_pair(0),), ()), "empty level 1"),
        (
            ((((1, 0, 0, 0), (1, 0, 0, 0)),),),
            "level 0 grading broken at ((1, 0, 0, 0), (1, 0, 0, 0))",
        ),
    ),
    ids=("too_many_levels", "empty_level", "broken_grading"),
)
def test_pair_recursion_names_each_fault(levels, detail):
    result = checks._pair_recursion(4, 2, levels)
    assert (result.passed, result.detail) == (False, detail)


def test_pair_recursion_passes_graded_levels_within_the_bound():
    assert checks._pair_recursion(4, 2, denominator_pair_levels(4, 2)).passed
    crafted = ((_graded_pair(0),), (_graded_pair(1),))
    assert checks._pair_recursion(4, 2, crafted).passed
