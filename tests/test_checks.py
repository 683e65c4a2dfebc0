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
The battery judges the terms it is given by their indices, not their
places: a reversed list passes, and a list without its first two terms
fails the Laurent assembly alone.  Every potential that differs from the
canonical one in a single monomial of a single numerator or denominator,
dropped, negated or doubled, fails the restriction checks.  The boundary
of what the battery judges is pinned too: a term shifted by a spinor
quadric, a Plücker relation that vanishes on OG, passes every check.
"""


import pytest

from ogmirror import checks, potential, torus
from ogmirror.checks import DETAIL_TERMS, all_passed, restriction_checks, run_checks
from ogmirror.diagrams import all_diagrams, staircase, staircase_prefix
from ogmirror.polynomials import _PLUCKER_KIND, QUANTUM, Polynomial, plucker_var, torus_var
from ogmirror.potential import (
    box_derivation,
    denominator_pair_levels,
    signed_pair_sum,
    superpotential,
)
from ogmirror.torus import restrict_plucker, restrict_polynomial, restriction_residuals


def _p(*rows):
    return Polynomial.variable(plucker_var(rows))


def _leading(poly):
    mono, coeff = poly.sorted_terms()[0]
    return Polynomial.term(coeff, dict(mono))


def flipped_numerator_sign(n):
    terms = superpotential(n)
    term = terms[2]
    numerator = term.numerator - 2 * _leading(term.numerator)
    terms[2] = term._replace(numerator=numerator)
    return terms, {("term_restriction", 2), ("laurent_assembly", None)}


def dropped_denominator_pair(n):
    terms = superpotential(n)
    term = terms[2]
    denominator = term.denominator - _leading(term.denominator)
    terms[2] = term._replace(denominator=denominator)
    return terms, {
        ("denominator_restriction", 2),
        ("term_restriction", 2),
        ("laurent_assembly", None),
    }


def quantum_on_wrong_term(n):
    terms = superpotential(n)
    q = Polynomial.variable(QUANTUM)
    terms[0] = terms[0]._replace(numerator=q * terms[0].numerator)
    ((mono, coeff),) = terms[n + 1].numerator.sorted_terms()
    unquantized = Polynomial.term(coeff, {var: exp for var, exp in mono if var != QUANTUM})
    terms[n + 1] = terms[n + 1]._replace(numerator=unquantized)
    return terms, {("term_restriction", 0), ("laurent_assembly", None)}


def flipped_level_sign(n):
    """The last middle denominator with the sign of its level 1 flipped."""
    terms = superpotential(n)
    i = n - 1
    levels = denominator_pair_levels(n, i)
    level_1 = signed_pair_sum(levels[:2]) - signed_pair_sum(levels[:1])
    term = terms[i]
    terms[i] = term._replace(denominator=term.denominator - 2 * level_1)
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
    terms[2] = term._replace(numerator=numerator)
    return terms, {("term_restriction", 2), ("laurent_assembly", None)}


def zero_denominator(n):
    """Term 2's denominator replaced by zero: no restricted quotient exists."""
    terms = superpotential(n)
    terms[2] = terms[2]._replace(denominator=Polynomial.zero())
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
    terms[2] = terms[2]._replace(denominator=terms[2].denominator + 1)
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
    terms[2] = term._replace(
        numerator=q * term.numerator, denominator=q * term.denominator
    )
    return terms, {("derivation_identity", 2), ("denominator_restriction", 2)}


BATTERY_CONTROLS = (non_homogeneous_denominator, quantum_in_denominator)


def invalid_plucker_variable(n):
    """Term 0's numerator p[2,0,...,0], whose row 1 overfills the staircase:
    the derivation differs, and nothing can be restricted."""
    terms = superpotential(n)
    bad = Polynomial.variable(plucker_var((2,) + (0,) * (n - 1)))
    terms[0] = terms[0]._replace(numerator=bad)
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
    terms[n] = terms[n]._replace(denominator=short)
    restriction = {("denominator_restriction", i) for i in range(n + 2)}
    restriction |= {("term_restriction", i) for i in range(n + 1)}
    restriction.add(("laurent_assembly", None))
    return terms, restriction | {("derivation_identity", n)}


def float_rows(n):
    """Term 1's denominator p[1,...,1] spelt with float rows: it is not a
    diagram, so the derivation rejects it and nothing can be restricted.
    plucker_var rejects such rows, so the variable is built as a raw
    (kind, rows) tuple, which keeps the guards downstream of it pinned."""
    terms = superpotential(n)
    floats = Polynomial.variable((_PLUCKER_KIND, (1.0,) * n))
    terms[1] = terms[1]._replace(denominator=floats)
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
    terms[1] = term._replace(numerator=numerator)
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


@pytest.mark.parametrize("n", (3, 4, 6))
def test_restriction_checks_judge_the_terms_in_any_order(n):
    results = restriction_checks(n, superpotential(n)[::-1])
    assert len(results) == 2 * n + 4
    assert not _failures(results)


@pytest.mark.parametrize("n", (3, 4, 6))
def test_a_partial_term_list_fails_only_the_laurent_assembly(n):
    results = restriction_checks(n, superpotential(n)[2:])
    assert _failures(results) == {("laurent_assembly", None)}
    term_checks = [r.index for r in results if r.name == "term_restriction"]
    assert term_checks == list(range(2, n + 1))


def single_monomial_mutants(n):
    """Every potential with one monomial of one numerator or denominator
    dropped, negated or doubled."""
    terms = superpotential(n)
    for k, term in enumerate(terms):
        for part in ("numerator", "denominator"):
            poly = getattr(term, part)
            for mono, coeff in poly.sorted_terms():
                for mutated in (None, -coeff, 2 * coeff):
                    mutant_terms = dict(poly.sorted_terms())
                    if mutated is None:
                        del mutant_terms[mono]
                    else:
                        mutant_terms[mono] = mutated
                    mutant = list(terms)
                    mutant[k] = term._replace(
                        **{part: Polynomial.from_terms(mutant_terms)}
                    )
                    yield mutant


@pytest.mark.parametrize("n, count", ((3, 33), (4, 48), (5, 66), (6, 96)))
def test_every_single_monomial_mutant_fails_the_restriction_checks(n, count):
    mutants = list(single_monomial_mutants(n))
    assert len(mutants) == count
    assert not any(all_passed(restriction_checks(n, mutant)) for mutant in mutants)


def test_a_relation_shifted_potential_passes_the_battery_checks():
    """Shifting term 2 by a spinor quadric Q is invisible to the battery.

    Q is one of the 10 four-term relations with coefficients +-1 among the
    136 products of two rank-4 Plücker variables, as many as the spinor
    quadrics at n = 4: it is a nonzero Plücker polynomial that vanishes on
    OG(5, 10), so its restriction is zero.  Adding Q to term 2's denominator
    and box_derivation(Q) to its numerator changes the Plücker expression but
    not the function on OG.  The battery judges that function, so the mutant
    passes the derivation identity, the degree sum and every restriction
    check.  run_checks cannot be fed this mutant: it builds its own terms
    from the pair levels it checks.
    """
    n = 4
    q = (
        _p(0, 0, 0, 0) * _p(1, 2, 3, 2)
        - _p(1, 0, 0, 0) * _p(1, 2, 2, 2)
        + _p(1, 1, 1, 0) * _p(1, 2, 1, 1)
        - _p(1, 1, 1, 1) * _p(1, 2, 1, 0)
    )
    assert q and q.term_count() == 4
    assert restrict_polynomial(n, q) == 0
    derived = box_derivation(n, 2, q)
    assert derived.term_count() == 4
    terms = superpotential(n)
    term = terms[2]
    terms[2] = term._replace(
        numerator=term.numerator + derived, denominator=term.denominator + q
    )
    assert terms[2].denominator != term.denominator
    assert checks._derivation_identity(n, terms[2]).passed
    assert checks._degree_sum(n, terms).passed
    results = restriction_checks(n, terms)
    assert len(results) == (n + 2) + (n + 1) + 1
    assert all_passed(results)


@pytest.mark.parametrize("n", (3, 4, 6))
def test_battery_verdicts_do_not_depend_on_term_order(n, monkeypatch):
    def verdicts():
        return {(r.name, r.index, r.passed) for r in run_checks(n)}

    canonical = verdicts()
    reversed_terms = superpotential(n)[::-1]
    monkeypatch.setattr(checks, "superpotential", lambda rank: list(reversed_terms))
    assert verdicts() == canonical
    assert all(passed for _, _, passed in canonical)


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
    """One _restricted call: every numerator and denominator in term order,
    then the staircase and q times the row-prefix n-2 of the Laurent form."""
    calls = []
    restricted = torus._restricted

    def recording_restricted(rank, polys):
        calls.append((rank, list(polys)))
        return restricted(rank, polys)

    monkeypatch.setattr(torus, "_restricted", recording_restricted)
    terms = superpotential(n)
    assert all_passed(restriction_checks(n, terms))
    fractions = [poly for term in terms for poly in (term.numerator, term.denominator)]
    prefix = _p(*staircase_prefix(n, n - 2))
    laurent = [_p(*staircase(n)), Polynomial.variable(QUANTUM) * prefix]
    assert len(fractions) == 2 * (n + 2)
    assert calls == [(n, fractions + laurent)]


def test_invalid_diagram_is_named_before_any_term_is_expanded():
    """A torus variable in term 1 would raise once term 1 expands, but the
    invalid Plücker variable of term 3 is refused before any expansion."""
    n = 4
    terms = superpotential(n)
    term = terms[1]
    torus_coordinate = Polynomial.variable(torus_var(1, 1))
    terms[1] = term._replace(numerator=term.numerator * torus_coordinate)
    with pytest.raises(ValueError, match="already contains the torus variable"):
        restriction_residuals(n, terms)
    term = terms[3]
    terms[3] = term._replace(denominator=term.denominator * _p(2, 0, 0, 0))
    with pytest.raises(ValueError) as raised:
        restriction_residuals(n, terms)
    assert str(raised.value) == "p[2,0,0,0] is not a diagram of rank 4"


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
    # only the pair recursion calls _shrunk through potential, once per pair
    calls = []
    shrunk = potential._shrunk

    def counting_shrunk(rank, rows):
        calls.append(rows)
        return shrunk(rank, rows)

    potential._pair_levels.cache_clear()
    monkeypatch.setattr(potential, "_shrunk", counting_shrunk)
    run_checks(n)
    firsts = [
        first
        for i in range(2, n)
        for level in denominator_pair_levels(n, i)
        for first, _ in level
    ]
    assert sorted(calls) == sorted(firsts)
    assert len(calls) == {5: 8, 6: 12, 7: 20}[n]


def _detail_terms(detail):
    """The rendered leading terms of a failure detail, split at their signs."""
    shown = detail.split(": ", 1)[1].removesuffix(" + ...")
    return shown.replace(" − ", " + ").split(" + ")


def test_failure_detail_is_bounded():
    n = 6
    big = max(all_diagrams(n), key=lambda rows: restrict_plucker(n, rows).term_count())
    extra = Polynomial.variable(plucker_var(big))
    terms = superpotential(n)
    terms[2] = terms[2]._replace(
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


def test_a_residual_of_exactly_detail_terms_terms_is_shown_whole():
    residual = sum((Polynomial.variable(torus_var(1, c)) for c in (1, 2, 3)), Polynomial.zero())
    assert residual.term_count() == DETAIL_TERMS
    result = checks._restriction("term_restriction", 4, 1, residual)
    assert (result.passed, result.detail) == (
        False,
        "residual has 3 terms, first 3: a[1,1] + a[1,2] + a[1,3]",
    )


def test_numerator_seed_names_the_level_it_read():
    levels = ((((1, 0, 0, 0), (1, 1, 1, 1)),),)
    result = checks._numerator_seed(4, 2, levels)
    assert (result.passed, result.detail) == (
        False,
        "level 0 is (((1, 0, 0, 0), (1, 1, 1, 1)),)",
    )


@pytest.mark.parametrize("n", range(2, 8))
def test_the_battery_runs_its_checks_in_the_documented_order(n):
    expected = [("diagram_count", None), ("unique_positions", None)]
    for i in range(2, n):
        expected += [("pair_recursion", i), ("numerator_seed", i)]
    expected += [("derivation_identity", i) for i in range(n + 1)]
    expected.append(("degree_sum", None))
    expected += [("denominator_restriction", i) for i in range(n + 2)]
    expected += [("term_restriction", i) for i in range(n + 1)]
    expected.append(("laurent_assembly", None))
    assert [(result.name, result.index) for result in run_checks(n)] == expected


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
