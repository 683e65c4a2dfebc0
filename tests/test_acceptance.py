"""Acceptance gate: every criterion at its stated tolerance.

All comparisons are exact symbolic equalities (integer-coefficient
polynomials compared term by term, rational expressions by
cross-multiplication); the only numeric tolerances are the stated wall
clock budgets.  Each test prints one pass/fail line.
"""

import json
import time


from _bruteforce import enumerate_restrictions
from _runner import CommandRunner
from ogmirror.cli import main
from ogmirror.diagrams import (
    add_unique_box,
    addable_positions,
    all_diagrams,
    full_columns,
    removable_positions,
    staircase_prefix,
)
from ogmirror.polynomials import Polynomial, torus_var
from ogmirror.potential import (
    box_derivation,
    denominator_pair_levels,
    numerator_pair_levels,
    potential_term,
    superpotential,
)
from ogmirror.torus import (
    laurent_potential,
    predicted_denominator_restriction,
    restrict_plucker,
    restrict_polynomial,
    restricted_term_sum,
    verify_term_restriction,
)

SWEEP = range(2, 9)


def _report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


def a(i, j):
    return Polynomial.variable(torus_var(i, j))


GOLDEN_POTENTIAL_N4 = [
    {
        "index": 0,
        "quantum": False,
        "numerator": [{"coefficient": 1, "exponents": {"p[1,0,0,0]": 1}}],
        "denominator": [{"coefficient": 1, "exponents": {"p[0,0,0,0]": 1}}],
    },
    {
        "index": 1,
        "quantum": False,
        "numerator": [{"coefficient": 1, "exponents": {"p[1,2,1,1]": 1}}],
        "denominator": [{"coefficient": 1, "exponents": {"p[1,1,1,1]": 1}}],
    },
    {
        "index": 2,
        "quantum": False,
        "numerator": [
            {"coefficient": -1, "exponents": {"p[0,0,0,0]": 1, "p[1,2,3,3]": 1}},
            {"coefficient": 1, "exponents": {"p[1,1,0,0]": 1, "p[1,2,2,2]": 1}},
        ],
        "denominator": [
            {"coefficient": -1, "exponents": {"p[0,0,0,0]": 1, "p[1,2,3,2]": 1}},
            {"coefficient": 1, "exponents": {"p[1,0,0,0]": 1, "p[1,2,2,2]": 1}},
        ],
    },
    {
        "index": 3,
        "quantum": False,
        "numerator": [
            {"coefficient": -1, "exponents": {"p[1,1,1,0]": 1, "p[1,2,3,4]": 1}},
            {"coefficient": 1, "exponents": {"p[1,2,1,0]": 1, "p[1,2,3,3]": 1}},
        ],
        "denominator": [
            {"coefficient": -1, "exponents": {"p[1,1,0,0]": 1, "p[1,2,3,4]": 1}},
            {"coefficient": 1, "exponents": {"p[1,2,0,0]": 1, "p[1,2,3,3]": 1}},
        ],
    },
    {
        "index": 4,
        "quantum": False,
        "numerator": [{"coefficient": 1, "exponents": {"p[1,2,3,1]": 1}}],
        "denominator": [{"coefficient": 1, "exponents": {"p[1,2,3,0]": 1}}],
    },
    {
        "index": 5,
        "quantum": True,
        "numerator": [{"coefficient": 1, "exponents": {"q": 1, "p[1,2,0,0]": 1}}],
        "denominator": [{"coefficient": 1, "exponents": {"p[1,2,3,4]": 1}}],
    },
]


def test_criterion_1_golden_potential_n4():
    started = time.perf_counter()
    result = CommandRunner().invoke(main, ["potential", "--n", "4", "--format", "json"])
    elapsed = time.perf_counter() - started
    ok = (
        result.exit_code == 0
        and json.loads(result.output) == GOLDEN_POTENTIAL_N4
        and elapsed < 1.0
    )
    _report(1, "n=4 golden potential", ok)
    assert result.exit_code == 0
    assert json.loads(result.output) == GOLDEN_POTENTIAL_N4
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_golden_restrictions_n4():
    started = time.perf_counter()
    golden = {
        (1, 2, 0, 0): (
            a(5, 1)
            * (a(3, 1) * a(4, 2) + a(3, 1) * a(4, 4) + a(3, 2) * a(4, 4) + a(3, 3) * a(4, 4))
            + a(5, 3) * a(3, 3) * a(4, 4)
        ),
        (1, 2, 3, 3): (
            a(5, 1) * a(3, 1) * a(4, 2) * a(2, 1) * a(3, 2)
            * a(5, 3) * a(1, 1) * a(2, 2) * a(3, 3)
        ),
        (1, 1, 0, 0): a(5, 1) * (a(3, 1) + a(3, 2) + a(3, 3)) + a(5, 3) * a(3, 3),
        (1, 2, 3, 4): (
            a(5, 1) * a(3, 1) * a(4, 2) * a(2, 1) * a(3, 2)
            * a(5, 3) * a(1, 1) * a(2, 2) * a(3, 3) * a(4, 4)
        ),
    }
    mismatches = [
        rows for rows, expected in golden.items()
        if restrict_plucker(4, rows) != expected
    ]
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 1.0
    _report(2, "n=4 golden restrictions", ok)
    assert not mismatches, f"mismatched restrictions: {mismatches}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_3_middle_denominator_restricts_to_monomial():
    expected = Polynomial.term(
        1,
        {
            torus_var(5, 1): 2,
            torus_var(3, 1): 2,
            torus_var(4, 2): 2,
            torus_var(2, 1): 1,
            torus_var(3, 2): 1,
            torus_var(5, 3): 1,
            torus_var(1, 1): 1,
            torus_var(2, 2): 1,
            torus_var(3, 3): 1,
        },
    )
    restricted = restrict_polynomial(4, potential_term(4, 3).denominator)
    ok = restricted == expected == predicted_denominator_restriction(4, 3)
    _report(3, "n=4 middle denominator is a monomial", ok)
    assert restricted == expected
    assert predicted_denominator_restriction(4, 3) == expected


def test_criterion_4_derived_numerator_factorizes():
    term = potential_term(4, 3)
    derived = box_derivation(4, 3, term.denominator)
    left = restrict_polynomial(4, derived)
    right = restrict_polynomial(4, term.denominator) * (a(2, 1) + a(2, 2))
    ok = derived == term.numerator and left == right
    _report(4, "n=4 derivation factorization", ok)
    assert derived == term.numerator
    assert left == right


def test_criterion_5_term_restriction_sweep():
    started = time.perf_counter()
    failures = [
        (n, i)
        for n in SWEEP
        for i in range(n + 1)
        if not verify_term_restriction(n, i)
    ]
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    _report(5, "term restrictions for n=2..8", ok)
    assert not failures, f"failing (n, i): {failures}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_6_laurent_assembly_sweep():
    failures = [n for n in SWEEP if restricted_term_sum(n) != laurent_potential(n)]
    _report(6, "Laurent assembly for n=2..8", not failures)
    assert not failures, f"failing n: {failures}"


def test_criterion_7_structural_suites():
    problems = []
    for n in SWEEP:
        diagrams = all_diagrams(n)
        if len(diagrams) != 2**n:
            problems.append(f"n={n}: {len(diagrams)} diagrams")
        for rows in diagrams:
            for label in range(1, n + 2):
                if len(addable_positions(n, rows, label)) > 1:
                    problems.append(f"n={n}: multiple addable on {rows}")
                if len(removable_positions(n, rows, label)) > 1:
                    problems.append(f"n={n}: multiple removable on {rows}")
        for i in range(2, n):
            levels = denominator_pair_levels(n, i)
            if len(levels) > i * (i - 1) // 2 + 1:
                problems.append(f"n={n} i={i}: {len(levels)} levels")
            seed = numerator_pair_levels(n, i)[0]
            expected = (
                (add_unique_box(n, staircase_prefix(n, i - 1)), full_columns(n, i)),
            )
            if seed != expected:
                problems.append(f"n={n} i={i}: numerator seed {seed}")
        terms = superpotential(n)
        for term in terms[: n + 1]:
            if box_derivation(n, term.index, term.denominator) != term.numerator:
                problems.append(f"n={n} i={term.index}: derivation identity")
        degree_sum = sum(term.denominator.plucker_degree() for term in terms)
        if degree_sum != 2 * n:
            problems.append(f"n={n}: degree sum {degree_sum}")
    _report(7, "structural suites for n=2..8", not problems)
    assert not problems, problems


def test_criterion_8_bruteforce_oracle_agreement():
    started = time.perf_counter()
    mismatches = []
    for n in (2, 3, 4):
        oracle = enumerate_restrictions(n)
        for rows in all_diagrams(n):
            if restrict_plucker(n, rows) != oracle[rows]:
                mismatches.append((n, rows))
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 5.0
    _report(8, "brute-force oracle agreement for n<=4", ok)
    assert not mismatches, f"mismatches: {mismatches}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_9_n3_enumeration_verbatim():
    expected = (
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (1, 1, 1),
        (1, 2, 0),
        (1, 2, 1),
        (1, 2, 2),
        (1, 2, 3),
    )
    ok = all_diagrams(3) == expected
    _report(9, "n=3 enumeration", ok)
    assert all_diagrams(3) == expected
