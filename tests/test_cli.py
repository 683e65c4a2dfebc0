import json
import time

import pytest
from click.testing import CliRunner

from _bruteforce import subsequence_count
from ogmirror.cli import main
from ogmirror.diagrams import all_diagrams, format_diagram
from ogmirror.torus import restrict_plucker
from test_checks import (
    flipped_level_sign,
    float_rows,
    invalid_plucker_variable,
    non_homogeneous_denominator,
    overflowing_power,
)


@pytest.fixture()
def runner():
    return CliRunner()


def test_diagrams_text_n3(runner):
    result = runner.invoke(main, ["diagrams", "--n", "3"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "0,0,0", "1,0,0", "1,1,0", "1,1,1", "1,2,0", "1,2,1", "1,2,2", "1,2,3",
    ]


def test_diagrams_json_n2(runner):
    result = runner.invoke(main, ["diagrams", "--n", "2", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output) == [[0, 0], [1, 0], [1, 1], [1, 2]]


def test_diagrams_rejects_low_rank(runner):
    result = runner.invoke(main, ["diagrams", "--n", "1"])
    assert result.exit_code == 2


def test_diagrams_rejects_latex(runner):
    result = runner.invoke(main, ["diagrams", "--n", "3", "--format", "latex"])
    assert result.exit_code == 2


def test_potential_json_n4(runner):
    result = runner.invoke(main, ["potential", "--n", "4", "--format", "json"])
    assert result.exit_code == 0
    document = json.loads(result.output)
    assert [entry["index"] for entry in document] == [0, 1, 2, 3, 4, 5]
    assert [entry["quantum"] for entry in document] == [False] * 5 + [True]
    assert document[3]["denominator"] == [
        {"coefficient": -1, "exponents": {"p[1,1,0,0]": 1, "p[1,2,3,4]": 1}},
        {"coefficient": 1, "exponents": {"p[1,2,0,0]": 1, "p[1,2,3,3]": 1}},
    ]


def test_potential_text_n2(runner):
    result = runner.invoke(main, ["potential", "--n", "2"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 4
    assert lines[0] == "W[0] = (p[1,0]) / (p[0,0])"
    assert lines[3] == "W[3] = (q*p[0,0]) / (p[1,2])"


def test_potential_latex_n4(runner):
    result = runner.invoke(main, ["potential", "--n", "4", "--format", "latex"])
    assert result.exit_code == 0
    assert result.output.count(r"\frac") == 6
    assert r"q\,\frac{p_{(1,2)}}{p_{(1,2,3,4)}}" in result.output
    assert r"\frac{p_{(1)}}{p_{\varnothing}}" in result.output


def test_potential_rejects_dot(runner):
    result = runner.invoke(main, ["potential", "--n", "4", "--format", "dot"])
    assert result.exit_code == 2


def test_restrict_text_goldens(runner):
    result = runner.invoke(main, ["restrict", "--n", "4", "--diagram", "1,1"])
    assert result.exit_code == 0
    assert result.output.strip() == (
        "a[3,1]*a[5,1] + a[3,2]*a[5,1] + a[3,3]*a[5,1] + a[3,3]*a[5,3]"
    )
    result = runner.invoke(main, ["restrict", "--n", "4", "--diagram", "1,2,3,4"])
    assert result.exit_code == 0
    assert result.output.strip() == (
        "a[1,1]*a[2,1]*a[2,2]*a[3,1]*a[3,2]*a[3,3]*a[4,2]*a[4,4]*a[5,1]*a[5,3]"
    )


def test_restrict_serves_a_rank_whose_table_does_not_fit(runner):
    # the full rank-14 table would hold billions of terms; one small
    # diagram restricts on its own
    started = time.perf_counter()
    result = runner.invoke(
        main, ["restrict", "--n", "14", "--diagram", "1,1,1", "--format", "json"]
    )
    elapsed = time.perf_counter() - started
    assert result.exit_code == 0
    terms = json.loads(result.output)
    assert len(terms) == subsequence_count(14, (1, 1, 1) + (0,) * 11)
    assert all(term["coefficient"] == 1 for term in terms)
    assert all(len(term["exponents"]) == 3 for term in terms)
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_restrict_latex_renders_every_rank4_diagram(runner):
    for rows in all_diagrams(4):
        text = format_diagram(rows)
        args = ["restrict", "--n", "4", "--diagram", text, "--format", "latex"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output == restrict_plucker(4, rows).to_latex() + "\n"


def test_restrict_empty_diagram(runner):
    result = runner.invoke(main, ["restrict", "--n", "4", "--diagram", "empty"])
    assert result.exit_code == 0
    assert result.output.strip() == "1"


def test_restrict_invalid_diagram(runner):
    result = runner.invoke(main, ["restrict", "--n", "3", "--diagram", "1,1,2"])
    assert result.exit_code == 2
    assert "invalid diagram" in result.output + result.stderr


def test_restrict_unparseable_diagram(runner):
    result = runner.invoke(main, ["restrict", "--n", "3", "--diagram", "one,two"])
    assert result.exit_code == 2
    assert "cannot parse" in result.output + result.stderr


def test_verify_single_rank(runner):
    result = runner.invoke(main, ["verify", "--n", "4"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert "CHECK diagram_count n=4 i=- PASS" in lines
    assert "CHECK term_restriction n=4 i=3 PASS" in lines
    assert lines[-1] == "VERIFIED n=4"
    assert not any("FAIL" in line for line in lines)


def test_verify_range(runner):
    result = runner.invoke(main, ["verify", "--from", "2", "--to", "3"])
    assert result.exit_code == 0
    assert "VERIFIED n=2" in result.output
    assert "VERIFIED n=3" in result.output


def test_verify_json(runner):
    result = runner.invoke(main, ["verify", "--n", "3", "--format", "json"])
    assert result.exit_code == 0
    document = json.loads(result.output)
    assert len(document) == 1
    assert document[0]["n"] == 3
    assert document[0]["verified"] is True
    assert all(check["pass"] for check in document[0]["checks"])


def test_verify_reports_failures_with_exit_code_1(runner, monkeypatch):
    from ogmirror.checks import CheckResult

    def fake_run_checks(n):
        return [
            CheckResult("diagram_count", n, None, True),
            CheckResult("term_restriction", n, 1, False, "residual q"),
        ]

    monkeypatch.setattr("ogmirror.cli.run_checks", fake_run_checks)
    result = runner.invoke(main, ["verify", "--n", "4"])
    assert result.exit_code == 1
    assert "CHECK term_restriction n=4 i=1 FAIL" in result.output
    assert "FAILED 1 checks" in result.output
    assert "residual q" in result.stderr


def test_verify_fails_on_a_broken_potential(runner, monkeypatch):
    terms, _ = flipped_level_sign(4)
    monkeypatch.setattr("ogmirror.checks.superpotential", lambda n: list(terms))
    result = runner.invoke(main, ["verify", "--n", "4"])
    assert result.exit_code == 1
    failing = [line for line in result.output.splitlines() if line.endswith(" FAIL")]
    assert failing == [
        "CHECK derivation_identity n=4 i=3 FAIL",
        "CHECK denominator_restriction n=4 i=3 FAIL",
        "CHECK term_restriction n=4 i=3 FAIL",
        "CHECK laurent_assembly n=4 i=- FAIL",
    ]
    assert "FAILED 4 checks" in result.output
    assert "VERIFIED" not in result.output


def test_verify_fails_without_a_traceback_on_a_non_homogeneous_denominator(
    runner, monkeypatch
):
    terms, _ = non_homogeneous_denominator(4)
    monkeypatch.setattr("ogmirror.checks.superpotential", lambda n: list(terms))
    result = runner.invoke(main, ["verify", "--n", "4"])
    assert type(result.exception) is SystemExit
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    assert [line for line in lines if line.endswith(" FAIL")] == [
        "CHECK degree_sum n=4 i=- FAIL",
        "CHECK denominator_restriction n=4 i=2 FAIL",
        "CHECK term_restriction n=4 i=2 FAIL",
        "CHECK laurent_assembly n=4 i=- FAIL",
    ]
    assert lines[-1] == "FAILED 4 checks"
    detail = "term 2: not homogeneous in Plücker variables, degrees [0, 2]"
    assert f"  {detail}\n" in result.stderr


def test_verify_fails_without_a_traceback_on_an_invalid_diagram(runner, monkeypatch):
    terms, _ = invalid_plucker_variable(4)
    monkeypatch.setattr("ogmirror.checks.superpotential", lambda n: list(terms))
    result = runner.invoke(main, ["verify", "--n", "4"])
    assert type(result.exception) is SystemExit
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    failing = [line for line in lines if line.endswith(" FAIL")]
    assert failing[:2] == [
        "CHECK derivation_identity n=4 i=0 FAIL",
        "CHECK denominator_restriction n=4 i=0 FAIL",
    ]
    assert len(failing) == 1 + 6 + 5 + 1
    assert lines[-1] == "FAILED 13 checks"
    assert "  p[2,0,0,0] is not a diagram of rank 4\n" in result.stderr


def test_verify_fails_without_a_traceback_on_a_field_overflow(runner, monkeypatch):
    terms, _ = overflowing_power(4)
    monkeypatch.setattr("ogmirror.checks.superpotential", lambda n: list(terms))
    result = runner.invoke(main, ["verify", "--n", "4"])
    assert type(result.exception) is SystemExit
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    assert lines[-1] == "FAILED 13 checks"
    detail = "product exponent bound 256 exceeds the packed field maximum 255"
    assert f"  {detail}\n" in result.stderr


def test_verify_fails_without_a_traceback_on_float_rows(runner, monkeypatch):
    terms, _ = float_rows(4)
    monkeypatch.setattr("ogmirror.checks.superpotential", lambda n: list(terms))
    result = runner.invoke(main, ["verify", "--n", "4"])
    assert type(result.exception) is SystemExit
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    failing = [line for line in lines if line.endswith(" FAIL")]
    assert failing[:2] == [
        "CHECK derivation_identity n=4 i=1 FAIL",
        "CHECK denominator_restriction n=4 i=0 FAIL",
    ]
    assert len(failing) == 1 + 6 + 5 + 1
    assert lines[-1] == "FAILED 13 checks"
    assert "  term 1: p[1.0,1.0,1.0,1.0] is not a diagram of rank 4\n" in result.stderr


def test_verify_usage_errors(runner):
    assert runner.invoke(main, ["verify", "--n", "1"]).exit_code == 2
    assert runner.invoke(main, ["verify"]).exit_code == 2
    assert runner.invoke(main, ["verify", "--from", "2"]).exit_code == 2
    assert runner.invoke(main, ["verify", "--n", "3", "--from", "2", "--to", "4"]).exit_code == 2
    assert runner.invoke(main, ["verify", "--from", "4", "--to", "2"]).exit_code == 2


def test_hasse_n2_golden(runner):
    result = runner.invoke(main, ["hasse", "--n", "2"])
    assert result.exit_code == 0
    assert result.output == (
        "digraph hasse {\n"
        '  "0,0";\n'
        '  "1,0";\n'
        '  "1,1";\n'
        '  "1,2";\n'
        '  "0,0" -> "1,0" [label=3];\n'
        '  "1,0" -> "1,1" [label=1];\n'
        '  "1,1" -> "1,2" [label=2];\n'
        "}\n"
    )


def test_hasse_n4_shape(runner):
    result = runner.invoke(main, ["hasse", "--n", "4"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    node_lines = [line for line in lines if line.endswith('";')]
    edge_lines = [line for line in lines if "->" in line]
    assert len(node_lines) == 16
    assert len(edge_lines) == 20


def test_hasse_rejects_latex(runner):
    result = runner.invoke(main, ["hasse", "--n", "4", "--format", "latex"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args",
    (
        ["potential", "--n", "3", "--format", "json"],
        ["hasse", "--n", "4"],
        ["verify", "--n", "2"],
        ["restrict", "--n", "4", "--diagram", "1,2,1"],
    ),
)
def test_output_is_deterministic(runner, args):
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output
