from collections import deque
from itertools import product

import pytest

from _runner import CommandRunner
from ogmirror import checks, diagrams
from ogmirror.cli import main
from ogmirror.diagrams import (
    LabeledBox,
    StructuralError,
    add_box,
    add_unique_box,
    addable_positions,
    all_diagrams,
    box_count,
    box_label,
    box_moves,
    diagram,
    empty_diagram,
    format_diagram,
    full_columns,
    hasse_dot,
    hasse_edges,
    is_valid,
    parse_diagram,
    remove_box,
    removable_positions,
    staircase,
    staircase_prefix,
)
from ogmirror.potential import check_plucker, denominator_pair_levels


def test_validity_examples():
    assert not is_valid(3, (1, 1, 2))
    assert is_valid(3, (0, 0, 0))
    assert is_valid(3, (1, 2, 1))


def test_validity_accepts_truncated_rows():
    assert is_valid(4, (1, 2))
    assert is_valid(4, ())


def test_validity_rejects_out_of_staircase():
    assert not is_valid(3, (2, 0, 0))
    assert not is_valid(3, (1, 2, 4))
    assert not is_valid(3, (1, -1, 0))
    assert not is_valid(3, (1, 2, 3, 1))


def test_validity_rejects_rows_that_are_not_ints():
    assert not is_valid(3, (1.0, 0, 0))
    assert not is_valid(3, (1, "2", 0))
    assert not is_valid(3, (1, 2, None))
    floats = (1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="not a valid diagram"):
        diagram(4, floats)
    for fn in (add_box, remove_box, addable_positions, removable_positions):
        with pytest.raises(ValueError, match="not a valid diagram"):
            fn(4, floats, 1)
    with pytest.raises(ValueError, match="not a valid diagram"):
        box_moves(4, ((1, 1, 1, 1), floats))
    with pytest.raises(ValueError, match=r"p\[1.0,1.0,1.0,1.0\] is not a diagram"):
        check_plucker(4, floats)


def _obeys_cell_rule(rows):
    """The module docstring's rule, cell by cell: 0 <= c_r <= r, and for
    r >= 2, c_{r-1} >= min(c_r, r-1)."""
    return all(0 <= c <= r for r, c in enumerate(rows, 1)) and all(
        rows[r - 2] >= min(rows[r - 1], r - 1) for r in range(2, len(rows) + 1)
    )


@pytest.mark.parametrize("n", range(2, 7))
def test_validity_matches_the_cell_rule(n):
    # every row vector of every length up to n, entries -1..r+1 in row r
    for length in range(n + 1):
        for rows in product(*(range(-1, r + 2) for r in range(1, length + 1))):
            assert is_valid(n, rows) == _obeys_cell_rule(rows), rows


def test_diagram_pads_and_validates():
    assert diagram(4, (1, 2)) == (1, 2, 0, 0)
    bools = diagram(4, (True, True, False, False))
    assert bools == (1, 1, 0, 0)
    assert [type(row) for row in bools] == [int] * 4
    with pytest.raises(ValueError):
        diagram(3, (1, 1, 2))


def test_labels_n4():
    assert box_label(4, 4, 1) == 1
    assert box_label(4, 1, 1) == 5
    assert box_label(4, 2, 2) == 4


def test_full_staircase_labeling_n4():
    # row by row: 5 / 3 4 / 2 3 5 / 1 2 3 4
    grid = [[box_label(4, r, c) for c in range(1, r + 1)] for r in range(1, 5)]
    assert grid == [[5], [3, 4], [2, 3, 5], [1, 2, 3, 4]]


def test_label_out_of_range():
    with pytest.raises(ValueError):
        box_label(4, 2, 3)
    with pytest.raises(ValueError):
        box_label(4, 5, 1)


def test_staircase_families():
    assert staircase(4) == (1, 2, 3, 4)
    assert full_columns(3, 2) == (1, 2, 2)
    assert staircase_prefix(4, 2) == (1, 2, 0, 0)
    assert staircase_prefix(3, 0) == (0, 0, 0)
    with pytest.raises(ValueError):
        staircase_prefix(3, 4)
    with pytest.raises(ValueError):
        full_columns(3, 0)


@pytest.mark.parametrize("n", range(2, 7))
def test_full_columns_of_a_bool_count_is_plain_ints(n):
    rows = full_columns(n, True)
    assert rows == full_columns(n, 1)
    assert all(type(row) is int for row in rows)
    assert format_diagram(rows) == ",".join(["1"] * n)


def test_addable_positions_examples():
    assert addable_positions(4, (1, 2, 1, 0), 3) == [LabeledBox(3, 2, 3)]
    assert addable_positions(4, (1, 2, 1, 0), 5) == []
    assert addable_positions(4, (0, 0, 0, 0), 5) == [LabeledBox(1, 1, 5)]


def test_removable_positions_examples():
    assert removable_positions(4, (1, 2, 1, 0), 4) == [LabeledBox(2, 2, 4)]
    assert removable_positions(4, (1, 2, 1, 0), 3) == []
    for label in range(1, 6):
        assert removable_positions(4, (0, 0, 0, 0), label) == []


def test_add_remove_box_examples():
    assert add_box(4, (1, 2, 3, 3), 4) == (1, 2, 3, 4)
    assert remove_box(4, (1, 2, 1, 0), 4) == (1, 1, 1, 0)
    assert add_box(4, (0, 0, 0, 0), 1) is None


def test_mu2_plus_add_remove_labels():
    # the rank-4 pair example: removable labels 2 and 4, addable labels 1 and 3
    rows = (1, 2, 1, 0)
    removable = [lab for lab in range(1, 6) if remove_box(4, rows, lab) is not None]
    addable = [lab for lab in range(1, 6) if add_box(4, rows, lab) is not None]
    assert removable == [2, 4]
    assert addable == [1, 3]


def test_box_moves_examples():
    assert box_moves(4, ((1, 2, 0, 0), (1, 2, 3, 3))) == [((1, 1, 0, 0), (1, 2, 3, 4))]
    assert box_moves(4, ((1, 2, 1, 0), (1, 2, 3, 3))) == [((1, 1, 1, 0), (1, 2, 3, 4))]
    assert box_moves(4, ((0, 0, 0, 0), (1, 2, 0, 0))) == []


def test_all_diagrams_n3_golden():
    assert all_diagrams(3) == (
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (1, 1, 1),
        (1, 2, 0),
        (1, 2, 1),
        (1, 2, 2),
        (1, 2, 3),
    )


def test_all_diagrams_n2():
    assert all_diagrams(2) == ((0, 0), (1, 0), (1, 1), (1, 2))


@pytest.mark.parametrize("n", range(2, 8))
def test_all_diagrams_count_and_validity(n):
    rows_list = all_diagrams(n)
    assert len(rows_list) == 2**n
    assert len(set(rows_list)) == 2**n
    assert all(is_valid(n, rows) for rows in rows_list)


@pytest.mark.parametrize("n", range(2, 13))
def test_all_diagrams_enumerates_in_strictly_increasing_order(n):
    """all_diagrams returns its row-by-row enumeration unsorted, so the
    enumeration itself must be lexicographic."""
    rows_list = all_diagrams(n)
    assert all(lower < upper for lower, upper in zip(rows_list, rows_list[1:]))


def test_hasse_edges_n2_chain():
    assert hasse_edges(2) == (
        ((0, 0), (1, 0), 3),
        ((1, 0), (1, 1), 1),
        ((1, 1), (1, 2), 2),
    )


def test_hasse_edges_n4_count():
    assert len(hasse_edges(4)) == 20


@pytest.mark.parametrize("n", range(2, 7))
def test_empty_diagram_has_one_cover(n):
    outgoing = [edge for edge in hasse_edges(n) if edge[0] == empty_diagram(n)]
    assert outgoing == [(empty_diagram(n), diagram(n, (1,)), n + 1)]


@pytest.mark.parametrize("n", range(2, 7))
def test_hasse_reachability_and_grading(n):
    for lower, upper, label in hasse_edges(n):
        assert box_count(upper) == box_count(lower) + 1
        assert add_box(n, lower, label) == upper
    neighbors = {}
    for lower, upper, _ in hasse_edges(n):
        neighbors.setdefault(lower, []).append(upper)
    seen = {empty_diagram(n)}
    queue = deque(seen)
    while queue:
        for upper in neighbors.get(queue.popleft(), []):
            if upper not in seen:
                seen.add(upper)
                queue.append(upper)
    assert seen == set(all_diagrams(n))


def test_add_unique_box_examples():
    assert add_unique_box(3, full_columns(3, 1)) == (1, 2, 1)
    assert add_unique_box(3, staircase_prefix(3, 2)) == (1, 2, 1)
    assert add_unique_box(3, full_columns(3, 2)) == (1, 2, 3)


@pytest.mark.parametrize("n", range(2, 8))
def test_add_unique_box_on_prefixes_and_columns(n):
    for i in range(1, n):
        add_unique_box(n, full_columns(n, i))
        add_unique_box(n, staircase_prefix(n, i))


def test_add_unique_box_rejects_ambiguity():
    # (1,2,1,0) accepts labels 1 and 3
    with pytest.raises(ValueError):
        add_unique_box(4, (1, 2, 1, 0))
    # the full staircase accepts nothing
    with pytest.raises(ValueError):
        add_unique_box(4, staircase(4))


@pytest.mark.parametrize("n", range(2, 7))
def test_at_most_one_position_per_label(n):
    for rows in all_diagrams(n):
        for label in range(1, n + 2):
            assert len(addable_positions(n, rows, label)) <= 1
            assert len(removable_positions(n, rows, label)) <= 1


@pytest.mark.parametrize("n", range(2, 9))
def test_addable_positions_match_is_valid(n):
    """The local addable and removable rules agree with re-validating the result."""
    for rows in all_diagrams(n):
        for label in range(1, n + 2):
            expected = [
                LabeledBox(r, rows[r - 1] + 1, label)
                for r in range(1, n + 1)
                if rows[r - 1] < r
                and box_label(n, r, rows[r - 1] + 1) == label
                and is_valid(n, rows[: r - 1] + (rows[r - 1] + 1,) + rows[r:])
            ]
            assert addable_positions(n, rows, label) == expected
            expected = [
                LabeledBox(r, rows[r - 1], label)
                for r in range(1, n + 1)
                if rows[r - 1] > 0
                and box_label(n, r, rows[r - 1]) == label
                and is_valid(n, rows[: r - 1] + (rows[r - 1] - 1,) + rows[r:])
            ]
            assert removable_positions(n, rows, label) == expected


@pytest.mark.parametrize("n", range(2, 9))
def test_hasse_edges_match_bruteforce_covers(n):
    """Every pair of valid diagrams one box apart, found without the scans."""
    candidates = product(*(range(r + 1) for r in range(1, n + 1)))
    valid = {rows for rows in candidates if is_valid(n, rows)}
    expected = []
    for rows in valid:
        for r in range(1, n + 1):
            upper = rows[: r - 1] + (rows[r - 1] + 1,) + rows[r:]
            if upper in valid:
                expected.append((rows, upper, box_label(n, r, rows[r - 1] + 1)))
    assert hasse_edges(n) == tuple(sorted(expected))


def _moves_label_by_label(n, pair):
    first, second = pair
    out = []
    for label in range(1, n + 2):
        shrunk = remove_box(n, first, label)
        grown = add_box(n, second, label)
        if shrunk is not None and grown is not None:
            out.append((shrunk, grown))
    return out


@pytest.mark.parametrize("n", range(3, 8))
def test_box_moves_match_label_by_label(n):
    for i in range(2, n):
        for level in denominator_pair_levels(n, i):
            for pair in level:
                assert box_moves(n, pair) == _moves_label_by_label(n, pair)


def test_public_functions_validate_input():
    for fn in (add_box, remove_box, addable_positions, removable_positions):
        with pytest.raises(ValueError):
            fn(3, (1, 1, 2), 1)
        for label in (0, 5):
            with pytest.raises(ValueError):
                fn(3, (1, 2, 1), label)
    with pytest.raises(ValueError):
        add_unique_box(3, (2, 0, 0))
    with pytest.raises(ValueError):
        box_moves(3, ((1, 0, 0), (1, 1, 2)))


def _relabel(monkeypatch, n, r, c, label):
    """Patch the label table of rank n so cell (r, c) carries this label."""
    original = diagrams._label_table
    table = [list(row) for row in original(n)]
    table[r - 1][c - 1] = label
    patched = tuple(map(tuple, table))
    monkeypatch.setattr(
        diagrams, "_label_table", lambda rank: patched if rank == n else original(rank)
    )


def _assert_hasse_fails(n):
    """The hasse command raises StructuralError before printing any graph."""
    result = CommandRunner().invoke(main, ["hasse", "--n", str(n)])
    assert isinstance(result.exception, StructuralError)
    assert result.stdout == ""


def test_label_addable_twice_is_a_structural_error(monkeypatch):
    # (1,2,1,0) accepts label 3 at (3,2) and label 1 at (4,1); relabel (4,1) to 3
    _relabel(monkeypatch, 4, 4, 1, 3)
    rows = (1, 2, 1, 0)
    assert len(addable_positions(4, rows, 3)) == 2
    with pytest.raises(StructuralError):
        add_box(4, rows, 3)
    with pytest.raises(StructuralError):
        box_moves(4, ((1, 2, 2, 0), rows))
    with pytest.raises(StructuralError):
        hasse_edges(4)
    with pytest.raises(StructuralError, match=r"^label 3 is addable twice in \(1, 2, 1, 0\)$"):
        list(hasse_dot(4))
    _assert_hasse_fails(4)
    result = checks._unique_positions(4)
    assert not result.passed
    assert result.detail.startswith("violations: ")
    assert "('addable', (1, 2, 1, 0), 3)" in result.detail


def test_uniqueness_violations_sort_by_diagram_then_label(monkeypatch):
    # (1,2,1,0) then releases label 2 twice and accepts label 3 twice
    _relabel(monkeypatch, 4, 2, 2, 2)
    _relabel(monkeypatch, 4, 4, 1, 3)
    assert checks._unique_positions(4).detail == (
        "violations: [('addable', (1, 1, 0, 0), 2), ('removable', (1, 2, 1, 0), 2), "
        "('addable', (1, 2, 1, 0), 3), ('removable', (1, 2, 2, 1), 3)]"
    )


def test_label_removable_twice_is_a_structural_error(monkeypatch):
    # (1,2,1,0) releases label 2 at (3,1) and label 4 at (2,2); relabel (3,1) to 4
    _relabel(monkeypatch, 4, 3, 1, 4)
    rows = (1, 2, 1, 0)
    assert len(removable_positions(4, rows, 4)) == 2
    with pytest.raises(StructuralError):
        remove_box(4, rows, 4)
    with pytest.raises(StructuralError):
        box_moves(4, (rows, (1, 2, 3, 3)))
    # (1,1,0,0) now accepts label 4 at (2,2) and at (3,1)
    with pytest.raises(StructuralError):
        hasse_edges(4)
    with pytest.raises(StructuralError, match=r"^label 4 is addable twice in \(1, 1, 0, 0\)$"):
        list(hasse_dot(4))
    _assert_hasse_fails(4)
    result = checks._unique_positions(4)
    assert not result.passed
    assert "('removable', (1, 2, 1, 0), 4)" in result.detail


@pytest.mark.parametrize("n", range(2, 7))
def test_add_then_remove_roundtrip(n):
    for rows in all_diagrams(n):
        for label in range(1, n + 2):
            grown = add_box(n, rows, label)
            if grown is not None:
                assert remove_box(n, grown, label) == rows
            shrunk = remove_box(n, rows, label)
            if shrunk is not None:
                assert add_box(n, shrunk, label) == rows


def test_format_diagram():
    assert format_diagram((1, 2, 1, 0)) == "1,2,1,0"
    assert format_diagram((0, 0)) == "0,0"


def test_parse_diagram_accepts_truncated_and_empty():
    assert parse_diagram(4, "1,1") == (1, 1, 0, 0)
    assert parse_diagram(4, "empty") == (0, 0, 0, 0)
    assert parse_diagram(4, "0,0,0,0") == (0, 0, 0, 0)
    assert parse_diagram(4, "1,2,3,4") == (1, 2, 3, 4)


def test_parse_diagram_allows_whitespace_around_parts():
    assert parse_diagram(4, " 1 ,\t1 , 0") == (1, 1, 0, 0)


@pytest.mark.parametrize(
    "text", ["0_1", "+1", "-0", "\u0661", "\u00b2", "1,+1", "1,1_0", "-1", "1,,1", "1 1"]
)
def test_parse_diagram_accepts_only_ascii_digit_runs(text):
    """int() accepts signs, underscores and non-ASCII digits; a row length
    does not."""
    with pytest.raises(ValueError, match="^cannot parse diagram"):
        parse_diagram(3, text)


def test_parse_diagram_error_messages_are_distinct():
    with pytest.raises(ValueError, match="cannot parse"):
        parse_diagram(4, "1,x")
    with pytest.raises(ValueError, match="cannot parse"):
        parse_diagram(2, "1,2,3")
    with pytest.raises(ValueError, match="invalid diagram"):
        parse_diagram(3, "1,1,2")
