"""The rank check and every index-range check raise one exact message.

Each public function that takes an index checks the rank first, so a bad
rank is reported before a bad index and the index bound is never computed
from a rank that is not an int.  An index that is not an int is rejected by
name even inside its range, also where the int spelling is already memoised.
"""

import pytest

from ogmirror.diagrams import (
    add_box,
    addable_positions,
    box_label,
    check_index,
    check_rank,
    full_columns,
    removable_positions,
    remove_box,
    staircase_prefix,
)
from ogmirror.polynomials import Polynomial
from ogmirror.potential import (
    _term_seeds,
    box_derivation,
    denominator_pair_levels,
    numerator_pair_levels,
    potential_term,
)
from ogmirror.torus import (
    predicted_denominator_restriction,
    term_restriction_factor,
    verify_term_restriction,
)

ONE = Polynomial.one()

# (function, arguments after the rank, message at rank 4)
INDEX_SITES = (
    (staircase_prefix, (5,), "prefix length 5 outside 0..4"),
    (staircase_prefix, (-1,), "prefix length -1 outside 0..4"),
    (full_columns, (0,), "column count 0 outside 1..4"),
    (full_columns, (5,), "column count 5 outside 1..4"),
    (add_box, ((), 6), "label 6 outside 1..5"),
    (remove_box, ((), 0), "label 0 outside 1..5"),
    (addable_positions, ((), 6), "label 6 outside 1..5"),
    (removable_positions, ((), 0), "label 0 outside 1..5"),
    (denominator_pair_levels, (1,), "middle term index 1 outside 2..3"),
    (denominator_pair_levels, (4,), "middle term index 4 outside 2..3"),
    (box_derivation, (5, ONE), "derivation index 5 outside 0..4"),
    (potential_term, (6,), "term index 6 outside 0..5"),
    (_term_seeds, (-1,), "term index -1 outside 0..5"),
    (_term_seeds, (6,), "term index 6 outside 0..5"),
    (predicted_denominator_restriction, (-1,), "term index -1 outside 0..5"),
    (predicted_denominator_restriction, (6,), "term index 6 outside 0..5"),
    (term_restriction_factor, (5,), "term index 5 outside 0..4"),
)

# (function, in-range arguments after the rank with one float, message at rank 4)
NON_INT_SITES = (
    (staircase_prefix, (1.5,), "prefix length must be an int, got 1.5"),
    (full_columns, (1.5,), "column count must be an int, got 1.5"),
    (add_box, ((), 5.0), "label must be an int, got 5.0"),
    (remove_box, ((1,), 2.5), "label must be an int, got 2.5"),
    (addable_positions, ((), 5.0), "label must be an int, got 5.0"),
    (removable_positions, ((1,), 2.5), "label must be an int, got 2.5"),
    (denominator_pair_levels, (2.0,), "middle term index must be an int, got 2.0"),
    (numerator_pair_levels, (3.0,), "middle term index must be an int, got 3.0"),
    (box_derivation, (2.5, ONE), "derivation index must be an int, got 2.5"),
    (potential_term, (2.5,), "term index must be an int, got 2.5"),
    (_term_seeds, (3.0,), "term index must be an int, got 3.0"),
    (predicted_denominator_restriction, (2.0,), "term index must be an int, got 2.0"),
    (term_restriction_factor, (2.5,), "term index must be an int, got 2.5"),
    (verify_term_restriction, (2.0,), "term index must be an int, got 2.0"),
    (box_label, (2.0, 1), "cell (2.0, 1) is outside the rank-4 staircase"),
    (box_label, (2, 1.0), "cell (2, 1.0) is outside the rank-4 staircase"),
)


def _site_id(site):
    fn, _, message = site
    return f"{fn.__name__}: {message}"


def test_check_index_message():
    check_index("label", 1, 1, 1)
    with pytest.raises(ValueError) as raised:
        check_index("label", 0, 1, 4)
    assert str(raised.value) == "label 0 outside 1..4"


@pytest.mark.parametrize("value, shown", ((1, "1"), ("3", "'3'"), (2.0, "2.0")))
def test_check_rank_message(value, shown):
    with pytest.raises(ValueError) as raised:
        check_rank(value)
    assert str(raised.value) == f"rank must be an integer >= 2, got {shown}"


@pytest.mark.parametrize("site", INDEX_SITES, ids=_site_id)
def test_index_site_message(site):
    fn, args, message = site
    with pytest.raises(ValueError) as raised:
        fn(4, *args)
    assert str(raised.value) == message


@pytest.mark.parametrize("site", INDEX_SITES, ids=_site_id)
def test_rank_is_checked_before_the_index(site):
    fn, args, _ = site
    with pytest.raises(ValueError) as raised:
        fn(4.5, *args)
    assert str(raised.value) == "rank must be an integer >= 2, got 4.5"


@pytest.mark.parametrize("site", NON_INT_SITES, ids=_site_id)
def test_non_int_index_is_rejected_by_name(site):
    fn, args, message = site
    # the int spelling is cached first, so a memo keyed by value cannot answer
    fn(4, *(int(arg) if isinstance(arg, float) else arg for arg in args))
    with pytest.raises(ValueError) as raised:
        fn(4, *args)
    assert str(raised.value) == message


def test_check_index_rejects_a_non_int_in_range():
    with pytest.raises(ValueError) as raised:
        check_index("label", 2.0, 1, 4)
    assert str(raised.value) == "label must be an int, got 2.0"
