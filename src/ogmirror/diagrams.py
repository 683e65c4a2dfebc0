"""Young diagrams in the rank-n staircase and their box calculus.

Diagrams index the Plücker variables of the mirror model for the maximal
orthogonal Grassmannian OG(n+1, 2n+2).  A diagram is encoded as the full
row-length vector (c_1, ..., c_n), top row first.  Row r holds at most r
boxes, and every box needs a filled cell directly above it and directly to
its left inside the staircase ("no empty spaces above or to the left").

Each staircase cell carries a fixed label: 1 in the bottom-left corner,
constant along the diagonals running up-right, and alternating n+1 / n on
the main diagonal starting with n+1 at the top.  Boxes are added, removed
and moved between diagrams by these labels; for any diagram and label there
is at most one position where the label fits, which is enforced, not
assumed.
"""

from functools import lru_cache
from typing import NamedTuple

Diagram = tuple[int, ...]
DiagramPair = tuple[Diagram, Diagram]


class StructuralError(RuntimeError):
    """A uniqueness assumption of the box calculus failed.

    Raised when more than one position would accept or release a box with a
    given label, or when both components of a diagram pair accept the same
    label.  Either event would falsify the theory this package implements,
    so we abort loudly instead of silently picking a position.
    """


class LabeledBox(NamedTuple):
    row: int
    col: int
    label: int


def check_rank(n: int) -> None:
    """Reject ranks outside the supported range (n >= 2)."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"rank must be an integer >= 2, got {n!r}")


def empty_diagram(n: int) -> Diagram:
    check_rank(n)
    return (0,) * n


def is_valid(n: int, rows) -> bool:
    """True iff zero-padding ``rows`` to length n yields a valid diagram.

    Total on integer sequences: anything that does not fit the staircase
    returns False rather than raising.
    """
    check_rank(n)
    rows = tuple(rows)
    if len(rows) > n:
        return False
    rows = rows + (0,) * (n - len(rows))
    for r in range(1, n + 1):
        c = rows[r - 1]
        if c < 0 or c > r:
            return False
        # box (r, c) needs box (r-1, c) unless it sits on the diagonal
        if r >= 2 and rows[r - 2] < min(c, r - 1):
            return False
    return True


def diagram(n: int, rows) -> Diagram:
    """Canonicalize ``rows`` to the full-length vector, checking validity."""
    if not is_valid(n, rows):
        raise ValueError(f"not a valid diagram for rank {n}: {tuple(rows)}")
    rows = tuple(rows)
    return rows + (0,) * (n - len(rows))


def box_count(rows) -> int:
    return sum(rows)


def box_label(n: int, r: int, c: int) -> int:
    """Label of the staircase cell in row r, column c (both 1-based)."""
    check_rank(n)
    if not 1 <= c <= r <= n:
        raise ValueError(f"cell ({r}, {c}) is outside the rank-{n} staircase")
    if c < r:
        return n - r + c
    return n + 1 if r % 2 == 1 else n


def staircase(n: int) -> Diagram:
    """The full ambient diagram, rows (1, 2, ..., n)."""
    check_rank(n)
    return tuple(range(1, n + 1))


def staircase_prefix(n: int, i: int) -> Diagram:
    """The diagram whose first i rows are filled completely, 0 <= i <= n."""
    check_rank(n)
    if not 0 <= i <= n:
        raise ValueError(f"prefix length {i} outside 0..{n}")
    return tuple(range(1, i + 1)) + (0,) * (n - i)


def full_columns(n: int, i: int) -> Diagram:
    """The diagram whose first i columns are filled to the staircase boundary."""
    check_rank(n)
    if not 1 <= i <= n:
        raise ValueError(f"column count {i} outside 1..{n}")
    return tuple(min(r, i) for r in range(1, n + 1))


def _check_label(n: int, label: int) -> None:
    if not 1 <= label <= n + 1:
        raise ValueError(f"label {label} outside 1..{n + 1}")


def addable_positions(n: int, rows, label: int) -> list[LabeledBox]:
    """Open cells with this label where adding a box keeps the diagram valid.

    Only the cell just past the end of a row can qualify (anything further
    right would leave an empty space to its left), so each row is probed at
    column c_r + 1.  Growing row r only constrains the row above it (the
    rule of is_valid); the row below only gains room.
    """
    rows = diagram(n, rows)
    _check_label(n, label)
    found = []
    for r in range(1, n + 1):
        c = rows[r - 1] + 1
        if c > r or box_label(n, r, c) != label:
            continue
        if r == 1 or rows[r - 2] >= min(c, r - 1):
            found.append(LabeledBox(r, c, label))
    return found


def removable_positions(n: int, rows, label: int) -> list[LabeledBox]:
    """Boxes with this label having no box to their right nor below them."""
    rows = diagram(n, rows)
    _check_label(n, label)
    found = []
    for r in range(1, n + 1):
        c = rows[r - 1]
        if c == 0 or box_label(n, r, c) != label:
            continue
        below = rows[r] if r < n else 0
        if below < c:
            found.append(LabeledBox(r, c, label))
    return found


def add_box(n: int, rows, label: int) -> Diagram | None:
    """The diagram with one box of this label added, or None if impossible."""
    spots = addable_positions(n, rows, label)
    if len(spots) > 1:
        raise StructuralError(
            f"label {label} addable at {len(spots)} positions of {tuple(rows)}"
        )
    if not spots:
        return None
    r, c, _ = spots[0]
    rows = diagram(n, rows)
    return rows[: r - 1] + (c,) + rows[r:]


def remove_box(n: int, rows, label: int) -> Diagram | None:
    """The diagram with one box of this label removed, or None if impossible."""
    spots = removable_positions(n, rows, label)
    if len(spots) > 1:
        raise StructuralError(
            f"label {label} removable at {len(spots)} positions of {tuple(rows)}"
        )
    if not spots:
        return None
    r, c, _ = spots[0]
    rows = diagram(n, rows)
    return rows[: r - 1] + (c - 1,) + rows[r:]


def box_moves(n: int, pair: DiagramPair) -> list[DiagramPair]:
    """All pairs reached by moving one box from the first diagram to the second.

    A label moves when it is removable from the first component and addable
    to the second; the direction is strictly first-to-second.
    """
    first, second = pair
    out = []
    for label in range(1, n + 2):
        shrunk = remove_box(n, first, label)
        if shrunk is None:
            continue
        grown = add_box(n, second, label)
        if grown is not None:
            out.append((shrunk, grown))
    return out


def add_unique_box(n: int, rows) -> Diagram:
    """Add the single box the diagram admits, over all labels.

    Raises ValueError unless exactly one label is addable; used for the
    one-box extensions of the full-column and full-row-prefix diagrams.
    """
    results = []
    for label in range(1, n + 2):
        grown = add_box(n, rows, label)
        if grown is not None:
            results.append(grown)
    if len(results) != 1:
        raise ValueError(
            f"{tuple(rows)} admits {len(results)} addable labels, expected exactly 1"
        )
    return results[0]


@lru_cache(maxsize=None)
def all_diagrams(n: int) -> tuple[Diagram, ...]:
    """Every valid diagram for the rank, in lexicographic order (2^n of them)."""
    check_rank(n)
    partial = [()]
    for r in range(1, n + 1):
        grown = []
        for rows in partial:
            for c in range(r + 1):
                if r >= 2 and rows[r - 2] < min(c, r - 1):
                    continue
                grown.append(rows + (c,))
        partial = grown
    return tuple(sorted(partial))


@lru_cache(maxsize=None)
def hasse_edges(n: int) -> tuple[tuple[Diagram, Diagram, int], ...]:
    """All covering pairs (smaller, larger, label of the added box), sorted."""
    edges = []
    for rows in all_diagrams(n):
        for label in range(1, n + 2):
            grown = add_box(n, rows, label)
            if grown is not None:
                edges.append((rows, grown, label))
    return tuple(sorted(edges))


def format_diagram(rows) -> str:
    """Canonical text form: comma-separated row lengths, e.g. "1,2,1,0"."""
    return ",".join(str(c) for c in rows)


def parse_diagram(n: int, text: str) -> Diagram:
    """Parse "1,2,1", "0,0,0" or "empty" into a canonical diagram.

    Truncated vectors are zero-padded to length n.  Unparseable text and
    syntactically fine but invalid diagrams raise ValueError with distinct
    messages.
    """
    check_rank(n)
    text = text.strip()
    if text == "empty":
        return empty_diagram(n)
    try:
        rows = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"cannot parse diagram {text!r}: expected comma-separated row"
            f" lengths or 'empty'"
        ) from None
    if len(rows) > n or any(c < 0 for c in rows):
        raise ValueError(f"cannot parse diagram {text!r} for rank {n}")
    if not is_valid(n, rows):
        raise ValueError(
            f"invalid diagram {text!r} for rank {n}: every box needs filled"
            f" cells above and to its left"
        )
    return diagram(n, rows)
