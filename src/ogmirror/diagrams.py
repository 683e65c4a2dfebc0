"""Young diagrams in the rank-n staircase and their box calculus.

Diagrams index the Plücker variables of the mirror model for the maximal
orthogonal Grassmannian OG(n+1, 2n+2).  A diagram is encoded as the full
row-length vector (c_1, ..., c_n), top row first.  Row r holds at most r
boxes, and every box needs a filled cell directly above it and directly to
its left inside the staircase ("no empty spaces above or to the left").

Each staircase cell carries a fixed label: 1 in the bottom-left corner,
constant along the diagonals running up-right, and alternating n+1 / n on
the main diagonal starting with n+1 at the top.  Boxes are added, removed
and moved between diagrams by these labels.  One scan of a diagram lists
all its addable cells and another all its removable cells, labelled from a
table built once per rank.  For any diagram and label there is at most one
position where the label fits; this is enforced, not assumed: wherever
cells are indexed by label, a label that fits twice raises StructuralError.
"""

from functools import lru_cache
from itertools import chain, islice
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


def check_index(what: str, value: int, lo: int, hi: int) -> None:
    """Reject an index that is not an int or lies outside lo..hi, naming what
    it indexes."""
    if not isinstance(value, int):
        raise ValueError(f"{what} must be an int, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{what} {value} outside {lo}..{hi}")


def empty_diagram(n: int) -> Diagram:
    check_rank(n)
    return (0,) * n


def is_valid(n: int, rows) -> bool:
    """True iff zero-padding ``rows`` to length n yields a valid diagram.

    Total on sequences: a row that is not an int, or anything that does not
    fit the staircase, returns False rather than raising.
    """
    check_rank(n)
    rows = tuple(rows)
    if len(rows) > n:
        return False
    above = 0
    for r, c in enumerate(rows, 1):
        if not isinstance(c, int) or not 0 <= c <= _row_limit(r, above):
            return False
        above = c
    return True


def _row_limit(r: int, above: int) -> int:
    """The most boxes row r may hold below a row of ``above`` boxes.

    Box (r, c) needs box (r-1, c) unless it sits on the diagonal, so row r
    may not outgrow the row above unless that row is full (r-1 boxes), and
    then it may reach the staircase boundary, r boxes.  This is the only
    statement of the staircase rule: validation, enumeration, the addable
    scan and the DOT builder all read it.
    """
    return r if above == r - 1 else above


def diagram(n: int, rows) -> Diagram:
    """Canonicalize ``rows`` to the full-length vector of plain ints (a bool
    becomes its int), checking validity."""
    rows = tuple(rows)
    if not is_valid(n, rows):
        raise ValueError(f"not a valid diagram for rank {n}: {rows}")
    return tuple(map(int, rows)) + (0,) * (n - len(rows))


def box_count(rows) -> int:
    return sum(rows)


@lru_cache(maxsize=None)
def _label_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Labels of the staircase cells: entry [r-1][c-1] labels row r, column c."""
    check_rank(n)
    return tuple(
        tuple(n - r + c for c in range(1, r)) + (n + 1 if r % 2 == 1 else n,)
        for r in range(1, n + 1)
    )


def box_label(n: int, r: int, c: int) -> int:
    """Label of the staircase cell in row r, column c (both 1-based)."""
    check_rank(n)
    if not (isinstance(r, int) and isinstance(c, int) and 1 <= c <= r <= n):
        raise ValueError(f"cell ({r}, {c}) is outside the rank-{n} staircase")
    return _label_table(n)[r - 1][c - 1]


def staircase(n: int) -> Diagram:
    """The full ambient diagram, rows (1, 2, ..., n)."""
    check_rank(n)
    return tuple(range(1, n + 1))


def staircase_prefix(n: int, i: int) -> Diagram:
    """The diagram whose first i rows are filled completely, 0 <= i <= n."""
    check_rank(n)
    check_index("prefix length", i, 0, n)
    return tuple(range(1, i + 1)) + (0,) * (n - i)


def full_columns(n: int, i: int) -> Diagram:
    """The diagram whose first i columns are filled to the staircase boundary."""
    check_rank(n)
    check_index("column count", i, 1, n)
    return tuple(min(r, int(i)) for r in range(1, n + 1))  # a bool i counts as its int


def _addable_cells(n: int, rows: Diagram) -> list[tuple[int, int, int]]:
    """(row, col, label) of every cell of a valid diagram where a box can be
    added, top row first.

    Only the cell just past the end of a row can qualify (anything further
    right would leave an empty space to its left).  Growing row r only
    constrains the row above it (the rule of _row_limit): that row must be
    longer, or full; the row below only gains room.
    """
    labels = _label_table(n)
    return [
        (r, c + 1, labels[r - 1][c])
        for r, (above, c) in enumerate(zip((0,) + rows, rows), 1)
        if c < _row_limit(r, above)
    ]


def _removable_cells(n: int, rows: Diagram) -> list[tuple[int, int, int]]:
    """(row, col, label) of every box of a valid diagram with nothing to its
    right nor below it, top row first."""
    labels = _label_table(n)
    return [
        (r, c, labels[r - 1][c - 1])
        for r, (c, below) in enumerate(zip(rows, rows[1:] + (0,)), 1)
        if below < c
    ]


def _by_label(rows: Diagram, cells, shift: int, kind: str) -> dict[int, Diagram]:
    """Map each cell's label to rows with the cell's row set to its column + shift."""
    moved = {}
    for r, c, label in cells:
        if label in moved:
            raise StructuralError(f"label {label} is {kind} twice in {rows}")
        moved[label] = rows[: r - 1] + (c + shift,) + rows[r:]
    return moved


def _grown(n: int, rows: Diagram) -> dict[int, Diagram]:
    """Label -> the valid diagram with one box of that label added."""
    return _by_label(rows, _addable_cells(n, rows), 0, "addable")


def _shrunk(n: int, rows: Diagram) -> dict[int, Diagram]:
    """Label -> the valid diagram with one box of that label removed."""
    return _by_label(rows, _removable_cells(n, rows), -1, "removable")


def addable_positions(n: int, rows, label: int) -> list[LabeledBox]:
    """Open cells with this label where adding a box keeps the diagram valid."""
    rows = diagram(n, rows)
    check_index("label", label, 1, n + 1)
    return [LabeledBox(*cell) for cell in _addable_cells(n, rows) if cell[2] == label]


def removable_positions(n: int, rows, label: int) -> list[LabeledBox]:
    """Boxes with this label having no box to their right nor below them."""
    rows = diagram(n, rows)
    check_index("label", label, 1, n + 1)
    return [LabeledBox(*cell) for cell in _removable_cells(n, rows) if cell[2] == label]


def add_box(n: int, rows, label: int) -> Diagram | None:
    """The diagram with one box of this label added, or None if impossible."""
    rows = diagram(n, rows)
    check_index("label", label, 1, n + 1)
    return _grown(n, rows).get(label)


def remove_box(n: int, rows, label: int) -> Diagram | None:
    """The diagram with one box of this label removed, or None if impossible."""
    rows = diagram(n, rows)
    check_index("label", label, 1, n + 1)
    return _shrunk(n, rows).get(label)


def box_moves(n: int, pair: DiagramPair) -> list[DiagramPair]:
    """All pairs reached by moving one box from the first diagram to the second.

    A label moves when it is removable from the first component and addable
    to the second; the direction is strictly first-to-second.  Pairs come in
    ascending label order.
    """
    first, second = pair
    shrunk = _shrunk(n, diagram(n, first))
    grown = _grown(n, diagram(n, second))
    return [(shrunk[label], grown[label]) for label in sorted(shrunk) if label in grown]


def add_unique_box(n: int, rows) -> Diagram:
    """Add the single box the diagram admits, over all labels.

    Raises ValueError unless exactly one label is addable; used for the
    one-box extensions of the full-column and full-row-prefix diagrams.
    """
    rows = diagram(n, rows)
    results = list(_grown(n, rows).values())
    if len(results) != 1:
        raise ValueError(
            f"{rows} admits {len(results)} addable labels, expected exactly 1"
        )
    return results[0]


@lru_cache(maxsize=None)
def all_diagrams(n: int) -> tuple[Diagram, ...]:
    """Every valid diagram for the rank, in lexicographic order (2^n of them).

    Built row by row with no sort: each sorted prefix is extended by its
    row lengths in ascending order, which keeps the whole list sorted.
    """
    check_rank(n)
    partial = [()]
    for r in range(1, n + 1):
        partial = [
            rows + (c,)
            for rows in partial
            for c in range(_row_limit(r, rows[-1] if rows else 0) + 1)
        ]
    return tuple(partial)


def hasse_edges(n: int) -> tuple[tuple[Diagram, Diagram, int], ...]:
    """All covering pairs (smaller, larger, label of the added box), sorted.

    The smaller diagrams are the tuples of all_diagrams; each larger one is
    a fresh tuple equal to one of them, not shared with it.  Growing a lower
    row gives a smaller tuple, so each diagram's covers, bottom row first,
    and the diagrams in order are already sorted.
    """
    return tuple(
        (rows, grown, label)
        for rows in all_diagrams(n)
        for label, grown in reversed(_grown(n, rows).items())
    )


# hasse_dot yields its text in chunks of this many lines: one write
# per chunk, never one per line (each flushes) nor one string of the whole
# graph (26 MB at rank 16).
DOT_CHUNK_LINES = 4096


def hasse_dot(n: int):
    """The DOT text of the diagram poset, in chunks of DOT_CHUNK_LINES lines.

    The same text as one node line per diagram of all_diagrams, then one
    edge line per entry of hasse_edges, built row by row as all_diagrams
    enumerates: each prefix carries its name and its covers, since
    appending a row keeps every cover of the prefix (a row below a box only
    gains room) and adds at most one, at the new row's end cell.  A cover
    is kept as its name up to the row it grows, so a full diagram's cover
    names are one concatenation each.  The whole poset is built, and a
    label that fits two cells of one diagram raises StructuralError, before
    the first chunk.
    """
    check_rank(n)
    labels = _label_table(n)
    # prefix name, last row, covers (cover name up to the grown row, length
    # of the prefix name there, label) bottom row first, bit mask of labels
    level = [("", 0, (), 0)]
    for r, row_labels in enumerate(labels, 1):
        digits = [("," if r > 1 else "") + str(c) for c in range(r + 1)]
        grown = []
        for name, above, covers, mask in level:
            limit = _row_limit(r, above)
            for c in range(limit):
                label = row_labels[c]
                if mask >> label & 1:
                    rows = tuple(map(int, name.split(","))) if name else ()
                    raise StructuralError(
                        f"label {label} is addable twice in"
                        f" {rows + (c,) + (0,) * (n - r)}"
                    )
                head = name + digits[c]
                cover = (name + digits[c + 1], len(head), label)
                grown.append((head, c, (cover,) + covers, mask | 1 << label))
            grown.append((name + digits[limit], limit, covers, mask))
        level = grown
    lines = chain(
        ["digraph hasse {\n"],
        (f'  "{name}";\n' for name, _, _, _ in level),
        (
            f'  "{name}" -> "{head}{name[k:]}" [label={label}];\n'
            for name, _, covers, _ in level
            for head, k, label in covers
        ),
        ["}\n"],
    )
    while chunk := "".join(islice(lines, DOT_CHUNK_LINES)):
        yield chunk


def format_diagram(rows) -> str:
    """Canonical text form: comma-separated row lengths, e.g. "1,2,1,0"."""
    return ",".join(map(str, rows))


def digit_run(text: str) -> int:
    """The int that a run of ASCII digits spells, whitespace allowed around it.

    A sign, an underscore or another script's digit (``+3``, ``1_0``,
    ``٣``), which int() would accept, raises ValueError, as does a run past
    the int digit limit.
    """
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a run of ASCII digits")
    return int(text)


def parse_diagram(n: int, text: str) -> Diagram:
    """Parse "1,2,1", "0,0,0" or "empty" into a canonical diagram.

    Truncated vectors are zero-padded to length n.  A row length is read
    by digit_run, so signs, underscores and other digits are unparseable.
    Unparseable text and syntactically fine but invalid diagrams raise
    ValueError with distinct messages.
    """
    check_rank(n)
    text = text.strip()
    if text == "empty":
        return empty_diagram(n)
    try:
        rows = tuple(map(digit_run, text.split(",")))
    except ValueError:
        raise ValueError(
            f"cannot parse diagram {text!r}: expected comma-separated row"
            f" lengths or 'empty'"
        ) from None
    if len(rows) > n:
        raise ValueError(f"cannot parse diagram {text!r} for rank {n}")
    if not is_valid(n, rows):
        raise ValueError(
            f"invalid diagram {text!r} for rank {n}: every box needs filled"
            f" cells above and to its left"
        )
    return rows + (0,) * (n - len(rows))
