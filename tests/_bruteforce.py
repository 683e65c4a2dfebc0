"""Independent subset-enumeration oracle for the path-sum restriction.

Used to cross-check the forward dynamic program: walk ALL subsets of word
positions explicitly, with no shared state between subsets and no dynamic
program, and bucket each admissible build sequence under the diagram it
produces.  Exponential in the word length, so only usable for small ranks.
It reads torus.reduced_word at call time, so a test that swaps the chart
for another reduced word checks the dynamic program on that word.

The other reduced words are the linear extensions of the staircase cells,
each cell after the cell above it and the cell to its left: column_cells
and random_cells give such orders and chart_word spells one as a word.
"""

import random

from ogmirror import torus
from ogmirror.diagrams import add_box, all_diagrams, empty_diagram
from ogmirror.polynomials import Polynomial, torus_var


def enumerate_restrictions(n):
    """Restriction of every diagram for rank n, keyed by diagram."""
    word = torus.reduced_word(n)
    table = {rows: Polynomial.zero() for rows in all_diagrams(n)}
    for mask in range(2 ** len(word)):
        rows = empty_diagram(n)
        exponents = {}
        for t, (label, col) in enumerate(word):
            if not mask >> t & 1:
                continue
            rows = add_box(n, rows, label)
            if rows is None:
                break
            var = torus_var(label, col)
            exponents[var] = exponents.get(var, 0) + 1
        else:
            table[rows] = table[rows] + Polynomial.term(1, exponents)
    return table


def _cell_label(n, r, c):
    """Staircase label of cell (r, c): 1 bottom-left, constant along up-right
    diagonals, n+1 / n alternating down the main diagonal."""
    if c < r:
        return n - r + c
    return n + 1 if r % 2 == 1 else n


def column_cells(n):
    """The staircase cells (row, column) column by column, top to bottom."""
    return [(r, c) for c in range(1, n + 1) for r in range(c, n + 1)]


def random_cells(n, seed):
    """A seeded random linear extension of the staircase cells (row, column):
    each step picks uniformly among the cells whose upper and left
    neighbours, where the staircase has them, are already placed."""
    rng = random.Random(seed)
    cells = [(r, c) for r in range(1, n + 1) for c in range(1, r + 1)]
    order = []
    while len(order) < len(cells):
        ready = [
            (r, c)
            for r, c in cells
            if (r, c) not in order
            and (c == r or (r - 1, c) in order)
            and (c == 1 or (r, c - 1) in order)
        ]
        order.append(rng.choice(ready))
    return order


def chart_word(n, cells):
    """The reduced word that reads the staircase cells in this order: the
    (label, column) pair of each cell."""
    return tuple((_cell_label(n, r, c), c) for r, c in cells)


def subsequence_count(n, target):
    """Number of admissible subsequences of the reading word that build target.

    An integer count with its own label rule and placement rule, sharing no
    code with the package: the word lists the staircase cells row by row,
    left to right, and each chosen cell's label is placed at the one cell
    one past a row's end where that label sits and whose row above reaches
    far enough.  Builds never shrink, so only diagrams inside target are
    kept, which makes large ranks cheap for small targets.
    """
    state = {(0,) * n: 1}
    for r in range(1, n + 1):
        for c in range(1, r + 1):
            label = _cell_label(n, r, c)
            grown_state = dict(state)
            for rows, count in state.items():
                spots = [
                    row
                    for row in range(1, n + 1)
                    if rows[row - 1] < row
                    and _cell_label(n, row, rows[row - 1] + 1) == label
                    and (row == 1 or rows[row - 2] >= min(rows[row - 1] + 1, row - 1))
                ]
                assert len(spots) <= 1, (rows, label, spots)
                if not spots:
                    continue
                (row,) = spots
                grown = rows[: row - 1] + (rows[row - 1] + 1,) + rows[row:]
                if all(a <= b for a, b in zip(grown, target)):
                    grown_state[grown] = grown_state.get(grown, 0) + count
            state = grown_state
    return state.get(tuple(target), 0)
