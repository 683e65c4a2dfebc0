"""The box calculus as Chevalley generators of type D_{n+1}.

Adding a box of label L is e_L and removing one is f_L, acting on the free
module spanned by the rank-n diagrams (a move that does not fit gives 0),
and h_L multiplies a diagram by [L removable] - [L addable].  For the
minuscule representation behind OG(n+1, 2n+2) these satisfy, on every
diagram D:

- e_L^2 = f_L^2 = 0;
- [e_i, f_j] = delta_ij h_i;
- e_i e_j = e_j e_i when A_ij = 0, and e_i e_j e_i = 0 when A_ij = -1;
- h_i(e_j D) - h_i(D) = A_ij whenever e_j D is not 0;

where A is the Cartan matrix of D_{n+1}: labels 1..n-1 form a chain, and
n-1 is joined to both n and n+1.  The type-A matrix of the chain 1..n+1
is the negative control: the same checks must find violations under it.
"""

from collections import Counter

import pytest

from ogmirror.diagrams import add_box, all_diagrams, remove_box


def _cartan_d(n):
    """A_ij of D_{n+1} for labels 1..n+1."""
    edges = {(k, k + 1) for k in range(1, n - 1)} | {(n - 1, n), (n - 1, n + 1)}
    return _cartan(n, edges)


def _cartan_a(n):
    """A_ij of A_{n+1} for the chain of labels 1..n+1."""
    return _cartan(n, {(k, k + 1) for k in range(1, n + 1)})


def _cartan(n, edges):
    labels = range(1, n + 2)
    return {
        (i, j): 2 if i == j else -1 if (i, j) in edges or (j, i) in edges else 0
        for i in labels
        for j in labels
    }


def _apply(move, n, label, vector):
    """The operator adding or removing a box of this label, on a vector."""
    out = Counter()
    for rows, coeff in vector.items():
        moved = move(n, rows, label)
        if moved is not None:
            out[moved] += coeff
    return out


def e(n, label, vector):
    return _apply(add_box, n, label, vector)


def f(n, label, vector):
    return _apply(remove_box, n, label, vector)


def h(n, label, rows):
    removable = remove_box(n, rows, label) is not None
    addable = add_box(n, rows, label) is not None
    return removable - addable


def _zero(vector):
    return not any(vector.values())


def _difference(a, b):
    out = Counter(a)
    out.subtract(b)
    return out


def violations(n, cartan):
    """Every (relation, diagram, i, j) that fails under this Cartan matrix."""
    labels = range(1, n + 2)
    found = []
    for rows in all_diagrams(n):
        basis = Counter({rows: 1})
        for i in labels:
            if not _zero(e(n, i, e(n, i, basis))):
                found.append(("e^2", rows, i, i))
            if not _zero(f(n, i, f(n, i, basis))):
                found.append(("f^2", rows, i, i))
            for j in labels:
                for grown in e(n, j, basis):
                    if h(n, i, grown) - h(n, i, rows) != cartan[i, j]:
                        found.append(("weight", rows, i, j))
                bracket = _difference(e(n, i, f(n, j, basis)), f(n, j, e(n, i, basis)))
                expected = Counter({rows: h(n, i, rows)}) if i == j else Counter()
                if not _zero(_difference(bracket, expected)):
                    found.append(("[e,f]", rows, i, j))
                ij = e(n, i, e(n, j, basis))
                ji = e(n, j, e(n, i, basis))
                if cartan[i, j] == 0 and not _zero(_difference(ij, ji)):
                    found.append(("commute", rows, i, j))
                if cartan[i, j] == -1 and not _zero(e(n, i, ij)):
                    found.append(("serre", rows, i, j))
    return found


@pytest.mark.parametrize("n", range(2, 8))
def test_box_calculus_satisfies_the_type_d_relations(n):
    assert violations(n, _cartan_d(n)) == []


@pytest.mark.parametrize("n, count", ((3, 12), (4, 24), (5, 48)))
def test_type_a_relations_fail(n, count):
    assert len(violations(n, _cartan_a(n))) == count
