"""rref, kernel, rank and Echelon.coords, which all read the rows of an
Echelon, on random small sparse matrices over Q(q): the same matrix as
sparse rows (rref) and as sparse columns (kernel, rank)."""
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflab.scalars import ONE, QRat, ZERO, qint
from hopflab.bimodlab.linalg import Echelon, kernel, rank, rref

Q = QRat.q_power(1)
# mostly zeros, so that rows repeat, vanish or depend on each other often
ENTRIES = [ZERO] * 6 + [ONE, -ONE, qint(2), Q, QRat.q_power(-1), Q + ONE,
                        QRat({0: 1}, {1: 1, 0: -1})]


@st.composite
def matrices(draw):
    """A dense matrix with 1-4 columns and 0-7 rows, some of them a repeat
    of an earlier row or a zero row; the row count may exceed the column
    count."""
    m = draw(st.integers(1, 4))
    entry = st.sampled_from(ENTRIES)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("random", "random", "zero", "repeat")))
        if kind == "zero":
            rows.append([ZERO] * m)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(entry, min_size=m, max_size=m)))
    return m, rows


def _dot(row, vec):
    """A dense row times a sparse vector."""
    acc = ZERO
    for j, b in vec.items():
        acc = acc + row[j] * b
    return acc


def _sparse(row):
    return {j: c for j, c in enumerate(row) if c}


def _columns(m, rows):
    return [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(m)]


@settings(max_examples=80, deadline=None)
@given(matrices(), st.lists(st.sampled_from(ENTRIES), min_size=4, max_size=4))
def test_rref_kernel_rank_and_coords(mat, combo):
    m, rows = mat
    red, pivots = rref([_sparse(r) for r in rows])
    # pivots ascend and carry an identity block; entries left of a pivot
    # are zero, and no zero entry is stored
    assert pivots == sorted(set(pivots))
    assert len(red) == len(pivots)
    for i, r in enumerate(red):
        assert all(pivots[i] <= j < m and c for j, c in r.items())
        for k, p in enumerate(pivots):
            assert r.get(p, ZERO) == (ONE if k == i else ZERO)
    free = [j for j in range(m) if j not in pivots]

    # a matrix of columns keeps its width m with no rows, so its kernel is
    # then all of Q(q)^m
    cols = _columns(m, rows)
    ker = kernel(cols)
    assert rank(cols) == len(pivots)
    assert rank(cols) + len(ker) == m
    if not rows:
        assert rank(cols) == 0
    for f, v in zip(free, ker):
        assert all(c for c in v.values())
        assert all(_dot(r, v).is_zero() for r in rows)
        assert [v.get(g, ZERO) for g in free] == [ONE if g == f else ZERO
                                                  for g in free]

    ech = Echelon()
    for r in rows:
        ech.insert(_sparse(r))
    assert ech.dim == len(pivots)
    basis = ech.basis()
    # a combination of the rows lies in the span and is rebuilt from its
    # coordinates
    vec = {}
    for c, r in zip(combo, rows):
        for j, x in enumerate(r):
            vec[j] = vec.get(j, ZERO) + c * x
    vec = {j: x for j, x in vec.items() if x}
    coords = ech.coords(vec)
    assert coords is not None
    assert all(0 <= i < len(basis) and c for i, c in coords.items())
    rebuilt = {}
    for i, c in coords.items():
        for j, x in basis[i].items():
            rebuilt[j] = rebuilt.get(j, ZERO) + c * x
    assert {j: x for j, x in rebuilt.items() if x} == vec
    # the unit vector of a free column is outside the row space, since the
    # rows are zero at the other rows' pivots
    for f in free:
        assert ech.coords({f: ONE}) is None
        assert ech.coords({**vec, f: vec.get(f, ZERO) + ONE}) is None
