"""rref, kernel, rank_dense and Echelon.coords, which all read the rows of
one Echelon, on random small sparse matrices over Q(q)."""
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflab.scalars import ONE, QRat, ZERO, qint
from hopflab.bimodlab.linalg import Echelon, kernel, rank_dense, rref

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
    acc = ZERO
    for a, b in zip(row, vec):
        acc = acc + a * b
    return acc


def _sparse(row):
    return {j: c for j, c in enumerate(row) if c}


@settings(max_examples=80, deadline=None)
@given(matrices(), st.lists(st.sampled_from(ENTRIES), min_size=4, max_size=4))
def test_rref_kernel_rank_and_coords(mat, combo):
    m, rows = mat
    red, pivots = rref(rows)
    # pivots ascend and carry an identity block; entries left of a pivot
    # are zero
    assert pivots == sorted(set(pivots))
    assert len(red) == len(pivots)
    for i, r in enumerate(red):
        assert len(r) == m
        assert all(c.is_zero() for c in r[:pivots[i]])
        for k, p in enumerate(pivots):
            assert r[p] == (ONE if k == i else ZERO)
    free = [j for j in range(m) if j not in pivots]

    if rows:
        ker = kernel(rows)
        assert rank_dense(rows) == len(pivots)
        assert rank_dense(rows) + len(ker) == m
        for f, v in zip(free, ker):
            assert all(_dot(r, v).is_zero() for r in rows)
            assert [v[g] for g in free] == [ONE if g == f else ZERO
                                            for g in free]
    else:
        assert kernel(rows) == [] and rank_dense(rows) == 0

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
    assert coords is not None and len(coords) == len(basis)
    rebuilt = {}
    for c, b in zip(coords, basis):
        for j, x in b.items():
            rebuilt[j] = rebuilt.get(j, ZERO) + c * x
    assert {j: x for j, x in rebuilt.items() if x} == vec
    # the unit vector of a free column is outside the row space, since the
    # rows are zero at the other rows' pivots
    for f in free:
        assert ech.coords({f: ONE}) is None
        assert ech.coords({**vec, f: vec.get(f, ZERO) + ONE}) is None
