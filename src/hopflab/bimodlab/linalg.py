"""Exact linear algebra over Q(q).

Two flavors: an incremental reduced-echelon span of sparse dict-vectors
(used for closures, monomial independence, and operator-algebra spans), and
small dense routines (rank, kernel, inverse checks) for action matrices.
Everything is deterministic: pivots are chosen by a caller-supplied key
order, never by coefficient size.
"""
from __future__ import annotations

from ..scalars import ONE, ZERO, qrat_mod


class Echelon:
    """Reduced row-echelon span of sparse vectors {key: QRat}.

    The pivot of a vector is its largest key under keyfunc.  Stored vectors
    have pivot coefficient 1 and no other pivot keys (full reduction), so
    coordinates in the echelon basis can be read off directly.
    """

    def __init__(self, keyfunc=None):
        self.keyfunc = keyfunc if keyfunc is not None else (lambda k: k)
        self.rows = {}  # pivot key -> vector
        self._order = []  # pivot keys sorted by keyfunc; None when stale

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residue of vec modulo the span; the input is not modified."""
        out = dict(vec)
        # stored rows carry no foreign pivot keys, so one pass is enough
        for k in sorted(out, key=self.keyfunc, reverse=True):
            c = out.get(k)
            if c is None or c.is_zero():
                continue
            row = self.rows.get(k)
            if row is None:
                continue
            for k2, c2 in row.items():
                s = out.get(k2, ZERO) - c * c2
                if s.is_zero():
                    out.pop(k2, None)
                else:
                    out[k2] = s
        return out

    def contains(self, vec):
        return not self.reduce(vec)

    def insert(self, vec):
        """Add vec to the span; True if the dimension grew.  Returns the
        normalized new row via .last_row for callers that queue it."""
        r = self.reduce(vec)
        if not r:
            self.last_row = None
            return False
        pivot = max(r, key=self.keyfunc)
        inv = r[pivot].inverse()
        r = {k: inv * c for k, c in r.items()}
        # back-substitute into existing rows to keep full reduction
        for row in self.rows.values():
            c = row.get(pivot)
            if c is None:
                continue
            for k2, c2 in r.items():
                s = row.get(k2, ZERO) - c * c2
                if s.is_zero():
                    row.pop(k2, None)
                else:
                    row[k2] = s
        self.rows[pivot] = r
        self._order = None
        self.last_row = dict(r)
        return True

    def _pivots(self):
        if self._order is None:
            self._order = sorted(self.rows, key=self.keyfunc)
        return self._order

    def basis(self):
        """Stored vectors sorted by pivot key, ascending: canonical."""
        return [dict(self.rows[k]) for k in self._pivots()]

    def pivots(self):
        return list(self._pivots())

    def coords(self, vec):
        """Coordinates of vec in basis() order, or None if outside the span."""
        piv = self._pivots()
        out = [vec.get(k, ZERO) for k in piv]
        probe = dict(vec)
        for k, c in zip(piv, out):
            if c.is_zero():
                continue
            for k2, c2 in self.rows[k].items():
                s = probe.get(k2, ZERO) - c * c2
                if s.is_zero():
                    probe.pop(k2, None)
                else:
                    probe[k2] = s
        if probe:
            return None
        return out


class EchelonModP:
    """Span of sparse vectors {key: int in [1, p)} over GF(p), p prime,
    kept for its dimension only.

    The full reduction of Echelon on ints mod p: a stored row holds its
    pivot coefficient 1 implicitly and no other pivot key, so reducing a
    vector subtracts each row whose pivot the vector carries, once, in any
    order.
    """

    def __init__(self, p):
        self.p = p
        self.rows = {}  # pivot key -> {key: int} without the pivot key

    @property
    def dim(self):
        return len(self.rows)

    def insert(self, vec):
        """Add vec to the span; True if the dimension grew."""
        p, rows = self.p, self.rows
        r = dict(vec)
        for k in [k for k in r if k in rows]:
            c = r.pop(k)
            for k2, c2 in rows[k].items():
                s = (r.get(k2, 0) - c * c2) % p
                if s:
                    r[k2] = s
                else:
                    r.pop(k2, None)
        if not r:
            return False
        pivot = max(r)
        inv = pow(r.pop(pivot), -1, p)
        r = {k: c * inv % p for k, c in r.items()}
        for row in rows.values():
            c = row.pop(pivot, None)
            if c is None:
                continue
            for k2, c2 in r.items():
                s = (row.get(k2, 0) - c * c2) % p
                if s:
                    row[k2] = s
                else:
                    row.pop(k2, None)
        rows[pivot] = r
        return True


def specialize(matrix, p, q0):
    """The matrix with q -> q0 in GF(p): every entry mapped by qrat_mod,
    which raises PoleAtPoint for an entry without a value there."""
    return [[qrat_mod(x, p, q0) for x in row] for row in matrix]


# -- dense helpers; matrices are row-major lists of lists of QRat --

def zeros(n, m):
    return [[ZERO] * m for _ in range(n)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = ONE
    return out


def mat_mul(Am, Bm):
    n, k, m = len(Am), len(Bm), len(Bm[0]) if Bm else 0
    out = zeros(n, m)
    for i in range(n):
        Ai = Am[i]
        row = out[i]
        for j in range(k):
            c = Ai[j]
            if c.is_zero():
                continue
            Bj = Bm[j]
            for t in range(m):
                v = Bj[t]
                if not v.is_zero():
                    row[t] = row[t] + c * v
    return out


def mat_add(Am, Bm, ca=ONE, cb=ONE):
    return [[ca * x + cb * y for x, y in zip(r1, r2)]
            for r1, r2 in zip(Am, Bm)]


def rref(rows):
    """Reduced row echelon form of dense rows (copy); returns
    (rref_rows_without_zero_rows, pivot_column_indices)."""
    rows = [list(r) for r in rows]
    m = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(m):
        sel = None
        for i in range(rank, len(rows)):
            if not rows[i][col].is_zero():
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [inv * x for x in rows[rank]]
        for i in range(len(rows)):
            if i == rank:
                continue
            c = rows[i][col]
            if c.is_zero():
                continue
            rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def rank_dense(Am):
    if not Am:
        return 0
    return len(rref(Am)[0])


def kernel(Am):
    """Basis of the right null space of a dense matrix, deterministic."""
    if not Am:
        return []
    m = len(Am[0])
    rows, pivots = rref(Am)
    pivot_set = set(pivots)
    free = [j for j in range(m) if j not in pivot_set]
    out = []
    for f in free:
        vec = [ZERO] * m
        vec[f] = ONE
        for r, p in zip(rows, pivots):
            c = r[f]
            if not c.is_zero():
                vec[p] = -c
        out.append(vec)
    return out
