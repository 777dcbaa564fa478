"""Exact linear algebra over Q(q).

Echelon is the one reduction: an incremental reduced-echelon span of
sparse dict-vectors, used for closures, monomial independence, orbits and
operator-algebra spans (Echelon.contains also takes entries left as
unreduced fractions (num, den) and decides membership with no gcd), with
EchelonModP its rank-only twin over GF(p) for the one-point span
certificate.

A matrix is a list of sparse columns {row: QRat}, zero entries left out;
column j of an action matrix holds the coordinates of the action on basis
vector j.  A vector is sparse {index: QRat} likewise.  apply multiplies a
matrix by a vector, and rref, kernel and rank read the rows of an Echelon.
Everything is deterministic: pivots are chosen by a caller-supplied key
order, never by coefficient size.
"""
from __future__ import annotations

from ..scalars import ONE, ZERO, QRat, padd, pmul, pneg, qrat_mod
from ..ncpoly import nc_add_into


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
        rows = self.rows
        # stored rows carry no foreign pivot keys, so subtracting each row
        # whose pivot vec carries, once and in any order, is enough
        for k in [k for k in out if k in rows]:
            c = out.pop(k)
            for k2, c2 in rows[k].items():
                if k2 == k:
                    continue
                s = out.get(k2, ZERO) - c * c2
                if s.is_zero():
                    out.pop(k2, None)
                else:
                    out[k2] = s
        return out

    def contains(self, vec):
        """True iff vec lies in the span, decided with no gcd.

        Entries of vec may be QRats or unreduced pairs (num, den) of
        polynomials with den nonzero.  The stored rows are fully reduced
        with pivot coefficient 1, so the residue of vec is vec minus
        vec[p] * row_p over the pivots p that vec carries: it is zero at
        every pivot, and at any other key it is a finite sum of fractions
        n_i / d_i.  Such a sum is zero in Q(q) exactly when the numerator
        of sum n_i prod_{j != i} d_j over prod d_j is the zero polynomial,
        because every d_j is nonzero and Q[q] has no zero divisors.
        frac_add_into builds that numerator (or one over a common
        denominator, when two denominators are equal) by exact polynomial
        products and sums over Q: no canonical form, no specialisation and
        no probability, so the answer is an exact certificate.
        """
        rows = self.rows
        acc = {k: c for k, c in vec.items() if k not in rows}
        for p, c in vec.items():
            row = rows.get(p)
            if row is None:
                continue
            num, den = frac(c)
            if num:
                frac_add_into(acc, row, (pneg(num), den), skip=p)
        return all(frac_is_zero(c) for c in acc.values())

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

    def coords(self, vec):
        """Coordinates of vec in basis() order, as a sparse vector
        {index: QRat}, or None if outside the span.  The rows are fully
        reduced with pivot coefficient 1, so inside the span the
        coordinates are vec's own entries at the pivots."""
        if self.reduce(vec):
            return None
        return {i: vec[k] for i, k in enumerate(self._pivots()) if k in vec}


class EchelonModP:
    """Span of sparse vectors {key: int in [1, p)} over GF(p), p prime,
    kept for its dimension only.

    The full reduction of Echelon on ints mod p: a stored row holds its
    pivot coefficient 1 implicitly and no other pivot key, so reducing a
    vector subtracts each row whose pivot the vector carries, once, in any
    order.  A column index names the rows that hold each key, so a new
    pivot is back-substituted into those rows only.
    """

    def __init__(self, p):
        self.p = p
        self.rows = {}  # pivot key -> {key: int} without the pivot key
        self._holders = {}  # key -> pivots of the stored rows holding it

    @property
    def dim(self):
        return len(self.rows)

    def insert(self, vec):
        """Add vec to the span; True if the dimension grew."""
        p, rows, holders = self.p, self.rows, self._holders
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
        for rp in holders.pop(pivot, ()):
            row = rows[rp]
            c = row.pop(pivot)
            for k2, c2 in r.items():
                s = (row.get(k2, 0) - c * c2) % p
                if not s:
                    # c * c2 is nonzero mod p, so row held k2
                    del row[k2]
                    holders[k2].remove(rp)
                    continue
                if k2 not in row:
                    holders.setdefault(k2, set()).add(rp)
                row[k2] = s
        rows[pivot] = r
        for k in r:
            holders.setdefault(k, set()).add(pivot)
        return True


def frac(x):
    """(num, den) of an entry that is a QRat or already an unreduced pair."""
    return (x.num, x.den) if type(x) is QRat else x


def frac_is_zero(x):
    return not frac(x)[0]


def frac_qrat(x):
    """The canonical QRat of an entry that is a QRat or an unreduced pair."""
    return x if type(x) is QRat else QRat(*x)


def frac_canonical(vec):
    """The sparse vector of canonical QRats equal to vec, whose entries may
    be unreduced pairs; zero entries are dropped."""
    out = {}
    for k, c in vec.items():
        c = frac_qrat(c)
        if c:
            out[k] = c
    return out


def frac_add_into(acc, vec, scale, skip=None):
    """acc += scale * vec entrywise, in place, with no gcd; vec is a sparse
    vector of QRats, the key skip is left out.

    Entries of acc are QRats or unreduced pairs (num, den).  A key acc
    lacks takes the product scale * vec[k] in scale's form: the canonical
    product when scale is a QRat, the pair of polynomial products when it
    is a pair.  A key acc holds becomes the unreduced pair of the sum,
    over the shared denominator when both denominators are equal and over
    their product otherwise.
    """
    canonical = type(scale) is QRat
    sn, sd = frac(scale)
    for k, c in vec.items():
        if k == skip:
            continue
        t = acc.get(k)
        if t is None and canonical:
            acc[k] = scale * c
            continue
        tn, td = pmul(sn, c.num), pmul(sd, c.den)
        if t is None:
            acc[k] = (tn, td)
            continue
        n, d = frac(t)
        if d == td:
            acc[k] = (padd(n, tn), d)
        else:
            acc[k] = (padd(pmul(n, td), pmul(tn, d)), pmul(d, td))
    return acc


def apply(cols, vec):
    """The matrix with sparse columns cols times the sparse vector
    vec {j: QRat}, as a sparse vector."""
    out = {}
    for j, c in vec.items():
        nc_add_into(out, cols[j], c)
    return out


def specialize(cols, p, q0):
    """The matrix with q -> q0 in GF(p): every entry mapped by qrat_mod,
    which raises PoleAtPoint for an entry without a value there; entries
    that vanish mod p are dropped."""
    out = []
    for col in cols:
        col = {i: qrat_mod(x, p, q0) for i, x in col.items()}
        out.append({i: x for i, x in col.items() if x})
    return out


def rank(cols):
    """Rank of the matrix with sparse columns cols."""
    ech = Echelon()
    for col in cols:
        ech.insert(col)
    return ech.dim


def rref(rows):
    """Reduced row echelon form of sparse rows {column: QRat}; returns
    (rref_rows_without_zero_rows, pivot_column_indices).

    An Echelon keyed on -column takes the leftmost nonzero column as pivot,
    normalises it to 1 and fully reduces; the RREF of a matrix is unique,
    so its rows, read in ascending pivot order, are the RREF."""
    ech = Echelon(lambda j: -j)
    for r in rows:
        ech.insert(r)
    pivots = sorted(ech.rows)
    return [ech.rows[p] for p in pivots], pivots


def kernel(cols):
    """Basis of the right null space of the matrix with sparse columns
    cols, as sparse vectors, one per free column in ascending order."""
    rows = {}
    for j, col in enumerate(cols):
        for i, c in col.items():
            rows.setdefault(i, {})[j] = c
    red, pivots = rref(rows.values())
    pivot_set = set(pivots)
    out = []
    for f in range(len(cols)):
        if f in pivot_set:
            continue
        vec = {p: -r[f] for r, p in zip(red, pivots) if f in r}
        vec[f] = ONE
        out.append(vec)
    return out
