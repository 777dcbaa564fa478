"""Two-sided module closures inside the tensor algebra, and their structure.

A closure is the smallest subspace containing the seeds and stable under the
left and right double actions.  Every normal word of the tensor algebra is a
two-sided weight vector (left K acts by the a/c-minus-b/d count, right K^-1
by twice the E-minus-F count plus the c/d-minus-a/b count), so closures of
weight-homogeneous seeds come with a weight-graded canonical basis, and
highest-weight extraction, Casimir spectra and left decompositions are exact
linear algebra over Q(q).
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from ..scalars import ONE, ZERO, PoleAtPoint, QRat
from ..ncpoly import A, B, C, D, DOUBLE, E, F, HXC, K, KI, word_key
from ..hopf import act_left, act_right
from .linalg import (
    Echelon,
    EchelonModP,
    identity,
    kernel,
    mat_add,
    mat_mul,
    rank_dense,
    rref,
    specialize,
)
from . import vectors as _vectors

GENERATORS = (E, F, K, KI, A, B, C, D)

# per-letter weight of a normal word: (left K eigen-exponent, right K^-1
# eigen-exponent); additive over letters because K is grouplike
WT_LEFT = {E: 0, F: 0, K: 0, KI: 0, A: 1, B: -1, C: 1, D: -1}
WT_RIGHT = {E: 2, F: -2, K: 0, KI: 0, A: -1, B: -1, C: 1, D: 1}


class ZeroVector(ValueError):
    pass


class LocalFinitenessExceeded(RuntimeError):
    pass


class DecompositionIncomplete(RuntimeError):
    pass


def _env_closure_cap():
    """The closure cap named by HOPFLAB_CAP (default 512)."""
    raw = os.environ.get("HOPFLAB_CAP", "512")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            "HOPFLAB_CAP must be a positive integer, got %r" % raw)
    return cap


@dataclass
class LabConfig:
    """Budgets for closure search and operator-algebra spanning."""
    closure_cap: int = field(default_factory=_env_closure_cap)
    word_cap: int = 8


def __getattr__(name):
    # DEFAULT_CONFIG is built when it is used, not at import, so a malformed
    # HOPFLAB_CAP fails the run that reads it and never the import
    if name == "DEFAULT_CONFIG":
        return LabConfig()
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


class Weight(NamedTuple):
    left: int
    right: int


def word_weight(w):
    return Weight(sum(WT_LEFT[x] for x in w), sum(WT_RIGHT[x] for x in w))


def weight_components(v):
    """Split a tensor-algebra element into weight-homogeneous parts,
    keyed by weight, in descending weight order."""
    parts = {}
    for w, c in v.items():
        parts.setdefault(word_weight(w), {})[w] = c
    return dict(sorted(parts.items(), reverse=True))


def weight_of(v):
    """The weight pair of a homogeneous element: K |> v = q^w1 v and
    v <| K^-1 = q^w2 v.  None when v is not a simultaneous eigenvector."""
    if not v:
        raise ZeroVector("the zero vector has no weight")
    parts = weight_components(v)
    if len(parts) != 1:
        return None
    return next(iter(parts))


def _weight_strict(v):
    w = weight_of(v)
    if w is None:
        raise ValueError("not weight-homogeneous")
    return w


def is_hw_bivector(v):
    """True when the raising operator kills v on both sides."""
    return not act_left((E,), v) and not act_right(v, (E,))


@dataclass(eq=False)
class FDBimodule:
    """A finite-dimensional action closure with its generator matrices.

    Matrix convention, both sides: column j of the matrix of g holds the
    coordinates of the action of g on basis[j], so words act by
    left[g1 g2] = left[g1] left[g2] and right[g1 g2] = right[g2] right[g1].
    side records which actions the basis is stable under; the matrix
    dictionary for an unavailable side is None.
    """
    name: str
    side: str
    basis: list
    weights: list
    left: dict
    right: dict
    ech: Echelon

    @property
    def dim(self):
        return len(self.basis)

    def coords(self, v):
        return self.ech.coords(v)

    def to_poly(self, coords):
        out = {}
        for c, b in zip(coords, self.basis):
            if c.is_zero():
                continue
            for w, bc in b.items():
                s = out.get(w, ZERO) + c * bc
                if s.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = s
        return out

    def coord_weight(self, vec):
        """Weight of a coordinate vector supported on one weight block."""
        ws = {self.weights[i] for i, c in enumerate(vec) if not c.is_zero()}
        if len(ws) != 1:
            raise ValueError("not weight-homogeneous: %s" % (sorted(ws),))
        return ws.pop()


def closure(seeds, side="bi", config=None, name="closure"):
    """Minimal subspace containing the seeds and stable under the chosen
    actions (side in {"left", "right", "bi"}); exact breadth-first span
    completion.  Seeds are split into weight components first, so the
    canonical basis is weight-homogeneous throughout.  Raises
    LocalFinitenessExceeded when the dimension passes config.closure_cap.
    """
    if side not in ("left", "right", "bi"):
        raise ValueError("side must be left, right, or bi")
    cfg = config or LabConfig()
    homogeneous = []
    for s in seeds:
        s = HXC.normal_form(s) if isinstance(s, dict) else HXC.normal_form(
            {tuple(s): ONE})
        homogeneous.extend(weight_components(s).values())
    if not homogeneous:
        raise ZeroVector("no nonzero seed")
    use_left = side in ("left", "bi")
    use_right = side in ("right", "bi")
    ech = Echelon(word_key)
    queue = []
    for s in homogeneous:
        if ech.insert(s):
            queue.append(ech.last_row)
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for g in GENERATORS:
            imgs = []
            if use_left:
                imgs.append(act_left((g,), v))
            if use_right:
                imgs.append(act_right(v, (g,)))
            for img in imgs:
                if ech.insert(img):
                    if ech.dim > cfg.closure_cap:
                        raise LocalFinitenessExceeded(
                            "closure of %s exceeded cap %d"
                            % (name, cfg.closure_cap))
                    queue.append(ech.last_row)
    basis = ech.basis()
    weights = [_weight_strict(b) for b in basis]
    n = len(basis)
    left = {} if use_left else None
    right = {} if use_right else None
    for g in GENERATORS:
        pairs = []
        if use_left:
            lm = [[ZERO] * n for _ in range(n)]
            left[g] = lm
            pairs.append((lm, lambda b, g=g: act_left((g,), b)))
        if use_right:
            rm = [[ZERO] * n for _ in range(n)]
            right[g] = rm
            pairs.append((rm, lambda b, g=g: act_right(b, (g,))))
        for j, b in enumerate(basis):
            for mat, action in pairs:
                col = ech.coords(action(b))
                for i, c in enumerate(col):
                    mat[i][j] = c
    return FDBimodule(name, side, basis, weights, left, right, ech)


@lru_cache(maxsize=None)
def standard_module(name):
    """The shipped reference closures: H11 (of E K^-1), H20 (of K^-1 c^2),
    H02 (of its mirror seed), H22 (of the squared degree-two bivector),
    H00 (of the unit).  Cached; treat as immutable."""
    return closure([standard_seed(name)], name=name)


def standard_seed(name):
    """The canonical seed element of each shipped reference closure."""
    if name == "H00":
        return {(): ONE}
    if name == "H22":
        v1 = _vectors.canonical("v1")
        return HXC.mul(v1, v1)
    seeds = {"H11": "v3", "H20": "v5", "H02": "v6"}
    if name not in seeds:
        raise KeyError("unknown standard module %r" % (name,))
    return _vectors.canonical(seeds[name])


# -- highest-weight structure --

def _hw_left_coords(mod):
    return kernel(mod.left[E])


def _hw_bivector_coords(mod):
    stacked = [list(r) for r in mod.left[E]] + [list(r) for r in mod.right[E]]
    return kernel(stacked)


def hw_vectors_left(mod):
    """Basis of the kernel of the left raising action, as normal-form
    elements, highest left weight first."""
    out = [mod.to_poly(v) for v in _hw_left_coords(mod)]
    out.sort(key=lambda p: _weight_strict(p)[0], reverse=True)
    return out


def hw_bivectors(mod):
    """Basis of the space killed by the raising operator on both sides,
    as normal-form elements, weight-descending."""
    out = [mod.to_poly(v) for v in _hw_bivector_coords(mod)]
    out.sort(key=_weight_strict, reverse=True)
    return out


_lam2 = ((QRat.q_power(1) - QRat.q_power(-1)).inverse()) ** 2


def casimir_eigenvalue(w):
    """Eigenvalue of the Casimir on a highest-weight vector of exponent w:
    (q^(w+1) + q^(-w-1)) / (q - q^-1)^2."""
    return (QRat.q_power(w + 1) + QRat.q_power(-w - 1)) * _lam2


def casimir_matrix(mats, side):
    """Matrix of the Casimir EF + (q^-1 K + q K^-1)/(q-q^-1)^2 acting
    through the given generator matrices."""
    if side == "left":
        ef = mat_mul(mats[E], mats[F])
    else:
        ef = mat_mul(mats[F], mats[E])
    return mat_add(ef, mat_add(mats[K], mats[KI],
                               QRat.q_power(-1) * _lam2,
                               QRat.q_power(1) * _lam2))


def spectrum_by_weight(mats, weights, side="left"):
    """Exact spectrum of the Casimir action: list of
    (hw_exponent, eigenvalue, multiplicity), exponent descending.

    Candidate eigenvalues come from the highest-weight exponents (left K
    exponent for the left action, right K^-1 exponent for the right); the
    multiplicities are kernel dimensions and must sum to the full dimension.
    """
    n = len(weights)
    cm = casimir_matrix(mats, side)
    ks = kernel(mats[E])
    pos = 0 if side == "left" else 1
    exps = set()
    for v in ks:
        ws = {weights[i][pos] for i, c in enumerate(v) if not c.is_zero()}
        exps.update(ws)
    out = []
    seen = []
    total = 0
    for w in sorted(exps, reverse=True):
        ev = casimir_eigenvalue(w)
        if ev in seen:
            continue
        seen.append(ev)
        shifted = mat_add(cm, identity(n), ONE, -ev)
        mult = n - rank_dense(shifted)
        if mult:
            out.append((w, ev, mult))
            total += mult
    if total != n:
        raise ArithmeticError(
            "Casimir spectrum incomplete: %d of %d" % (total, n))
    return out


def casimir_spectrum(mod, side="left"):
    """Spectrum of the Casimir on a closure: list of (eigenvalue,
    multiplicity), highest-weight exponent descending."""
    mats = mod.left if side == "left" else mod.right
    return [(ev, mult)
            for _, ev, mult in spectrum_by_weight(mats, mod.weights, side)]


# -- simplicity via the spanned operator algebra --

def _sparse_entries(mat):
    return [(i, j, c) for i, row in enumerate(mat)
            for j, c in enumerate(row) if not c.is_zero()]


def _sparse_mul(entries, X, n):
    out = [[ZERO] * n for _ in range(n)]
    for i, j, c in entries:
        row = out[i]
        Xj = X[j]
        for t in range(n):
            v = Xj[t]
            if not v.is_zero():
                row[t] = row[t] + c * v
    return out


def _flat(mat, n):
    return {i * n + j: mat[i][j]
            for i in range(n) for j in range(n)
            if not mat[i][j].is_zero()}


def _action_matrices(mod):
    gens = []
    if mod.left is not None:
        gens += [mod.left[g] for g in GENERATORS]
    if mod.right is not None:
        gens += [mod.right[g] for g in GENERATORS]
    return gens


# The one-point certificate for matrix_span: q -> SPAN_POINT in GF(SPAN_PRIME).
# Both are constants, so every result and every work count repeats.
# SPAN_POINT is a primitive root mod SPAN_PRIME, so q0^k != 1 for
# 0 < k < p - 1 and no q-integer or cyclotomic factor vanishes there.
SPAN_PRIME = 2 ** 61 - 1
SPAN_POINT = 37
CERT_POINT = "specialization q = %d in GF(%d)" % (SPAN_POINT, SPAN_PRIME)
CERT_EXACT = "exact over Q(q)"


class Span(tuple):
    """What matrix_span returns: the pair (dim, capped), which callers
    unpack, and the certificate that decided it (CERT_POINT or CERT_EXACT)
    as an attribute outside the pair."""

    def __new__(cls, dim, capped, certificate):
        self = super().__new__(cls, (dim, capped))
        self.certificate = certificate
        return self


def _full_at_point(mats, n, word_cap):
    """True when words of length <= word_cap in the matrices, specialized
    at q = SPAN_POINT in GF(SPAN_PRIME), span all n x n matrices.

    Soundness (Schwartz 1980; Zippel 1979): evaluation at q0 mod p is a
    ring map from the local ring of ratios whose denominators are units at
    q0 mod p onto GF(p), and qrat_mod certifies every generator entry lies
    in that ring, so every word matrix specializes to the product of the
    specialized generators.  A nonzero n^2 x n^2 minor of flattened
    specialized words is the image of the same minor over Q(q), which is
    then nonzero: full rank at q0 implies full rank over Q(q).  This is the
    pruned breadth-first search of _exact_span over GF(p), and both reach
    the span of all words of length <= d after d layers; the specialized
    span is never larger, so reaching n^2 here within word_cap means the
    exact search reaches it within word_cap too, and returns (n^2, False).
    A short span, the cap or a pole decides nothing.
    """
    p = SPAN_PRIME
    try:
        special = [specialize(m, p, SPAN_POINT) for m in mats]
    except PoleAtPoint:
        return False
    # column j of each generator as (row, entry) pairs
    gens = [[[(i, m[i][j]) for i in range(n) if m[i][j]] for j in range(n)]
            for m in special]
    ech = EchelonModP(p)
    # a word matrix X is the sparse flattening {i * n + j: X[i][j]}
    ident = {i * n + i: 1 for i in range(n)}
    ech.insert(ident)
    layer = [ident]
    depth = 0
    full = n * n
    while layer and depth < word_cap and ech.dim < full:
        nxt = []
        for X in layer:
            for cols in gens:
                Y = {}
                for key, v in X.items():
                    j, t = divmod(key, n)
                    for i, c in cols[j]:
                        k = i * n + t
                        Y[k] = Y.get(k, 0) + c * v
                Y = {k: c % p for k, c in Y.items() if c % p}
                if ech.insert(Y):
                    nxt.append(Y)
                    if ech.dim == full:
                        return True
        layer = nxt
        depth += 1
    return False


def _exact_span(mats, n, word_cap):
    gens = [_sparse_entries(m) for m in mats]
    ech = Echelon()
    ident = identity(n)
    ech.insert(_flat(ident, n))
    layer = [ident]
    depth = 0
    full = n * n
    while layer and depth < word_cap and ech.dim < full:
        nxt = []
        for X in layer:
            for gm in gens:
                Y = _sparse_mul(gm, X, n)
                if ech.insert(_flat(Y, n)):
                    nxt.append(Y)
                    if ech.dim == full:
                        return full, False
        layer = nxt
        depth += 1
    return ech.dim, bool(layer) and depth >= word_cap


def matrix_span(mats, n, word_cap):
    """Dimension of the span of all words of length <= word_cap in the
    given matrices; second value reports whether the search stopped at the
    length cap with the frontier still growing.

    Full rank is certified first at one point of GF(p) (_full_at_point);
    anything short of that runs the exact search over Q(q).  The result is
    the exact one either way; .certificate names the path that decided it.
    """
    if _full_at_point(mats, n, word_cap):
        return Span(n * n, False, CERT_POINT)
    return Span(*_exact_span(mats, n, word_cap), CERT_EXACT)


def operator_span(mod, config=None):
    """Span of words in all available action matrices of the closure."""
    cfg = config or LabConfig()
    return matrix_span(_action_matrices(mod), mod.dim, cfg.word_cap)


def _orbit_dim(mod, vec, cap=None):
    n = mod.dim
    gens = [_sparse_entries(m) for m in _action_matrices(mod)]
    ech = Echelon()
    start = {i: c for i, c in enumerate(vec) if not c.is_zero()}
    if not ech.insert(start):
        return 0
    queue = [ech.last_row]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        dense = [v.get(i, ZERO) for i in range(n)]
        for gm in gens:
            img = {}
            for i, j, c in gm:
                t = dense[j]
                if t.is_zero():
                    continue
                s = img.get(i, ZERO) + c * t
                if s.is_zero():
                    img.pop(i, None)
                else:
                    img[i] = s
            if ech.insert(img):
                queue.append(ech.last_row)
                if cap is not None and ech.dim >= cap:
                    return ech.dim
    return ech.dim


def is_simple(mod, config=None):
    """True when the spanned operator algebra is all of End(V); False when
    some probe vector generates a proper nonzero stable subspace; None when
    neither test decides within the budget."""
    return _simplicity(mod, config)[0]


def _simplicity(mod, config=None):
    """is_simple's verdict, with the certificate of a True verdict (the
    operator span's, see matrix_span) or None."""
    cfg = config or LabConfig()
    n = mod.dim
    span = operator_span(mod, cfg)
    if span[0] == n * n:
        return True, span.certificate
    probes = []
    for i in range(n):
        e = [ZERO] * n
        e[i] = ONE
        probes.append(e)
    if mod.left is not None and mod.right is not None:
        probes.extend(_hw_bivector_coords(mod))
    elif mod.left is not None:
        probes.extend(_hw_left_coords(mod))
    else:
        probes.extend(kernel(mod.right[E]))
    for p in probes:
        d = _orbit_dim(mod, p, cap=n)
        if 0 < d < n:
            return False, None
    return None, None


# -- decomposition of the left action into simple summands --

@dataclass(eq=False)
class LeftSummand:
    """One simple left summand: seed and basis in parent coordinates, plus
    the generator matrices in the generated basis.  Isomorphic summands
    produced by decompose_left carry literally equal matrices, because the
    basis is generated from a highest-weight seed by a fixed application
    order and the matrices do not depend on the seed normalization."""
    seed: list
    basis: list
    weights: list
    matrices: dict

    @property
    def dim(self):
        return len(self.basis)

    @property
    def hw_exponent(self):
        # the seed is the first generated basis vector
        return self.weights[0][0]


def _generate_left(mod, seed):
    """Left-stable span generated from seed, with basis vectors appended in
    a fixed breadth-first order (raw action images, never re-normalized)."""
    n = mod.dim
    local = Echelon()
    basis = []
    sd = {i: c for i, c in enumerate(seed) if not c.is_zero()}
    local.insert(sd)
    basis.append(list(seed))
    t = 0
    while t < len(basis):
        vec = basis[t]
        t += 1
        for g in GENERATORS:
            img = [ZERO] * n
            Mg = mod.left[g]
            for i in range(n):
                acc = ZERO
                row = Mg[i]
                for j, c in enumerate(vec):
                    if not c.is_zero() and not row[j].is_zero():
                        acc = acc + row[j] * c
                img[i] = acc
            if local.insert({i: c for i, c in enumerate(img)
                             if not c.is_zero()}):
                basis.append(img)
    return basis


def _summand_matrices(mod, basis):
    """Generator matrices on the generated basis, by one exact solve:
    row-reduce [G | images] where the columns of G are the basis."""
    n = mod.dim
    m = len(basis)
    images = []
    for g in GENERATORS:
        Mg = mod.left[g]
        for vec in basis:
            img = [ZERO] * n
            for i in range(n):
                acc = ZERO
                row = Mg[i]
                for j, c in enumerate(vec):
                    if not c.is_zero() and not row[j].is_zero():
                        acc = acc + row[j] * c
                img[i] = acc
            images.append(img)
    aug = [[basis[j][i] for j in range(m)] + [img[i] for img in images]
           for i in range(n)]
    rows, pivots = rref(aug)
    if pivots[:m] != list(range(m)) or len(pivots) != m:
        raise DecompositionIncomplete("generated basis failed to solve")
    mats = {}
    for gi, g in enumerate(GENERATORS):
        mat = [[rows[i][m + gi * m + t] for t in range(m)] for i in range(m)]
        mats[g] = mat
    return mats


def decompose_left(mod, config=None):
    """Split the left action into simple summands seeded at highest-weight
    vectors, highest exponent first.  Returns LeftSummand objects whose
    matrix dictionaries are equal exactly when the summands are isomorphic.
    Raises DecompositionIncomplete if the summands do not fill the module
    or if a generated summand cannot be certified simple.
    """
    cfg = config or LabConfig()
    n = mod.dim
    seeds = []
    for v in _hw_left_coords(mod):
        ws = {mod.weights[i][0] for i, c in enumerate(v) if not c.is_zero()}
        if len(ws) != 1:
            raise DecompositionIncomplete("inhomogeneous highest-weight seed")
        seeds.append((ws.pop(), v))
    seeds.sort(key=lambda t: -t[0])
    acc = Echelon()
    out = []
    for _, seed in seeds:
        sd = {i: c for i, c in enumerate(seed) if not c.is_zero()}
        if acc.contains(sd):
            continue
        basis = _generate_left(mod, seed)
        for vec in basis:
            if not acc.insert({i: c for i, c in enumerate(vec)
                               if not c.is_zero()}):
                raise DecompositionIncomplete(
                    "summands overlap; left action is not a direct sum "
                    "of the generated pieces")
        mats = _summand_matrices(mod, basis)
        m = len(basis)
        span, capped = matrix_span(list(mats.values()), m, cfg.word_cap)
        if span != m * m:
            raise DecompositionIncomplete(
                "summand of dimension %d is not certified simple "
                "(operator span %d%s)"
                % (m, span, ", capped" if capped else ""))
        wts = []
        for vec in basis:
            ws = {mod.weights[i] for i, c in enumerate(vec)
                  if not c.is_zero()}
            w1 = {a for a, _ in ws}
            if len(w1) != 1:
                raise DecompositionIncomplete("inhomogeneous summand vector")
            wts.append((w1.pop(), min(b for _, b in ws)))
        out.append(LeftSummand(list(seed), basis, wts, mats))
    if acc.dim != n:
        raise DecompositionIncomplete(
            "highest-weight seeds span %d of %d" % (acc.dim, n))
    return out


def summand_spectrum(s):
    return [(ev, mult) for _, ev, mult in
            spectrum_by_weight(s.matrices, s.weights, side="left")]


# -- one-dimensional representations --

def character_value(chi, v):
    """Evaluate a character (letter -> scalar) on an element."""
    out = QRat.from_int(0)
    for w, c in v.items():
        term = c
        for x in w:
            term = term * chi[x]
        out = out + term
    return out


def character_is_valid(chi):
    """Check a scalar assignment against every defining rule."""
    for pat, rhs in DOUBLE.rules.items():
        lhs = ONE
        for x in pat:
            lhs = lhs * chi[x]
        if lhs != character_value(chi, rhs):
            return False
    return True


def one_dim_characters():
    """All algebra maps from the double to scalars.

    The q-commutation rules with the invertible grouplike force the four
    ladder-type generators to zero, and the remaining generators to roots of
    unity; the only roots of unity in the rational function field are +-1,
    which leaves a finite grid that is checked against every rule.
    """
    zero = QRat.from_int(0)
    out = []
    for ek in (1, -1):
        for ea in (1, -1):
            for ed in (1, -1):
                chi = {E: zero, F: zero, B: zero, C: zero,
                       K: QRat.from_int(ek), KI: QRat.from_int(ek),
                       A: QRat.from_int(ea), D: QRat.from_int(ed)}
                if character_is_valid(chi):
                    out.append(chi)
    return out
