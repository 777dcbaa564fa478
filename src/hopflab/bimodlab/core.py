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

from ..scalars import ONE, PoleAtPoint, QRat
from ..ncpoly import (
    A, B, C, D, DOUBLE, E, F, HXC, K, KI, nc_add_into, word_key,
)
from ..hopf import _act_left_word, _act_right_word, act_left, act_right
from .linalg import (
    Echelon,
    EchelonModP,
    apply,
    frac_add_into,
    frac_canonical,
    frac_qrat,
    kernel,
    rank,
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

    A matrix is a list of dim sparse columns {i: QRat} (see linalg).
    Matrix convention, both sides: column j of the matrix of g holds the
    coordinates of the action of g on basis[j], so words act by
    left[g1 g2] = left[g1] left[g2] and right[g1 g2] = right[g2] right[g1].
    side records which actions the basis is stable under; the matrix
    dictionary for an unavailable side is None.  Coordinates (coords,
    to_poly) are sparse vectors {i: QRat} over the basis.
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
        for i, c in coords.items():
            nc_add_into(out, self.basis[i], c)
        return out


def action_image(g, v, left):
    """The image of v under one generator g, acting on the left or on the
    right, as a sparse vector whose entries are QRats (one contribution,
    the canonical product) or unreduced pairs (num, den) (several
    contributions; see linalg.frac_add_into).  No gcd is taken, so an
    image that turns out to lie in a span costs no canonical form."""
    out = {}
    for w, c in v.items():
        frac_add_into(out, _act_left_word(g, w) if left
                      else _act_right_word(w, g), c)
    return out


def closure(seeds, side="bi", config=None, name="closure"):
    """Minimal subspace containing the seeds and stable under the chosen
    actions (side in {"left", "right", "bi"}); exact breadth-first span
    completion.  Seeds are split into weight components first, so the
    canonical basis is weight-homogeneous throughout.  Raises
    LocalFinitenessExceeded when the dimension passes config.closure_cap.

    Span membership is decided on unreduced fractions.  The image of a
    queued row under a generator other than K, K^-1 is built from the
    memoised word actions (action_image) with no gcd, and
    Echelon.contains tests it: every residue entry is a sum of fractions
    n_i/d_i with every d_i nonzero, which is zero exactly when the
    numerator over the product of the d_i is the zero polynomial, computed
    exactly over Q.  So the test is an exact certificate.  Only an image
    outside the span is put in canonical form and goes through
    ech.insert; an image inside it keeps its unreduced entries until the
    matrices are filled, where only its entries at pivot words become
    canonical.

    The K and K^-1 columns are filled in closed form.  Every basis vector
    is weight-homogeneous (module docstring), so with weight (w1, w2) it
    has K |> b = q^w1 b, K^-1 |> b = q^-w1 b, b <| K^-1 = q^w2 b and
    b <| K = q^-w2 b: those matrices are diagonal, and their images are
    never computed (each lies in the span, so it would grow nothing).

    The other matrices are read off the images the span phase computes
    anyway, with no second action pass and no coordinate solve:

    - Let q_t be the row queued at insertion t (ech.last_row), with pivot
      p_t.  It was reduced against every row present at insertion t, so it
      carries no earlier pivot; the echelon keeps every row fully reduced
      with pivot coefficient 1.  Hence the final basis vector with pivot p_t
      is b(t) = q_t - sum_k q_t[p_k] b(k), over the rows k inserted after t:
      the right side lies in the span, has 1 at p_t and 0 at every other
      pivot, and b(t) is the only such vector.
    - Every image g.q_t was found in the span or added to it, so it lies
      in the final span.  In a fully reduced basis the coordinates of a
      vector of the span are its coefficients at the pivot words.
    - By linearity, column t of g's matrix is (g.q_t at the final pivots)
      minus sum_k q_t[p_k] (column k).  Filling the columns in reverse
      insertion order makes every column k a correction needs already
      written, and the correction adds only column k's nonzeros.  The
      images of a row are dropped once its columns are.
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
    # the generators whose images are computed, and on which side
    acts = [(g, is_left) for g in GENERATORS if g not in (K, KI)
            for is_left, used in ((True, use_left), (False, use_right))
            if used]
    ech = Echelon(word_key)
    queue = []
    for s in homogeneous:
        if ech.insert(s):
            queue.append(ech.last_row)
    # images[t]: the unreduced images of queue[t], in the order of acts
    images = []
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        imgs = [action_image(g, v, is_left) for g, is_left in acts]
        for img in imgs:
            if ech.contains(img):
                continue
            ech.insert(frac_canonical(img))
            if ech.dim > cfg.closure_cap:
                raise LocalFinitenessExceeded(
                    "closure of %s exceeded cap %d"
                    % (name, cfg.closure_cap))
            queue.append(ech.last_row)
        images.append(imgs)
    basis = ech.basis()
    weights = [_weight_strict(b) for b in basis]
    n = len(basis)
    index = {max(b, key=word_key): i for i, b in enumerate(basis)}
    left = {} if use_left else None
    right = {} if use_right else None
    for side_mats, pos, sign in ((left, 0, 1), (right, 1, -1)):
        if side_mats is not None:
            # the other columns are written below, in reverse queue order
            for g in GENERATORS:
                side_mats[g] = [None] * n
            side_mats[K] = [{j: QRat.q_power(sign * wt[pos])}
                            for j, wt in enumerate(weights)]
            side_mats[KI] = [{j: QRat.q_power(-sign * wt[pos])}
                             for j, wt in enumerate(weights)]
    mats = [(left if is_left else right)[g] for g, is_left in acts]
    for t in reversed(range(len(queue))):
        q = queue[t]
        j = index[max(q, key=word_key)]
        later = [(index[k], c) for k, c in q.items()
                 if k in index and index[k] != j]
        for mat, img in zip(mats, images[t]):
            col = {}
            for k, c in img.items():
                i = index.get(k)
                if i is not None:
                    c = frac_qrat(c)
                    if c:
                        col[i] = c
            for jk, c in later:
                nc_add_into(col, mat[jk], -c)
            mat[j] = col
        images[t] = None
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
    # left E over right E: the right side's rows are offset by n
    n = mod.dim
    stacked = [{**lc, **{i + n: c for i, c in rc.items()}}
               for lc, rc in zip(mod.left[E], mod.right[E])]
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
    # right[E F] = right[F] right[E] (FDBimodule's matrix convention)
    outer, inner = (mats[E], mats[F]) if side == "left" else (mats[F], mats[E])
    ck, cki = QRat.q_power(-1) * _lam2, QRat.q_power(1) * _lam2
    out = []
    for j, col in enumerate(inner):
        col = apply(outer, col)
        nc_add_into(col, mats[K][j], ck)
        nc_add_into(col, mats[KI][j], cki)
        out.append(col)
    return out


def spectrum_by_weight(mats, weights, side="left"):
    """Exact spectrum of the Casimir action: list of
    (hw_exponent, eigenvalue, multiplicity), exponent descending.

    Candidate eigenvalues come from the highest-weight exponents (left K
    exponent for the left action, right K^-1 exponent for the right); the
    multiplicities are kernel dimensions and must sum to the full dimension.
    """
    n = len(weights)
    cm = casimir_matrix(mats, side)
    pos = 0 if side == "left" else 1
    exps = {weights[i][pos] for v in kernel(mats[E]) for i in v}
    out = []
    seen = []
    total = 0
    for w in sorted(exps, reverse=True):
        ev = casimir_eigenvalue(w)
        if ev in seen:
            continue
        seen.append(ev)
        shifted = [nc_add_into(dict(col), {j: ONE}, -ev)
                   for j, col in enumerate(cm)]
        mult = n - rank(shifted)
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


def _word_span(mats, n, word_cap, ech, one, clean):
    """(dim, capped) of the span of all words of length <= word_cap in the
    matrices, by a pruned breadth-first search: only the words that grew
    the span are extended, which still reaches the span of all words of
    length <= d after d layers.

    The matrices are sparse columns; a word matrix X is the sparse
    flattening {i * n + j: X[i][j]}.  The caller picks the field: ech is
    an Echelon or an EchelonModP, one the unit entry of the identity, and
    clean drops the zero entries of a product (reducing mod p first over
    GF(p)).  capped reports that the search stopped at the length cap with
    the frontier still growing.
    """
    full = n * n
    ident = {i * n + i: one for i in range(n)}
    ech.insert(ident)
    layer = [ident]
    depth = 0
    while layer and depth < word_cap and ech.dim < full:
        nxt = []
        for X in layer:
            for cols in mats:
                Y = {}
                for key, v in X.items():
                    j, t = divmod(key, n)
                    for i, c in cols[j].items():
                        k = i * n + t
                        s = Y.get(k)
                        Y[k] = c * v if s is None else s + c * v
                Y = clean(Y)
                if ech.insert(Y):
                    nxt.append(Y)
                    if ech.dim == full:
                        return full, False
        layer = nxt
        depth += 1
    return ech.dim, bool(layer) and depth >= word_cap


def _full_at_point(mats, n, word_cap):
    """True when words of length <= word_cap in the matrices, specialized
    at q = SPAN_POINT in GF(SPAN_PRIME), span all n x n matrices, n > 1.

    Soundness (Schwartz 1980; Zippel 1979): evaluation at q0 mod p is a
    ring map from the local ring of ratios whose denominators are units at
    q0 mod p onto GF(p), and qrat_mod certifies every generator entry lies
    in that ring, so every word matrix specializes to the product of the
    specialized generators.  A nonzero n^2 x n^2 minor of flattened
    specialized words is the image of the same minor over Q(q), which is
    then nonzero: full rank at q0 implies full rank over Q(q).  This is the
    pruned breadth-first search of _exact_span over GF(p) (both run
    _word_span), and both reach the span of all words of length <= d after
    d layers; the specialized span is never larger, so reaching n^2 here
    within word_cap means the exact search reaches it within word_cap too,
    and returns (n^2, False).  A short span, the cap or a pole decides
    nothing.  With n = 1 the identity alone fills the span before any word
    is searched, which is left to the exact path.
    """
    p = SPAN_PRIME
    if n < 2:
        return False
    try:
        special = [specialize(m, p, SPAN_POINT) for m in mats]
    except PoleAtPoint:
        return False
    dim, _ = _word_span(special, n, word_cap, EchelonModP(p), 1,
                        lambda Y: {k: c % p for k, c in Y.items() if c % p})
    return dim == n * n


def _exact_span(mats, n, word_cap):
    return _word_span(mats, n, word_cap, Echelon(), ONE,
                      lambda Y: {k: c for k, c in Y.items() if c})


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


def _orbit(gens, seed, cap=None):
    """Span generated from the sparse vector seed {i: QRat} by matrices
    of sparse columns: (basis, images).

    The basis is the seed, then every image that grows the span, appended
    in a fixed breadth-first order as raw action images, never
    re-normalized; images[t][g] is the image of basis[t] under gens[g].
    With cap, the search stops once the span reaches cap, and the images
    of the last basis vectors may be missing.
    """
    ech = Echelon()
    if not ech.insert(seed):
        return [], []
    basis = [seed]
    images = []
    while len(images) < len(basis):
        row = []
        for cols in gens:
            img = apply(cols, basis[len(images)])
            row.append(img)
            if ech.insert(img):
                basis.append(img)
                if cap is not None and ech.dim >= cap:
                    return basis, images
        images.append(row)
    return basis, images


def is_simple(mod, config=None):
    """True when the spanned operator algebra is all of End(V); False when
    some probe vector generates a proper nonzero stable subspace; None when
    neither test decides within the budget."""
    return _simplicity(mod, config)[0]


def _simplicity(mod, config=None):
    """is_simple's verdict, with the certificate of a True verdict (the
    operator span's, see matrix_span) or None.

    The one-point certificate runs first, then the probe orbits, and the
    exact span search last: only a probe can return False, and a module
    with a proper stable subspace never has the full span (Burnside), so
    the order changes no verdict and a non-simple module skips the
    exact search."""
    cfg = config or LabConfig()
    n = mod.dim
    mats = _action_matrices(mod)
    if _full_at_point(mats, n, cfg.word_cap):
        return True, CERT_POINT
    if mod.left is not None and mod.right is not None:
        hw = _hw_bivector_coords(mod)
    elif mod.left is not None:
        hw = _hw_left_coords(mod)
    else:
        hw = kernel(mod.right[E])
    probes = [{i: ONE} for i in range(n)] + hw
    for p in probes:
        d = len(_orbit(mats, p, cap=n)[0])
        if 0 < d < n:
            return False, None
    if _exact_span(mats, n, cfg.word_cap)[0] == n * n:
        return True, CERT_EXACT
    return None, None


# -- decomposition of the left action into simple summands --

@dataclass(eq=False)
class LeftSummand:
    """One simple left summand: seed and basis as sparse vectors in parent
    coordinates, plus the generator matrices (lists of sparse columns) in
    the generated basis.  Isomorphic summands produced by decompose_left
    carry literally equal matrices, because the basis is generated from a
    highest-weight seed by a fixed application order and the matrices do
    not depend on the seed normalization."""
    seed: dict
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


def _summand_matrices(basis, images):
    """Generator matrices on a basis generated by _orbit, from the images
    it recorded, by one exact solve: row-reduce [G | images] where the
    columns of G are the basis."""
    m = len(basis)
    rhs = [imgs[gi] for gi in range(len(GENERATORS)) for imgs in images]
    aug = {}
    for j, vec in enumerate(basis + rhs):
        for i, c in vec.items():
            aug.setdefault(i, {})[j] = c
    rows, pivots = rref(aug.values())
    if pivots != list(range(m)):
        raise DecompositionIncomplete("generated basis failed to solve")
    mats = {g: [{} for _ in range(m)] for g in GENERATORS}
    for i, row in enumerate(rows):
        for j, c in row.items():
            if j >= m:
                gi, t = divmod(j - m, m)
                mats[GENERATORS[gi]][t][i] = c
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
        ws = {mod.weights[i][0] for i in v}
        if len(ws) != 1:
            raise DecompositionIncomplete("inhomogeneous highest-weight seed")
        seeds.append((ws.pop(), v))
    seeds.sort(key=lambda t: -t[0])
    gens = [mod.left[g] for g in GENERATORS]
    acc = Echelon()
    out = []
    for _, seed in seeds:
        if acc.contains(seed):
            continue
        basis, images = _orbit(gens, seed)
        for vec in basis:
            if not acc.insert(vec):
                raise DecompositionIncomplete(
                    "summands overlap; left action is not a direct sum "
                    "of the generated pieces")
        mats = _summand_matrices(basis, images)
        m = len(basis)
        span, capped = matrix_span(list(mats.values()), m, cfg.word_cap)
        if span != m * m:
            raise DecompositionIncomplete(
                "summand of dimension %d is not certified simple "
                "(operator span %d%s)"
                % (m, span, ", capped" if capped else ""))
        wts = []
        for vec in basis:
            ws = {mod.weights[i] for i in vec}
            w1 = {a for a, _ in ws}
            if len(w1) != 1:
                raise DecompositionIncomplete("inhomogeneous summand vector")
            wts.append((w1.pop(), min(b for _, b in ws)))
        out.append(LeftSummand(seed, basis, wts, mats))
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
