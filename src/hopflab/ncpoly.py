"""Noncommutative polynomials over Q(q) and confluent rewriting presentations.

Words are tuples of letter ids over the eight-letter alphabet
E, F, K, K^-1, a, b, c, d; a polynomial is a dict {word: QRat} with no zero
coefficients.  Four presentations ship here:

  uqsl2   quantized enveloping algebra, normal words E^i F^j K^l (l in Z)
  cqsl2   quantized function algebra, normal words a^p b^m c^r and d^n b^m c^r
  hxc     their tensor product, H-part then C-part, letters commute across
  double  the quantum double: same underlying space, C-part multiplied
          oppositely and cross rules straightening C letters past H letters

The function-algebra sort order is a < d < b < c, not alphabetical: the
determinant relations a d = 1 + q^-1 b c and d a = 1 + q b c can only fire
through a length-2 window if a and d are adjacent in the normal order, and
with them adjacent the mixed words (p > 0 and n > 0 both) eliminate
themselves, which is exactly the PBW constraint.

All rules rewrite a length-2 pattern into a normal-form polynomial, applied
leftmost-first with a per-presentation memo of fully reduced words.  hxc is
built with its two factors and does not rewrite: a word's normal form is the
uqsl2 normal form of its H letters times the cqsl2 normal form of its C
letters (Presentation._nf_factored); its rule table still defines normal
words and is audited like the others.  Each rule
strictly decreases word_key, a graded-lex order refined by three intermediate
grades (cross pairs, determinant letters, inversions); that refinement is what
makes the determinant rules a d -> 1 + bc and the cross rules terminate.
presentation_check audits exactly that, plus local confluence on all length-3
overlaps, so normal forms are canonical.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .scalars import ONE, QRat, ZERO

E, F, K, KI, A, B, C, D = range(8)
LETTERS = (E, F, K, KI, A, B, C, D)
LETTER_NAMES = ("E", "F", "K", "K^-1", "a", "b", "c", "d")
H_LETTERS = frozenset((E, F, K, KI))
C_LETTERS = frozenset((A, B, C, D))

_STEP_CAP = 10_000_000


class AlphabetMismatch(ValueError):
    pass


class NonTermination(RuntimeError):
    pass


class OutOfWindow(KeyError):
    pass


# sorting rank: E F K K^-1 a d b c (function letters are not alphabetical,
# see the module docstring)
RANK = (0, 1, 2, 3, 4, 6, 7, 5)


def word_key(w):
    """Total well-order on words used for termination, pivots and printing.

    Graded lex refined by intermediate grades: (length, #C-letter-before-
    H-letter pairs, #{a,d} letters, #rank inversions, the rank sequence).
    Every component is compatible with concatenation, so a rule that
    decreases the key does so in any context.
    """
    ranks = tuple(RANK[x] for x in w)
    cross = 0
    inv = 0
    ad = 0
    seen_c = 0
    for i, x in enumerate(w):
        if x >= A:
            seen_c += 1
            if x == A or x == D:
                ad += 1
        else:
            cross += seen_c
        r = ranks[i]
        for s in ranks[i + 1:]:
            if r > s:
                inv += 1
    return (len(w), cross, ad, inv, ranks)


# -- polynomial helpers: dict {word: QRat}, never a zero coefficient --

def nc_unit(c=ONE):
    return {(): c} if not c.is_zero() else {}


def nc_mono(word, c=ONE):
    return {tuple(word): c} if not c.is_zero() else {}


def nc_add_into(acc, p, scale=ONE):
    """acc += scale * p, in place; p is not modified.  A scale ONE costs
    one identity check per term, in QRat.__mul__."""
    if not scale.num:
        return acc
    for w, c in p.items():
        c = scale * c
        s = acc.get(w)
        if s is not None:
            c = s + c
            if not c.num:
                del acc[w]
                continue
        acc[w] = c
    return acc


def nc_add(p, r):
    return nc_add_into(dict(p), r)


def nc_sub(p, r):
    return nc_add_into(dict(p), r, -ONE)


def nc_scale(p, c):
    if c.is_zero():
        return {}
    return {w: c * v for w, v in p.items()}


def leading_word(p):
    return max(p, key=word_key)


@dataclass
class OverlapReport:
    triple: tuple
    agree: bool
    left_nf: dict
    right_nf: dict


@dataclass
class CheckReport:
    presentation: str
    order_violations: list = field(default_factory=list)
    overlaps: list = field(default_factory=list)

    @property
    def confluent(self):
        return all(o.agree for o in self.overlaps)

    @property
    def terminating(self):
        return not self.order_violations

    @property
    def passed(self):
        return self.confluent and self.terminating


class Presentation:
    """A rewriting presentation with memoised normal forms.

    rules maps a length-2 pattern to its replacement polynomial (whose words
    must already be normal).  The memo is shared by every caller, which is
    what keeps repeated action/closure computations cheap.

    factors = (h, c) declares the presentation the commuting tensor product
    of h and c: its rules must be exactly h's, c's and the swaps
    y x -> x y (coefficient 1) for every x of h and y of c.  Such a
    presentation computes normal forms factor-wise (_nf_factored) instead
    of rewriting; its rules still serve is_normal_word, the word
    enumeration and presentation_check.
    """

    def __init__(self, name, alphabet, rules, factors=None):
        self.name = name
        self.alphabet = frozenset(alphabet)
        self.rules = dict(rules)
        self.factors = factors
        if factors is not None:
            h, c = factors
            swaps = {(y, x): {(x, y): ONE}
                     for x in h.alphabet for y in c.alphabet}
            if (not h.alphabet.isdisjoint(c.alphabet)
                    or self.alphabet != h.alphabet | c.alphabet
                    or self.rules != {**h.rules, **c.rules, **swaps}):
                raise ValueError("%s is not the commuting tensor product "
                                 "of %s and %s" % (name, h.name, c.name))
        self._nf = {}
        self._steps = 0  # lifetime total of rewrite steps
        self._depth = 0  # nf_word reductions in progress
        self._limit = 0  # _steps value the current top-level call may reach

    def __repr__(self):
        return "Presentation(%r)" % self.name

    def check_word(self, w):
        for x in w:
            if x not in self.alphabet:
                raise AlphabetMismatch(
                    "letter %s not in alphabet of %s"
                    % (LETTER_NAMES[x], self.name))

    def nf_word(self, w):
        """Fully reduced polynomial equal to the word.  Treat as read-only.

        Raises NonTermination when one top-level reduction, recursion
        included, takes more than _STEP_CAP rewrite steps."""
        cached = self._nf.get(w)
        if cached is not None:
            return cached
        if self.factors is not None:
            res = self._nf[w] = self._nf_factored(w)
            return res
        rules = self.rules
        n = len(w)
        for i in range(n - 1):
            rep = rules.get((w[i], w[i + 1]))
            if rep is None:
                continue
            if not self._depth:
                self._limit = self._steps + _STEP_CAP
            self._steps += 1
            if self._steps > self._limit:
                raise NonTermination(
                    "rewrite step cap exceeded in %s" % self.name)
            left, right = w[:i], w[i + 2:]
            acc = {}
            self._depth += 1
            try:
                for u, c in rep.items():
                    nc_add_into(acc, self.nf_word(left + u + right), c)
            finally:
                self._depth -= 1
            self._nf[w] = acc
            return acc
        res = {w: ONE}
        self._nf[w] = res
        return res

    def _nf_factored(self, w):
        """Normal form of w as nf_h(H letters of w) * nf_c(C letters of w),
        the words concatenated and the coefficients multiplied.

        Soundness: the swap rules carry coefficient 1, so w rewrites to
        hw cw (its H letters, then its C letters, each in order).  Every H
        rule yields H words only and every C rule C words only, so the
        factors' reductions of hw and cw are reductions of this
        presentation too, which reach the sum of u v with coefficient a b
        over the terms a u of nf_h(hw) and b v of nf_c(cw).  No u v holds a
        redex: u and v are normal in their factors and no C letter precedes
        an H letter.  The audited termination and confluence make the
        normal form unique, so this is it.  Distinct pairs (u, v) give
        distinct words u v, and products of nonzero scalars are nonzero.
        """
        h, c = self.factors
        hw = tuple(x for x in w if x in h.alphabet)
        cw = tuple(x for x in w if x not in h.alphabet)
        hp = h.nf_word(hw)
        if not cw:
            return hp
        cp = c.nf_word(cw)
        if not hw:
            return cp
        return {u + v: a * b for u, a in hp.items() for v, b in cp.items()}

    def is_normal_word(self, w):
        rules = self.rules
        return all((w[i], w[i + 1]) not in rules for i in range(len(w) - 1))

    def normal_form(self, p):
        acc = {}
        for w, c in p.items():
            self.check_word(w)
            nc_add_into(acc, self.nf_word(w), c)
        return acc

    def mul(self, p, r):
        """Normal form of the product of two polynomials."""
        acc = {}
        for w1, c1 in p.items():
            for w2, c2 in r.items():
                c = c1 * c2
                if c.is_zero():
                    continue
                nc_add_into(acc, self.nf_word(w1 + w2), c)
        return acc

    def mul_many(self, *ps):
        acc = nc_unit()
        for p in ps:
            acc = self.mul(acc, p)
        return acc

    def power(self, p, n):
        acc = nc_unit()
        for _ in range(n):
            acc = self.mul(acc, p)
        return acc


def nc_mul(p, r, pres):
    return pres.mul(p, r)


def normal_form(p, pres):
    return pres.normal_form(p)


def presentation_check(pres):
    """Termination + local-confluence audit.

    Termination: every rule's replacement words are strictly below the
    pattern in word_key (and already normal).  Confluence: for each pair of
    rules overlapping in a length-3 word x y z, reduce both ways and compare
    fully reduced results.  Length-2 patterns only ever overlap this way, so
    by Newman's lemma passing means canonical normal forms.
    """
    report = CheckReport(pres.name)
    for pat, rep in pres.rules.items():
        pk = word_key(pat)
        for u in rep:
            if not (word_key(u) < pk):
                report.order_violations.append((pat, u, "not decreasing"))
            if not pres.is_normal_word(u):
                report.order_violations.append((pat, u, "replacement not normal"))
    for (x, y) in pres.rules:
        for (y2, z) in pres.rules:
            if y2 != y:
                continue
            w = (x, y, z)
            left = {}
            for u, c in pres.rules[(x, y)].items():
                nc_add_into(left, pres.nf_word(u + (z,)), c)
            right = {}
            for u, c in pres.rules[(y, z)].items():
                nc_add_into(right, pres.nf_word((x,) + u), c)
            report.overlaps.append(
                OverlapReport((x, y, z), left == right, left, right))
    return report


def coords(p, window):
    """Coefficient vector of p over an ordered list of normal words."""
    index = {w: i for i, w in enumerate(window)}
    vec = [ZERO] * len(window)
    for w, c in p.items():
        i = index.get(w)
        if i is None:
            raise OutOfWindow("word %r outside the coordinate window" % (w,))
        vec[i] = c
    return vec


# -- the four presentations --

def _q(k):
    return QRat.q_power(k)


def _inv_qmq():
    # 1/(q - q^-1) == q/(q^2 - 1)
    return (_q(1) - _q(-1)).inverse()


def _h_rules():
    lam = _inv_qmq()
    return {
        (F, E): {(E, F): ONE, (K,): -lam, (KI,): lam},
        (K, E): {(E, K): _q(2)},
        (K, F): {(F, K): _q(-2)},
        (KI, E): {(E, KI): _q(-2)},
        (KI, F): {(F, KI): _q(2)},
        (K, KI): {(): ONE},
        (KI, K): {(): ONE},
    }


def _c_rules(op=False):
    """Function-algebra straightening; op=True reverses every product."""
    s = -1 if op else 1
    return {
        (B, A): {(A, B): _q(s)},
        (C, A): {(A, C): _q(s)},
        (C, B): {(B, C): ONE},
        (B, D): {(D, B): _q(-s)},
        (C, D): {(D, C): _q(-s)},
        (A, D): {(): ONE, (B, C): _q(-s)},
        (D, A): {(): ONE, (B, C): _q(s)},
    }


def _cross_commuting():
    return {(x, y): {(y, x): ONE}
            for x in sorted(C_LETTERS) for y in sorted(H_LETTERS)}


def _cross_double():
    """Straightening rules of the double: C letters move right past H letters."""
    return {
        (A, E): {(E, A): _q(-1), (K, C): _q(-1)},
        (B, E): {(E, B): _q(1), (K, D): _q(1), (A,): -_q(1)},
        (C, E): {(E, C): _q(-1)},
        (D, E): {(E, D): _q(1), (C,): -_q(1)},
        (A, F): {(F, A): _q(-1), (KI, B): -_q(-2)},
        (B, F): {(F, B): _q(-1)},
        (C, F): {(F, C): _q(1), (KI, D): -ONE, (A,): ONE},
        (D, F): {(F, D): _q(1), (B,): ONE},
        (A, K): {(K, A): ONE},
        (B, K): {(K, B): _q(2)},
        (C, K): {(K, C): _q(-2)},
        (D, K): {(K, D): ONE},
        (A, KI): {(KI, A): ONE},
        (B, KI): {(KI, B): _q(-2)},
        (C, KI): {(KI, C): _q(2)},
        (D, KI): {(KI, D): ONE},
    }


UQSL2 = Presentation("uqsl2", H_LETTERS, _h_rules())
CQSL2 = Presentation("cqsl2", C_LETTERS, _c_rules())
HXC = Presentation("hxc", LETTERS,
                   {**_h_rules(), **_c_rules(), **_cross_commuting()},
                   factors=(UQSL2, CQSL2))
DOUBLE = Presentation("double", LETTERS,
                      {**_h_rules(), **_c_rules(op=True), **_cross_double()})

PRESENTATIONS = {p.name: p for p in (UQSL2, CQSL2, HXC, DOUBLE)}


def random_normal_word(pres, rng, max_len=6):
    """Uniform-ish random normal word, by rejection from random words."""
    letters = sorted(pres.alphabet)
    while True:
        n = rng.randrange(0, max_len + 1)
        w = tuple(rng.choice(letters) for _ in range(n))
        if pres.is_normal_word(w):
            return w


def enumerate_normal_words(pres, max_len):
    """All normal words of length <= max_len, sorted by word_key."""
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        new = []
        for w in frontier:
            for x in sorted(pres.alphabet):
                w2 = w + (x,)
                # appending a letter only creates a redex at the boundary
                if not w2 or len(w2) == 1 or (w2[-2], w2[-1]) not in pres.rules:
                    new.append(w2)
        out.extend(new)
        frontier = new
    return sorted(out, key=word_key)
