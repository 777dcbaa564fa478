"""Hopf structure maps, the Hopf pairing, and the two-sided action engine.

The double acts on the tensor algebra hxc from both sides.  A normal hxc
word is u v: an H-normal word u followed by a C-normal word v.  Each
generator acts on u once and on v once, in closed form.

The action is a module algebra, g(xy) = g_(1)(x) g_(2)(y) (on the right,
(xy) <| g = (x <| g_(1)) (y <| g_(2))).  Applied once at the H/C boundary
it gives g(u v) = g_(1)(u) g_(2)(v).  On letters the actions are

    h |> hbar = eps(h) hbar        h |> cbar = cbar_(1) phi(cbar_(2), h)
    c |> cbar = S(c_(1)) cbar c_(2)
    c |> hbar = (hbar_(2) phi(c_(2), hbar_(1))) S(c_(1)) c_(3)

and, mirrored,

    cbar <| c = eps(c) cbar        hbar <| c = hbar_(1) phi(c, hbar_(2))
    hbar <| h = S(h_(1)) hbar h_(2)
    cbar <| h = S(h_(1)) h_(3) (cbar_(2) phi(cbar_(1), h_(2))).

On a pure word w the pairing terms become the contraction
contract(w, g, keep) = w_(keep) phi(w_(other), g) (_contract), which is
multiplicative because phi(c, xy) = phi(c_(1), x) phi(c_(2), y) and its
mirror split the pairing by g's coproduct.  H and C letters commute in
hxc, so for a function generator c

    c |> (u v) = contract(u, c_(2), 2) S(c_(1)) c_(3) S(c_(4)) v c_(5),

and c_(3) S(c_(4)) = eps(c_(3)) collapses the five legs to three (the same
collapse between the letters of u gives its factor c_(1) |> u).  So

    h |> (u v) = u contract(v, h, 1)
    c |> (u v) = sum contract(u, c_(2), 2) S(c_(1)) v c_(3)
    (u v) <| c = contract(u, c, 1) v
    (u v) <| h = sum S(h_(1)) u h_(3) contract(v, h_(2), 2).

Every term is an H polynomial times a C polynomial, whose words
concatenate with no rewriting.  The two sides are mirror images under
swapping H with C, so one routine (_act_word) serves both, with memo
tables keyed by (generator, word), and the generator-on-letter table is
read off it on one-letter words.

That table is computed, never transcribed: the printed table shipped in
TABLE_ROWS below exists only as a cross-check fixture for
verify_action_tables, which reports any disagreement together with the
engine's derived value.  Five fixture rows are tagged suspected_typo (four
duplicated row labels and one copy-paste value); the checker never silently
corrects them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .scalars import ONE, ZERO
from .ncpoly import (
    A, B, C, CQSL2, D, E, F, HXC, K, KI, UQSL2,
    C_LETTERS, H_LETTERS, LETTERS, LETTER_NAMES,
    _q, nc_add_into, nc_unit,
)


# generator coproducts; entries (left leg word, right leg word, coefficient)
COPRODUCT = {
    E: (((E,), (K,), ONE), ((), (E,), ONE)),
    F: (((F,), (), ONE), ((KI,), (F,), ONE)),
    K: (((K,), (K,), ONE),),
    KI: (((KI,), (KI,), ONE),),
    A: (((A,), (A,), ONE), ((B,), (C,), ONE)),
    B: (((A,), (B,), ONE), ((B,), (D,), ONE)),
    C: (((C,), (A,), ONE), ((D,), (C,), ONE)),
    D: (((C,), (B,), ONE), ((D,), (D,), ONE)),
}

COUNIT = {E: ZERO, F: ZERO, K: ONE, KI: ONE, A: ONE, B: ZERO, C: ZERO, D: ONE}

ANTIPODE = {
    E: {(E, KI): -ONE},
    F: {(K, F): -ONE},
    K: {(KI,): ONE},
    KI: {(K,): ONE},
    A: {(D,): ONE},
    B: {(B,): -_q(1)},
    C: {(C,): -_q(-1)},
    D: {(A,): ONE},
}

# nonzero pairing values on generator pairs (function letter, enveloping letter)
GEN_PAIR = {
    (A, K): _q(1), (D, K): _q(-1),
    (A, KI): _q(-1), (D, KI): _q(1),
    (B, E): ONE, (C, F): ONE,
}


def counit(p):
    """Counit, extended multiplicatively; accepts a Word or an NCPoly."""
    if isinstance(p, tuple):
        p = {p: ONE}
    acc = ZERO
    for w, coeff in p.items():
        acc = acc + coeff * _word_counit(w)
    return acc


def _word_counit(w):
    val = ONE
    for x in w:
        val = val * COUNIT[x]
        if val.is_zero():
            return ZERO
    return val


def coproduct(x, pres):
    """Multiplicative extension of the generator coproducts.

    x is a Word or NCPoly over pres's alphabet; both legs are normalized in
    pres.  Returns a TensorPoly: dict {(word, word): QRat}.
    """
    if isinstance(x, tuple):
        x = {x: ONE}
    out = {}
    for w, coeff in x.items():
        t = {((), ()): ONE}
        for letter in w:
            new = {}
            for (u1, u2), c in t.items():
                for l1, l2, cl in COPRODUCT[letter]:
                    c0 = c * cl
                    for x1, c1 in pres.nf_word(u1 + l1).items():
                        cc1 = c0 * c1
                        for x2, c2 in pres.nf_word(u2 + l2).items():
                            key = (x1, x2)
                            s = new.get(key)
                            v = cc1 * c2
                            s = v if s is None else s + v
                            if s.is_zero():
                                new.pop(key, None)
                            else:
                                new[key] = s
            t = new
        for key, c in t.items():
            v = out.get(key)
            v = c * coeff if v is None else v + c * coeff
            if v.is_zero():
                out.pop(key, None)
            else:
                out[key] = v
    return out


def _cop2_letter(g):
    """Degree-two coproduct legs of a single letter: list of
    (word1, word2, word3, coeff) with words of length <= 1."""
    out = []
    for u1, u2, c in COPRODUCT[g]:
        if not u1:
            out.append(((), (), u2, c))
            continue
        for t1, t2, c2 in COPRODUCT[u1[0]]:
            out.append((t1, t2, u2, c * c2))
    return out


def antipode(x, which):
    """Antipode of a pure enveloping-side ('H') or function-side ('C') element.

    Anti-homomorphism: letters map through ANTIPODE, words reverse.
    """
    pres = UQSL2 if which == "H" else CQSL2
    if isinstance(x, tuple):
        x = {x: ONE}
    out = {}
    for w, coeff in x.items():
        acc = nc_unit()
        for letter in reversed(w):
            acc = pres.mul(acc, ANTIPODE[letter])
        nc_add_into(out, acc, coeff)
    return out


# -- the Hopf pairing --

_pair_cache = {}


def _pair_words(cw, hw):
    if not cw:
        return _word_counit(hw)
    if not hw:
        return _word_counit(cw)
    key = (cw, hw)
    val = _pair_cache.get(key)
    if val is not None:
        return val
    if len(hw) == 1:
        h = hw[0]
        if len(cw) == 1:
            val = GEN_PAIR.get((cw[0], h), ZERO)
        else:
            head, rest = (cw[0],), cw[1:]
            val = ZERO
            for l1, l2, cl in COPRODUCT[h]:
                lft = _pair_words(head, l1)
                if lft.is_zero():
                    continue
                val = val + cl * lft * _pair_words(rest, l2)
    else:
        head, rest = (hw[0],), hw[1:]
        val = ZERO
        for (w1, w2), c in coproduct(cw, CQSL2).items():
            lft = _pair_words(w1, head)
            if lft.is_zero():
                continue
            val = val + c * lft * _pair_words(w2, rest)
    _pair_cache[key] = val
    return val


def pairing(c, h):
    """Hopf pairing of a function-algebra element against an enveloping
    element; bilinear over Q(q)."""
    if isinstance(c, tuple):
        c = {c: ONE}
    if isinstance(h, tuple):
        h = {h: ONE}
    acc = ZERO
    for cw, cc in c.items():
        for hw, hc in h.items():
            v = _pair_words(cw, hw)
            if not v.is_zero():
                acc = acc + cc * hc * v
    return acc


# -- the action engine: closed forms on the two factors of a word --

_contract_cache = {}
_conj_cache = {}
_left_cache = {}
_right_cache = {}


def _contract(w, leg, keep):
    """One coproduct leg of the pure word w kept, the other paired against
    leg (a word of length <= 1 over the other factor's letters):
    w_(1) phi(w_(2), leg) for keep=1, w_(2) phi(w_(1), leg) for keep=2.
    The pairing takes the function side first.  Memoised.

    Both phi(xy, h) = phi(x, h_(1)) phi(y, h_(2)) and
    phi(c, xy) = phi(c_(1), x) phi(c_(2), y) split the pairing of a product
    by leg's coproduct, so w = head rest contracts as the sum over
    leg_(1) (x) leg_(2) of contract(head, leg_(1)) contract(rest, leg_(2)),
    multiplied in w's own factor."""
    if not leg:
        return {w: ONE}
    if not w:
        return nc_unit(COUNIT[leg[0]])
    key = (w, leg, keep)
    val = _contract_cache.get(key)
    if val is not None:
        return val
    val = {}
    if len(w) == 1:
        x = w[0]
        for l1, l2, cl in COPRODUCT[x]:
            kept, paired = (l2, l1) if keep == 2 else (l1, l2)
            v = cl * (_pair_words(paired, leg) if x in C_LETTERS
                      else _pair_words(leg, paired))
            if not v.is_zero():
                nc_add_into(val, {kept: ONE}, v)
    else:
        pres = CQSL2 if w[0] in C_LETTERS else UQSL2
        head, rest = w[:1], w[1:]
        for l1, l2, cl in COPRODUCT[leg[0]]:
            p1 = _contract(head, l1, keep)
            if not p1:
                continue
            p2 = _contract(rest, l2, keep)
            if p2:
                nc_add_into(val, pres.mul(p1, p2), cl)
    _contract_cache[key] = val
    return val


def _conjugates(g, w):
    """S(g_(1)) w g_(3) grouped by the middle leg g_(2), for a generator g
    and a pure word w of g's own factor: a tuple of (g_(2), polynomial)
    with the empty polynomials left out.  Memoised."""
    key = (g, w)
    val = _conj_cache.get(key)
    if val is not None:
        return val
    pres, kind = (UQSL2, "H") if g in H_LETTERS else (CQSL2, "C")
    by_leg = {}
    for t1, t2, t3, cl in _cop2_letter(g):
        p = pres.mul(pres.mul(antipode(t1, kind), {w: ONE}), {t3: ONE})
        nc_add_into(by_leg.setdefault(t2, {}), p, cl)
    val = _conj_cache[key] = tuple((t2, p) for t2, p in by_leg.items() if p)
    return val


def _act_word(g, w, conj):
    """Action of the generator g on the hxc word w = u v (u its H letters,
    v its C letters): the left action for conj = C_LETTERS, the right one
    for conj = H_LETTERS, the generators that conjugate their own factor.

    A generator of the other kind acts on its own factor by the counit and
    contracts the opposite factor with keep=1 (h |> (u v) = u contract(v,
    h, 1), (u v) <| c = contract(u, c, 1) v); one of kind conj conjugates
    its own factor and contracts the opposite one against the middle leg
    (module docstring).  Every term is an H polynomial times a C
    polynomial, whose words concatenate with no rewriting."""
    if not HXC.is_normal_word(w):
        out = {}
        for x, c in HXC.nf_word(w).items():
            nc_add_into(out, _act_word(g, x, conj), c)
        return out
    i = 0
    while i < len(w) and w[i] in H_LETTERS:
        i += 1
    h_first = g in H_LETTERS
    own, other = (w[:i], w[i:]) if h_first else (w[i:], w[:i])
    if g not in conj:
        p = _contract(other, (g,), 1)
        if h_first:
            return {own + x: c for x, c in p.items()}
        return {x + own: c for x, c in p.items()}
    out = {}
    for leg, p in _conjugates(g, own):
        r = _contract(other, leg, 2)
        hp, cp = (p, r) if h_first else (r, p)
        nc_add_into(out, {x + y: a * b for x, a in hp.items()
                          for y, b in cp.items()})
    return out


def _act_left_word(g, w):
    """Left action of a single generator on a word; memoised."""
    key = (g, w)
    val = _left_cache.get(key)
    if val is None:
        val = _left_cache[key] = _act_word(g, w, C_LETTERS)
    return val


def _act_right_word(w, g):
    """Right action of a single generator on a word; memoised."""
    key = (w, g)
    val = _right_cache.get(key)
    if val is None:
        val = _right_cache[key] = _act_word(g, w, H_LETTERS)
    return val


@dataclass(frozen=True)
class GenActionTable:
    left: dict   # (generator, letter) -> NCPoly, tensor-algebra normal form
    right: dict  # (letter, generator) -> NCPoly


_table = None


def gen_action_table():
    """Every generator on every letter, from both sides, read off the
    closed forms on one-letter words."""
    global _table
    if _table is None:
        _table = GenActionTable(
            {(g, x): _act_left_word(g, (x,)) for g in LETTERS for x in LETTERS},
            {(x, g): _act_right_word((x,), g)
             for g in LETTERS for x in LETTERS})
    return _table


def act_left(x, v):
    """Left action of a double element x on a tensor-algebra element v.

    A word x = g1 g2 ... gn acts by g1 acting last:
    (xy)(v) = x(y(v)).
    """
    if isinstance(x, tuple):
        x = {x: ONE}
    if isinstance(v, tuple):
        v = {v: ONE}
    acc = {}
    for xw, xc in x.items():
        cur = v
        for g in reversed(xw):
            nxt = {}
            for w, c in cur.items():
                nc_add_into(nxt, _act_left_word(g, w), c)
            cur = nxt
        nc_add_into(acc, cur, xc)
    return acc


def act_right(v, x):
    """Right action: v <| (xy) = (v <| x) <| y."""
    if isinstance(x, tuple):
        x = {x: ONE}
    if isinstance(v, tuple):
        v = {v: ONE}
    acc = {}
    for xw, xc in x.items():
        cur = v
        for g in xw:
            nxt = {}
            for w, c in cur.items():
                nc_add_into(nxt, _act_right_word(w, g), c)
            cur = nxt
        nc_add_into(acc, cur, xc)
    return acc


# -- printed-table fixture and its audit --

def _w(s):
    """Compact word literal: one char per letter, I stands for K^-1."""
    m = {"E": E, "F": F, "K": K, "I": KI,
         "a": A, "b": B, "c": C, "d": D}
    return tuple(m[ch] for ch in s)


def _p(*terms):
    out = {}
    for coeff, word in terms:
        nc_add_into(out, {_w(word): ONE}, coeff)
    return out


_one = ONE
_lam = (_q(1) - _q(-1)).inverse()

# the printed generator-on-letter table, transcribed as written (words kept in
# the printed letter order; comparison normalizes both sides).  Fields:
# (side, actor, target, value); side "L" means actor acts from the left on
# target, "R" means target is acted on from the right by actor.
TABLE_ROWS = [
    # enveloping generators on enveloping letters: counit scaling
    ("L", E, E, _p()), ("L", E, F, _p()), ("L", E, K, _p()), ("L", E, KI, _p()),
    ("L", F, E, _p()), ("L", F, F, _p()), ("L", F, K, _p()), ("L", F, KI, _p()),
    ("L", K, E, _p((_one, "E"))), ("L", K, F, _p((_one, "F"))),
    ("L", K, K, _p((_one, "K"))), ("L", K, KI, _p((_one, "I"))),
    ("L", KI, E, _p((_one, "E"))), ("L", KI, F, _p((_one, "F"))),
    ("L", KI, K, _p((_one, "K"))), ("L", KI, KI, _p((_one, "I"))),
    # enveloping generators on function letters
    ("L", E, A, _p()), ("L", E, B, _p((_one, "a"))),
    ("L", E, C, _p()), ("L", E, D, _p((_one, "c"))),
    ("L", F, A, _p((_one, "b"))), ("L", F, B, _p()),
    ("L", F, C, _p((_one, "d"))), ("L", F, D, _p()),
    ("L", K, A, _p((_q(1), "a"))), ("L", K, B, _p((_q(-1), "b"))),
    ("L", K, C, _p((_q(1), "c"))), ("L", K, D, _p((_q(-1), "d"))),
    ("L", KI, A, _p((_q(-1), "a"))), ("L", KI, B, _p((_q(1), "b"))),
    ("L", KI, C, _p((_q(-1), "c"))), ("L", KI, D, _p((_q(1), "d"))),
    # function generators on enveloping letters
    ("L", A, E, _p((_one, "E"), (_q(1), "Kcd"))),
    ("L", A, F, _p((_q(-1), "F"), (-_q(1), "ba"), (_one - _q(2), "Fbc"))),
    ("L", A, K, _p((_q(1), "K"), (_q(2) - _one, "Kbc"))),
    ("L", A, KI, _p((_q(-1), "I"), (_one - _q(2), "Ibc"))),
    ("L", B, E, _p((_one, "Kdd"))),
    ("L", B, F, _p((-_q(1), "bb"), (_one - _q(2), "Fbd"))),
    ("L", B, K, _p((_q(2) - _one, "Kbd"))),
    ("L", B, KI, _p((_one - _q(2), "Ibd"))),
    ("L", C, E, _p((-_q(-1), "Kcc"))),
    ("L", C, F, _p((_one, "aa"), (_q(1) - _q(-1), "Fac"))),
    ("L", C, K, _p((_q(-1) - _q(1), "Kac"))),
    ("L", C, KI, _p((_q(1) - _q(-1), "Iac"))),
    ("L", D, E, _p((_one, "E"), (-_q(-1), "Kcd"))),
    ("L", D, F, _p((_q(1), "F"), (_one, "ab"), (_one - _q(-2), "Fbc"))),
    ("L", D, K, _p((_q(-1), "K"), (_q(-2) - _one, "Kbc"))),
    ("L", D, KI, _p((_q(1), "I"), (_one - _q(-2), "Ibc"))),
    # function generators on function letters
    ("L", A, A, _p((_one, "a"), (_q(1) - _one, "bca"))),
    ("L", A, B, _p((_q(1), "b"), (_q(2) - _q(1), "bbc"))),
    ("L", A, C, _p((_q(1), "c"), (_q(2) - _q(1), "bcc"))),
    ("L", A, D, _p((_one, "d"), (_q(1) - _one, "dbc"))),
    ("L", B, A, _p((_one - _q(1), "b"), (_q(1) - _one, "bbc"))),
    ("L", B, B, _p((_one - _q(-1), "dbb"))),
    ("L", B, C, _p((_one - _q(-1), "dcb"))),
    ("L", B, D, _p((_one - _q(-1), "ddb"))),
    ("L", C, A, _p((_one - _q(1), "aac"))),
    ("L", C, B, _p((_one - _q(1), "abc"))),
    ("L", C, C, _p((_one - _q(1), "acc"))),
    ("L", C, D, _p((_one - _q(-1), "c"), (_q(-1) - _one, "bcc"))),
    ("L", D, A, _p((_one, "a"), (_q(-1) - _one, "abc"))),
    ("L", D, B, _p((_q(-1), "b"), (_q(-2) - _q(-1), "bbc"))),
    ("L", D, C, _p((_q(-1), "c"), (_q(-2) - _q(-1), "bcc"))),
    ("L", D, D, _p((_one, "d"), (_q(-1) - _one, "bcd"))),
    # enveloping letters acted on from the right by enveloping generators
    ("R", E, E, _p((_one - _q(-2), "EE"))),
    ("R", E, F, _p((_one - _q(2), "EF"), (-_lam, "K"), (_lam, "I"))),
    ("R", E, K, _p((_q(2) - _one, "EK"))),
    ("R", E, KI, _p((_q(-2) - _one, "EI"))),
    ("R", F, E, _p((_lam, "KK"), (-_lam, "KI"))),
    ("R", F, F, _p()),
    ("R", F, K, _p((_one - _q(2), "KKF"))),
    ("R", F, KI, _p((_one - _q(-2), "F"))),
    ("R", K, E, _p((_q(-2), "E"))), ("R", K, F, _p((_q(2), "F"))),
    ("R", K, K, _p((_one, "K"))), ("R", K, KI, _p((_one, "I"))),
    ("R", KI, E, _p((_q(2), "E"))), ("R", KI, F, _p((_q(-2), "F"))),
    ("R", KI, K, _p((_one, "K"))), ("R", KI, KI, _p((_one, "I"))),
    # function letters acted on from the right by enveloping generators
    ("R", E, A, _p((_one - _q(1), "Ea"), (_one, "Kc"))),
    ("R", E, B, _p((_one - _q(1), "Eb"), (_one, "Kd"))),
    ("R", E, C, _p((_one - _q(-1), "Ec"))),
    ("R", F, A, _p((_q(-1) - _one, "KFa"))),
    ("R", F, B, _p((_q(-1) - _one, "KFb"))),
    ("R", F, C, _p((_q(1) - _one, "KFc"), (_one, "Ka"))),
    ("R", K, A, _p((_q(1), "a"))), ("R", K, B, _p((_q(1), "b"))),
    ("R", K, C, _p((_q(-1), "c"))),
    ("R", KI, A, _p((_q(-1), "a"))), ("R", KI, B, _p((_q(-1), "b"))),
    ("R", KI, C, _p((_q(1), "c"))),
    # enveloping letters acted on from the right by function generators
    ("R", A, E, _p((_q(1), "E"))), ("R", A, F, _p((_one, "F"))),
    ("R", A, K, _p((_q(1), "K"))), ("R", A, KI, _p((_q(-1), "I"))),
    ("R", B, E, _p((_one, ""))), ("R", B, F, _p()),
    ("R", B, K, _p()), ("R", B, KI, _p()),
    ("R", C, E, _p()), ("R", C, F, _p((_one, "I"))),
    ("R", C, K, _p()), ("R", C, KI, _p()),
    ("R", D, E, _p((_q(-1), "E"))), ("R", D, F, _p((_one, "F"))),
    ("R", D, K, _p((_q(-1), "K"))), ("R", D, KI, _p((_q(1), "I"))),
    # function letters acted on from the right by function generators
    ("R", A, A, _p((_one, "a"))), ("R", A, B, _p((_one, "b"))),
    ("R", A, C, _p((_one, "c"))), ("R", A, D, _p((_one, "d"))),
    ("R", B, A, _p()), ("R", B, B, _p()), ("R", B, C, _p()), ("R", B, D, _p()),
    ("R", C, A, _p()), ("R", C, B, _p()), ("R", C, C, _p()), ("R", C, D, _p()),
    ("R", D, A, _p((_one, "a"))), ("R", D, B, _p((_one, "b"))),
    ("R", D, C, _p((_one, "c"))),
]

# rows printed with a duplicated label or a copied value; each entry:
# (side, actor, target-as-printed, value-as-printed, presumed actor, presumed
# target, reason).  These stay out of TABLE_ROWS so the clean rows audit green;
# verify_action_tables reports them separately with the engine's derivation.
SUSPECT_ROWS = [
    ("R", E, C, _p((_one - _q(-1), "Ed")), E, D,
     "row label repeats the previous line; value matches the d column"),
    ("R", F, C, _p((_q(1) - _one, "KFd"), (_one, "Kb")), F, D,
     "row label repeats the previous line; value matches the d column"),
    ("R", K, C, _p((_q(-1), "d")), K, D,
     "row label repeats the previous line; value matches the d column"),
    ("R", KI, C, _p((_q(1), "d")), KI, D,
     "row label repeats the previous line; value matches the d column"),
    ("R", D, D, _p((_one, "c")), D, C,
     "value looks copied from the line above (c acted by d); "
     "counit scaling gives d"),
]


@dataclass
class TableRow:
    side: str
    actor: int
    target: int
    claimed: dict
    derived: dict
    match: bool
    suspect: bool = False
    presumed_actor: int | None = None
    presumed_target: int | None = None
    presumed_match: bool | None = None
    note: str = ""

    def label(self):
        if self.side == "L":
            return "%s |> %s" % (LETTER_NAMES[self.actor],
                                 LETTER_NAMES[self.target])
        return "%s <| %s" % (LETTER_NAMES[self.target],
                             LETTER_NAMES[self.actor])


@dataclass
class TableReport:
    rows: list = field(default_factory=list)

    @property
    def mismatches(self):
        return [r for r in self.rows if not r.match and not r.suspect]

    @property
    def suspects(self):
        return [r for r in self.rows if r.suspect]

    @property
    def passed(self):
        return (not self.mismatches
                and all(r.presumed_match for r in self.suspects))


def verify_action_tables():
    """Audit the printed table against the computed engine, never correcting.

    Clean rows must match exactly; tagged rows are reported with the engine's
    value for the printed label and for the presumed intended label.
    """
    table = gen_action_table()
    report = TableReport()
    for side, actor, target, claimed in TABLE_ROWS:
        derived = (table.left[(actor, target)] if side == "L"
                   else table.right[(target, actor)])
        claimed_nf = HXC.normal_form(claimed)
        report.rows.append(TableRow(
            side, actor, target, claimed_nf, derived,
            claimed_nf == derived))
    for side, actor, target, claimed, p_actor, p_target, note in SUSPECT_ROWS:
        derived = (table.left[(actor, target)] if side == "L"
                   else table.right[(target, actor)])
        claimed_nf = HXC.normal_form(claimed)
        presumed = (table.left[(p_actor, p_target)] if side == "L"
                    else table.right[(p_target, p_actor)])
        presumed_match = claimed_nf == presumed
        report.rows.append(TableRow(
            side, actor, target, claimed_nf, derived,
            claimed_nf == derived, suspect=True,
            presumed_actor=p_actor, presumed_target=p_target,
            presumed_match=presumed_match, note=note))
    return report
