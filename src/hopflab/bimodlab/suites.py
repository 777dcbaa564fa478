"""Bulk verification suites over the exact engine.

Each suite runs a family of closed-form checks — defining-relation
annihilation under both actions, algebraic identities among the canonical
bivectors, closed-form action formulas on monomial families, graded
dimension counts, projection injectivity, and the degree-graded product-span
decomposition — and returns a structured report of one record per check.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from ..scalars import ONE, ZERO, RangeError, qint
from ..ncpoly import (
    A, B, C, D, E, F, K, KI,
    DOUBLE, HXC, LETTER_NAMES,
    _q, enumerate_normal_words, leading_word, nc_add_into, word_key,
)
from ..hopf import COPRODUCT, act_left, act_right
from .linalg import Echelon
from . import vectors as _vectors
from .core import is_hw_bivector, standard_module, standard_seed

MINUS_ONE = -ONE


class UnknownSuite(ValueError):
    pass


class UnsupportedLetters(ValueError):
    pass


@dataclass(frozen=True)
class CheckRecord:
    """One verified statement: identity name, parameter tuple, outcome,
    and a short witness string (counts, dimensions, or the residual)."""
    name: str
    params: tuple = ()
    passed: bool = True
    witness: str = ""


@dataclass
class SuiteReport:
    suite: str
    records: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    @property
    def total(self):
        return len(self.records)

    @property
    def failures(self):
        return [r for r in self.records if not r.passed]

    def add(self, name, params=(), passed=True, witness=""):
        self.records.append(CheckRecord(name, tuple(params), passed, witness))

    def lines(self):
        """One aggregated line per check name, in first-seen order."""
        order = []
        groups = {}
        for r in self.records:
            if r.name not in groups:
                order.append(r.name)
                groups[r.name] = []
            groups[r.name].append(r)
        out = []
        for name in order:
            rs = groups[name]
            bad = [r for r in rs if not r.passed]
            if not bad:
                note = rs[0].witness if len(rs) == 1 and rs[0].witness else \
                    "%d instances" % len(rs)
                out.append("ok   %s  [%s]" % (name, note))
            else:
                first = bad[0]
                out.append("FAIL %s  [%d/%d failed; first at %s%s]"
                           % (name, len(bad), len(rs), first.params,
                              " " + first.witness if first.witness else ""))
        return out

    def __str__(self):
        head = "suite %s: %s (%d checks)" % (
            self.suite, "pass" if self.passed else "FAIL", self.total)
        return "\n".join([head] + ["  " + l for l in self.lines()])


# -- cached powers, monomials, and the factored left action --

@lru_cache(maxsize=None)
def _gen_pow(name, k):
    """k-th power of a canonical vector, in normal form.  Cached and
    shared; callers must treat the returned dict as read-only."""
    if k == 0:
        return {(): ONE}
    if k == 1:
        return _vectors.canonical(name)
    return HXC.mul(_gen_pow(name, k - 1), _gen_pow(name, 1))


def _strip(key):
    return tuple((nm, e) for nm, e in key if e > 0)


@lru_cache(maxsize=None)
def _mono(key):
    """Ordered product of canonical-vector powers; key is a tuple of
    (name, exponent) pairs with positive exponents.  Read-only."""
    out = {(): ONE}
    for name, e in key:
        out = HXC.mul(out, _gen_pow(name, e))
    return out


@lru_cache(maxsize=None)
def _op_legs(word):
    """Coproduct legs of an operator word: pairs of words with scalar,
    obtained by convolving the letter coproducts in order."""
    legs = (((), (), ONE),)
    for g in word:
        legs = tuple((w1 + u1, w2 + u2, cl * cu)
                     for (w1, w2, cl) in legs
                     for (u1, u2, cu) in COPRODUCT[g])
    return legs


@lru_cache(maxsize=None)
def _act_word_on_key(op_word, key):
    """Left action of an operator word on a cached monomial, computed at
    factor granularity: the word acts on the first factor power through one
    coproduct leg and on the remaining factors through the other."""
    if len(key) <= 1:
        return act_left(op_word, _mono(key))
    first, rest = key[:1], key[1:]
    out = {}
    for w1, w2, cl in _op_legs(op_word):
        p1 = _act_word_on_key(w1, first)
        if not p1:
            continue
        p2 = _act_word_on_key(w2, rest)
        if not p2:
            continue
        nc_add_into(out, HXC.mul(p1, p2), cl)
    return out


def act_on_monomial(op, key):
    """Left action of an operator (word tuple or element dict) on the
    monomial with the given (name, exponent) factor key."""
    if isinstance(op, tuple):
        op = {op: ONE}
    out = {}
    for w, cf in op.items():
        if not cf.is_zero():
            nc_add_into(out, _act_word_on_key(w, _strip(key)), cf)
    return out


# -- defining relations annihilate the module --

def relation_annihilation_check(max_degree=4):
    """For every defining rewriting rule of the double, the element
    lhs - rhs acts as zero, on both sides, on every normal monomial of the
    tensor algebra up to the given degree."""
    report = SuiteReport("relation_annihilation")
    words = [w for w in enumerate_normal_words(HXC, max_degree)]
    pats = sorted(DOUBLE.rules, key=word_key)
    for pat in pats:
        op = {pat: ONE}
        nc_add_into(op, DOUBLE.rules[pat], MINUS_ONE)
        pretty = "".join(LETTER_NAMES[x] for x in pat)
        bad_l = sum(1 for w in words if act_left(op, {w: ONE}))
        report.add("left action kills relation at %s" % pretty,
                   (pretty,), bad_l == 0,
                   "%d monomials" % len(words) if not bad_l
                   else "%d nonzero" % bad_l)
        bad_r = sum(1 for w in words if act_right({w: ONE}, op))
        report.add("right action kills relation at %s" % pretty,
                   (pretty,), bad_r == 0,
                   "%d monomials" % len(words) if not bad_r
                   else "%d nonzero" % bad_r)
    return report


# -- identity suites --

def _mul(*names):
    out = {(): ONE}
    for nm in names:
        out = HXC.mul(out, _gen_pow(nm, 1))
    return out


def _lin(*pairs):
    """Exact linear combination of polynomials: (coeff, poly) pairs."""
    out = {}
    for cf, p in pairs:
        nc_add_into(out, p, cf)
    return out


_LAM = (_q(1) - _q(-1)).inverse()          # 1/(q - q^-1)
_LAM2 = _LAM * _LAM


def _serre_verma_identities():
    cf = _q(2) + ONE + _q(-2)
    yield ("degree-four straightening, three raising factors", _lin(
        (ONE, _mul("v2", "v2", "v2", "v3")),
        (-cf, _mul("v2", "v2", "v3", "v2")),
        (cf, _mul("v2", "v3", "v2", "v2")),
        (MINUS_ONE, _mul("v3", "v2", "v2", "v2"))))
    yield ("degree-four straightening, three lowering factors", _lin(
        (ONE, _mul("v2", "v3", "v3", "v3")),
        (-cf, _mul("v3", "v2", "v3", "v3")),
        (cf, _mul("v3", "v3", "v2", "v3")),
        (MINUS_ONE, _mul("v3", "v3", "v3", "v2"))))
    yield ("degree-four interleaving relation", _lin(
        (ONE, _mul("v3", "v2", "v2", "v3")),
        (MINUS_ONE, _mul("v2", "v3", "v3", "v2"))))


def _centrality_identities():
    for g, nm in zip((E, F, K, KI, A, B, C, D), LETTER_NAMES):
        yield ("v4 commutes with %s" % nm, _lin(
            (ONE, HXC.mul(_gen_pow("v4", 1), {(g,): ONE})),
            (MINUS_ONE, HXC.mul({(g,): ONE}, _gen_pow("v4", 1)))))
    for other in ("v1", "v2", "v3", "v4"):
        yield ("v1 commutes with %s" % other, _lin(
            (ONE, _mul("v1", other)), (MINUS_ONE, _mul(other, "v1"))))
    quad = ("v1", "v4", "v5", "v6")
    for i in range(4):
        for j in range(i + 1, 4):
            yield ("%s commutes with %s" % (quad[i], quad[j]), _lin(
                (ONE, _mul(quad[i], quad[j])),
                (MINUS_ONE, _mul(quad[j], quad[i]))))
    brackets = (
        ("v3", _gen_pow("v3", 1), "v5", _gen_pow("v5", 1), 2),
        ("v3", _gen_pow("v3", 1), "K", {(K,): ONE}, -2),
        ("v3", _gen_pow("v3", 1), "a", {(A,): ONE}, 0),
        ("v3", _gen_pow("v3", 1), "c", {(C,): ONE}, 0),
        ("v5", _gen_pow("v5", 1), "K", {(K,): ONE}, 0),
        ("v5", _gen_pow("v5", 1), "a", {(A,): ONE}, 2),
        ("v5", _gen_pow("v5", 1), "c", {(C,): ONE}, 0),
    )
    for nx, x, ny, y, k in brackets:
        label = ("[%s, %s]" % (nx, ny)) if k == 0 else \
            ("[%s, %s] twisted by q^%d" % (nx, ny, k))
        yield (label + " vanishes", _lin(
            (ONE, HXC.mul(x, y)), (-_q(k), HXC.mul(y, x))))


def _hw_product_identities():
    yield ("product of the two degree-two bivectors is the square", _lin(
        (ONE, _mul("v5", "v6")), (MINUS_ONE, _mul("v1", "v1"))))
    yield ("central product expansion", _lin(
        (ONE, _mul("v1", "v4")),
        (MINUS_ONE, _mul("v3", "v2")),
        (_q(1) * _LAM2, _gen_pow("v5", 1)),
        (_q(-1) * _LAM2, _gen_pow("v6", 1))))
    c5 = (_q(2) + ONE) * _LAM
    yield ("first degree-two bivector from the twisted bracket", _lin(
        (c5, _gen_pow("v5", 1)),
        (-(ONE - _q(2)), _mul("v1", "v4")),
        (ONE, _mul("v2", "v3")),
        (-_q(2), _mul("v3", "v2"))))
    # The companion identity for v6 as printed in the reference table uses
    # the scalar q/(q^2 - q^-2); the engine derives the same scalar as the
    # v5 case, (q^2+1)/(q-q^-1), and the other three terms match exactly.
    # The derived value is asserted; the printed one is reported alongside
    # as a suspected misprint (cf. the suspect rows of the action tables).
    yield ("second degree-two bivector from the twisted bracket", _lin(
        (c5, _gen_pow("v6", 1)),
        (-(ONE - _q(2)), _mul("v1", "v4")),
        (ONE, _mul("v3", "v2")),
        (-_q(2), _mul("v2", "v3"))))
    printed = _q(1) * (_q(2) - _q(-2)).inverse()
    yield ("second twisted bracket: printed scalar differs from derived "
           "(suspected misprint; derived scalar equals the v5 one)",
           {(): ONE} if printed == c5 else {})


def _proof_product_identities():
    s = _q(1) - _q(-1)
    yield ("v1 commutes with v3", _lin(
        (ONE, _mul("v1", "v3")), (MINUS_ONE, _mul("v3", "v1"))))
    yield ("v31 commutes with v3", _lin(
        (ONE, _mul("v31", "v3")), (MINUS_ONE, _mul("v3", "v31"))))
    yield ("v41 commutes with v3", _lin(
        (ONE, _mul("v41", "v3")), (MINUS_ONE, _mul("v3", "v41"))))
    yield ("v31 past v1", _lin(
        (ONE, _mul("v31", "v1")),
        (s * _q(1), _mul("v3", "v41")),
        (_q(2), _mul("v41", "v41"))))
    yield ("v1 past v31", _lin(
        (ONE, _mul("v1", "v31")),
        (s * _q(-1), _mul("v3", "v41")),
        (_q(-2), _mul("v41", "v41"))))
    yield ("v41 past v1", _lin(
        (ONE, _mul("v41", "v1")), (-_q(2), _mul("v1", "v41"))))
    yield ("v31 past v41", _lin(
        (ONE, _mul("v31", "v41")), (-_q(2), _mul("v41", "v31"))))
    yield ("v1 past vdot21", _lin(
        (ONE, _mul("v1", "vdot21")),
        (-s * _q(-2), _mul("v3", "v5")),
        (-_q(-3), _mul("v41", "v5"))))
    yield ("v1 past vddot21", _lin(
        (ONE, _mul("v1", "vddot21")), (-_q(-3), _mul("v41", "v6"))))
    yield ("vdot21 past v5", _lin(
        (ONE, _mul("vdot21", "v5")), (-_q(2), _mul("v5", "vdot21"))))
    yield ("vddot21 past v6", _lin(
        (ONE, _mul("vddot21", "v6")), (-_q(2), _mul("v6", "vddot21"))))


_IDENTITY_SUITES = {
    "serre_verma": _serre_verma_identities,
    "centrality": _centrality_identities,
    "hw_products": _hw_product_identities,
    "proof_products": _proof_product_identities,
}


def verify_identities(suite="all"):
    """Verify a named suite of exact algebraic identities; each record is
    one identity whose left-minus-right side must normalize to zero."""
    if suite == "all":
        names = list(_IDENTITY_SUITES)
    elif suite in _IDENTITY_SUITES:
        names = [suite]
    else:
        raise UnknownSuite("unknown identity suite %r (have %s)"
                           % (suite, ", ".join(sorted(_IDENTITY_SUITES))))
    report = SuiteReport("identities:" + suite)
    for nm in names:
        for label, residue in _IDENTITY_SUITES[nm]():
            ok = not residue
            report.add(label, (nm,), ok,
                       "" if ok else "residual leading word %s"
                       % (leading_word(residue),))
    return report


# -- closed-form action lemmas on monomial families --

def _famkey(tail, l, m, n, s):
    return (("v3", l), ("v41", m), ("v1", n), (tail, s))


def _lemma_check(report, name, params, op, lhs_key, terms, expect_zero=None):
    """Check op |> monomial(lhs_key) == sum of terms, where each term is
    (coefficient, key).  A term key may carry exponent -1 in its "v1" slot
    with nonzero coefficient; the comparison is then cleared by multiplying
    both sides on the left by the degree-two central bivector (scaling each
    term by the q-power from commuting it past the v41 factors)."""
    lhs = act_on_monomial(op, lhs_key)
    if expect_zero is not None:
        report.add(name + " (vanishing)", params,
                   (not lhs) == expect_zero,
                   "lhs %s" % ("zero" if not lhs else "nonzero"))
    live = [(cf, key) for cf, key in terms if not cf.is_zero()]
    if any(e < 0 for _, key in live for _, e in key):
        lhs = HXC.mul(_gen_pow("v1", 1), lhs)
        cleared = []
        for cf, key in live:
            names = [nm for nm, _ in key]
            i = names.index("v1")
            assert key[i][1] >= -1
            assert all(e >= 0 for j, (_, e) in enumerate(key) if j != i)
            assert all(nm in ("v3", "v41") for nm, _ in key[:i])
            skip = sum(e for nm, e in key[:i] if nm == "v41")
            bumped = key[:i] + (("v1", key[i][1] + 1),) + key[i + 1:]
            cleared.append((cf * _q(-2 * skip), bumped))
        live = cleared
    rhs = {}
    for cf, key in live:
        assert all(e >= 0 for _, e in key), (name, params, key)
        nc_add_into(rhs, _mono(_strip(key)), cf)
    diff = _lin((ONE, lhs), (MINUS_ONE, rhs))
    report.add(name, params, not diff,
               "" if not diff else "residual leading word %s"
               % (leading_word(diff),))


def verify_action_lemmas(l_max=3, m_max=3, n_max=3, s_max=3):
    """Verify every closed-form action formula on the graded monomial
    families for all exponent tuples within the given bounds."""
    report = SuiteReport("action_lemmas")
    for tail in ("v5", "v6"):
        dot = tail == "v5"
        fam = "v3^l v1^n %s^s" % tail
        for l in range(l_max + 1):
            for n in range(n_max + 1):
                for s in range(s_max + 1):
                    p = (l, n, s)
                    key = _famkey(tail, l, 0, n, s)
                    _lemma_check(
                        report, "c on " + fam, p, (C,), key,
                        [(_q(s if dot else -s) * qint(l),
                          _famkey(tail, l - 1, 0, n + 1, s))])
                    _lemma_check(
                        report, "F on " + fam, p, (F,), key,
                        [(ONE - _q(-2 * n - (4 * s if dot else 0)),
                          _famkey(tail, l + 1, 0, n - 1, s)),
                         (_q(1 - 2 * n - 2 * s) * qint(2 * n + 2 * s),
                          _famkey(tail, l, 1, n - 1, s))])
                    if dot:
                        b_terms = [
                            ((_q(-2 * n - l) - _q(l)) * _q(1 - s),
                             _famkey(tail, l, 1, n - 1, s)),
                            (-_q(2 - 2 * n - s) * qint(l),
                             _famkey(tail, l - 1, 2, n - 1, s))]
                    else:
                        b_terms = [
                            ((_q(-l - 2 * n - 3 * s) - _q(l + s)) * _q(1),
                             _famkey(tail, l, 1, n - 1, s)),
                            (-_q(2 - 2 * n - 3 * s) * qint(l),
                             _famkey(tail, l - 1, 2, n - 1, s))]
                    _lemma_check(report, "b on " + fam, p, (B,), key, b_terms)
                    if dot:
                        op = {(D, F): _q(2 + s) * _q(-l + s - 1),
                              (A, F): -_q(2 + s) * _q(l - s + 1),
                              (B,): qint(2 * n + 2 * s) *
                              (_q(l + 4) + _q(-l - 2 * n))}
                        cf = (_q(1 - 2 * l - 5 * n - 3 * s) *
                              (ONE + _q(2 * l + 2 * n + 2)
                               - _q(2 * l + 4 * n + 4 * s + 2)
                               - _q(4 * l + 6 * n + 4 * s + 4)) * qint(n))
                        zero = n == 0
                    else:
                        op = {(D, F): _q(2 - s) * _q(-l - s - 1),
                              (A, F): -_q(2 - s) * _q(l + s + 1),
                              (B,): qint(2 * n + 2 * s) *
                              (_q(l + 4) + _q(-l - 2 * n - 4 * s))}
                        # The printed middle factor for this family reads
                        # (1 + (1-q^{2n}) q^{2l+2n+4s} - q^{4l+6n+8s+4});
                        # it contradicts the first family at s=0 and fails
                        # against the engine for n >= 1.  The derived factor
                        # carries q^2 on both middle terms, restoring the
                        # parallel with the first family; suspected misprint,
                        # reported below alongside the derived value.
                        cf = (_q(1 - 2 * l - 5 * n - 7 * s) *
                              (ONE + _q(2 * l + 2 * n + 4 * s + 2)
                               - _q(2 * l + 4 * n + 4 * s + 2)
                               - _q(4 * l + 6 * n + 8 * s + 4)) *
                              qint(n + 2 * s))
                        zero = n == 0 and s == 0
                    _lemma_check(
                        report, "lowering combination on " + fam, p, op, key,
                        [(cf, _famkey(tail, l, 1, n - 1, s))],
                        expect_zero=zero)
        fam4 = "v3^l v41^m v1^n %s^s" % tail
        for l in range(l_max + 1):
            for m in range(m_max + 1):
                for n in range(n_max + 1):
                    for s in range(s_max + 1):
                        p = (l, m, n, s)
                        key = _famkey(tail, l, m, n, s)
                        if dot:
                            a_diag, a_off = _q(m - l + s), -_q(m + s + 1)
                            d_diag = _q(l - m - s)
                            d_off = _q(-m - 2 * n - s - 1)
                        else:
                            a_diag, a_off = _q(m - l - s), -_q(m - s + 1)
                            d_diag = _q(l - m + s)
                            d_off = _q(-m - 2 * n - 3 * s - 1)
                        _lemma_check(
                            report, "a on " + fam4, p, (A,), key,
                            [(a_diag, key),
                             (a_off * qint(l),
                              _famkey(tail, l - 1, m + 1, n, s))])
                        _lemma_check(
                            report, "d on " + fam4, p, (D,), key,
                            [(d_diag, key),
                             (d_off * qint(l),
                              _famkey(tail, l - 1, m + 1, n, s))])
    printed = (ONE + (ONE - _q(2)) * _q(2) - _q(10)) * qint(1)
    derived = (ONE + _q(4) - _q(6) - _q(10)) * qint(1)
    report.add("second lowering combination: printed coefficient factor "
               "differs from derived for n >= 1 (suspected misprint)",
               (0, 1, 0), printed != derived,
               "factors agree at n = 0 only")
    _power_lemmas(report, max(n_max, 3))
    return report


def _power_lemmas(report, n_max):
    """Single-generator actions on pure powers of the canonical vectors."""
    for n in range(n_max + 1):
        p = (n,)
        k3 = (("v3", n),)
        _lemma_check(report, "a on v3^n", p, (A,), k3,
                     [(_q(-n), k3),
                      (-_q(1) * qint(n), (("v3", n - 1), ("v41", 1)))])
        _lemma_check(report, "b on v3^n", p, (B,), k3,
                     [(qint(n), (("v3", n - 1), ("v31", 1)))])
        _lemma_check(report, "c on v3^n", p, (C,), k3,
                     [(qint(n), (("v3", n - 1), ("v1", 1)))])
        _lemma_check(report, "d on v3^n", p, (D,), k3,
                     [(_q(n), k3),
                      (_q(-1) * qint(n), (("v3", n - 1), ("v41", 1)))])
        k1 = (("v1", n),)
        _lemma_check(report, "a on v1^n", p, (A,), k1, [(ONE, k1)])
        _lemma_check(report, "b on v1^n", p, (B,), k1,
                     [((_q(-2 * n) - ONE) * _q(1),
                       (("v41", 1), ("v1", n - 1)))])
        _lemma_check(report, "c on v1^n", p, (C,), k1, [])
        _lemma_check(report, "d on v1^n", p, (D,), k1, [(ONE, k1)])
        _lemma_check(report, "F on v1^n", p, (F,), k1,
                     [(ONE - _q(-2 * n), (("v3", 1), ("v1", n - 1))),
                      (_q(1 - 2 * n) * qint(2 * n),
                       (("v41", 1), ("v1", n - 1)))])
        k41 = (("v41", n),)
        for g, nm, cf in ((A, "a", _q(n)), (B, "b", ZERO), (C, "c", ZERO),
                          (D, "d", _q(-n))):
            _lemma_check(report, "%s on v41^n" % nm, p, (g,), k41,
                         [(cf, k41)])
        k5 = (("v5", n),)
        for g, nm, cf in ((A, "a", _q(n)), (B, "b", ZERO), (C, "c", ZERO),
                          (D, "d", _q(-n))):
            _lemma_check(report, "%s on v5^n" % nm, p, (g,), k5,
                         [(cf, k5)])
        _lemma_check(report, "F on v5^n", p, (F,), k5,
                     [(_q(2 - 2 * n) * qint(2 * n),
                       (("vdot21", 1), ("v5", n - 1)))])
        k6 = (("v6", n),)
        _lemma_check(report, "a on v6^n", p, (A,), k6, [(_q(-n), k6)])
        _lemma_check(report, "b on v6^n", p, (B,), k6,
                     [(_q(n + 2) * (_q(-4 * n) - ONE),
                       (("vddot21", 1), ("v6", n - 1)))])
        _lemma_check(report, "c on v6^n", p, (C,), k6, [])
        _lemma_check(report, "d on v6^n", p, (D,), k6, [(_q(n), k6)])
        _lemma_check(report, "F on v6^n", p, (F,), k6,
                     [(_q(2 - 2 * n) * qint(2 * n),
                       (("vddot21", 1), ("v6", n - 1)))])


# -- graded monomial basis of the highest-weight subalgebra --

_HW_FAMILIES = (
    ("v1", "v5", lambda b, p: True),
    ("v1", "v6", lambda b, p: p >= 1),
    ("v4", "v5", lambda b, p: b >= 1),
    ("v4", "v6", lambda b, p: b >= 1 and p >= 1),
)


def hw_monomial_tuples(max_degree):
    """Deduplicated factor keys of the graded monomial families spanning
    the algebra of highest-weight bivectors, degree-sorted.  Degrees: the
    four degree-one generators count 1, the two pure bivectors count 2."""
    if max_degree < 0:
        raise RangeError("max degree must be >= 0")
    out = []
    for mid, tail, keep in _HW_FAMILIES:
        for l in range(max_degree + 1):
            for b in range(max_degree - l + 1):
                for p in range((max_degree - l - b) // 2 + 1):
                    for s in range(max_degree - l - b - 2 * p + 1):
                        if keep(b, p):
                            key = _strip((("v3", l), (mid, b),
                                          (tail, p), ("v2", s)))
                            out.append((l + b + 2 * p + s, key))
    out.sort()
    return out


class MonomialBasis(NamedTuple):
    polys: list
    keys: list
    degrees: list
    counts: list


def hw_monomial_basis(max_degree, verify=True):
    """The graded monomial basis as normal-form elements, degree-sorted,
    with per-degree counts.  When verify is set (the default), checks that
    the monomials are linearly independent and that each one is a
    highest-weight bivector; raises ArithmeticError otherwise."""
    tuples = hw_monomial_tuples(max_degree)
    polys = [dict(_mono(key)) for _, key in tuples]
    counts = [0] * (max_degree + 1)
    for deg, _ in tuples:
        counts[deg] += 1
    if verify:
        ech = Echelon(word_key)
        for (deg, key), p in zip(tuples, polys):
            if not ech.insert(p):
                raise ArithmeticError(
                    "monomial %s is dependent on earlier ones" % (key,))
            if not is_hw_bivector(p):
                raise ArithmeticError(
                    "monomial %s is not a highest-weight bivector" % (key,))
    return MonomialBasis(polys, [k for _, k in tuples],
                         [d for d, _ in tuples], counts)


def hilbert_closed_form(n):
    """(n^2 + 2n + 3)(n + 1) / 3, the per-degree dimension."""
    num = (n * n + 2 * n + 3) * (n + 1)
    if num % 3:
        raise ArithmeticError("closed form not integral at %d" % n)
    return num // 3


def hilbert_alternating(n):
    """(n+1)^2 + 2(n-1)^2 + 2(n-3)^2 + ... down to positive offsets."""
    total = (n + 1) ** 2
    k = n - 1
    while k >= 1:
        total += 2 * k * k
        k -= 2
    return total


def hilbert_check(max_degree=6):
    """Per-degree dimension count of the highest-weight subalgebra three
    ways: direct enumeration of the monomial families, the alternating-sum
    formula, and the closed form; passes when all three agree."""
    report = SuiteReport("hilbert")
    counts = [0] * (max_degree + 1)
    for deg, _ in hw_monomial_tuples(max_degree):
        counts[deg] += 1
    for n in range(max_degree + 1):
        e, a, c = counts[n], hilbert_alternating(n), hilbert_closed_form(n)
        report.add("degree %d count" % n, (n,), e == a == c,
                   "enumerated %d, alternating %d, closed form %d"
                   % (e, a, c))
    return report


# -- the weight-lowering projection and its bounded injectivity --

def lambda_proj(v):
    """Projection killing every normal word with a positive raising-letter
    exponent; defined on elements free of the letters b and d."""
    out = {}
    for w, cf in HXC.normal_form(v).items():
        if B in w or D in w:
            raise UnsupportedLetters(
                "projection undefined on words containing b or d: %s"
                % (tuple(LETTER_NAMES[x] for x in w),))
        if E in w:
            continue
        out[w] = cf
    return out


_S_FAMILIES = (
    ("v1", "v5", lambda b, p: True),
    ("v1", "v6", lambda b, p: p >= 1),
    ("v4", "v5", lambda b, p: b >= 1),
    ("v4", "v6", lambda b, p: b >= 1 and p >= 1),
)


def s_monomial_tuples(max_degree):
    """Factor keys of the spanning set used for the bounded injectivity
    check: the graded families with the leading generator omitted."""
    out = []
    for mid, tail, keep in _S_FAMILIES:
        for b in range(max_degree + 1):
            for p in range((max_degree - b) // 2 + 1):
                for s in range(max_degree - b - 2 * p + 1):
                    if keep(b, p):
                        key = _strip(((mid, b), (tail, p), ("v2", s)))
                        out.append((b + 2 * p + s, key))
    out.sort()
    return out


def lambda_projection_check(max_degree=5):
    """Frozen residue values of the projection on the canonical vectors,
    its multiplicative behavior, and exact-rank injectivity on the spanning
    monomials up to the given total degree."""
    report = SuiteReport("lambda_projection")
    c2 = {(C, C): ONE}
    expected = {
        "v1": _lin((MINUS_ONE, c2)),
        "v3": {},
        "v4": {(K,): _q(-1) * _LAM2, (KI,): _q(1) * _LAM2},
        "v5": {(KI, C, C): ONE},
        "v6": {(K, C, C): ONE},
    }
    for nm, want in expected.items():
        got = lambda_proj(_gen_pow(nm, 1))
        report.add("residue of %s" % nm, (nm,),
                   not _lin((ONE, got), (MINUS_ONE, want)))
    mult_names = ("v1", "v3", "v4", "v5", "v6")
    for x in mult_names:
        for y in mult_names:
            prod = _mul(x, y)
            lhs = lambda_proj(prod)
            rhs = HXC.mul(lambda_proj(_gen_pow(x, 1)),
                          lambda_proj(_gen_pow(y, 1)))
            report.add("multiplicative on %s * %s" % (x, y), (x, y),
                       not _lin((ONE, lhs), (MINUS_ONE, rhs)))
        for k in (1, 2):
            prod = HXC.mul(_gen_pow(x, 1), _gen_pow("v2", k))
            lhs = lambda_proj(prod)
            rhs = HXC.mul(lambda_proj(_gen_pow(x, 1)),
                          lambda_proj(_gen_pow("v2", k)))
            report.add("module-multiplicative on %s * v2^%d" % (x, k),
                       (x, k),
                       not _lin((ONE, lhs), (MINUS_ONE, rhs)))
    sq = lambda_proj(_gen_pow("v2", 2))
    sq_of = HXC.mul(lambda_proj(_gen_pow("v2", 1)),
                    lambda_proj(_gen_pow("v2", 1)))
    report.add("not multiplicative on v2 * v2", (),
               bool(_lin((ONE, sq), (MINUS_ONE, sq_of))),
               "projection of the square differs from the squared "
               "projection")
    tuples = s_monomial_tuples(max_degree)
    report.add("spanning monomial count at degree <= %d" % max_degree,
               (max_degree,), len(tuples) == 76 if max_degree == 5 else True,
               "%d monomials" % len(tuples))
    ech = Echelon(word_key)
    rank = sum(1 for _, key in tuples
               if ech.insert(lambda_proj(_mono(key))))
    report.add("projection injective on the span", (max_degree,),
               rank == len(tuples),
               "rank %d of %d" % (rank, len(tuples)))
    return report


# -- graded product spans and their decomposition --

_PW_LABELS = {1: ((1, 1, "H11"),),
              2: ((2, 2, "H22"), (2, 0, "H20"), (0, 2, "H02"), (0, 0, "H00"))}


def peter_weyl_dimension(lam, mu):
    return ((lam + 1) * (mu + 1)) ** 2


def peter_weyl_check(n):
    """Span of all degree-n products of the 16-dimensional reference
    closure's basis: computes its dimension and verifies that it is the
    direct sum of the labeled seed closures, with each closure dimension
    matching the squared-product bookkeeping.  Supported for n in {1, 2}."""
    if n not in _PW_LABELS:
        raise RangeError(
            "product degree %d not supported (desk scale stops at 2)" % n)
    report = SuiteReport("peter_weyl")
    h11 = standard_module("H11")
    span = Echelon(word_key)
    if n == 1:
        for b in h11.basis:
            span.insert(b)
    else:
        for u in h11.basis:
            for v in h11.basis:
                span.insert(HXC.mul(u, v))
    expect_dim = sum(peter_weyl_dimension(lam, mu)
                     for lam, mu, _ in _PW_LABELS[n])
    report.add("degree-%d product span dimension" % n, (n,),
               span.dim == expect_dim, "dim %d" % span.dim)
    direct = Echelon(word_key)
    pieces = 0
    for lam, mu, name in _PW_LABELS[n]:
        mod = standard_module(name)
        seed = standard_seed(name)
        label = "(%d,%d)" % (lam, mu)
        report.add("seed of %s is a highest-weight bivector" % label,
                   (lam, mu), is_hw_bivector(seed))
        report.add("seed of %s lies in the product span" % label,
                   (lam, mu), span.contains(seed))
        report.add("closure %s has the predicted dimension" % label,
                   (lam, mu), mod.dim == peter_weyl_dimension(lam, mu),
                   "dim %d, predicted %d"
                   % (mod.dim, peter_weyl_dimension(lam, mu)))
        inside = all(span.contains(b) for b in mod.basis)
        report.add("closure %s lies in the product span" % label,
                   (lam, mu), inside)
        fresh = sum(1 for b in mod.basis if direct.insert(b))
        report.add("closure %s meets the previous ones trivially" % label,
                   (lam, mu), fresh == mod.dim,
                   "%d new of %d" % (fresh, mod.dim))
        pieces += mod.dim
    report.add("closures fill the product span", (n,),
               pieces == span.dim == direct.dim,
               "%d = %s" % (span.dim, " + ".join(
                   str(peter_weyl_dimension(lam, mu))
                   for lam, mu, _ in _PW_LABELS[n])))
    if n == 2:
        h20 = standard_module("H20")
        grid = [_vectors.canonical(nm)
                for row in _vectors.H20_BASIS for nm in row]
        report.add("piece (2,0) spans the reference bivector grid", (2, 0),
                   len(grid) == h20.dim and
                   all(h20.ech.contains(g) for g in grid))
        h02 = standard_module("H02")
        grid = [_vectors.canonical(nm)
                for row in _vectors.H02_BASIS for nm in row]
        report.add("piece (0,2) spans the reference bivector grid", (0, 2),
                   len(grid) == h02.dim and
                   all(h02.ech.contains(g) for g in grid))
    return report
