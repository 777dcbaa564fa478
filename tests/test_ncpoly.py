"""Rewriting core: the four presentations, confluence audit, normal forms."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflab import ncpoly
from hopflab.scalars import ONE, QRat
from hopflab.ncpoly import (
    A, B, C, CQSL2, D, DOUBLE, E, F, HXC, K, KI, UQSL2,
    AlphabetMismatch, NonTermination, OutOfWindow, Presentation,
    coords, enumerate_normal_words, nc_add, nc_mono, nc_mul, nc_scale,
    nc_sub, nc_unit, normal_form, presentation_check, random_normal_word,
    word_key,
)


def q(k=1):
    return QRat.q_power(k)


def m(*letters):
    return nc_mono(tuple(letters))


LAM = (q() - q(-1)).inverse()


def test_enveloping_commutator_frozen():
    # FE  ->  EF - (K - K^-1)/(q - q^-1)
    got = nc_mul(m(F), m(E), UQSL2)
    want = {(E, F): ONE, (K,): -LAM, (KI,): LAM}
    assert got == want


def test_enveloping_k_conjugation():
    assert nc_mul(m(K), m(E), UQSL2) == {(E, K): q(2)}
    assert nc_mul(m(K), m(F), UQSL2) == {(F, K): q(-2)}
    assert nc_mul(m(K), m(KI), UQSL2) == nc_unit()
    # K E^3 K^-1 = q^6 E^3
    got = UQSL2.mul_many(m(K), m(E, E, E), m(KI))
    assert got == {(E, E, E): q(6)}


def test_function_algebra_determinant_rules():
    assert nc_mul(m(D), m(A), CQSL2) == {(): ONE, (B, C): q(1)}
    assert nc_mul(m(A), m(D), CQSL2) == {(): ONE, (B, C): q(-1)}
    assert nc_mul(m(B), m(A), CQSL2) == {(A, B): q(1)}
    assert nc_mul(m(C), m(B), CQSL2) == {(B, C): ONE}
    # d sorts before b and c so the determinant pair stays adjacent
    assert nc_mul(m(B), m(D), CQSL2) == {(D, B): q(-1)}
    assert nc_mul(m(C), m(D), CQSL2) == {(D, C): q(-1)}
    assert CQSL2.is_normal_word((A, A, B, C, C))
    assert CQSL2.is_normal_word((D, D, B, C))
    assert not CQSL2.is_normal_word((A, B, D))
    # the quantum determinant ad - q^-1 bc is the unit
    det = nc_sub(nc_mul(m(A), m(D), CQSL2), nc_scale(m(B, C), q(-1)))
    assert det == nc_unit()


def test_tensor_presentation_separates_sides():
    # C letters slide right past H letters with no twist
    assert nc_mul(m(A), m(E), HXC) == {(E, A): ONE}
    got = HXC.mul_many(m(C), m(F), m(A), m(K))
    assert got == {(F, K, A, C): q(1)}
    assert HXC.is_normal_word((E, F, K, A, B, C))
    assert not HXC.is_normal_word((A, E))
    assert not HXC.is_normal_word((E, A, D))


DOUBLE_CROSS_RELATIONS = [
    # (x, y, [(coeff, word), ...]) encoding  x*y == sum coeff * word  in the double
    (E, A, [(q(1), (A, E)), (-q(2), (C, K))]),
    (E, C, [(q(1), (C, E))]),
    (E, B, [(q(-1), (B, E)), (-ONE, (D, K)), (ONE, (A,))]),
    (E, D, [(q(-1), (D, E)), (ONE, (C,))]),
    (F, A, [(q(1), (A, F)), (q(1), (B, KI))]),
    (F, C, [(q(-1), (C, F)), (q(-1), (D, KI)), (-q(-1), (A,))]),
    (F, B, [(q(1), (B, F))]),
    (F, D, [(q(-1), (D, F)), (-q(-1), (B,))]),
    (K, A, [(ONE, (A, K))]),
    (K, C, [(q(2), (C, K))]),
    (K, B, [(q(-2), (B, K))]),
    (K, D, [(ONE, (D, K))]),
]


def test_double_cross_relations_normalize_to_zero():
    for x, y, terms in DOUBLE_CROSS_RELATIONS:
        lhs = nc_mul(m(x), m(y), DOUBLE)
        rhs = {}
        for coeff, w in terms:
            rhs = nc_add(rhs, nc_scale(normal_form({w: ONE}, DOUBLE), coeff))
        assert nc_sub(lhs, rhs) == {}, (x, y)


def test_double_c_part_is_opposite():
    # in the double the function-algebra letters multiply in reverse order
    assert nc_mul(m(B), m(A), DOUBLE) == {(A, B): q(-1)}
    assert nc_mul(m(A), m(D), DOUBLE) == {(): ONE, (B, C): q(1)}


def test_presentation_check_all_four_pass():
    for pres in (UQSL2, CQSL2, HXC, DOUBLE):
        rep = presentation_check(pres)
        assert rep.terminating, (pres.name, rep.order_violations)
        assert rep.confluent, (pres.name,
                               [o.triple for o in rep.overlaps if not o.agree])
        assert rep.passed


def test_presentation_check_catches_broken_rules():
    rules = dict(CQSL2.rules)
    del rules[(C, B)]
    broken = Presentation("broken", CQSL2.alphabet, rules)
    rep = presentation_check(broken)
    assert not rep.passed
    bad = [o.triple for o in rep.overlaps if not o.agree]
    assert bad, "missing straightening rule must break an overlap"


def test_word_key_strictly_decreases_on_every_rule():
    for pres in (UQSL2, CQSL2, HXC, DOUBLE):
        for pat, rep in pres.rules.items():
            for u in rep:
                assert word_key(u) < word_key(pat), (pres.name, pat, u)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["uqsl2", "cqsl2", "hxc", "double"]),
       st.lists(st.integers(0, 7), max_size=6))
def test_normal_form_idempotent(name, letters):
    from hopflab.ncpoly import PRESENTATIONS
    pres = PRESENTATIONS[name]
    w = tuple(x for x in letters if x in pres.alphabet)
    nf = pres.nf_word(w)
    for u in nf:
        assert pres.is_normal_word(u)
    assert normal_form(nf, pres) == nf


def _random_poly(pres, rng, terms=3, max_len=4):
    p = {}
    for _ in range(terms):
        w = random_normal_word(pres, rng, max_len)
        c = QRat.q_power(rng.randrange(-3, 4)) * QRat.from_int(rng.randrange(-3, 4))
        p = nc_add(p, nc_mono(w, c))
    return p


def test_multiplication_associative_random():
    rng = random.Random(5)
    for pres in (UQSL2, CQSL2, HXC, DOUBLE):
        for _ in range(25):
            p = _random_poly(pres, rng)
            r = _random_poly(pres, rng)
            s = _random_poly(pres, rng)
            assert nc_mul(nc_mul(p, r, pres), s, pres) == \
                nc_mul(p, nc_mul(r, s, pres), pres)


def test_normal_word_counts_small():
    assert len(enumerate_normal_words(UQSL2, 2)) == 14
    assert len(enumerate_normal_words(CQSL2, 2)) == 14
    # tensor words of length <= 1: unit + 8 letters
    assert len(enumerate_normal_words(HXC, 1)) == 9


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        normal_form({(A,): ONE}, UQSL2)
    with pytest.raises(AlphabetMismatch):
        normal_form({(E,): ONE}, CQSL2)


def test_coords_window():
    window = [(), (E,), (E, F)]
    p = {(): q(2), (E, F): -ONE}
    vec = coords(p, window)
    assert vec[0] == q(2) and vec[1].is_zero() and vec[2] == -ONE
    with pytest.raises(OutOfWindow):
        coords({(K,): ONE}, window)


def test_deep_straightening_terminates():
    # fully reversed words exercise long rewrite chains
    w = (D, D, C, C, B, B, A, A)
    nf = CQSL2.nf_word(w)
    assert all(CQSL2.is_normal_word(u) for u in nf)
    w2 = (D, C, B, A, F, E) * 2
    nf2 = DOUBLE.nf_word(w2)
    assert all(DOUBLE.is_normal_word(u) for u in nf2)


def test_step_cap_applies_to_one_top_level_reduction(monkeypatch):
    # 64 separate reductions of at most 3 steps each, 54 steps in total,
    # stay under a cap of 10; one reduction of F^3 E^3 (54 steps) does not
    monkeypatch.setattr(ncpoly, "_STEP_CAP", 10)
    pres = Presentation("capped", UQSL2.alphabet, UQSL2.rules)
    letters = (E, F, K, KI)
    for w in ((x, y, z) for x in letters for y in letters for z in letters):
        pres.nf_word(w)
    assert pres._steps > 10
    with pytest.raises(NonTermination):
        pres.nf_word((F, F, F, E, E, E))
    # the failed reduction leaves the next one its own full budget
    assert pres.nf_word((E, F, E)) == UQSL2.nf_word((E, F, E))


# hxc normalises factor-wise; this is the same presentation by rewriting
HXC_REWRITE = Presentation("hxc-rewrite", ncpoly.LETTERS, HXC.rules)
H_SIDE, C_SIDE = (E, F, K, KI), (A, B, C, D)


def test_factored_hxc_matches_rewriting_on_short_words():
    words = [()]
    frontier = [()]
    for _ in range(4):
        frontier = [w + (x,) for w in frontier for x in ncpoly.LETTERS]
        words.extend(frontier)
    assert len(words) == 4681
    for w in words:
        assert HXC.nf_word(w) == HXC_REWRITE.nf_word(w), w
        cut = len(w) // 2
        mono = {w[:cut]: q(len(w)) * QRat.from_int(-2)}
        assert (HXC.mul(mono, {w[cut:]: ONE})
                == HXC_REWRITE.mul(mono, {w[cut:]: ONE})), w


@st.composite
def _interleaved_words(draw, max_len=8):
    """A word whose H and C letters alternate in runs of random length."""
    out = []
    side = draw(st.booleans())
    while len(out) < max_len and draw(st.booleans()):
        run = draw(st.lists(st.sampled_from(H_SIDE if side else C_SIDE),
                            min_size=1, max_size=max_len - len(out)))
        out.extend(run)
        side = not side
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(_interleaved_words(), _interleaved_words(max_len=4),
       _interleaved_words(max_len=4), st.integers(-3, 3))
def test_factored_hxc_matches_rewriting_on_random_words(w, u, v, k):
    assert HXC.nf_word(w) == HXC_REWRITE.nf_word(w)
    p = {u: q(k), v: QRat.from_int(3)}
    r = {v: ONE, u + v: -q(-k)}
    assert HXC.mul(p, r) == HXC_REWRITE.mul(p, r)


def test_factors_must_be_the_commuting_tensor_product():
    assert HXC.factors == (UQSL2, CQSL2)
    with pytest.raises(ValueError, match="tensor product"):
        Presentation("bad", ncpoly.LETTERS, DOUBLE.rules,
                     factors=(UQSL2, CQSL2))
    rules = dict(HXC.rules)
    rules[(A, E)] = {(E, A): q(1)}
    with pytest.raises(ValueError, match="tensor product"):
        Presentation("bad", ncpoly.LETTERS, rules, factors=(UQSL2, CQSL2))
