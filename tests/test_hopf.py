"""Structure maps, pairing, and the two-sided action engine."""
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import hopflab
from hopflab.scalars import ONE, QRat, ZERO
from hopflab.ncpoly import (
    A, B, C, CQSL2, D, DOUBLE, E, F, HXC, K, KI, UQSL2,
    enumerate_normal_words, nc_add_into, nc_mul, nc_sub, nc_unit,
    random_normal_word,
)
from hopflab.hopf import (
    COPRODUCT, COUNIT, _act_left_word, _act_right_word, act_left, act_right,
    antipode, coproduct, counit, gen_action_table, pairing,
    verify_action_tables,
)
from hopflab.bimodlab.core import word_weight


def q(k=1):
    return QRat.q_power(k)


def tensor_mul(t1, t2, pres):
    out = {}
    for (a1, b1), c1 in t1.items():
        for (a2, b2), c2 in t2.items():
            p1 = pres.nf_word(a1 + a2)
            p2 = pres.nf_word(b1 + b2)
            for w1, d1 in p1.items():
                for w2, d2 in p2.items():
                    key = (w1, w2)
                    v = out.get(key, ZERO) + c1 * c2 * d1 * d2
                    if v.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = v
    return out


def test_coproduct_frozen_values():
    assert coproduct((A,), CQSL2) == {((A,), (A,)): ONE, ((B,), (C,)): ONE}
    assert coproduct((E,), UQSL2) == {((E,), (K,)): ONE, ((), (E,)): ONE}
    assert coproduct((K, KI), UQSL2) == {((), ()): ONE}


def test_coproduct_counit_axiom():
    rng = random.Random(3)
    for pres in (UQSL2, CQSL2, DOUBLE):
        for _ in range(30):
            w = random_normal_word(pres, rng, 4)
            t = coproduct(w, pres)
            left = {}
            right = {}
            for (w1, w2), c in t.items():
                nc_add_into(left, {w2: ONE}, c * counit(w1))
                nc_add_into(right, {w1: ONE}, c * counit(w2))
            assert left == pres.nf_word(w)
            assert right == pres.nf_word(w)


def test_coproduct_multiplicative_on_double():
    # includes the cross products, which is what pins the convention down
    for x in range(8):
        for y in range(8):
            lhs = coproduct(nc_mul({(x,): ONE}, {(y,): ONE}, DOUBLE), DOUBLE)
            rhs = tensor_mul(coproduct((x,), DOUBLE),
                             coproduct((y,), DOUBLE), DOUBLE)
            assert lhs == rhs, (x, y)


def test_antipode_frozen_and_axiom():
    assert antipode((E,), "H") == {(E, KI): -ONE}
    assert antipode((B,), "C") == {(B,): -q(1)}
    assert antipode((A,), "C") == {(D,): ONE}
    rng = random.Random(9)
    # m(S x id)Delta = counit * unit
    for which, pres in (("H", UQSL2), ("C", CQSL2)):
        for _ in range(25):
            w = random_normal_word(pres, rng, 4)
            acc = {}
            for (w1, w2), c in coproduct(w, pres).items():
                nc_add_into(acc, pres.mul(antipode(w1, which), {w2: ONE}), c)
            expect = nc_unit(counit(w))
            assert acc == expect, w


def test_antipode_antihomomorphism():
    rng = random.Random(13)
    for which, pres in (("H", UQSL2), ("C", CQSL2)):
        for _ in range(25):
            u = random_normal_word(pres, rng, 3)
            v = random_normal_word(pres, rng, 3)
            lhs = antipode(pres.mul({u: ONE}, {v: ONE}), which)
            rhs = pres.mul(antipode(v, which), antipode(u, which))
            assert lhs == rhs


def test_pairing_generator_values_frozen():
    assert pairing((A,), (K,)) == q(1)
    assert pairing((D,), (K,)) == q(-1)
    assert pairing((A,), (KI,)) == q(-1)
    assert pairing((D,), (KI,)) == q(1)
    assert pairing((B,), (E,)) == ONE
    assert pairing((C,), (F,)) == ONE
    assert pairing((B,), (F,)).is_zero()
    assert pairing((A,), (E,)).is_zero()
    # unit row and column go through the counit
    assert pairing((), (K,)) == ONE
    assert pairing((A,), ()) == ONE
    assert pairing((B,), ()).is_zero()


def test_pairing_frozen_composites():
    # phi(b, EK) = phi(b,E) phi(d,K) = q^-1 via Delta b = a@b + b@d
    assert pairing((B,), (E, K)) == q(-1)
    # phi(c^2, F^2) = [2]
    assert pairing((C, C), (F, F)) == q(1) + q(-1)
    assert pairing((B, C), (E, F)) == ONE
    # K pairs diagonally against powers of a
    assert pairing((A, A), (K,)) == q(2)


def test_pairing_product_axioms():
    rng = random.Random(17)
    for _ in range(60):
        cu = random_normal_word(CQSL2, rng, 3)
        cv = random_normal_word(CQSL2, rng, 2)
        h = random_normal_word(UQSL2, rng, 3)
        # phi(c c', h) = sum phi(c, h1) phi(c', h2)
        lhs = pairing(CQSL2.mul({cu: ONE}, {cv: ONE}), {h: ONE})
        rhs = ZERO
        for (h1, h2), ch in coproduct(h, UQSL2).items():
            rhs = rhs + ch * pairing({cu: ONE}, {h1: ONE}) \
                * pairing({cv: ONE}, {h2: ONE})
        assert lhs == rhs
    for _ in range(60):
        cw = random_normal_word(CQSL2, rng, 3)
        hu = random_normal_word(UQSL2, rng, 2)
        hv = random_normal_word(UQSL2, rng, 2)
        lhs = pairing({cw: ONE}, UQSL2.mul({hu: ONE}, {hv: ONE}))
        rhs = ZERO
        for (c1, c2), cc in coproduct(cw, CQSL2).items():
            rhs = rhs + cc * pairing({c1: ONE}, {hu: ONE}) \
                * pairing({c2: ONE}, {hv: ONE})
        assert lhs == rhs


def test_pairing_antipode_compatibility():
    for x in (A, B, C, D):
        for h in (E, F, K, KI):
            lhs = pairing(antipode((x,), "C"), {(h,): ONE})
            rhs = pairing({(x,): ONE}, antipode((h,), "H"))
            assert lhs == rhs, (x, h)


def test_action_table_audit_passes():
    report = verify_action_tables()
    assert len(report.rows) == 128
    assert not report.mismatches, [r.label() for r in report.mismatches]
    assert len(report.suspects) == 5
    for r in report.suspects:
        assert not r.match          # printed row disagrees with the engine
        assert r.presumed_match     # but matches under the presumed label
    assert report.passed


def test_left_action_spot_values():
    table = gen_action_table()
    # K conjugates function letters by their weight
    assert table.left[(K, A)] == {(A,): q(1)}
    assert table.left[(K, B)] == {(B,): q(-1)}
    # E,F shift the function letters along their columns
    assert table.left[(E, B)] == {(A,): ONE}
    assert table.left[(F, A)] == {(B,): ONE}
    assert table.left[(E, A)] == {}
    # enveloping side is hit through the counit
    assert table.left[(E, E)] == {}
    assert table.left[(K, F)] == {(F,): ONE}


def test_module_axiom_generator_pairs():
    words = [w for w in enumerate_normal_words(HXC, 2)]
    for x in range(8):
        for y in range(8):
            xy = nc_mul({(x,): ONE}, {(y,): ONE}, DOUBLE)
            for w in words:
                v = {w: ONE}
                lhs = act_left({(x,): ONE}, act_left({(y,): ONE}, v))
                rhs = act_left(xy, v)
                assert lhs == rhs, ("left", x, y, w)


def test_right_module_axiom_generator_pairs():
    words = [w for w in enumerate_normal_words(HXC, 2)]
    for x in range(8):
        for y in range(8):
            xy = nc_mul({(x,): ONE}, {(y,): ONE}, DOUBLE)
            for w in words:
                v = {w: ONE}
                lhs = act_right(act_right(v, {(x,): ONE}), {(y,): ONE})
                rhs = act_right(v, xy)
                assert lhs == rhs, ("right", x, y, w)


def test_actions_commute_bimodule_compatibility():
    words = [w for w in enumerate_normal_words(HXC, 2)]
    for x in range(8):
        for y in range(8):
            for w in words:
                v = {w: ONE}
                lhs = act_right(act_left({(x,): ONE}, v), {(y,): ONE})
                rhs = act_left({(x,): ONE}, act_right(v, {(y,): ONE}))
                assert lhs == rhs, (x, y, w)


def test_module_algebra_rule():
    # g(uv) = g1(u) g2(v) for every generator on word pairs
    rng = random.Random(21)
    for _ in range(40):
        u = random_normal_word(HXC, rng, 2)
        v = random_normal_word(HXC, rng, 2)
        uv = nc_mul({u: ONE}, {v: ONE}, HXC)
        for g in range(8):
            lhs = act_left({(g,): ONE}, uv)
            rhs = {}
            for l1, l2, cl in COPRODUCT[g]:
                p1 = act_left({l1: ONE} if l1 else (), {u: ONE}) \
                    if l1 else {u: ONE}
                p2 = act_left({l2: ONE}, {v: ONE}) if l2 else {v: ONE}
                nc_add_into(rhs, nc_mul(p1, p2, HXC), cl)
            assert lhs == rhs, (g, u, v)


def _peeled(g, w, left):
    """Reference action of a generator on a word: the module-algebra
    rule g(xy) = g_(1)(x) g_(2)(y) (and its right mirror) applied one letter
    at a time down to the generator table, with no memo.  The table itself
    is pinned by the printed-table audit."""
    if not w:
        return nc_unit(COUNIT[g])
    if len(w) == 1:
        table = gen_action_table()
        return table.left[(g, w[0])] if left else table.right[(w[0], g)]
    head, rest = w[:1], w[1:]
    out = {}
    for l1, l2, cl in COPRODUCT[g]:
        p1 = _peeled(l1[0], head, left) if l1 else {head: ONE}
        p2 = _peeled(l2[0], rest, left) if l2 else {rest: ONE}
        if p1 and p2:
            nc_add_into(out, HXC.mul(p1, p2), cl)
    return out


def test_closed_forms_match_the_letter_by_letter_rule():
    # every normal word of length <= 5, and every word of length <= 3,
    # normal or not (act_left/act_right accept any tensor-algebra element)
    words = set(enumerate_normal_words(HXC, 5))
    words.update(itertools.product(range(8), repeat=3))
    words.update(itertools.product(range(8), repeat=2))
    for w in sorted(words):
        for g in range(8):
            assert _act_left_word(g, w) == _peeled(g, w, True), ("L", g, w)
            assert _act_right_word(w, g) == _peeled(g, w, False), ("R", g, w)


def test_grouplike_generators_act_by_the_word_weight():
    # closure() fills the K and K^-1 columns in closed form from this
    for w in enumerate_normal_words(HXC, 4):
        wl, wr = word_weight(w)
        assert act_left((K,), w) == {w: q(wl)}, w
        assert act_left((KI,), w) == {w: q(-wl)}, w
        assert act_right(w, (KI,)) == {w: q(wr)}, w
        assert act_right(w, (K,)) == {w: q(-wr)}, w


_WORDS8 = enumerate_normal_words(HXC, 8)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_WORDS8),
       st.lists(st.integers(0, 7), max_size=3).map(tuple),
       st.booleans())
def test_memoised_actions_match_a_cold_start(w, op, left):
    def act():
        return act_left(op, {w: ONE}) if left else act_right({w: ONE}, op)
    first = act()
    warm = act()
    hopflab.clear_caches()
    assert first == warm == act()
