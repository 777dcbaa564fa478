"""The exact fast paths of QRat products, each against the general
constructor, structurally and by coefficient type; the constructor's
one-term-denominator reduction against its gcd route; the sharing of
interned signed powers; and the gcd cofactors the constructor divides out.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflab import scalars
from hopflab.scalars import (
    INTERN_BOUND, ONE, ZERO, QRat, padd, pdivmod, pgcd, pmono, pmul, qint,
    qrat_text,
)

small = st.integers(-9, 9).filter(bool)
rational = st.builds(Fraction, st.integers(-30, 30),
                     st.integers(2, 6)).filter(bool)
coeff = st.one_of(small, rational)


def polys(max_size=4):
    return st.dictionaries(st.integers(0, 5), coeff, min_size=1,
                           max_size=max_size)


def signed_powers():
    return st.builds(lambda k, s: QRat.q_power(k) if s == 1
                     else -QRat.q_power(k),
                     st.integers(-6, 6), st.sampled_from([1, -1]))


def monomials():
    return st.builds(lambda k, c: QRat(pmono(k, c)) * QRat.q_power(-3),
                     st.integers(0, 6), coeff)


def laurents():
    """f / q^b, polynomials included, q-powers cancelled as they fall."""
    return st.builds(lambda f, b: QRat(f, pmono(b)), polys(),
                     st.integers(0, 4))


def generals():
    """Values whose denominator has at least two terms."""
    return st.builds(lambda f, g, i: QRat(pmul(pmono(i), f), g),
                     polys(), polys().filter(lambda g: len(g) > 1),
                     st.integers(0, 3))


values = st.one_of(st.just(ONE), st.just(-ONE), signed_powers(), monomials(),
                   laurents(), generals())


def assert_canonical_coeffs(p):
    for c in p.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), p


def assert_same(got, want):
    assert got == want
    assert qrat_text(got) == qrat_text(want)
    for part in (got.num, got.den):
        assert_canonical_coeffs(part)
    assert plc_is_one(got.den)


def plc_is_one(den):
    return den[max(den)] == 1


def general_product(x, y):
    return QRat(pmul(x.num, y.num), pmul(x.den, y.den))


def general_sum(x, y):
    return QRat(padd(pmul(x.num, y.den), pmul(y.num, x.den)),
                pmul(x.den, y.den))


@settings(max_examples=400, deadline=None)
@given(values, values)
def test_every_product_matches_the_constructor(x, y):
    assert_same(x * y, general_product(x, y))
    assert_same(y * x, general_product(x, y))


@settings(max_examples=400, deadline=None)
@given(values, values)
def test_every_sum_matches_the_constructor(x, y):
    assert_same(x + y, general_sum(x, y))
    assert_same(x - y, general_sum(x, -y))


@settings(max_examples=200, deadline=None)
@given(st.one_of(laurents(), monomials(), generals()),
       st.one_of(monomials(), signed_powers()))
def test_sums_that_cancel_to_zero_or_to_a_monomial(x, m):
    assert_same(x + -x, ZERO)
    back = (x + m) + (-x)
    assert_same(back, m)


def test_integral_fraction_products_and_sums_are_ints():
    half, third = Fraction(1, 2), Fraction(1, 3)
    q = QRat.q_power(1)
    # monomial x monomial: 1/2 q^2 * 2 q^-2 is the interned ONE
    assert QRat(pmono(2, half)) * (QRat.from_int(2) * q ** -2) is ONE
    assert (QRat(pmono(1, Fraction(3, 2))) * QRat(pmono(0, Fraction(2, 3)))
            is q)
    got = QRat(pmono(0, Fraction(3, 2))) * QRat(pmono(2, Fraction(4, 3)))
    assert got.num == {2: 2} and type(got.num[2]) is int
    # monomial x Laurent: 3/2 * (2/3 q + 4/3) = q + 2
    got = QRat(pmono(0, Fraction(3, 2))) * QRat({1: Fraction(2, 3),
                                                  0: Fraction(4, 3)})
    assert got.num == {1: 1, 0: 2}
    assert_canonical_coeffs(got.num)
    # Laurent x Laurent: (q/2 + 1/2)(2q - 2)/q = (q^2 - 1)/q
    got = QRat({1: half, 0: half}) * QRat({1: 2, 0: -2}, {1: 1})
    assert got.num == {2: 1, 0: -1} and got.den == {1: 1}
    assert_canonical_coeffs(got.num)
    # Laurent + Laurent: (q + 1/3)/q^2 + (2/3 q^2 - 1/3)/q^2
    got = (QRat({1: 1, 0: third}, {2: 1})
           + QRat({2: Fraction(2, 3), 0: -third}, {2: 1}))
    assert got == QRat({1: Fraction(2, 3), 0: 1}, {1: 1})
    assert_canonical_coeffs(got.num)
    got = QRat(pmono(3, half)) + QRat(pmono(3, half))
    assert got.num == {3: 1} and type(got.num[3]) is int


def test_signed_powers_are_interned():
    for k in (-INTERN_BOUND, -5, 0, 1, 7, INTERN_BOUND):
        assert QRat.q_power(k) is QRat.q_power(k)
        assert -QRat.q_power(k) is -QRat.q_power(k)
        assert -(-QRat.q_power(k)) is QRat.q_power(k)
    assert QRat.q_power(0) is ONE
    q = QRat.q_power(1)
    assert q * q is QRat.q_power(2)
    assert q * QRat.q_power(-1) is ONE
    assert (-q) * (-q) is QRat.q_power(2)


def test_one_is_an_identity_that_shares():
    xs = [QRat.q_power(3), QRat(pmono(2, 5)), qint(3), qint(3).inverse(),
          QRat({2: 1, 0: -1}, {3: 1, 0: 7})]
    for x in xs:
        assert x * ONE is x
        assert ONE * x is x
    # a value 1 built by the constructor shares too, on the shift path
    one = QRat({0: 1})
    assert one is not ONE
    for x in xs[2:]:
        assert x * one is x and one * x is x


def test_intern_table_is_bounded():
    far = INTERN_BOUND + 1
    assert QRat.q_power(far) is not QRat.q_power(far)
    assert QRat.q_power(far) == QRat({far: 1})
    assert QRat.q_power(-far) == QRat({0: 1}, {far: 1})
    assert -QRat.q_power(far) == QRat({far: -1})
    half = QRat.q_power(600)
    assert_same(half * half, QRat(pmono(1200)))
    QRat.q_power(INTERN_BOUND)
    size = sum(len(t) for t in scalars._POWERS.values())
    assert size <= 2 * (2 * INTERN_BOUND + 1)
    assert all(abs(k) <= INTERN_BOUND
               for t in scalars._POWERS.values() for k in t)


def test_monomial_factors_and_laurent_sums_skip_pmul_and_pgcd(monkeypatch):
    q = QRat.q_power(1)
    monos = [QRat.q_power(k) for k in (-4, 0, 3)] + [
        -q, QRat(pmono(2, 7)) * QRat.q_power(-5),
        QRat(pmono(0, Fraction(-2, 3)))]
    laurents = [qint(2), qint(3), QRat({3: 2, 1: Fraction(1, 3)}, {4: 1}),
                QRat({2: 1, 0: -1})]
    others = laurents + [qint(3).inverse(),
                         (q + ONE) / (q * q - QRat.from_int(3))]
    products = [(m, x, general_product(m, x)) for m in monos
                for x in monos + others]
    sums = [(x, y, general_sum(x, y), general_sum(x, -y))
            for x in monos + laurents for y in monos + laurents]

    def forbidden(*args, **kwargs):
        raise AssertionError("general arithmetic on a fast path")
    monkeypatch.setattr(scalars, "pmul", forbidden)
    monkeypatch.setattr(scalars, "pgcd", forbidden)
    for m, x, want in products:
        assert_same(m * x, want)
        assert_same(x * m, want)
    for x, y, want, want_diff in sums:
        assert_same(x + y, want)
        assert_same(x - y, want_diff)


@settings(max_examples=300, deadline=None)
@given(polys(), st.integers(0, 5), coeff,
       st.dictionaries(st.integers(0, 2), small, min_size=2, max_size=3))
def test_one_term_denominators_match_the_gcd_route(f, b, d, h):
    """f / (d*q^b) reduced by its q-valuation alone equals the same ratio
    with a factor h of two or more terms on both sides, which the
    constructor reduces with the gcd."""
    got = QRat(f, {b: d})
    assert_same(got, QRat(pmul(f, h), pmul({b: d}, h)))
    assert len(got.den) == 1


def _interned_snapshot():
    return {(s, k): (u, dict(u.num), dict(u.den))
            for s, table in scalars._POWERS.items() for k, u in table.items()}


def test_no_caller_mutates_a_shared_value():
    from hopflab.bimodlab import core, suites, vectors
    for k in range(-8, 9):
        QRat.q_power(k), -QRat.q_power(k)
    before = _interned_snapshot()
    zero = (ZERO, dict(ZERO.num), dict(ZERO.den))
    assert suites.relation_annihilation_check(2).passed
    mod = core.closure([vectors.h_lambda_mu_seed(1, 1)], side="bi",
                       name="conj(1,1)")
    assert mod.dim == 16
    after = _interned_snapshot()
    for key, (u, num, den) in before.items():
        assert after[key][0] is u
        assert u.num == num and u.den == den, key
    assert ZERO.num == zero[1] and ZERO.den == zero[2]


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), st.dictionaries(st.integers(0, 3), small,
                                         min_size=2, max_size=3))
def test_pgcd_cofactors_are_the_exact_quotients(a, b, c):
    f, g = pmul(a, c), pmul(b, c)
    gcd, qf, qg = pgcd(f, g)
    assert qf == pdivmod(f, gcd)[0] and qg == pdivmod(g, gcd)[0]
    assert_canonical_coeffs(qf)
    assert_canonical_coeffs(qg)


def test_constructor_divides_once_by_the_certified_gcd(monkeypatch):
    planted = {2: 1, 0: 1}
    cases = [(pmul({1: 2, 0: -3}, planted), pmul({2: 1, 0: 5}, planted)),
             (pmul({1: Fraction(1, 2), 0: 1}, planted),
              pmul({3: 3, 0: Fraction(-2, 7)}, planted))]
    want = [QRat(f, g) for f, g in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("pdivmod after a certified gcd")
    monkeypatch.setattr(scalars, "pdivmod", forbidden)
    for (f, g), w in zip(cases, want):
        got = QRat(f, g)
        assert_same(got, w)
        assert max(got.den) == max(g) - 2


def test_forced_fallback_cofactors_match(monkeypatch):
    planted = {1: 1, 0: -2}
    f, g = pmul({2: 3, 0: 1}, planted), pmul({1: Fraction(1, 5), 0: 1},
                                             planted)
    heuristic = pgcd(f, g)
    monkeypatch.setattr(scalars, "_heugcd", lambda a, b: None)
    assert pgcd(f, g) == heuristic


@pytest.mark.parametrize("k", [-3, 0, 2])
def test_zero_products_and_sums(k):
    u = QRat.q_power(k)
    assert u * ZERO is ZERO and ZERO * u is ZERO
    assert u + ZERO is u and ZERO + u is u
