"""The integer-coefficient scalar kernel: the certified heuristic gcd, its
Euclidean fallback, the int/Fraction coefficient rule, and HOPFLAB_CAP
validation at use.

The gcd is cross-checked against a reference Euclidean algorithm over
Fraction written here, independent of hopflab.scalars.
"""
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflab import scalars
from hopflab.bimodlab import LabConfig
from hopflab.scalars import ONE, QRat, pconst, pgcd, pmono, pmul, qbinom, qint


def ref_gcd(f, g):
    """Monic gcd over Q by the textbook Euclidean algorithm on Fractions."""
    a = {k: Fraction(c) for k, c in f.items()}
    b = {k: Fraction(c) for k, c in g.items()}
    while b:
        rem = dict(a)
        db, lb = max(b), b[max(b)]
        while rem and max(rem) >= db:
            dr = max(rem)
            c = rem[dr] / lb
            for e, d in b.items():
                s = rem.get(dr - db + e, 0) - c * d
                if s:
                    rem[dr - db + e] = s
                else:
                    rem.pop(dr - db + e, None)
        a, b = b, rem
    if not a:
        return {}
    lc = a[max(a)]
    return {k: c / lc for k, c in a.items()}


def assert_canonical_coeffs(p):
    for c in p.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), p


BIG = 10 ** 30

integer = st.integers(-BIG, BIG).filter(bool)
small = st.integers(-9, 9).filter(bool)
rational = st.builds(Fraction, st.integers(-BIG, BIG),
                     st.integers(1, 10 ** 6)).filter(bool)
coeff = st.one_of(small, integer, rational)


def polys(coeffs, max_deg=6):
    return st.dictionaries(st.integers(0, max_deg), coeffs, max_size=5)


def nonconstant(coeffs):
    return polys(coeffs, 4).filter(lambda p: p and max(p) > 0)


@settings(max_examples=300, deadline=None)
@given(polys(coeff), polys(coeff))
def test_pgcd_matches_reference_euclid(f, g):
    assert pgcd(f, g) == ref_gcd(f, g)


@settings(max_examples=300, deadline=None)
@given(polys(coeff), polys(coeff), nonconstant(st.one_of(small, integer)))
def test_pgcd_recovers_planted_factor(a, b, c):
    f, g = pmul(a, c), pmul(b, c)
    got = pgcd(f, g)
    assert got == ref_gcd(f, g)
    if f and g:
        # the monic image of the planted factor divides the gcd
        assert not scalars.pdivmod(got, pgcd(c, c))[1]


@settings(max_examples=200, deadline=None)
@given(polys(st.one_of(small, rational)), polys(st.one_of(small, rational)),
       nonconstant(st.one_of(small, rational)))
def test_pgcd_rational_non_monic_inputs(a, b, c):
    f, g = pmul(a, c), pmul(b, c)
    got = pgcd(f, g)
    assert got == ref_gcd(f, g)
    assert_canonical_coeffs(got)


@pytest.mark.parametrize("f, g", [
    ({1: 2, 0: -2}, {2: 2, 0: -2}),
    ({3: 3, 2: 3, 1: -3, 0: -3}, {2: 3, 0: -3}),
    ({3: 3, 2: -6}, {2: 1, 1: -2}),
    ({3: 1, 2: -1, 1: -2}, {3: 3, 1: -9, 0: -6}),
])
def test_pgcd_where_a_low_evaluation_point_misleads(f, g):
    # below the bound 2*min(|f|, |g|) + 2 these pairs give a candidate that
    # divides both inputs yet is a proper divisor of the gcd
    assert pgcd(f, g) == ref_gcd(f, g)
    assert max(pgcd(f, g)) > 0


def test_pgcd_forced_fallback_gives_same_gcd(monkeypatch):
    cases = [
        ({2: 1, 0: -1}, {1: 1, 0: -1}),
        (pmul({1: 3, 0: 2}, {2: 5, 0: -7}), pmul({1: 3, 0: 2}, {3: 1, 0: 1})),
        (pmul({1: Fraction(1, 2), 0: 3}, {2: BIG, 1: 1}),
         pmul({1: Fraction(1, 2), 0: 3}, {1: -BIG, 0: 11})),
        ({3: 2, 1: 4}, {5: 6, 0: 3}),
    ]
    heuristic = [pgcd(f, g) for f, g in cases]
    monkeypatch.setattr(scalars, "_heugcd", lambda a, b: None)
    fallback = [pgcd(f, g) for f, g in cases]
    assert fallback == heuristic == [ref_gcd(f, g) for f, g in cases]
    for g in fallback:
        assert_canonical_coeffs(g)


def test_qrat_integral_coefficients_are_ints():
    q = QRat.q_power(1)
    values = [qint(n) for n in range(-6, 7)]
    values += [qbinom(m, n) for m in range(7) for n in range(m + 1)]
    values += [a * b for a in values[:6] for b in values[-6:]]
    values += [a + b for a in values[:6] for b in values[-6:]]
    half = QRat(pconst(Fraction(1, 2)))
    values += [
        ONE, QRat(pmono(3, 2)), QRat(pconst(Fraction(4, 2))),
        (half * q + half) * QRat(pconst(2)),
        (q + ONE) / (QRat(pconst(2)) * q + QRat(pconst(2))),
        QRat({2: Fraction(3), 0: Fraction(-3)}, {1: Fraction(3), 0: 3}),
        QRat.from_int(1) / QRat.from_int(-1),
    ]
    for x in values:
        assert_canonical_coeffs(x.num)
        assert_canonical_coeffs(x.den)
    assert (half * q + half) * QRat(pconst(2)) == q + ONE
    assert QRat({2: Fraction(3), 0: Fraction(-3)},
                {1: Fraction(3), 0: 3}).num == {1: 1, 0: -1}


def test_malformed_cap_fails_at_use_not_import(child_env):
    env = dict(child_env, HOPFLAB_CAP="abc")
    script = (
        "import hopflab.cli\n"
        "from hopflab.bimodlab import LabConfig\n"
        "try:\n"
        "    LabConfig()\n"
        "except ValueError as exc:\n"
        "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "HOPFLAB_CAP" in proc.stdout and "'abc'" in proc.stdout


def test_default_config_reads_cap_at_use(monkeypatch):
    import hopflab.bimodlab as bimodlab
    monkeypatch.setenv("HOPFLAB_CAP", "37")
    assert bimodlab.DEFAULT_CONFIG.closure_cap == 37
    assert LabConfig().closure_cap == 37
    monkeypatch.setenv("HOPFLAB_CAP", "-4")
    with pytest.raises(ValueError, match="HOPFLAB_CAP"):
        bimodlab.DEFAULT_CONFIG
