"""The one-point certificate behind matrix_span: full rank of the operator
span at q = q0 in GF(p) decides a full span; everything else falls back to
the exact search over Q(q), so results never differ from the exact path."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopflab.scalars import (
    ONE, PoleAtPoint, QRat, pconst, qrat_eval, qrat_mod,
)
from hopflab.bimodlab import LabConfig, canonical, closure, standard_module
from hopflab.bimodlab import core
from hopflab.bimodlab.core import (
    CERT_EXACT, CERT_POINT, SPAN_POINT, SPAN_PRIME, matrix_span,
)
from hopflab.bimodlab.linalg import EchelonModP

P, Q0 = SPAN_PRIME, SPAN_POINT


_exact = core._exact_span


def _mats(mod):
    return core._action_matrices(mod)


@pytest.mark.parametrize("name", ["H00", "H11", "H20", "H02"])
def test_full_spans_match_exact_and_use_the_point(name):
    mod = standard_module(name)
    span = matrix_span(_mats(mod), mod.dim, 8)
    assert span == _exact(_mats(mod), mod.dim, 8) == (mod.dim ** 2, False)
    # a 1-dimensional module is spanned by the identity alone, before any
    # word is searched, so only the exact path can report it
    assert span.certificate == (CERT_POINT if mod.dim > 1 else CERT_EXACT)


def test_short_spans_match_exact():
    pair = closure([canonical("v5"), canonical("v6")], name="pair")
    span = matrix_span(_mats(pair), pair.dim, 8)
    assert span == _exact(_mats(pair), pair.dim, 8)
    assert span[0] < pair.dim ** 2 and span.certificate == CERT_EXACT
    h11 = standard_module("H11")
    span = matrix_span(_mats(h11), h11.dim, 1)
    assert span == _exact(_mats(h11), h11.dim, 1)
    assert span[1] and span.certificate == CERT_EXACT


def _pair(x):
    """The generators e12 and x e21 of 2 x 2 matrices over Q(q), as sparse
    columns."""
    return [[{}, {0: ONE}], [{1: x}, {}]]


def test_rank_drop_at_the_point_falls_back_to_exact():
    # e12 and (q - q0) e21 generate all 2 x 2 matrices over Q(q), but the
    # second vanishes at q0, where only the upper triangle is reached
    drop = QRat.q_power(1) - QRat(pconst(Q0))
    mats = _pair(drop)
    assert qrat_mod(drop, P, Q0) == 0
    assert not core._full_at_point(mats, 2, 8)
    span = matrix_span(mats, 2, 8)
    assert span == (4, False) and span.certificate == CERT_EXACT


@pytest.mark.parametrize("pole", [
    (QRat.q_power(1) - QRat(pconst(Q0))).inverse(),
    QRat(pconst(Fraction(1, P))),
])
def test_pole_at_the_point_falls_back_without_raising(pole):
    with pytest.raises(PoleAtPoint):
        qrat_mod(pole, P, Q0)
    span = matrix_span(_pair(pole), 2, 8)
    assert span == (4, False) and span.certificate == CERT_EXACT
    # a pole in a short span falls back too, and reports the exact span
    span = matrix_span([[{0: pole}, {1: ONE}]], 2, 8)
    assert span == (2, False) and span.certificate == CERT_EXACT


def test_decompose_and_simplicity_unchanged_on_h11():
    mod = standard_module("H11")
    assert core._simplicity(mod, LabConfig()) == (True, CERT_POINT)
    summands = core.decompose_left(mod)
    assert [s.dim for s in summands] == [4, 4, 4, 4]


_coeff = st.one_of(st.integers(-50, 50),
                   st.fractions(min_value=-20, max_value=20,
                                max_denominator=12))
_poly = st.dictionaries(st.integers(0, 5), _coeff, max_size=4)


@st.composite
def _qrats(draw):
    num = {k: Fraction(c) for k, c in draw(_poly).items() if c}
    den = {k: Fraction(c) for k, c in draw(_poly).items() if c}
    return QRat(num, den or {0: 1})


def _mod_value(fr, p):
    return fr.numerator * pow(fr.denominator, -1, p) % p


@settings(max_examples=200, deadline=None)
@given(_qrats(), _qrats(), st.sampled_from([(P, Q0), (101, 3), (7, 2)]))
def test_qrat_mod_is_a_ring_map(a, b, point):
    p, q0 = point
    try:
        ma, mb = qrat_mod(a, p, q0), qrat_mod(b, p, q0)
        msum, mprod = qrat_mod(a + b, p, q0), qrat_mod(a * b, p, q0)
    except PoleAtPoint:
        assume(False)
    assert 0 <= ma < p
    assert msum == (ma + mb) % p
    assert mprod == ma * mb % p
    try:
        exact = qrat_eval(a, q0)
    except PoleAtPoint:
        return
    if exact.denominator % p:
        assert ma == _mod_value(exact, p)


def test_point_is_a_primitive_root():
    # no q-integer and no cyclotomic factor of order < p - 1 vanishes at a
    # primitive root; p - 1 = 2 * 3^2 * 5^2 * 7 * 11 * 13 * 31 * 41 * 61
    # * 151 * 331 * 1321
    primes = (2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321)
    rest = P - 1
    for r in primes:
        while rest % r == 0:
            rest //= r
    assert rest == 1
    assert all(pow(Q0, (P - 1) // r, P) != 1 for r in primes)


def test_non_simple_verdict_skips_the_exact_search(monkeypatch):
    pair = closure([canonical("v5"), canonical("v6")], name="pair")
    assert pair.dim == 18

    def no_exact(*args):
        raise AssertionError("exact span search ran")
    monkeypatch.setattr(core, "_exact_span", no_exact)
    assert core.is_simple(pair, LabConfig()) is False
    assert core._simplicity(pair, LabConfig()) == (False, None)


def _rank_mod(vecs, p, width):
    rows = [[v.get(j, 0) % p for j in range(width)] for v in vecs]
    rank = 0
    for col in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 9), st.integers(1, 6),
                                max_size=5), max_size=12))
def test_modp_echelon_rank_and_column_index(vecs):
    p = 7
    ech = EchelonModP(p)
    for i, v in enumerate(vecs):
        grew = ech.insert(v)
        assert grew == (_rank_mod(vecs[:i + 1], p, 10)
                        > _rank_mod(vecs[:i], p, 10))
        holders = {}
        for piv, row in ech.rows.items():
            assert not row.keys() & ech.rows.keys()
            for k in row:
                holders.setdefault(k, set()).add(piv)
        assert {k: s for k, s in ech._holders.items() if s} == holders
