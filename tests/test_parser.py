"""The expression parser against an independent reference evaluator, its
whitespace insensitivity, and its pinned error types and offsets.

The reference evaluates an expression tree factor by factor with QRat
arithmetic and Presentation.mul, the way the grammar defines it; the
parser builds each term in one pass and must agree on every tree.
"""
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopflab.cli import (PRESENTATIONS, UnknownSymbol, format_poly,
                         parse_expr, parse_scalar)
from hopflab.ncpoly import (A, AlphabetMismatch, B, C, D, E, F, K, KI,
                            nc_add_into, random_normal_word)
from hopflab.scalars import ONE, ZERO, DivisionByZero, QRat, qint
from hopflab.bimodlab import canonical

_LETTERS = {"E": E, "F": F, "K": K, "a": A, "b": B, "c": C, "d": D}
_ALPHABET = {
    "uqsl2": "EFK",
    "cqsl2": "abcd",
    "hxc": "EFKabcd",
    "double": "EFKabcd",
}
_NAMED = ("v1", "v3", "Delta", "dotv21", "v12")


# -- expression trees --
#
# ("int", n) | ("q", k) | ("letter", name, n) | ("run", names)
# | ("named", name) | ("paren", sum, n) | ("comm", x, y, weight or None)
# | ("term", [(op, factor), ...]) with op in "", "*", "/"
# | ("sum", [(sign, term), ...]) with sign in "+", "-"

def _scalar_factor(data, depth):
    kind = data.draw(st.sampled_from(
        ("int", "q", "paren") if depth < 2 else ("int", "q")))
    if kind == "int":
        return ("int", data.draw(st.integers(0, 12)))
    if kind == "q":
        return ("q", data.draw(st.integers(-4, 4)))
    return ("paren", _sum(data, None, depth + 1),
            data.draw(st.integers(-2, 2)))


def _factor(data, alg, depth):
    if alg is None:
        return _scalar_factor(data, depth)
    letters = _ALPHABET[alg]
    kinds = ["scalar", "letter", "letter", "run"]
    if alg in ("hxc", "double"):
        kinds.append("named")
    if depth < 1:
        kinds += ["paren", "comm"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "scalar":
        return _scalar_factor(data, depth)
    if kind == "letter":
        name = data.draw(st.sampled_from(letters))
        low = -2 if name == "K" else 0
        return ("letter", name, data.draw(st.integers(low, 2)))
    if kind == "run":
        return ("run", "".join(data.draw(
            st.lists(st.sampled_from(letters), min_size=1, max_size=3))))
    if kind == "named":
        return ("named", data.draw(st.sampled_from(_NAMED)))
    if kind == "paren":
        return ("paren", _sum(data, alg, depth + 1),
                data.draw(st.integers(0, 2)))
    weight = data.draw(st.one_of(st.none(), st.just(True)))
    return ("comm", _sum(data, alg, depth + 1), _sum(data, alg, depth + 1),
            weight and _scalar_factor(data, depth + 1))


def _term(data, alg, depth):
    parts = [("", _factor(data, alg, depth))]
    for _ in range(data.draw(st.integers(0, 2))):
        op = data.draw(st.sampled_from(("", "", "*", "/")))
        parts.append((op, _scalar_factor(data, depth) if op == "/"
                      else _factor(data, alg, depth)))
    return ("term", parts)


def _sum(data, alg, depth=0):
    terms = [(data.draw(st.sampled_from("+-")), _term(data, alg, depth))]
    for _ in range(data.draw(st.integers(0, 2))):
        terms.append((data.draw(st.sampled_from("+-")),
                      _term(data, alg, depth)))
    return ("sum", terms)


# -- the reference evaluator: one factor at a time, QRat and pres.mul --

def _scalar(p):
    assume(set(p) <= {()})
    return p.get((), ZERO)


def _evaluate(tree, pres):
    kind = tree[0]
    if kind == "int":
        return {(): QRat.from_int(tree[1])} if tree[1] else {}
    if kind == "q":
        return {(): QRat.q_power(tree[1])}
    if kind == "letter":
        g, n = _LETTERS[tree[1]], tree[2]
        if n < 0:
            g, n = KI, -n
        return pres.normal_form({(g,) * n: ONE})
    if kind == "run":
        return pres.normal_form({tuple(_LETTERS[x] for x in tree[1]): ONE})
    if kind == "named":
        name = tree[1]
        if name.startswith("dotv"):
            name = "vdot" + name[4:]
        return pres.normal_form(canonical(name))
    if kind == "paren":
        p, n = _evaluate(tree[1], pres), tree[2]
        if n >= 0:
            return pres.power(p, n)
        c = _scalar(p)
        assume(not c.is_zero())
        return {(): c.inverse() ** -n}
    if kind == "comm":
        x, y = _evaluate(tree[1], pres), _evaluate(tree[2], pres)
        w = ONE if tree[3] is None else _scalar(_evaluate(tree[3], pres))
        acc = pres.mul(x, y)
        nc_add_into(acc, pres.mul(y, x), -w)
        return acc
    if kind == "term":
        acc = {(): ONE}
        for op, f in tree[1]:
            p = _evaluate(f, pres)
            if op == "/":
                c = _scalar(p)
                assume(not c.is_zero())
                acc = {w: v * c.inverse() for w, v in acc.items()}
            else:
                acc = pres.mul(acc, p)
        return acc
    acc = {}
    for sign, t in tree[1]:
        nc_add_into(acc, _evaluate(t, pres), -ONE if sign == "-" else ONE)
    return acc


# -- rendering with random spacing --

def _render(tree, sp):
    kind = tree[0]
    if kind == "int":
        return str(tree[1])
    if kind == "q":
        return "q" + sp() + "^" + sp() + ("-" + sp() if tree[1] < 0 else "") \
            + str(abs(tree[1]))
    if kind == "letter":
        n = tree[2]
        return tree[1] + sp() + "^" + sp() + ("-" + sp() if n < 0 else "") \
            + str(abs(n))
    if kind in ("run", "named"):
        return tree[1]
    if kind == "paren":
        text = "(" + sp() + _render(tree[1], sp) + sp() + ")"
        if tree[2] != 1:
            text += sp() + "^" + sp() + ("-" + sp() if tree[2] < 0 else "") \
                + str(abs(tree[2]))
        return text
    if kind == "comm":
        text = "[" + sp() + _render(tree[1], sp) + sp() + "," + sp() \
            + _render(tree[2], sp) + sp() + "]"
        if tree[3] is not None:
            text += sp() + "_" + sp() + _render(tree[3], sp)
        return text
    if kind == "term":
        text = ""
        for op, f in tree[1]:
            if text:
                # juxtaposed factors need a space; "*" and "/" need none
                text += (" " + sp()) if not op else (sp() + op + sp())
            text += _render(f, sp)
        return text
    text = ""
    for i, (sign, t) in enumerate(tree[1]):
        if i == 0:
            text += ("-" + sp() if sign == "-" else "")
        else:
            text += sp() + sign + sp()
        text += _render(t, sp)
    return text


def _spacer(rng):
    return lambda: rng.choice(("", "", " ", "  ", "\t"))


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(sorted(PRESENTATIONS)), st.data(), st.randoms())
def test_parse_matches_the_reference_evaluator(alg, data, rng):
    tree = _sum(data, alg)
    pres = PRESENTATIONS[alg]
    want = _evaluate(tree, pres)
    text = _render(tree, _spacer(rng))
    assert parse_expr(text, alg) == want, text


@settings(max_examples=150, deadline=None)
@given(st.data(), st.randoms())
def test_parse_scalar_matches_the_reference_evaluator(data, rng):
    tree = _sum(data, None)
    want = _scalar(_evaluate(tree, PRESENTATIONS["hxc"]))
    got = parse_scalar(_render(tree, _spacer(rng)))
    assert got == want
    assert got.num == want.num and got.den == want.den


# -- whitespace --

_TOKEN = re.compile(r"\d+|\w+|\S")


def _respace(text, rng):
    """The tokens of text joined by one to three random blanks each."""
    return "".join(t + rng.choice((" ", "  ", " \t ")) for t in
                   _TOKEN.findall(text))


def _random_scalar(rng):
    x = QRat.from_int(rng.randint(1, 9)) * QRat.q_power(rng.randint(-4, 4))
    if rng.random() < 0.3:
        x = x / QRat.from_int(rng.randint(2, 7))
    if rng.random() < 0.3:
        x = x * (QRat.q_power(1) - QRat.q_power(-1)).inverse()
    if rng.random() < 0.25:
        x = x * qint(rng.randint(2, 4))
    return -x if rng.random() < 0.5 else x


@pytest.mark.parametrize("algebra", sorted(PRESENTATIONS))
def test_extra_spaces_between_tokens_leave_the_value(algebra):
    pres = PRESENTATIONS[algebra]
    rng = random.Random(907 + len(algebra))
    for _ in range(150):
        poly = {}
        for _ in range(rng.randint(1, 4)):
            w = random_normal_word(pres, rng, max_len=5)
            nc_add_into(poly, {w: _random_scalar(rng)})
        text = _respace(format_poly(poly), rng)
        assert parse_expr(text, algebra) == poly, text


def test_spaces_inside_a_power_suffix():
    assert parse_expr("q^- 2", "hxc") == parse_expr("q^-2", "hxc")
    assert parse_expr("K^- 1", "uqsl2") == parse_expr("K^-1", "uqsl2")
    assert parse_expr("( q + 1 ) ^ - 2", "hxc") == parse_expr(
        "(q+1)^-2", "hxc")
    assert parse_scalar("3 ^ - 2") == QRat.from_int(1) / QRat.from_int(9)


# -- pinned errors: type, offset and message, as the grammar gave them
#    before the tokenised rewrite --

ERRORS = [
    ("E +", "uqsl2", SyntaxError, 3, "expected a factor"),
    ("(E", "uqsl2", SyntaxError, 2, "expected ')'"),
    ("q^", "hxc", SyntaxError, 2, "expected digits"),
    ("2^-", "hxc", SyntaxError, 3, "expected digits"),
    ("E^-1", "uqsl2", SyntaxError, 0,
     "negative power of a non-invertible letter"),
    ("2/0", "hxc", DivisionByZero, 1, "division by zero"),
    ("3 / (E - E)", "uqsl2", DivisionByZero, 2, "division by zero"),
    ("foo", "hxc", UnknownSymbol, 0, "unknown symbol 'foo'"),
    ("(E + F)^-1", "uqsl2", SyntaxError, 0, "negative power of a non-scalar"),
    ("[E, F]_E", "uqsl2", SyntaxError, 7, "commutator weight must be scalar"),
    ("E / F", "uqsl2", SyntaxError, 2, "division by a non-scalar"),
    ("(q - q)^-2", "hxc", SyntaxError, 0, "inverse of zero"),
    ("EF^2", "uqsl2", SyntaxError, 2, "unexpected trailing input"),
    ("[E F]", "uqsl2", SyntaxError, 4, "expected ','"),
    ("E * ", "uqsl2", SyntaxError, 4, "expected a factor"),
]


@pytest.mark.parametrize("text, alg, exc, offset, msg", ERRORS)
def test_pinned_errors(text, alg, exc, offset, msg):
    with pytest.raises(exc) as info:
        parse_expr(text, alg)
    assert str(info.value).startswith("%s at position %d" % (msg, offset))
    if exc is SyntaxError:
        assert info.value.offset == offset
        assert str(info.value).endswith(": %r" % text)


def test_alphabet_errors_name_the_letter():
    with pytest.raises(AlphabetMismatch, match="letter a not in alphabet"):
        parse_expr("a", "uqsl2")
    with pytest.raises(AlphabetMismatch, match="letter K\\^-1 not in"):
        parse_expr("K^-1", "cqsl2")


def test_a_zero_factor_skips_the_rest_of_the_term(monkeypatch):
    # like 0 * x, a term with a zero scalar multiplies nothing more
    pres = PRESENTATIONS["double"]
    calls = []
    mul = type(pres).mul
    monkeypatch.setattr(type(pres), "mul",
                        lambda self, p, r: calls.append(1) or mul(self, p, r))
    assert parse_expr("E 0 (F^3 a + E)^2 [E, d] K", "double") == {}
    assert len(calls) == 2 + 2  # the power and the commutator themselves
