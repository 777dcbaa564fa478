"""Command-line surface: grammar round-trips, golden outputs, exit codes."""
import json
import random
import subprocess
import sys

import pytest

from hopflab.cli import (PRESENTATIONS, UnknownSymbol, format_poly,
                         parse_expr, parse_scalar, run_command, scalar_text)
from hopflab.ncpoly import (AlphabetMismatch, HXC, UQSL2, nc_add_into,
                            random_normal_word)
from hopflab.scalars import ONE, QRat, qint
from hopflab.bimodlab import canonical


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- parsing --

def test_parse_golden_examples():
    v1 = canonical("v1")
    p = parse_expr("(q - q^-1) E K^-1 a c - c^2", "hxc")
    assert p == v1
    assert parse_expr("v3", "hxc") == {(0, 3): ONE}
    assert parse_expr("E F - F E - (K - K^-1)/(q - q^-1)", "uqsl2") == {}


def test_parse_sugar():
    q2 = QRat.q_power(2)
    comm = parse_expr("[v2, v3]_q^2", "hxc")
    by_hand = HXC.mul(canonical("v2"), canonical("v3"))
    nc_add_into(by_hand, HXC.mul(canonical("v3"), canonical("v2")), -q2)
    assert comm == by_hand
    assert parse_expr("[E, F]", "uqsl2") == parse_expr(
        "(K - K^-1)/(q - q^-1)", "uqsl2")
    assert parse_expr("EFac", "hxc") == parse_expr("E F a c", "hxc")
    assert parse_expr("K^-2", "uqsl2") == {(3, 3): ONE}
    assert parse_expr("K^0", "uqsl2") == {(): ONE}
    assert parse_expr("2^-3", "hxc") == {(): QRat.from_int(1)
                                         / QRat.from_int(8)}
    assert parse_expr("dotv21", "hxc") == canonical("vdot21")
    assert parse_expr("ddotv33", "hxc") == canonical("vddot33")


def test_parse_errors():
    with pytest.raises(SyntaxError) as exc:
        parse_expr("E +", "uqsl2")
    assert exc.value.offset == 3
    with pytest.raises(SyntaxError):
        parse_expr("(E", "uqsl2")
    with pytest.raises(SyntaxError):
        parse_expr("E^-1", "uqsl2")
    with pytest.raises(UnknownSymbol):
        parse_expr("v9", "hxc")
    with pytest.raises(UnknownSymbol):
        parse_expr("foo", "hxc")
    with pytest.raises(AlphabetMismatch):
        parse_expr("a", "uqsl2")
    with pytest.raises(AlphabetMismatch):
        parse_expr("v1", "uqsl2")
    with pytest.raises(SyntaxError):
        parse_expr("(E + F)^-1", "uqsl2")
    with pytest.raises(UnknownSymbol):
        parse_scalar("E")


def test_scalar_text_round_trip_signs():
    x = QRat.from_int(1) - QRat.q_power(2)
    t = scalar_text(x)
    assert parse_scalar(t) == x
    y = -(qint(3).inverse())
    assert parse_scalar(scalar_text(y)) == y


def _random_scalar(rng):
    x = QRat.from_int(rng.randint(1, 9))
    if rng.random() < 0.5:
        x = x * QRat.q_power(rng.randint(-4, 4))
    if rng.random() < 0.3:
        x = x / QRat.from_int(rng.randint(2, 7))
    if rng.random() < 0.3:
        x = x * (QRat.q_power(1) - QRat.q_power(-1)).inverse()
    if rng.random() < 0.25:
        x = x * qint(rng.randint(2, 4))
    if rng.random() < 0.5:
        x = -x
    return x


@pytest.mark.parametrize("algebra", sorted(PRESENTATIONS))
def test_parse_format_round_trip_500(algebra):
    pres = PRESENTATIONS[algebra]
    rng = random.Random(20260823 + len(algebra))
    for _ in range(500):
        poly = {}
        for _ in range(rng.randint(1, 4)):
            w = random_normal_word(pres, rng, max_len=5)
            c = _random_scalar(rng)
            s = poly.get(w, None)
            poly[w] = c if s is None else s + c
            if poly[w].is_zero():
                del poly[w]
        text = format_poly(poly)
        back = parse_expr(text, algebra)
        assert back == poly, (algebra, text)


# -- golden outputs (engine-generated, reviewed) --

def test_normalize_golden(capsys):
    code, out, _ = run(capsys, "normalize", "--algebra", "uqsl2", "F E")
    assert code == 0
    assert out.strip() == ("E F - (q - q^-1)^-1 K + (q - q^-1)^-1 K^-1")


def test_normalize_default_algebra(capsys):
    code, out, _ = run(capsys, "normalize", "v5")
    assert code == 0
    assert out.strip() == "K^-1 c^2"


def test_act_verbs(capsys):
    code, out, _ = run(capsys, "act-left", "E", "a c")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "act-right", "c^2", "F")
    assert code == 0
    assert out.strip() == "(1 - q^-2) F K c^2 + (q^2 + 1) K a c"


def test_weight_verb(capsys):
    code, out, _ = run(capsys, "weight", "v3")
    assert code == 0 and out.strip() == "left 0 right 2"
    code, out, _ = run(capsys, "weight", "v1 + v3")
    assert code == 1 and "inhomogeneous" in out


def test_hw_verb(capsys):
    code, out, _ = run(capsys, "hw", "v1 v3")
    assert code == 0 and "PASS" in out and "(2, 4)" in out
    code, out, _ = run(capsys, "hw", "b")
    assert code == 1 and "FAIL" in out


def test_closure_verb(capsys):
    code, out, _ = run(capsys, "closure", "--seed", "v3", "--side", "bi")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dimension 16"
    assert len(lines) == 17


def test_closure_cap_failure(capsys):
    code, _, err = run(capsys, "closure", "--seed", "v3", "--cap", "5")
    assert code == 1 and "cap" in err


def test_decompose_verb(capsys):
    code, out, _ = run(capsys, "decompose", "--module", "H11")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "4 simple left summands of H11 (dimension 16)"
    assert sum(1 for l in lines if "dimension 4" in l) == 4


def test_simple_verb(capsys):
    code, out, _ = run(capsys, "simple", "--module", "H20")
    assert code == 0 and "PASS simple" in out
    assert out.strip().endswith(
        "(specialization q = 37 in GF(2305843009213693951))")
    code, out, _ = run(capsys, "simple", "--seed", "v5", "--seed", "v6")
    assert code == 1 and "FAIL not simple" in out


def test_casimir_verb(capsys):
    code, out, _ = run(capsys, "casimir", "--module", "H11",
                       "--side", "right")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("multiplicity 12")
    assert lines[1].endswith("multiplicity 4")


def test_hilbert_verb(capsys):
    code, out, _ = run(capsys, "hilbert", "--max-degree", "4")
    assert code == 0
    assert out.splitlines()[0] == "PASS hilbert: 5 checks"


def test_identities_verb(capsys):
    code, out, _ = run(capsys, "identities")
    assert code == 0
    assert out.splitlines()[0] == "PASS identities:all: 44 checks"
    code, _, err = run(capsys, "identities", "--suite", "nope")
    assert code == 2


def test_lemmas_verb(capsys):
    code, out, _ = run(capsys, "lemmas", "--bound", "1")
    assert code == 0
    assert out.splitlines()[0].startswith("PASS action_lemmas:")


def test_peter_weyl_verb(capsys):
    code, out, _ = run(capsys, "peter-weyl", "--degree", "1")
    assert code == 0 and out.splitlines()[0].startswith("PASS peter_weyl")
    code, _, err = run(capsys, "peter-weyl", "--degree", "3")
    assert code == 2


def test_pairing_verb(capsys):
    for c, h, want in (("a", "K", "q"), ("d", "K", "q^-1"),
                       ("b", "E", "1"), ("c", "F", "1"),
                       ("a", "1", "1"), ("b", "K", "0")):
        code, out, _ = run(capsys, "pairing", c, h)
        assert code == 0 and out.strip() == want, (c, h, out)


def test_tables_verb(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("PASS action tables: 128 entries, 0 mismatches")
    assert "5 suspected misprints" in first
    assert sum(1 for l in out.splitlines() if l.startswith("  suspect")) == 5


def test_characters_verb(capsys):
    code, out, _ = run(capsys, "characters")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "PASS one-dimensional modules: 2"
    assert len(lines) == 3


def test_records_format(capsys):
    code, out, _ = run(capsys, "hilbert", "--max-degree", "2",
                       "--format", "records")
    assert code == 0
    rows = [json.loads(l) for l in out.strip().splitlines()]
    assert rows[-1]["suite"] == "hilbert" and rows[-1]["passed"] is True
    assert all(r["passed"] for r in rows[:-1])
    code, out, _ = run(capsys, "tables", "--format", "records")
    assert code == 0
    rows = [json.loads(l) for l in out.strip().splitlines()]
    assert rows[-1]["rows"] == 128


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "normalize", "E +")[0] == 2
    assert run(capsys, "normalize", "--algebra", "uqsl2", "a")[0] == 2
    assert run(capsys, "closure")[0] == 2
    assert run(capsys, "casimir", "--module", "H11", "--seed", "v3")[0] == 2


def test_console_entry_subprocess(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "hopflab.cli", "normalize",
         "--algebra", "uqsl2", "F E"],
        env=child_env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == (
        "E F - (q - q^-1)^-1 K + (q - q^-1)^-1 K^-1")
