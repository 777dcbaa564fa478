"""Command-line surface: expression grammar, canonical text rendering, and
one verb per engine operation.

Expressions are read as tokens: an integer, a name (a letter followed by
letters and digits), or any other single non-space character.  Whitespace
only separates tokens, so it may stand between any two of them ("q ^ - 2"
is q^-2) and never changes a value; "EF" is one name, a bare run of
letters, worth the same as "E F".  Over tokens the grammar is

    expr   := ["-"] term {("+" | "-") term}
    term   := factor {["*"] factor | "/" factor}
    factor := integer [power] | "q" [power] | letter [power] | run
            | vector [power] | "(" expr ")" [power]
            | "[" expr "," expr "]" ["_" factor]
    power  := "^" ["-"] integer

where a letter is one of E F K a b c d, a run is a name made only of
letters, and a vector is a named canonical vector (dotv.. and ddotv..
alias vdot.. and vddot..).  Juxtaposed factors multiply; [x, y]_w is
xy - w yx (w = 1 without "_").  A divisor and a commutator weight must be
scalar.  Negative powers are allowed on K (giving K^-1) and on scalars.
All output produced by format_poly parses back to the same normal form.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

from .scalars import (DivisionByZero, ONE, QQ, QRat, RangeError, ZERO,
                      padd, pmul, qrat_text)
from .ncpoly import (A, AlphabetMismatch, B, C, CQSL2, D, DOUBLE, E, F, HXC,
                     K, KI, LETTER_NAMES, UQSL2, nc_add_into, word_key)
from . import hopf
from .bimodlab import vectors as _vectors
from .bimodlab import core as _core
from .bimodlab import suites as _suites


class UnknownSymbol(ValueError):
    pass


PRESENTATIONS = {
    "uqsl2": UQSL2,
    "cqsl2": CQSL2,
    "hxc": HXC,
    "double": DOUBLE,
}

_LETTER_OF = {"E": E, "F": F, "K": K, "a": A, "b": B, "c": C, "d": D}


# -- canonical text rendering --

def _print_key(w):
    """Printing order: longer words first, then the rewriting order's
    finer grades ascending — matches how the normal forms are usually
    written out."""
    return (-len(w),) + word_key(w)[1:]


def _qq_text(c):
    return str(c)


def _laurent_text(lp):
    """Exponent-descending text of a Laurent polynomial {exp: QQ}; products
    are juxtaposed so the result parses back under the grammar."""
    parts = []
    for k in sorted(lp, reverse=True):
        c = lp[k]
        neg = c < 0
        ac = -c if neg else c
        if k == 0:
            body = _qq_text(ac)
        else:
            var = "q" if k == 1 else "q^%d" % k
            body = var if ac == 1 else "%s %s" % (_qq_text(ac), var)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def _shift(lp, m):
    return {e - m: c for e, c in lp.items()}


def _scalar_factors(x, grouped):
    """Positive scalar as a list of juxtaposable factor strings.  When
    grouped is set (a word follows), compound sums are parenthesized."""
    num, den = x.num, x.den
    if len(den) == 1:
        (k, dc), = den.items()
        assert dc == 1
        lp = _shift(num, k)
        text = _laurent_text(lp)
        if grouped and len(lp) > 1:
            text = "(" + text + ")"
        return [text]
    m = (min(den) + max(den)) // 2
    dl = _shift(den, m)
    nl = _shift(num, m)
    out = []
    if nl != {0: QQ(1)}:
        text = _laurent_text(nl)
        if len(nl) > 1:
            text = "(" + text + ")"
        out.append(text)
    out.append("(" + _laurent_text(dl) + ")^-1")
    return out


def scalar_text(x):
    """Signed canonical text of a scalar, parseable by parse_expr."""
    if x.is_zero():
        return "0"
    neg = plc_sign(x) < 0
    mag = -x if neg else x
    body = " ".join(_scalar_factors(mag, grouped=neg))
    return "-" + body if neg else body


def plc_sign(x):
    """Sign of the leading numerator coefficient (denominator is monic)."""
    lead = x.num[max(x.num)]
    return -1 if lead < 0 else 1


def word_text(w):
    """Run-length letter text: (E, E, KI) -> "E^2 K^-1"."""
    if not w:
        return "1"
    runs = []
    for g in w:
        if runs and runs[-1][0] == g:
            runs[-1][1] += 1
        else:
            runs.append([g, 1])
    parts = []
    for g, n in runs:
        if g == KI:
            parts.append("K^-%d" % n)
        elif n == 1:
            parts.append(LETTER_NAMES[g])
        else:
            parts.append("%s^%d" % (LETTER_NAMES[g], n))
    return " ".join(parts)


def format_poly(p):
    """Canonical text of a normal-form polynomial; parse_expr inverts it."""
    if not p:
        return "0"
    pieces = []
    for w in sorted(p, key=_print_key):
        c = p[w]
        neg = plc_sign(c) < 0
        mag = -c if neg else c
        if not w:
            factors = _scalar_factors(mag, grouped=neg)
        elif mag == ONE:
            factors = [word_text(w)]
        else:
            factors = _scalar_factors(mag, grouped=True) + [word_text(w)]
        body = " ".join(factors)
        if not pieces:
            pieces.append("-" + body if neg else body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


# -- tokenised recursive-descent parser --

# an ASCII integer, a name (a letter, then letters and digits), or any other
# single non-space character; whitespace only separates tokens
_TOKEN = re.compile(r"[0-9]+|[^\W\d_][^\W_]*|\S")


def _is_int(tok):
    """True for an integer token: ASCII digits only, since str.isdigit
    also accepts digits like '²' that int() rejects."""
    return tok.isascii() and tok.isdigit()


_UNIT = {0: 1}  # the Laurent polynomial 1; the parser mutates no dict


def _named_poly(name):
    base = name
    if name.startswith("dotv"):
        base = "vdot" + name[4:]
    elif name.startswith("ddotv"):
        base = "vddot" + name[5:]
    if base in _vectors.vector_names():
        return _vectors.canonical(base)
    return None


def _lmul(a, b):
    """Product of Laurent polynomials {exp: coefficient} (exponents of any
    sign); multiplying by 1 is free."""
    if b == _UNIT:
        return a
    if a == _UNIT:
        return b
    return pmul(a, b)


def _lpow(a, n):
    acc = _UNIT
    for _ in range(n):
        acc = _lmul(acc, a)
    return acc


def _qrat(num, den):
    """The QRat of the Laurent fraction num/den (den nonzero): one
    constructor call, so at most one gcd."""
    if not num:
        return ZERO
    m = min(min(num), min(den))
    if m < 0:
        num, den = _shift(num, m), _shift(den, m)
    return QRat(num, den)


class _Parser:
    """Recursive descent over the token list of the text.

    A parsed value is a pair (kind, payload).  A scalar ("s", (num, den))
    is an unreduced fraction of Laurent polynomials: it becomes a QRat
    only where it meets a word, or at the end.  A polynomial ("p", p) is a
    normal-form dict {word: QRat}.  A factor may also be a run of letters
    ("w", word).

    A term is built as scalar x word x compound factors.  Integers, q
    powers and scalar subexpressions multiply into one Laurent fraction.
    Consecutive letters join one word, whose normal form is taken once:
    nf(w1) nf(w2) = nf(w1 w2).  A junction that is itself a redex closes
    the word first, so non-normal input is rewritten piece by piece as the
    factors were written.  Only parenthesised non-scalars, named vectors
    and commutators go through pres.mul.  The scalar terms of a sum are
    added as fractions.  So each term, and each run of scalar terms,
    costs one QRat.
    """

    def __init__(self, text, pres):
        self.text = text
        self.pres = pres
        self.toks = _TOKEN.findall(text) + [""]  # "" marks the end
        self.i = 0

    def offset(self, at):
        """Character offset of token number at, or the text's length for
        the end; computed only for error messages."""
        for k, m in enumerate(_TOKEN.finditer(self.text)):
            if k == at:
                return m.start()
        return len(self.text)

    def error(self, msg, at=None):
        pos = self.offset(self.i if at is None else at)
        err = SyntaxError("%s at position %d: %r" % (msg, pos, self.text))
        err.offset = pos
        raise err

    def peek(self):
        return self.toks[self.i]

    def take(self, tok):
        if self.toks[self.i] == tok:
            self.i += 1
            return True
        return False

    def expect(self, tok):
        if not self.take(tok):
            self.error("expected %r" % tok)

    def _power_suffix(self):
        if not self.take("^"):
            return 1
        neg = self.take("-")
        tok = self.peek()
        if not _is_int(tok):
            self.error("expected digits")
        self.i += 1
        n = int(tok)
        return -n if neg else n

    def _scalar_of(self, kind, val):
        """The value as a Laurent fraction, or None if it is not scalar."""
        if kind == "s":
            return val
        if kind == "w":
            val = self.pres.nf_word(val)
        if set(val) <= {()}:
            c = val.get((), ZERO)
            return c.num, c.den
        return None

    @staticmethod
    def _poly_of(kind, val):
        if kind == "p":
            return val
        c = _qrat(*val)
        return {(): c} if c else {}

    def _close(self, acc, word):
        """acc (None for 1) times the normal form of word."""
        if not word:
            return acc
        p = self.pres.nf_word(word)
        return p if acc is None else self.pres.mul(acc, p)

    def _raise(self, kind, val, n, at):
        s = self._scalar_of(kind, val)
        if s is None:
            if n < 0:
                self.error("negative power of a non-scalar", at)
            return "p", self.pres.power(val, n)
        num, den = s
        if n < 0:
            if not num:
                self.error("inverse of zero", at)
            num, den, n = den, num, -n
        return "s", (_lpow(num, n), _lpow(den, n))

    def parse(self):
        p = self._poly_of(*self.expr())
        if self.peek():
            self.error("unexpected trailing input")
        return p

    def expr(self):
        neg = self.take("-")
        acc = {}
        snum, sden = {}, _UNIT
        while True:
            kind, val = self.term(neg)
            if kind == "p":
                nc_add_into(acc, val)
            else:
                num, den = val
                if not snum:
                    snum, sden = num, den
                elif den == sden:
                    snum = padd(snum, num)
                elif num:
                    snum = padd(_lmul(snum, den), _lmul(num, sden))
                    sden = _lmul(sden, den)
            tok = self.peek()
            if tok != "+" and tok != "-":
                break
            self.i += 1
            neg = tok == "-"
        if not acc:
            return "s", (snum, sden)
        if snum:
            nc_add_into(acc, {(): _qrat(snum, sden)})
        return "p", acc

    def term(self, neg):
        num, den = ({0: -1} if neg else _UNIT), _UNIT
        acc = None  # the product of the closed words and compound factors
        word = ()   # the letters since
        kind, val = self.factor()
        while True:
            if not num:
                pass  # a zero term multiplies nothing more
            elif kind == "w":
                if word and val and (word[-1], val[0]) in self.pres.rules:
                    acc, word = self._close(acc, word), ()
                word += val
            else:
                s = self._scalar_of(kind, val)
                if s is not None:
                    num, den = _lmul(num, s[0]), _lmul(den, s[1])
                else:
                    acc = self._close(acc, word)
                    acc = val if acc is None else self.pres.mul(acc, val)
                    word = ()
            while self.peek() == "/":
                at = self.i
                self.i += 1
                s = self._scalar_of(*self.factor())
                if s is None:
                    self.error("division by a non-scalar", at)
                if not s[0]:
                    raise DivisionByZero(
                        "division by zero at position %d" % self.offset(at))
                num, den = _lmul(num, s[1]), _lmul(den, s[0])
            tok = self.peek()
            if tok == "*":
                self.i += 1
            elif not (tok[:1].isalnum() or tok == "(" or tok == "["):
                break
            kind, val = self.factor()
        if not num or acc is None and not word:
            return "s", (num, den)
        acc = self._close(acc, word)
        c = _qrat(num, den)
        if c.is_one():
            return "p", acc
        return "p", {w: v * c for w, v in acc.items()}

    def factor(self):
        at = self.i
        tok = self.peek()
        if tok == "(":
            self.i += 1
            kind, val = self.expr()
            self.expect(")")
            n = self._power_suffix()
            return (kind, val) if n == 1 else self._raise(kind, val, n, at)
        if tok == "[":
            return "p", self.commutator()
        if _is_int(tok):
            self.i += 1
            n = int(tok)
            e = self._power_suffix()
            if e >= 0:
                n **= e
                return "s", ({0: n} if n else {}, _UNIT)
            if not n:
                self.error("inverse of zero", at)
            return "s", (_UNIT, {0: n ** -e})
        if tok[:1].isalpha():
            self.i += 1
            if tok == "q":
                return "s", ({self._power_suffix(): 1}, _UNIT)
            if tok in _LETTER_OF:
                return "w", self.letter_power(_LETTER_OF[tok], at)
            p = _named_poly(tok)
            if p is not None:
                n = self._power_suffix()
                for w in p:
                    self.pres.check_word(w)
                return ("p", p) if n == 1 else self._raise("p", p, n, at)
            if all(c in _LETTER_OF for c in tok):
                # bare letter run like "EFac"
                word = tuple(_LETTER_OF[c] for c in tok)
                self.pres.check_word(word)
                return "w", word
            raise UnknownSymbol(
                "unknown symbol %r at position %d" % (tok, self.offset(at)))
        self.error("expected a factor")

    def letter_power(self, g, at):
        n = self._power_suffix()
        if n == 0:
            return ()
        if n < 0:
            if g != K:
                self.error("negative power of a non-invertible letter", at)
            g, n = KI, -n
        self.pres.check_word((g,))
        return (g,) * n

    def commutator(self):
        self.expect("[")
        x = self._poly_of(*self.expr())
        self.expect(",")
        y = self._poly_of(*self.expr())
        self.expect("]")
        wgt = ONE
        if self.take("_"):
            at = self.i
            s = self._scalar_of(*self.factor())
            if s is None:
                self.error("commutator weight must be scalar", at)
            wgt = _qrat(*s)
        acc = self.pres.mul(x, y)
        nc_add_into(acc, self.pres.mul(y, x), -wgt)
        return acc


def parse_expr(text, algebra="hxc"):
    """Parse under the named presentation and return the normal form."""
    if algebra not in PRESENTATIONS:
        raise UnknownSymbol("unknown algebra %r" % algebra)
    return _Parser(text, PRESENTATIONS[algebra]).parse()


def parse_scalar(text):
    """Parse a scalar expression to a QRat."""
    p = parse_expr(text, "hxc")
    if set(p) <= {()}:
        return p.get((), ZERO)
    raise UnknownSymbol("expected a scalar expression: %r" % text)


# -- report rendering --

def _records_of(report):
    for r in report.records:
        yield {"name": r.name, "params": list(r.params),
               "passed": r.passed, "witness": r.witness}


def _emit_suite(report, fmt):
    ok = report.passed
    if fmt == "records":
        for rec in _records_of(report):
            print(json.dumps(rec, sort_keys=True))
        print(json.dumps({"suite": report.suite, "checks": report.total,
                          "passed": ok}, sort_keys=True))
    else:
        print("%s %s: %d checks" % ("PASS" if ok else "FAIL",
                                    report.suite, report.total))
        for line in report.lines():
            print("  " + line)
    return 0 if ok else 1


def _emit_table_report(rep, fmt):
    ok = rep.passed
    if fmt == "records":
        for r in rep.rows:
            print(json.dumps({
                "entry": r.label(), "match": r.match, "suspect": r.suspect,
                "claimed": format_poly(r.claimed),
                "derived": format_poly(r.derived),
                "presumed_match": r.presumed_match, "note": r.note,
            }, sort_keys=True))
        print(json.dumps({"suite": "action_tables", "rows": len(rep.rows),
                          "passed": ok}, sort_keys=True))
        return 0 if ok else 1
    print("%s action tables: %d entries, %d mismatches, %d suspected "
          "misprints" % ("PASS" if ok else "FAIL", len(rep.rows),
                         len(rep.mismatches), len(rep.suspects)))
    for r in rep.mismatches:
        print("  MISMATCH %s: printed %s, engine derives %s"
              % (r.label(), format_poly(r.claimed), format_poly(r.derived)))
    for r in rep.suspects:
        print("  suspect %s: printed %s, engine derives %s (%s; presumed "
              "intended entry %s)"
              % (r.label(), format_poly(r.claimed), format_poly(r.derived),
                 r.note, "matches" if r.presumed_match else "DIFFERS"))
    return 0 if ok else 1


# -- module selection shared by several verbs --

def _add_module_args(sub):
    sub.add_argument("--module", choices=("H00", "H11", "H20", "H02", "H22"),
                     help="one of the shipped reference closures")
    sub.add_argument("--seed", action="append", default=None,
                     help="seed expression (repeatable)")
    sub.add_argument("--side", choices=("left", "right", "bi"), default="bi")
    sub.add_argument("--cap", type=int, default=None,
                     help="closure dimension cap")


def _resolve_module(args):
    if args.module and args.seed:
        raise UnknownSymbol("give either --module or --seed, not both")
    if args.module:
        if args.side != "bi":
            cfg = _config_of(args)
            return _core.closure([_core.standard_seed(args.module)],
                                 side=args.side, config=cfg,
                                 name=args.module)
        return _core.standard_module(args.module)
    if not args.seed:
        raise UnknownSymbol("a module is required: --module or --seed")
    seeds = [parse_expr(s, "hxc") for s in args.seed]
    return _core.closure(seeds, side=args.side, config=_config_of(args))


def _config_of(args):
    cap = getattr(args, "cap", None)
    if cap is None:
        return _core.DEFAULT_CONFIG
    return _core.LabConfig(closure_cap=cap)


# -- verb handlers --

def _cmd_normalize(args):
    p = parse_expr(args.expr, args.algebra)
    print(format_poly(p))
    return 0


def _cmd_act(args, side):
    op = parse_expr(args.op, "double")
    v = parse_expr(args.vector, "hxc")
    if side == "left":
        out = hopf.act_left(op, v)
    else:
        out = hopf.act_right(v, op)
    print(format_poly(out))
    return 0


def _cmd_weight(args):
    v = parse_expr(args.expr, "hxc")
    wt = _core.weight_of(v)
    if wt is None:
        parts = _core.weight_components(v)
        print("FAIL inhomogeneous: %d weight components: %s"
              % (len(parts), ", ".join(
                  "(%d, %d)" % w for w in sorted(parts, reverse=True))))
        return 1
    print("left %d right %d" % (wt.left, wt.right))
    return 0


def _cmd_hw(args):
    v = parse_expr(args.expr, "hxc")
    if _core.is_hw_bivector(v):
        wt = _core.weight_of(v)
        tail = "" if wt is None else " of weight (%d, %d)" % (wt.left,
                                                             wt.right)
        print("PASS highest-weight bivector%s" % tail)
        return 0
    print("FAIL not a highest-weight bivector")
    return 1


def _cmd_closure(args):
    mod = _resolve_module(args)
    print("dimension %d" % mod.dim)
    for i, b in enumerate(mod.basis):
        wt = mod.weights[i]
        print("  [%d] (%d, %d)  %s" % (i, wt[0], wt[1], format_poly(b)))
    return 0


def _cmd_decompose(args):
    mod = _resolve_module(args)
    if mod.left is None:
        raise UnknownSymbol("decompose needs a left or bi closure")
    summands = _core.decompose_left(mod)
    print("%d simple left summands of %s (dimension %d)"
          % (len(summands), mod.name, mod.dim))
    for i, s in enumerate(summands):
        spectrum = _core.summand_spectrum(s)
        spectrum_text = ", ".join("%s x%d" % (scalar_text(ev), m)
                              for ev, m in spectrum)
        print("  [%d] dimension %d, highest weight %d, Casimir spectrum %s"
              % (i, len(s.basis), s.hw_exponent, spectrum_text))
        print("      seed %s" % format_poly(mod.to_poly(s.seed)))
    return 0


def _cmd_simple(args):
    mod = _resolve_module(args)
    verdict, certificate = _core._simplicity(mod, _config_of(args))
    if verdict is True:
        print("PASS simple: operator algebra reaches %d x %d (%s)"
              % (mod.dim, mod.dim, certificate))
        return 0
    if verdict is False:
        print("FAIL not simple: a proper invariant subspace exists")
        return 1
    print("INCONCLUSIVE within the word cap")
    return 1


def _cmd_casimir(args):
    which = "right" if args.side == "right" else "left"
    args.side = "bi"  # spectrum side is chosen above; closure is two-sided
    mod = _resolve_module(args)
    spectrum = _core.casimir_spectrum(mod, which)
    for ev, mult in spectrum:
        print("eigenvalue %s  multiplicity %d" % (scalar_text(ev), mult))
    return 0


def _cmd_hilbert(args):
    return _emit_suite(_suites.hilbert_check(args.max_degree), args.format)


def _cmd_identities(args):
    return _emit_suite(_suites.verify_identities(args.suite), args.format)


def _cmd_lemmas(args):
    b = args.bound
    return _emit_suite(_suites.verify_action_lemmas(b, b, b, b), args.format)


def _cmd_peter_weyl(args):
    return _emit_suite(_suites.peter_weyl_check(args.degree), args.format)


def _cmd_pairing(args):
    cp = parse_expr(args.function, "cqsl2")
    hp = parse_expr(args.enveloping, "uqsl2")
    print(scalar_text(hopf.pairing(cp, hp)))
    return 0


def _cmd_tables(args):
    return _emit_table_report(hopf.verify_action_tables(), args.format)


def _cmd_characters(args):
    chars = _core.one_dim_characters()
    ok = len(chars) == 2
    if args.format == "records":
        for chi in chars:
            print(json.dumps(
                {LETTER_NAMES[g]: scalar_text(c) for g, c in chi.items()},
                sort_keys=True))
        print(json.dumps({"suite": "characters", "count": len(chars),
                          "passed": ok}, sort_keys=True))
        return 0 if ok else 1
    print("%s one-dimensional modules: %d" % ("PASS" if ok else "FAIL",
                                              len(chars)))
    for chi in chars:
        body = ", ".join("%s = %s" % (LETTER_NAMES[g], scalar_text(chi[g]))
                         for g in sorted(chi))
        print("  " + body)
    return 0 if ok else 1


def _cmd_save(args):
    from . import store
    mod = _resolve_module(args)
    try:
        store.save_module(mod, args.out)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print("saved %s: dimension %d, side %s -> %s"
          % (mod.name, mod.dim, mod.side, args.out))
    return 0


def _cmd_load(args):
    from . import store
    try:
        mod = store.load_module(args.path)
    except store.CorruptArchive as exc:
        print("FAIL corrupt archive: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print("loaded %s: dimension %d, side %s, revalidated"
          % (mod.name, mod.dim, mod.side))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hopflab",
        description="Exact computations in the Drinfeld double of quantum "
        "sl2 acting on its tensor bimodule.")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("normalize", help="normal form of an expression")
    p.add_argument("--algebra", choices=sorted(PRESENTATIONS),
                   default="hxc")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("act-left", help="left action of the double")
    p.add_argument("op")
    p.add_argument("vector")
    p.set_defaults(fn=lambda a: _cmd_act(a, "left"))

    p = sub.add_parser("act-right", help="right action of the double")
    p.add_argument("vector")
    p.add_argument("op")
    p.set_defaults(fn=lambda a: _cmd_act(a, "right"))

    p = sub.add_parser("weight", help="two-sided weight of an element")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_weight)

    p = sub.add_parser("hw", help="test for a highest-weight bivector")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_hw)

    p = sub.add_parser("closure", help="invariant closure of seeds")
    _add_module_args(p)
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("decompose", help="simple left summands")
    _add_module_args(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("simple", help="simplicity certificate")
    _add_module_args(p)
    p.set_defaults(fn=_cmd_simple)

    p = sub.add_parser("casimir", help="Casimir spectrum on a closure")
    _add_module_args(p)
    p.set_defaults(fn=_cmd_casimir)

    p = sub.add_parser("hilbert", help="graded counts of the "
                       "highest-weight monomial basis")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(fn=_cmd_hilbert)

    p = sub.add_parser("identities", help="verify the identity catalogue")
    p.add_argument("--suite", default="all")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(fn=_cmd_identities)

    p = sub.add_parser("lemmas", help="verify the closed-form action "
                       "lemmas up to an exponent bound")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(fn=_cmd_lemmas)

    p = sub.add_parser("peter-weyl", help="product-span decomposition at "
                       "a given degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(fn=_cmd_peter_weyl)

    p = sub.add_parser("pairing", help="Hopf pairing of a function-algebra "
                       "element with an enveloping element")
    p.add_argument("function")
    p.add_argument("enveloping")
    p.set_defaults(fn=_cmd_pairing)

    p = sub.add_parser("tables", help="audit the generator action tables")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("characters", help="one-dimensional modules")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(fn=_cmd_characters)

    p = sub.add_parser("save", help="archive a computed module")
    _add_module_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_save)

    p = sub.add_parser("load", help="load and revalidate an archive")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_load)

    return ap


def run_command(argv):
    """Dispatch one command; returns the exit code (0 pass, 1 verification
    failure, 2 usage or parse error)."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (SyntaxError, UnknownSymbol, AlphabetMismatch, RangeError,
            DivisionByZero, _suites.UnknownSuite,
            _suites.UnsupportedLetters) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except _core.LocalFinitenessExceeded as exc:
        print("FAIL closure cap: %s" % exc, file=sys.stderr)
        return 1
    except _core.DecompositionIncomplete as exc:
        print("FAIL decomposition: %s" % exc, file=sys.stderr)
        return 1
    except _core.ZeroVector as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
