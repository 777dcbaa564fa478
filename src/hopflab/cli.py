"""Command-line surface: expression grammar, canonical text rendering, and
one verb per engine operation.

The grammar is whitespace-insensitive.  Sums of terms; a term is a run of
juxtaposed factors, optionally divided by scalar factors; a factor is an
integer, the symbol q, a generator letter, a named canonical vector, a
parenthesized expression, or a q-commutator [x, y]_w — any of these with an
integer power.  Negative powers are allowed on K (giving K^-1) and on scalar
subexpressions.  All output produced by format_poly parses back to the same
normal form.
"""
from __future__ import annotations

import argparse
import json
import sys

from .scalars import (DivisionByZero, ONE, QQ, QRat, RangeError, ZERO,
                      qrat_text)
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


# -- recursive-descent parser --

def _named_poly(name):
    base = name
    if name.startswith("dotv"):
        base = "vdot" + name[4:]
    elif name.startswith("ddotv"):
        base = "vddot" + name[5:]
    if base in _vectors.vector_names():
        return _vectors.canonical(base)
    return None


class _Parser:
    def __init__(self, text, pres):
        self.text = text
        self.pres = pres
        self.pos = 0

    def error(self, msg, pos=None):
        pos = self.pos if pos is None else pos
        err = SyntaxError("%s at position %d: %r" % (msg, pos, self.text))
        err.offset = pos
        raise err

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.take(ch):
            self.error("expected %r" % ch)

    def _digits(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected digits")
        return int(self.text[start:self.pos])

    def _name(self):
        start = self.pos
        while (self.pos < len(self.text)
               and self.text[self.pos].isalnum()):
            self.pos += 1
        return self.text[start:self.pos], start

    def _power_suffix(self):
        if self.peek() != "^":
            return 1
        self.pos += 1
        self._skip()
        neg = self.take("-")
        n = self._digits()
        return -n if neg else n

    def _scale(self, p, c):
        return {w: cf * c for w, cf in p.items()} if not c.is_zero() else {}

    def _raise_poly(self, p, n, pos):
        if n >= 0:
            return self.pres.power(p, n)
        if set(p) <= {()}:
            c = p.get((), ZERO)
            if c.is_zero():
                self.error("inverse of zero", pos)
            return {(): c.inverse() ** (-n)}
        self.error("negative power of a non-scalar", pos)

    def parse(self):
        p = self.expr()
        self._skip()
        if self.pos < len(self.text):
            self.error("unexpected trailing input")
        return p

    def expr(self):
        neg = False
        if self.peek() == "-":
            self.pos += 1
            neg = True
        acc = dict(self.term())
        if neg:
            acc = self._scale(acc, -ONE)
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                nc_add_into(acc, self.term(), ONE)
            elif ch == "-":
                self.pos += 1
                nc_add_into(acc, self.term(), -ONE)
            else:
                return acc

    _FACTOR_START = "([" + "0123456789"

    def term(self):
        acc = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                acc = self.pres.mul(acc, self.factor())
            elif ch == "/":
                pos = self.pos
                self.pos += 1
                div = self.factor()
                if set(div) <= {()}:
                    c = div.get((), ZERO)
                    if c.is_zero():
                        raise DivisionByZero(
                            "division by zero at position %d" % pos)
                    acc = self._scale(acc, c.inverse())
                else:
                    self.error("division by a non-scalar", pos)
            elif ch and (ch.isalnum() or ch in self._FACTOR_START):
                acc = self.pres.mul(acc, self.factor())
            else:
                return acc

    def factor(self):
        ch = self.peek()
        pos = self.pos
        if ch == "(":
            self.pos += 1
            p = self.expr()
            self.expect(")")
            n = self._power_suffix()
            return self._raise_poly(p, n, pos) if n != 1 else p
        if ch == "[":
            return self.commutator()
        if ch.isdigit():
            n = self._digits()
            e = self._power_suffix()
            c = QRat.from_int(n)
            if e < 0:
                if c.is_zero():
                    self.error("inverse of zero", pos)
                c = c.inverse() ** (-e)
            else:
                c = c ** e
            return {(): c} if not c.is_zero() else {}
        if ch.isalpha():
            name, start = self._name()
            if name == "q":
                e = self._power_suffix()
                return {(): QRat.q_power(e)}
            if name in _LETTER_OF:
                return self.letter_power(_LETTER_OF[name], start)
            p = _named_poly(name)
            if p is not None:
                n = self._power_suffix()
                for w in p:
                    self.pres.check_word(w)
                p = dict(p)
                return self._raise_poly(p, n, start) if n != 1 else p
            if all(c in _LETTER_OF for c in name):
                # bare letter run like "EFac"
                word = tuple(_LETTER_OF[c] for c in name)
                for g in word:
                    self.pres.check_word((g,))
                return self.pres.normal_form({word: ONE})
            raise UnknownSymbol(
                "unknown symbol %r at position %d" % (name, start))
        self.error("expected a factor")

    def letter_power(self, g, pos):
        n = self._power_suffix()
        if n == 0:
            return {(): ONE}
        if n < 0:
            if g != K:
                self.error("negative power of a non-invertible letter", pos)
            g, n = KI, -n
        self.pres.check_word((g,))
        return self.pres.normal_form({(g,) * n: ONE})

    def commutator(self):
        pos = self.pos
        self.expect("[")
        x = self.expr()
        self.expect(",")
        y = self.expr()
        self.expect("]")
        wgt = ONE
        if self.peek() == "_":
            self.pos += 1
            wpos = self.pos
            p = self.factor()
            if set(p) <= {()}:
                wgt = p.get((), ZERO)
            else:
                self.error("commutator weight must be scalar", wpos)
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
