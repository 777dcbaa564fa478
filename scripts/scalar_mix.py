#!/usr/bin/env python3
"""Operand-kind mix of QRat products and sums, and the scalar kernel's
fast-path hits, for suites and closures run in this process.

Each target runs in turn in one process, so the action and normal-form
memos carry over from one target to the next, as in a ``hopflab`` command:

    identities:all        suites.verify_identities("all")
    relations:N           suites.relation_annihilation_check(N)
    lemmas:A,B,C,D        suites.verify_action_lemmas(A, B, C, D)
    closure:LAM,MU        the two-sided closure of the label's seed

The benchmark's suites step is

    python3 scripts/scalar_mix.py identities:all relations:3 lemmas:2,2,2,1

An operand is ``ONE`` (the value 1), ``+-q^k`` (k != 0), ``q^b den`` (any
other value whose denominator is q^b, polynomials included) or
``general``.  The paths count each operation once, by the kernel's
fast-path helper that answered it (found by wrapping the helpers), else as
``zero`` or ``one`` (an operand is zero or the ONE instance), ``gcd`` (the
constructor called pgcd) or ``constructor`` (it did not).  The script wraps
QRat.__mul__, QRat.__add__ and pgcd in its own process and adds no hook to
the engine; a tree without some helper never reports its path.  It also
prints the size of the table of interned signed powers.
"""
import argparse
import os
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from hopflab import scalars  # noqa: E402
from hopflab.scalars import ONE, QRat  # noqa: E402

MUL_RUNGS = ("_mono_times_mono", "_times_unit")
KINDS = ("ONE", "+-q^k", "q^b den", "general")


def kind(x):
    num, den = x.num, x.den
    if len(den) != 1:
        return "general"
    if len(num) == 1:
        (c,) = num.values()
        if c == 1 or c == -1:
            return "ONE" if num == {0: 1} and den == {0: 1} else "+-q^k"
    return "q^b den"


def install(stats):
    """Wrap the operators and the fast-path helpers; return the undo.

    A helper that returns a value (not None) marks the operation as its
    hit; an operation no helper answered is "zero" or "one" when an
    operand is zero or the ONE instance, else "gcd" when the constructor
    called pgcd and "constructor" when it did not."""
    saved = []
    hit = [None]
    gcd = [False]

    def patch(owner, name, wrapper):
        orig = getattr(owner, name)
        saved.append((owner, name, orig))
        setattr(owner, name, wrapper(orig))

    def helper(name):
        def wrapper(fn):
            def call(*args):
                res = fn(*args)
                if res is not None:
                    hit[0] = name.lstrip("_")
                return res
            return call
        return wrapper

    def operator(op):
        pairs, rungs = stats[op], stats[op + " rungs"]

        def wrapper(fn):
            def call(a, b):
                if not isinstance(b, QRat):
                    return fn(a, b)
                pairs[tuple(sorted((kind(a), kind(b)),
                                   key=KINDS.index))] += 1
                outer, hit[0] = hit[0], None
                outer_gcd, gcd[0] = gcd[0], False
                try:
                    return fn(a, b)
                finally:
                    if hit[0] is not None:
                        rungs[hit[0]] += 1
                    elif not a.num or not b.num:
                        rungs["zero"] += 1
                    elif op == "mul" and (a is ONE or b is ONE):
                        rungs["one"] += 1
                    elif gcd[0]:
                        rungs["gcd"] += 1
                    else:
                        rungs["constructor"] += 1
                    hit[0], gcd[0] = outer, outer_gcd
            return call
        return wrapper

    patch(QRat, "__mul__", operator("mul"))
    patch(QRat, "__add__", operator("add"))
    for name in MUL_RUNGS:
        if hasattr(scalars, name):
            patch(scalars, name, helper(name))

    def gcd_marker(fn):
        def call(*args):
            gcd[0] = True
            return fn(*args)
        return call
    patch(scalars, "pgcd", gcd_marker)

    def undo():
        for owner, name, orig in reversed(saved):
            setattr(owner, name, orig)
    return undo


def run_target(spec):
    from hopflab.bimodlab import core, suites, vectors
    what, _, arg = spec.partition(":")
    if what == "identities":
        return suites.verify_identities(arg or "all").total
    if what == "relations":
        return suites.relation_annihilation_check(int(arg)).total
    if what == "lemmas":
        return suites.verify_action_lemmas(
            *[int(x) for x in arg.split(",")]).total
    if what == "closure":
        lam, mu = (int(x) for x in arg.split(","))
        return core.closure([vectors.h_lambda_mu_seed(lam, mu)], side="bi",
                            name="conj(%d,%d)" % (lam, mu)).dim
    raise ValueError("unknown target %r" % spec)


def report(stats):
    lines = []
    for op, sign in (("mul", " x "), ("add", " + ")):
        pairs = stats[op]
        total = sum(pairs.values())
        lines.append("%s: %d calls" % (op, total))
        for pair, n in sorted(pairs.items(), key=lambda kv: -kv[1]):
            lines.append("  %-20s %8d  %5.1f %%"
                         % (sign.join(pair), n, 100.0 * n / (total or 1)))
        lines.append("  paths: " + ", ".join(
            "%s %d" % kv for kv in sorted(stats[op + " rungs"].items(),
                                          key=lambda kv: -kv[1])))
    table = getattr(scalars, "_POWERS", None)
    lines.append("interned signed powers: %s" % (
        sum(len(t) for t in table.values()) if table is not None
        else "none (no intern table in this tree)"))
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("targets", nargs="+",
                    help="identities:all, relations:N, lemmas:A,B,C,D or "
                         "closure:LAM,MU")
    args = ap.parse_args()
    stats = {key: Counter()
             for key in ("mul", "mul rungs", "add", "add rungs")}
    undo = install(stats)
    try:
        for spec in args.targets:
            t0 = time.perf_counter()
            size = run_target(spec)
            print("%s: %d  [%.2fs with counting]"
                  % (spec, size, time.perf_counter() - t0))
    finally:
        undo()
    print(report(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
