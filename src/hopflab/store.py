"""Plain-text archives of computed modules.

Line-oriented format with explicit section markers; every scalar is written
in canonical rational-function text, so archives diff cleanly across engine
versions.  The final line carries a sha256 checksum of everything above it;
loading verifies the checksum, re-parses every polynomial and matrix entry,
and revalidates the action matrices against the engine before handing the
module back.  File-system failures surface as the usual OSError.
"""
from __future__ import annotations

import hashlib
import warnings

from . import __version__
from .scalars import QRat, pneg
from .ncpoly import K, KI, LETTER_NAMES, word_key
from .bimodlab.linalg import Echelon, frac_add_into, frac_is_zero
from .bimodlab.core import (
    FDBimodule, GENERATORS, Weight, action_image, weight_of,
)
from .cli import format_poly, parse_expr, parse_scalar, scalar_text

MAGIC = "hopflab module archive v1"


class CorruptArchive(ValueError):
    pass


class StaleEngineVersion(UserWarning):
    pass


def _matrix_lines(tag, mats):
    """Each matrix as its nonzero entries "i j value", in row-major order."""
    out = []
    for g in GENERATORS:
        out.append("matrix %s %s" % (tag, LETTER_NAMES[g]))
        m = mats[g]
        for i, j in sorted((i, j) for j, col in enumerate(m) for i in col):
            out.append("%d %d %s" % (i, j, scalar_text(m[j][i])))
        out.append("end matrix")
    return out


def _render(mod):
    lines = [
        MAGIC,
        "name %s" % mod.name,
        "side %s" % mod.side,
        "dimension %d" % mod.dim,
        "engine %s" % __version__,
        "begin basis",
    ]
    for i, b in enumerate(mod.basis):
        wt = mod.weights[i]
        lines.append("%d %d %s" % (wt[0], wt[1], format_poly(b)))
    lines.append("end basis")
    if mod.left is not None:
        lines.extend(_matrix_lines("left", mod.left))
    if mod.right is not None:
        lines.extend(_matrix_lines("right", mod.right))
    lines.append("end archive")
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + "checksum %s\n" % digest


def save_module(mod, path):
    """Write the canonical text archive; byte-identical for equal inputs."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_render(mod))


def _fail(msg):
    raise CorruptArchive(msg)


class _Reader:
    def __init__(self, lines):
        self.lines = lines
        self.at = 0

    def next(self):
        if self.at >= len(self.lines):
            _fail("truncated archive at line %d" % (self.at + 1))
        line = self.lines[self.at]
        self.at += 1
        return line

    def expect(self, text):
        line = self.next()
        if line != text:
            _fail("expected %r at line %d, found %r"
                  % (text, self.at, line))


def _parse_matrices(reader, tag, dim):
    """The matrices of one side as sparse columns.  Only what _matrix_lines
    writes is accepted: indices in [0, dim), entries strictly ascending in
    (i, j), and no zero value."""
    mats = {}
    for g in GENERATORS:
        reader.expect("matrix %s %s" % (tag, LETTER_NAMES[g]))
        m = [{} for _ in range(dim)]
        last = (-1, -1)
        while True:
            line = reader.next()
            if line == "end matrix":
                break
            try:
                stxt = line.split(" ", 2)
                i, j = int(stxt[0]), int(stxt[1])
                c = parse_scalar(stxt[2])
            except (ValueError, IndexError, SyntaxError) as exc:
                _fail("bad matrix entry at line %d: %s" % (reader.at, exc))
            if not (0 <= i < dim and 0 <= j < dim):
                _fail("matrix index out of range at line %d" % reader.at)
            if (i, j) <= last:
                _fail("matrix entries out of order at line %d" % reader.at)
            if not c:
                _fail("zero matrix entry at line %d" % reader.at)
            m[j][i] = c
            last = (i, j)
        mats[g] = m
    return mats


def load_module(path):
    """Read, checksum-verify, re-parse, and revalidate an archive."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    head, nl, tail = raw.rpartition("\n" + "checksum ")
    if not nl:
        _fail("missing checksum line")
    body = head + "\n"
    digest = tail.strip()
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != digest:
        _fail("checksum mismatch")
    reader = _Reader(body.splitlines())
    reader.expect(MAGIC)
    name = _field(reader, "name")
    side = _field(reader, "side")
    if side not in ("left", "right", "bi"):
        _fail("bad side %r" % side)
    try:
        dim = int(_field(reader, "dimension"))
    except ValueError:
        _fail("bad dimension")
    engine = _field(reader, "engine")
    if engine != __version__:
        warnings.warn(
            "archive written by engine %s, running %s"
            % (engine, __version__), StaleEngineVersion)
    reader.expect("begin basis")
    basis, weights = [], []
    for _ in range(dim):
        line = reader.next()
        parts = line.split(" ", 2)
        try:
            wt = Weight(int(parts[0]), int(parts[1]))
            poly = parse_expr(parts[2], "hxc")
        except (ValueError, IndexError, SyntaxError) as exc:
            _fail("bad basis line %d: %s" % (reader.at, exc))
        if not poly:
            _fail("zero basis vector at line %d" % reader.at)
        basis.append(poly)
        weights.append(wt)
    reader.expect("end basis")
    left = _parse_matrices(reader, "left", dim) if side in ("left", "bi") \
        else None
    right = _parse_matrices(reader, "right", dim) if side in ("right", "bi") \
        else None
    reader.expect("end archive")
    if reader.at != len(reader.lines):
        _fail("trailing content after end of archive")
    ech = Echelon(word_key)
    for b in basis:
        if not ech.insert(b):
            _fail("basis vectors are not linearly independent")
    mod = FDBimodule(name=name, side=side, basis=basis, weights=weights,
                     left=left, right=right, ech=ech)
    _revalidate(mod)
    return mod


def _field(reader, key):
    line = reader.next()
    prefix = key + " "
    if not line.startswith(prefix):
        _fail("expected %r field at line %d" % (key, reader.at))
    return line[len(prefix):]


def _revalidate(mod):
    """Re-check the closure invariant: every recorded matrix column equals
    the engine's action on the corresponding basis vector, and every basis
    vector is weight-homogeneous with the recorded weight.

    Column j of g's matrix M is checked by the membership certificate of
    Echelon.contains: act(g, b_j) - sum_i M_ij b_i is built on unreduced
    fractions and must have the zero polynomial as every numerator.

    The K and K^-1 matrices are checked in closed form, as closure() fills
    them.  Once b_j is known to have weight (w1, w2), K |> b_j = q^w1 b_j,
    K^-1 |> b_j = q^-w1 b_j, b_j <| K^-1 = q^w2 b_j and b_j <| K = q^-w2 b_j;
    the basis is independent, so the only correct column j is {j: q^(+-w)}.
    """
    for i, b in enumerate(mod.basis):
        if weight_of(b) != mod.weights[i]:
            _fail("basis vector %d does not have its recorded weight" % i)
    for tag, mats, pos, sign in (("left", mod.left, 0, 1),
                                 ("right", mod.right, 1, -1)):
        if mats is None:
            continue
        for g in GENERATORS:
            m = mats[g]
            for j, b in enumerate(mod.basis):
                if g == K or g == KI:
                    e = mod.weights[j][pos] * (sign if g == K else -sign)
                    ok = m[j] == {j: QRat.q_power(e)}
                else:
                    diff = action_image(g, b, tag == "left")
                    for i, c in m[j].items():
                        frac_add_into(diff, mod.basis[i],
                                      (pneg(c.num), c.den))
                    ok = all(frac_is_zero(x) for x in diff.values())
                if not ok:
                    _fail("%s action of %s fails revalidation on basis "
                          "vector %d" % (tag, LETTER_NAMES[g], j))
