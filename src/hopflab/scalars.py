"""Exact arithmetic in the field Q(q) of rational functions in one variable q.

Everything downstream (noncommutative rewriting, action matrices, echelon
forms) runs over these scalars, so canonical form is the whole contract here:
two QRat instances are structurally equal iff they represent the same rational
function.  Numerator and denominator are polynomials in q with nonnegative
exponents and exact rational coefficients, kept coprime with monic
denominator.  Negative powers of q exist only as denominators: q^-3 is
QRat({0:1}, {3:1}).

Polynomials are plain dicts {exponent: coefficient} with no zero coefficients
and no zero-polynomial entries (the zero polynomial is the empty dict).
A coefficient is a plain int whenever it is integral and a Fraction only when
it is not; every QRat keeps that rule, so almost all arithmetic runs on ints.

The gcd behind the canonical form clears denominators and content, then runs
the heuristic GCDHEU (Char, Geddes & Gonnet, J. Symbolic Comput. 1989) on the
primitive integer images.  A heuristic candidate is accepted only after it
divides both inputs exactly over Z, which certifies it as the gcd (see
_heugcd); after a fixed number of evaluation points the Euclidean algorithm
over Q takes over, so the result is always exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# the exact rational type of non-integral coefficients
QQ = Fraction

# evaluation points GCDHEU tries before falling back to Euclid over Q
_HEU_POINTS = 6


class DivisionByZero(ZeroDivisionError):
    pass


class RangeError(ValueError):
    pass


class PoleAtPoint(ArithmeticError):
    pass


def _qq(c):
    """Exact rational c as an int when integral, else a Fraction."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _qdiv(a, b):
    """Exact quotient a / b of coefficients, an int when integral."""
    if type(a) is int and type(b) is int:
        quo, rem = divmod(a, b)
        return quo if not rem else Fraction(a, b)
    c = a / b
    return c.numerator if c.denominator == 1 else c


def _intify(f):
    """f with every integral coefficient as an int (f itself if it is)."""
    for c in f.values():
        if type(c) is not int:
            return {k: c.numerator if c.denominator == 1 else c
                    for k, c in f.items()}
    return f


# -- QPoly: sparse dict {exp: coefficient}, exps >= 0, no zero coefficients --

def pconst(c):
    c = _qq(c)
    return {0: c} if c else {}


def pmono(k, c=1):
    if k < 0:
        raise RangeError("QPoly exponents must be nonnegative")
    c = _qq(c)
    return {k: c} if c else {}


def padd(f, g):
    out = dict(f)
    for k, c in g.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def pneg(f):
    return {k: -c for k, c in f.items()}


def pmul(f, g):
    if not f or not g:
        return {}
    if len(f) == 1:
        (k, c), = f.items()
        return {k + j: c * d for j, d in g.items()}
    if len(g) == 1:
        (k, c), = g.items()
        return {k + j: c * d for j, d in f.items()}
    out = {}
    for k, c in f.items():
        for j, d in g.items():
            e = k + j
            s = out.get(e, 0) + c * d
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def pdeg(f):
    return max(f) if f else -1


def plc(f):
    return f[max(f)] if f else 0


def pshift(f, k):
    """Multiply by q^k; k may push exponents negative only if they stay >= 0."""
    out = {}
    for e, c in f.items():
        if e + k < 0:
            raise RangeError("negative exponent in QPoly")
        out[e + k] = c
    return out


def pdivmod(f, g):
    """Exact polynomial division over Q: returns (quo, rem)."""
    if not g:
        raise DivisionByZero("polynomial division by zero")
    quo = {}
    rem = dict(f)
    dg = pdeg(g)
    lg = plc(g)
    while rem and pdeg(rem) >= dg:
        dr = pdeg(rem)
        c = rem[dr] if lg == 1 else _qdiv(rem[dr], lg)
        quo[dr - dg] = c
        for e, d in g.items():
            k = dr - dg + e
            s = rem.get(k, 0) - c * d
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return quo, rem


def pgcd(f, g):
    """Monic gcd over Q: certified GCDHEU, Euclid over Q as the fallback."""
    a = _heugcd(_primitive(f), _primitive(g)) if f and g else None
    if a is None:
        a, b = f, g
        while b:
            a, b = b, pdivmod(a, b)[1]
        if not a:
            return {}
    lc = plc(a)
    if lc == 1:
        return _intify(a)
    return {k: _qdiv(c, lc) for k, c in a.items()}


# -- the heuristic gcd on primitive integer polynomials --

def _primitive(f):
    """The primitive integer polynomial that is a rational multiple of f."""
    for c in f.values():
        if type(c) is not int:
            den = lcm(*[c.denominator for c in f.values()])
            f = {k: c.numerator * (den // c.denominator)
                 for k, c in f.items()}
            break
    cont = gcd(*f.values())
    if cont != 1:
        f = {k: c // cont for k, c in f.items()}
    return f


def _zeval(f, xi):
    return sum(c * xi ** k for k, c in f.items())


def _genpoly(gamma, xi):
    """The polynomial h with h(xi) = gamma and coefficients in the
    symmetric range (-xi/2, xi/2]: the xi-adic digits of gamma."""
    h = {}
    half = xi // 2
    k = 0
    while gamma:
        r = gamma % xi
        if r > half:
            r -= xi
        if r:
            h[k] = r
        gamma = (gamma - r) // xi
        k += 1
    return h


def _zdivides(h, f):
    """True iff the integer polynomial h divides f exactly over Z."""
    rem = dict(f)
    dh = max(h)
    lh = h[dh]
    while rem:
        dr = max(rem)
        if dr < dh:
            return False
        c, r = divmod(rem[dr], lh)
        if r:
            return False
        for e, d in h.items():
            k = dr - dh + e
            s = rem.get(k, 0) - c * d
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return True


def _heugcd(a, b):
    """gcd of primitive integer polynomials a, b (up to sign), or None.

    Candidate: h = pp(genpoly(gcd(a(xi), b(xi)), xi)).  Certificate
    (Geddes, Czapor & Labahn, Algorithms for Computer Algebra, Thm 7.7):
    with xi >= 2*min(|a|_inf, |b|_inf) + 2, if h divides both a and b
    exactly then h = +-gcd(a, b).  Sketch: h | a, b gives gcd(a, b) = h*k
    with k in Z[q], and gcd(a, b)(xi) | gamma = c*h(xi), where c is the
    content of genpoly(gamma), so k(xi) | c.  Every root r of k is a
    common root of a and b, so |r| < 1 + min(|a|_inf, |b|_inf) <= xi/2
    (Cauchy), and a nonconstant k has |k(xi)| > (xi/2)^deg(k) >= xi/2;
    but 1 <= c <= xi/2, since c divides digits bounded by xi/2.  So k is
    a constant, and a unit because gcd(a, b) is primitive.  A constant
    candidate divides everything, so it certifies gcd 1 at once.  A
    candidate that fails the division is discarded; xi then grows (the
    bound still holds), and after _HEU_POINTS points the caller falls back
    to Euclid over Q.
    """
    if len(a) == 1 and 0 in a or len(b) == 1 and 0 in b:
        return {0: 1}
    dmin = min(max(a), max(b))
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    for _ in range(_HEU_POINTS):
        h = _genpoly(gcd(_zeval(a, xi), _zeval(b, xi)), xi)
        if max(h) == 0:
            return {0: 1}
        if max(h) <= dmin:
            h = _primitive(h)
            if _zdivides(h, a) and _zdivides(h, b):
                return h
        xi = xi * 73794 // 27011
    return None


def pvaluation(f):
    """Largest k with q^k dividing f (0 for f == 0)."""
    return min(f) if f else 0


def peval(f, q0):
    q0 = Fraction(q0)
    return sum((c * q0 ** k for k, c in f.items()), Fraction(0))


def ptext(f):
    """Canonical text, exponent-descending: q^3 + 2*q - 3/2."""
    if not f:
        return "0"
    parts = []
    for k in sorted(f, reverse=True):
        c = f[k]
        neg = c < 0
        ac = -c if neg else c
        if k == 0:
            body = str(ac)
        else:
            var = "q" if k == 1 else "q^%d" % k
            body = var if ac == 1 else "%s*%s" % (ac, var)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


class QRat:
    """Canonical ratio of q-polynomials: coprime, monic denominator.

    Structural equality coincides with equality in Q(q); instances are
    immutable by convention (nothing mutates .num/.den after construction).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _raw=False):
        if den is None:
            den = {0: 1}
        if _raw:
            self.num = num
            self.den = den
            return
        if not den:
            raise DivisionByZero("zero denominator in QRat")
        if not num:
            self.num = {}
            self.den = {0: 1}
            return
        # cancel common q-power cheaply, then full gcd
        v = min(pvaluation(num), pvaluation(den))
        if v:
            num = pshift(num, -v)
            den = pshift(den, -v)
        if len(den) == 1 or len(num) == 1:
            # after the q-power cancellation a monomial side forces gcd 1
            g = None
        else:
            g = pgcd(num, den)
        if g and pdeg(g) > 0:
            num = pdivmod(num, g)[0]
            den = pdivmod(den, g)[0]
        # monic denominator, and integral coefficients as ints
        lc = plc(den)
        if lc != 1:
            num = {k: _qdiv(c, lc) for k, c in num.items()}
            den = {k: _qdiv(c, lc) for k, c in den.items()}
        else:
            num, den = _intify(num), _intify(den)
        self.num = num
        self.den = den

    # -- constructors --

    @staticmethod
    def from_int(n):
        return QRat(pconst(n))

    @staticmethod
    def q_power(k):
        """q^k for any integer k, negative powers via the denominator."""
        if k >= 0:
            return QRat(pmono(k), None, _raw=True)
        return QRat({0: 1}, pmono(-k), _raw=True)

    # -- predicates --

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == {0: 1} and self.den == {0: 1}

    def as_q_power(self):
        """Return k if self == q^k exactly, else None."""
        if len(self.num) != 1 or len(self.den) != 1:
            return None
        (kn, cn), = self.num.items()
        (kd, cd), = self.den.items()
        if cn != 1 or cd != 1:
            return None
        return kn - kd

    # -- arithmetic --

    def __add__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            return QRat(padd(self.num, other.num), self.den)
        num = padd(pmul(self.num, other.den), pmul(other.num, self.den))
        return QRat(num, pmul(self.den, other.den))

    def __neg__(self):
        return QRat(pneg(self.num), self.den, _raw=True)

    def __sub__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        return QRat(pmul(self.num, other.num), pmul(self.den, other.den))

    def inverse(self):
        if not self.num:
            raise DivisionByZero("inverse of zero in Q(q)")
        return QRat(dict(self.den), dict(self.num))

    def __truediv__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        acc = ONE
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(sorted(self.num.items())),
                     tuple(sorted(self.den.items()))))

    def __repr__(self):
        return "QRat(%s)" % qrat_text(self)

    def __bool__(self):
        return bool(self.num)


ZERO = QRat({}, None, _raw=True)
ONE = QRat({0: 1}, None, _raw=True)


def qrat_text(x):
    """Canonical text: num, or (num)/(den) with parens on compound parts."""
    nt = ptext(x.num)
    if x.den == {0: 1}:
        return nt
    dt = ptext(x.den)
    if len(x.num) > 1:
        nt = "(" + nt + ")"
    if len(x.den) > 1:
        dt = "(" + dt + ")"
    return nt + "/" + dt


def qint(n):
    """Balanced q-integer [n] = (q^n - q^-n)/(q - q^-1); [0]=0, [-n]=-[n]."""
    if n == 0:
        return ZERO
    if n < 0:
        return -qint(-n)
    # [n] = q^{n-1} + q^{n-3} + ... + q^{1-n}: clear to polynomial over q^{n-1}
    num = {2 * i: 1 for i in range(n)}
    return QRat(num, pmono(n - 1))


def qfact(n):
    if n < 0:
        raise RangeError("q-factorial needs n >= 0")
    acc = ONE
    for i in range(1, n + 1):
        acc = acc * qint(i)
    return acc


def qbinom(m, n):
    """Balanced q-binomial [m choose n] via the q-factorial formula."""
    if n < 0 or m < 0 or n > m:
        raise RangeError("qbinom needs 0 <= n <= m")
    return qfact(m) / (qfact(n) * qfact(m - n))


def qrat_eval(x, q0):
    """Evaluate at a rational point q0; exact Fraction out.

    Raises PoleAtPoint when the canonical denominator vanishes at q0.
    Equality claims are always certified structurally; the one-sided
    full-rank certificate evaluates at a point of GF(p) with qrat_mod.
    """
    q0 = Fraction(q0)
    dv = peval(x.den, q0)
    if dv == 0:
        raise PoleAtPoint("denominator vanishes at q = %s" % q0)
    return peval(x.num, q0) / dv


def _pmod(f, p, q0):
    acc = 0
    for k, c in f.items():
        if type(c) is not int:
            if c.denominator % p == 0:
                raise PoleAtPoint("coefficient %s has no value mod %d"
                                  % (c, p))
            c = c.numerator * pow(c.denominator, -1, p)
        acc += c * pow(q0, k, p)
    return acc % p


def qrat_mod(x, p, q0):
    """The image of x under q -> q0 in GF(p), p prime, as an int in [0, p).

    Evaluation is a ring map from the local ring of ratios f/g, with f, g
    in Z_(p)[q] and g(q0) a unit mod p, onto GF(p).  When x's canonical
    form shows it lies in that ring (no coefficient denominator divisible
    by p, denominator nonzero at q0 mod p) the image is returned, so it
    commutes with sums and products; otherwise PoleAtPoint is raised.
    """
    dv = _pmod(x.den, p, q0)
    if dv == 0:
        raise PoleAtPoint("denominator vanishes at q = %d mod %d" % (q0, p))
    return _pmod(x.num, p, q0) * pow(dv, -1, p) % p
