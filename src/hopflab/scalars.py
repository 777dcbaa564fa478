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

Products take a ladder of exact fast paths before the constructor, ordered
by what the action engine computes (its structure constants are all
+-q^k):

    ONE                  x * ONE is x, ONE * x is x
    monomial * monomial  c*q^i * d*q^j = (c*d)*q^(i+j), by coefficient and
                         exponent arithmetic (_monomial)
    monomial * anything  a shift and a scaling of the other operand
                         (_times_unit); a factor +-q^k returns the operand
                         itself or shifts or negates it

A monomial is c*q^k, c != 0 (one-term numerator and denominator): a unit
of the Laurent ring Q[q, q^-1].  Each rung states next to its code why its
result is already canonical; the three invariants it rests on are a monic
q^b denominator, coprimality decided by the q-adic valuation alone, and
ints for integral coefficients.  The signed powers +-q^k with
|k| <= INTERN_BOUND are interned (_monomial): q_power, negation and
monomial products hand out one shared instance per value, and ONE is the
interned q^0.  Instances are never mutated, so sharing them and their
num/den dicts is safe.

A sum goes to the constructor over a common denominator: the shared one,
or q^max(a, b) for q^a and q^b, else the product.  The constructor reduces
a ratio with a one-term denominator d*q^b (a Laurent value, the kind most
products and sums of the engine give) by one q-valuation shift and a
division by d: q is prime, so no gcd is needed.
Only a denominator of two or more terms reaches the gcd, which clears
denominators and content, then runs the heuristic GCDHEU (Char, Geddes &
Gonnet, J. Symbolic Comput. 1989) on the primitive integer images.  A
heuristic candidate is accepted only after it divides both inputs exactly
over Z, which certifies it as the gcd (see _heugcd), and those certificate
divisions also give the cofactors the constructor divides out; after a
fixed number of evaluation points the Euclidean algorithm over Q takes
over, so the result is always exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# the exact rational type of non-integral coefficients
QQ = Fraction

# evaluation points GCDHEU tries before falling back to Euclid over Q
_HEU_POINTS = 6

# the signed powers +-q^k with |k| <= INTERN_BOUND are interned; the table
# holds at most 2 * (2 * INTERN_BOUND + 1) instances, filled as values are
# first used, so importing builds none of them
INTERN_BOUND = 1024


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
    """(gcd, f / gcd, g / gcd) with the monic gcd over Q (the zero
    polynomial, and f, g themselves, when both are zero): certified GCDHEU,
    Euclid over Q as the fallback.

    The heuristic's certificate divisions a = h*qa, b = h*qb of the
    primitive images a = r*f, b = s*g give the quotients without dividing
    again: f / gcd is the rational multiple of qa with f's leading
    coefficient (both sides have degree deg f - deg gcd and differ by a
    constant).  The Euclidean fallback divides with pdivmod.
    """
    res = _heugcd(_primitive(f), _primitive(g)) if f and g else None
    if res is None:
        a, b = f, g
        while b:
            a, b = b, pdivmod(a, b)[1]
        if not a:
            return {}, f, g
        lc = plc(a)
        if lc != 1:
            a = {k: _qdiv(c, lc) for k, c in a.items()}
        else:
            a = _intify(a)
        return a, pdivmod(f, a)[0], pdivmod(g, a)[0]
    h, qa, qb = res
    if max(h) == 0:
        return {0: 1}, f, g
    lc = plc(h)
    a = h if lc == 1 else {k: _qdiv(c, lc) for k, c in h.items()}
    return a, _rescaled(qa, plc(f)), _rescaled(qb, plc(g))


def _rescaled(f, lead):
    """The rational multiple of the integer polynomial f whose leading
    coefficient is lead."""
    lf = plc(f)
    if lf == lead:
        return f
    return {k: _qdiv(c * lead, lf) for k, c in f.items()}


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
    """f / h if the integer polynomial h divides f exactly over Z, else
    None."""
    rem = dict(f)
    quo = {}
    dh = max(h)
    lh = h[dh]
    while rem:
        dr = max(rem)
        if dr < dh:
            return None
        c, r = divmod(rem[dr], lh)
        if r:
            return None
        quo[dr - dh] = c
        for e, d in h.items():
            k = dr - dh + e
            s = rem.get(k, 0) - c * d
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return quo


def _heugcd(a, b):
    """(h, a / h, b / h) with h the gcd of the primitive integer polynomials
    a, b (up to sign), or None.

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
    candidate divides everything, so it certifies gcd 1 at once (with a, b
    as their own cofactors).  The two certificate divisions are exact, so
    their quotients are the cofactors.  A candidate that fails a division
    is discarded; xi then grows (the bound still holds), and after
    _HEU_POINTS points the caller falls back to Euclid over Q.
    """
    one = {0: 1}
    if len(a) == 1 and 0 in a or len(b) == 1 and 0 in b:
        return one, a, b
    dmin = min(max(a), max(b))
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    for _ in range(_HEU_POINTS):
        h = _genpoly(gcd(_zeval(a, xi), _zeval(b, xi)), xi)
        if max(h) == 0:
            return one, a, b
        if max(h) <= dmin:
            h = _primitive(h)
            qa = _zdivides(h, a)
            if qa is not None:
                qb = _zdivides(h, b)
                if qb is not None:
                    return h, qa, qb
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
    immutable by convention (nothing mutates .num/.den after construction),
    so values and their dicts are shared freely: x * ONE is x, and each
    signed power +-q^k with |k| <= INTERN_BOUND is one interned instance.
    Products take the exact fast paths of the module docstring before the
    constructor; the constructor needs no gcd for a one-term denominator,
    and otherwise divides out the cofactors the gcd's own certificate
    divisions give.
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
        if len(den) == 1:
            # den = d*q^b, and q is prime in Q[q]: the only common factor
            # of num and den is q^m, m = min(v(num), b), so dividing both by
            # d*q^m leaves them coprime with den monic, and no gcd is needed
            (b, d), = den.items()
            m = min(min(num), b)
            if d != 1:
                num = {k - m: _qdiv(c, d) for k, c in num.items()}
            else:
                num = _intify({k - m: c for k, c in num.items()} if m
                              else num)
            if m or d != 1 or type(d) is not int:
                den = {b - m: 1}
            self.num = num
            self.den = den
            return
        # cancel common q-power cheaply, then full gcd
        v = min(pvaluation(num), pvaluation(den))
        if v:
            num = pshift(num, -v)
            den = pshift(den, -v)
        # after the q-power cancellation a monomial numerator forces gcd 1
        if len(num) > 1:
            g, qn, qd = pgcd(num, den)
            if pdeg(g) > 0:
                num, den = qn, qd
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
        """q^k for any integer k, negative powers via the denominator;
        interned for |k| <= INTERN_BOUND."""
        return _monomial(1, k)

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
        num, onum = self.num, other.num
        if not num:
            return other
        if not onum:
            return self
        den, oden = self.den, other.den
        if den == oden:
            return QRat(padd(num, onum), den)
        if len(den) == 1 and len(oden) == 1:
            # over q^a and q^b the common denominator is q^max(a, b): the
            # numerator over the lower power is shifted up to it
            (a, _), = den.items()
            (b, _), = oden.items()
            if a < b:
                num, onum, den, a, b = onum, num, oden, b, a
            return QRat(padd(num, {e + a - b: c for e, c in onum.items()}),
                        den)
        return QRat(padd(pmul(num, oden), pmul(onum, den)), pmul(den, oden))

    def __neg__(self):
        num = self.num
        if len(num) == 1 and len(self.den) == 1:
            (a, c), = num.items()
            if c == 1 or c == -1:
                (b, _), = self.den.items()
                return _monomial(-c, a - b)
        return QRat(pneg(num), self.den, _raw=True)

    def __sub__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        if other is ONE:
            return self
        if self is ONE:
            return other
        num, onum = self.num, other.num
        if not num or not onum:
            return ZERO
        den, oden = self.den, other.den
        if len(num) == 1 and len(den) == 1:
            if len(onum) == 1 and len(oden) == 1:
                return _mono_times_mono(self, other)
            return _times_unit(other, self)
        if len(onum) == 1 and len(oden) == 1:
            return _times_unit(self, other)
        return QRat(pmul(num, onum), pmul(den, oden))

    def inverse(self):
        """den/num in canonical form, with no gcd.

        The canonical pair (num, den) is already coprime, so (den, num) is
        too: it only needs its new denominator num made monic.  Dividing
        both sides by lc(num) does that, and _qdiv keeps integral
        coefficients as ints; with lc(num) = 1 both sides are already
        canonical and are shared (instances are immutable).
        """
        if not self.num:
            raise DivisionByZero("inverse of zero in Q(q)")
        lc = plc(self.num)
        if lc == 1:
            return QRat(self.den, self.num, _raw=True)
        return QRat({k: _qdiv(c, lc) for k, c in self.den.items()},
                    {k: _qdiv(c, lc) for k, c in self.num.items()},
                    _raw=True)

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

# interned signed powers, by sign and then by exponent (_monomial)
_POWERS = {1: {0: ONE}, -1: {}}


def _monomial(c, k):
    """The canonical c*q^k for a nonzero coefficient c, which becomes an
    int when integral; for c = +-1 and |k| <= INTERN_BOUND the one
    interned instance."""
    if type(c) is not int and c.denominator == 1:
        c = c.numerator
    signed = c == 1 or c == -1
    if signed:
        u = _POWERS[c].get(k)
        if u is not None:
            return u
    if k >= 0:
        u = QRat({k: c}, None, _raw=True)
    else:
        u = QRat({0: c}, {-k: 1}, _raw=True)
    if signed and -INTERN_BOUND <= k <= INTERN_BOUND:
        _POWERS[c][k] = u
    return u


def _mono_times_mono(x, y):
    """x * y for monomials x = c*q^i, y = d*q^j: (c*d)*q^(i+j).

    A canonical one-term denominator is q^b (monic), so a monomial's value
    is c*q^(a-b); the product's canonical form is the one-term ratio of
    that value, which _monomial builds.  A product of two Fractions (or of
    a Fraction and an int) may be integral, and _monomial turns it into an
    int."""
    (a, c), = x.num.items()
    (b, _), = x.den.items()
    (a2, c2), = y.num.items()
    (b2, _), = y.den.items()
    return _monomial(c * c2, a - b + a2 - b2)


def _times_unit(x, u):
    """x * u for a monomial u = c*q^(a-b), a unit of Q[q, q^-1], and any
    nonzero x.

    Soundness: x.num and x.den are coprime, so the only common factor of
    c*q^a*x.num and q^b*x.den is q^m, m = min(a + v(x.num), b + v(x.den))
    with v the q-adic valuation; shifting both down by m leaves them
    coprime.  Shifting keeps the denominator monic and negating keeps every
    coefficient's type, so for c = +-1 the result is the canonical form the
    constructor would build from the pmul products, without pmul or the
    gcd, and for c = 1 with no shift it is x itself.  Any other c scales
    the numerator, whose integral products become ints."""
    (a, c), = u.num.items()
    (b, _), = u.den.items()
    num, den = x.num, x.den
    m = min(a + min(num), b + min(den))
    a -= m
    b -= m
    if c == 1:
        if not a and not b:
            return x
        if a:
            num = {e + a: d for e, d in num.items()}
    elif c == -1:
        num = {e + a: -d for e, d in num.items()}
    else:
        num = _intify({e + a: c * d for e, d in num.items()})
    if b:
        den = {e + b: d for e, d in den.items()}
    return QRat(num, den, _raw=True)


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
