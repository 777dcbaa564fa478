"""Named canonical bivectors and the transcribed reference module data.

The six generators of the highest-weight bivector algebra, the Casimir, the
published 16-, 9- and 9-dimensional module bases with their generator
matrices, and the seed recipe for general weight pairs.  Matrix conventions
(checked in the tests against the engine):

  left:   g |> v[i][j] = sum_k  L[g](k, i) * v[k][j]    (fixed column j)
  right:  v[i][j] <| g = sum_k  R[g](k, j) * v[i][k]    (fixed row i)

so the left matrices act on the first index and the right matrices on the
second, exactly the two-sided matrix-unit picture.  M(k, i) is the entry in
row k and column i; a matrix is stored as its sparse columns (see linalg),
so M(k, i) is M[i].get(k, 0).
"""
from __future__ import annotations

from functools import lru_cache

from ..scalars import ONE
from ..ncpoly import A, B, C, D, E, F, HXC, K, KI, _q, nc_add_into


class ParityError(ValueError):
    pass


_lam = (_q(1) - _q(-1)).inverse()        # 1/(q - q^-1)
_lam2 = _lam * _lam


def _w(s):
    m = {"E": E, "F": F, "K": K, "I": KI,
         "a": A, "b": B, "c": C, "d": D}
    return tuple(m[ch] for ch in s)


def _poly(*terms):
    out = {}
    for coeff, word in terms:
        nc_add_into(out, {_w(word): ONE}, coeff)
    return HXC.normal_form(out)


def casimir():
    """The central element EF + (q^-1 K + q K^-1)/(q-q^-1)^2."""
    return _poly((ONE, "EF"), (_q(-1) * _lam2, "K"), (_q(1) * _lam2, "I"))


_s = _q(1) - _q(-1)                      # q - q^-1
_t = (_q(1) + _q(-1)) * _lam             # (q+q^-1)/(q-q^-1)


@lru_cache(maxsize=None)
def _build(name):
    if name == "Delta":
        return casimir()
    builders = {
        # the 16-dimensional module: two-sided closure of E K^-1
        "v11": lambda: _poly((ONE, "EI")),
        "v12": lambda: _poly((ONE, "I")),
        "v13": lambda: _poly((ONE, "F")),
        "v14": casimir,
        "v21": lambda: _poly((_s, "EIac"), (-ONE, "cc")),
        "v22": lambda: _poly((_s, "Iac")),
        "v23": lambda: _poly((_s, "Fac"), (ONE, "aa")),
        "v24": lambda: nc_add_into(nc_add_into(
            HXC.mul(casimir(), _poly((_s, "ac"))),
            _poly((-_t, "Kac"), (-_q(-2), "FKcc"))),
            _poly((ONE, "Eaa"))),
        "v31": lambda: _poly((-_s, "EIdb"), (_q(1), "dd")),
        "v32": lambda: _poly((-_s, "Idb")),
        "v33": lambda: _poly((-_s, "Fdb"), (-_q(1), "bb")),
        "v34": lambda: nc_add_into(nc_add_into(
            HXC.mul(casimir(), _poly((-_s, "db"))),
            _poly((_t, "Kdb"), (_q(-1), "FKdd"))),
            _poly((-_q(1), "Ebb"))),
        "v41": lambda: _poly((_s, "EIbc"), (-ONE, "dc")),
        "v42": lambda: _poly((_s, "Ibc")),
        "v43": lambda: _poly((_s, "Fbc"), (_q(1), "ab")),
        "v44": lambda: nc_add_into(nc_add_into(
            HXC.mul(casimir(), _poly((_s, "bc"))),
            _poly((-_t, "Kbc"), (-_q(-2), "FKdc"))),
            _poly((_q(1), "Eab"), (-_lam, "K"))),
        # the 9-dimensional module seeded by K^-1 c^2
        "vdot11": lambda: _poly((ONE, "Icc")),
        "vdot12": lambda: _poly((_s, "Fcc"), (_q(1), "ac")),
        "vdot13": lambda: _poly((_q(-3) * _s * _s, "FFKcc"),
                                (_q(-1) * (_q(2) - _q(-2)), "FKac"),
                                (ONE, "Kaa")),
        "vdot21": lambda: _poly((_q(-1), "Idc")),
        "vdot22": lambda: _poly((_q(-1) * _s, "Fdc"), (ONE, "bc"),
                                ((_q(1) + _q(-1)).inverse(), "")),
        "vdot23": lambda: _poly((_q(-4) * _s * _s, "FFKdc"),
                                (_q(-2) * (_q(2) - _q(-2)), "FKbc"),
                                (_q(-2) * _s, "FK"), (ONE, "Kab")),
        "vdot31": lambda: _poly((ONE, "Idd")),
        "vdot32": lambda: _poly((_s, "Fdd"), (ONE, "db")),
        "vdot33": lambda: _poly((_q(-3) * _s * _s, "FFKdd"),
                                (_q(-2) * (_q(2) - _q(-2)), "FKdb"),
                                (ONE, "Kbb")),
        # the mirror 9-dimensional module with E in place of F
        "vddot11": lambda: _poly((_q(-1) * _s * _s, "EEIaa"),
                                 (-_q(1) * (_q(2) - _q(-2)), "Eac"),
                                 (ONE, "Kcc")),
        "vddot12": lambda: _poly((-_s, "EIaa"), (_q(1), "ac")),
        "vddot13": lambda: _poly((ONE, "Iaa")),
        "vddot21": lambda: _poly((_q(-1) * _s * _s, "EEIab"),
                                 (-(_q(2) - _q(-2)), "Ebc"), (-_s, "E"),
                                 (_q(-1), "Kdc")),
        "vddot22": lambda: _poly((-_s, "EIab"), (ONE, "bc"),
                                 ((_q(1) + _q(-1)).inverse(), "")),
        "vddot23": lambda: _poly((ONE, "Iab")),
        "vddot31": lambda: _poly((_q(-1) * _s * _s, "EEIbb"),
                                 (-(_q(2) - _q(-2)), "Edb"), (ONE, "Kdd")),
        "vddot32": lambda: _poly((-_s, "EIbb"), (ONE, "db")),
        "vddot33": lambda: _poly((ONE, "Ibb")),
    }
    return builders[name]()


_ALIASES = {
    "v1": "v21", "v2": "v24", "v3": "v11",
    "v4": "v14", "v5": "vdot11", "v6": "vddot11",
}


def canonical(name):
    """Canonical bivector by name; returns a fresh NCPoly copy."""
    name = _ALIASES.get(name, name)
    return dict(_build(name))


def vector_names():
    names = ["Delta", "v1", "v2", "v3", "v4", "v5", "v6"]
    names += ["v%d%d" % (i, j) for i in range(1, 5) for j in range(1, 5)]
    names += ["vdot%d%d" % (i, j) for i in range(1, 4) for j in range(1, 4)]
    names += ["vddot%d%d" % (i, j) for i in range(1, 4) for j in range(1, 4)]
    return names


def h_lambda_mu_seed(lam, mu):
    """Seed bivector for the weight pair (lam, mu): a K power times a power
    of c (lam >= mu) or of b (lam < mu).  Requires lam = mu mod 2; the
    closures this seeds are conjectural beyond the shipped examples and are
    labeled that way wherever they surface."""
    if lam < 0 or mu < 0:
        raise ParityError("weights must be nonnegative")
    if (lam - mu) % 2:
        raise ParityError("weight pair (%d, %d) has odd difference" % (lam, mu))
    half = (lam + mu) // 2
    word = (KI,) * half
    word += (C,) * (lam - mu) if lam >= mu else (B,) * (mu - lam)
    return HXC.normal_form({word: ONE})


# -- transcribed generator matrices of the reference modules --

def _m(rows):
    """The sparse columns (see linalg) of a matrix transcribed row by row."""
    return [{i: r[j] for i, r in enumerate(rows) if r[j]}
            for j in range(len(rows))]


_z = ONE - ONE

H11_BASIS = [["v%d%d" % (i, j) for j in range(1, 5)] for i in range(1, 5)]

H11_LEFT = {
    E: _m([[_z, _z, _q(-1) - _q(1), _z],
           [_z, _z, _z, _q(1)],
           [_z, _z, _z, _z],
           [_z, _z, -_q(-1) - _q(1), _z]]),
    F: _m([[_z, ONE - _q(-2), _z, _z],
           [_z, _z, _z, _z],
           [_z, _z, _z, -ONE],
           [_z, ONE + _q(-2), _z, _z]]),
    K: _m([[ONE, _z, _z, _z],
           [_z, _q(2), _z, _z],
           [_z, _z, _q(-2), _z],
           [_z, _z, _z, ONE]]),
    KI: _m([[ONE, _z, _z, _z],
            [_z, _q(-2), _z, _z],
            [_z, _z, _q(2), _z],
            [_z, _z, _z, ONE]]),
    A: _m([[_q(-1), _z, _z, _z],
           [_z, ONE, _z, _z],
           [_z, _z, ONE, _z],
           [-_q(1), _z, _z, _q(1)]]),
    B: _m([[_z, _z, _z, _z],
           [_z, _z, _z, _z],
           [ONE, _z, _z, _z],
           [_z, _q(-1) - _q(1), _z, _z]]),
    C: _m([[_z, _z, _z, _z],
           [ONE, _z, _z, _z],
           [_z, _z, _z, _z],
           [_z, _z, _q(-1) - _q(1), _z]]),
    D: _m([[_q(1), _z, _z, _z],
           [_z, ONE, _z, _z],
           [_z, _z, ONE, _z],
           [_q(-1), _z, _z, _q(-1)]]),
}

H11_RIGHT = {
    E: _m([[_z, _q(-2) - ONE, _z, _z],
           [_z, _z, (_q(2) + ONE) * _lam, _z],
           [_z, _z, _z, _z],
           [_z, _z, ONE - _q(2), _z]]),
    F: _m([[_z, _z, _z, _z],
           [-(_q(2) + ONE) * _lam, _z, _z, _z],
           [_z, ONE - _q(-2), _z, _z],
           [_q(2) - ONE, _z, _z, _z]]),
    K: _m([[_q(-2), _z, _z, _z],
           [_z, ONE, _z, _z],
           [_z, _z, _q(2), _z],
           [_z, _z, _z, ONE]]),
    KI: _m([[_q(2), _z, _z, _z],
            [_z, ONE, _z, _z],
            [_z, _z, _q(-2), _z],
            [_z, _z, _z, ONE]]),
    A: _m([[ONE, _z, _z, _z],
           [_z, _q(-1), _z, -_q(-1) * _lam],
           [_z, _z, ONE, _z],
           [_z, _z, _z, _q(1)]]),
    B: _m([[_z, _z, _z, _z],
           [_q(1), _z, _z, _z],
           [_z, _z, _z, ONE],
           [_z, _z, _z, _z]]),
    C: _m([[_z, _z, _z, _q(-1)],
           [_z, _z, ONE, _z],
           [_z, _z, _z, _z],
           [_z, _z, _z, _z]]),
    D: _m([[ONE, _z, _z, _z],
           [_z, _q(1), _z, _q(1) * _lam],
           [_z, _z, ONE, _z],
           [_z, _z, _z, _q(-1)]]),
}

H20_BASIS = [["vdot%d%d" % (i, j) for j in range(1, 4)] for i in range(1, 4)]

H20_LEFT = {
    E: _m([[_z, ONE, _z], [_z, _z, _q(1) + _q(-1)], [_z, _z, _z]]),
    F: _m([[_z, _z, _z], [_q(1) + _q(-1), _z, _z], [_z, ONE, _z]]),
    K: _m([[_q(2), _z, _z], [_z, ONE, _z], [_z, _z, _q(-2)]]),
    KI: _m([[_q(-2), _z, _z], [_z, ONE, _z], [_z, _z, _q(2)]]),
    A: _m([[_q(1), _z, _z], [_z, ONE, _z], [_z, _z, _q(-1)]]),
    B: _m([[_z, _z, _z], [_z, _z, _z], [_z, _z, _z]]),
    C: _m([[_z, ONE - _q(-2), _z],
           [_z, _z, _q(2) - _q(-2)],
           [_z, _z, _z]]),
    D: _m([[_q(-1), _z, _z], [_z, ONE, _z], [_z, _z, _q(1)]]),
}

H20_RIGHT = {
    E: H20_LEFT[E],
    F: H20_LEFT[F],
    K: _m([[_q(-2), _z, _z], [_z, ONE, _z], [_z, _z, _q(2)]]),
    KI: _m([[_q(2), _z, _z], [_z, ONE, _z], [_z, _z, _q(-2)]]),
    A: _m([[_q(-1), _z, _z], [_z, ONE, _z], [_z, _z, _q(1)]]),
    B: _m([[_z, _z, _z], [_z, _z, _z], [_z, _z, _z]]),
    C: _m([[_z, _q(1) - _q(-1), _z],
           [_z, _z, _q(1) - _q(-3)],
           [_z, _z, _z]]),
    D: _m([[_q(1), _z, _z], [_z, ONE, _z], [_z, _z, _q(-1)]]),
}

H02_BASIS = [["vddot%d%d" % (i, j) for j in range(1, 4)] for i in range(1, 4)]

H02_LEFT = {
    E: H20_LEFT[E],
    F: H20_LEFT[F],
    K: _m([[_q(2), _z, _z], [_z, ONE, _z], [_z, _z, _q(-2)]]),
    KI: _m([[_q(-2), _z, _z], [_z, ONE, _z], [_z, _z, _q(2)]]),
    A: _m([[_q(-1), _z, _z], [_z, ONE, _z], [_z, _z, _q(1)]]),
    B: _m([[_z, _z, _z],
           [_q(-1) - _q(3), _z, _z],
           [_z, _q(-1) - _q(1), _z]]),
    C: _m([[_z, _z, _z], [_z, _z, _z], [_z, _z, _z]]),
    D: _m([[_q(1), _z, _z], [_z, ONE, _z], [_z, _z, _q(-1)]]),
}

H02_RIGHT = {
    E: H20_LEFT[E],
    F: H20_LEFT[F],
    K: _m([[_q(-2), _z, _z], [_z, ONE, _z], [_z, _z, _q(2)]]),
    KI: _m([[_q(2), _z, _z], [_z, ONE, _z], [_z, _z, _q(-2)]]),
    A: _m([[_q(1), _z, _z], [_z, ONE, _z], [_z, _z, _q(-1)]]),
    B: _m([[_z, _z, _z],
           [_q(-2) - _q(2), _z, _z],
           [_z, ONE - _q(2), _z]]),
    C: _m([[_z, _z, _z], [_z, _z, _z], [_z, _z, _z]]),
    D: _m([[_q(-1), _z, _z], [_z, ONE, _z], [_z, _z, _q(1)]]),
}
