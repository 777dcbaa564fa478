"""Closures, weights, Casimir spectra, decompositions, and the transcribed
reference matrices."""
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflab.scalars import ONE, QRat, ZERO, qrat_text
from hopflab.ncpoly import (
    A, B, C, D, E, F, HXC, K, KI, LETTER_NAMES, nc_add_into,
    random_normal_word,
)
from hopflab.hopf import act_left, act_right
from hopflab.bimodlab import (
    DecompositionIncomplete,
    Echelon,
    LabConfig,
    LocalFinitenessExceeded,
    ParityError,
    Weight,
    ZeroVector,
    canonical,
    casimir,
    casimir_eigenvalue,
    casimir_spectrum,
    closure,
    decompose_left,
    h_lambda_mu_seed,
    hw_bivectors,
    hw_vectors_left,
    is_hw_bivector,
    is_simple,
    one_dim_characters,
    operator_span,
    standard_module,
    standard_seed,
    summand_spectrum,
    weight_of,
    word_weight,
    H11_BASIS, H11_LEFT, H11_RIGHT,
    H20_BASIS, H20_LEFT, H20_RIGHT,
    H02_BASIS, H02_LEFT, H02_RIGHT,
)
from hopflab.bimodlab.core import GENERATORS
from hopflab.bimodlab.linalg import apply, rank

import random


def q(k=1):
    return QRat.q_power(k)


GRIDS = (
    (H11_BASIS, H11_LEFT, H11_RIGHT),
    (H20_BASIS, H20_LEFT, H20_RIGHT),
    (H02_BASIS, H02_LEFT, H02_RIGHT),
)


# -- transcribed matrices agree with the action engine (the oracle that the
# -- structural tests below lean on)

@pytest.mark.parametrize("gi", range(3))
def test_reference_matrices_match_engine(gi):
    names, left, right = GRIDS[gi]
    n = len(names)
    grid = [[canonical(nm) for nm in row] for row in names]
    for g in GENERATORS:
        for i in range(n):
            for j in range(n):
                want_l = {}
                want_r = {}
                for k, c in left[g][i].items():
                    nc_add_into(want_l, grid[k][j], c)
                for k, c in right[g][j].items():
                    nc_add_into(want_r, grid[i][k], c)
                got_l = act_left((g,), grid[i][j])
                got_r = act_right(grid[i][j], (g,))
                nc_add_into(got_l, want_l, -ONE)
                nc_add_into(got_r, want_r, -ONE)
                assert not got_l, (g, i, j, "left")
                assert not got_r, (g, i, j, "right")


# -- weights --

def test_word_weight_frozen():
    assert word_weight((E,)) == Weight(0, 2)
    assert word_weight((F,)) == Weight(0, -2)
    assert word_weight((A,)) == Weight(1, -1)
    assert word_weight((C,)) == Weight(1, 1)
    assert word_weight(()) == Weight(0, 0)


def test_weight_of_canonical_vectors():
    assert weight_of(canonical("v3")) == Weight(0, 2)
    assert weight_of(canonical("v2")) == Weight(2, 0)
    assert weight_of(canonical("v4")) == Weight(0, 0)
    for nm in ("v1", "v5", "v6"):
        assert weight_of(canonical(nm)) == Weight(2, 2), nm


def test_weight_of_inhomogeneous_is_none_and_zero_raises():
    mix = dict(canonical("v3"))
    nc_add_into(mix, {(): ONE})
    assert weight_of(mix) is None
    with pytest.raises(ZeroVector):
        weight_of({})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_weight_is_the_grouplike_eigenvalue(seed):
    rng = random.Random(seed)
    w = random_normal_word(HXC, rng, max_len=5)
    v = {w: ONE}
    wt = word_weight(w)
    lhs = act_left((K,), v)
    assert lhs == {w: q(wt.left)}
    rhs = act_right(v, (KI,))
    assert rhs == {w: q(wt.right)}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_weight_additivity_under_multiplication(seed):
    rng = random.Random(seed)
    u = {random_normal_word(HXC, rng, max_len=4): ONE}
    v = {random_normal_word(HXC, rng, max_len=4): ONE}
    p = HXC.mul(u, v)
    if p:
        want = Weight(weight_of(u).left + weight_of(v).left,
                      weight_of(u).right + weight_of(v).right)
        assert weight_of(p) == want


def test_is_hw_bivector_examples():
    assert is_hw_bivector(canonical("v3"))
    assert is_hw_bivector(canonical("v1"))
    assert not is_hw_bivector({(F,): ONE})
    assert not is_hw_bivector({(B,): ONE})
    prod = HXC.mul(canonical("v1"), canonical("v3"))
    assert is_hw_bivector(prod)


# -- closures --

def test_h11_closure_dimensions_and_hw_structure():
    mod = standard_module("H11")
    assert mod.dim == 16
    assert mod.side == "bi"
    hb = hw_bivectors(mod)
    assert [weight_of(v) for v in hb] == [
        Weight(2, 2), Weight(2, 0), Weight(0, 2), Weight(0, 0)]
    hl = hw_vectors_left(mod)
    assert len(hl) == 8
    assert sorted(weight_of(v).left for v in hl) == [0] * 4 + [2] * 4


def test_h20_h02_closures():
    h20 = standard_module("H20")
    h02 = standard_module("H02")
    assert h20.dim == 9 and h02.dim == 9
    assert standard_seed("H20") == canonical("v5")
    assert standard_seed("H02") == canonical("v6")
    zero = [{}] * 9
    assert h20.left[B] == zero
    assert h02.left[B] != zero


def test_closure_determinism():
    a1 = closure([canonical("v5")], name="one")
    a2 = closure([canonical("v5")], name="two")
    assert a1.basis == a2.basis
    assert a1.left == a2.left and a1.right == a2.right


def test_closure_sides():
    left = closure([canonical("v3")], side="left")
    assert left.dim == 4 and left.right is None
    right = closure([canonical("v3")], side="right")
    assert right.dim == 4 and right.left is None
    with pytest.raises(ValueError):
        closure([canonical("v3")], side="middle")
    with pytest.raises(ZeroVector):
        closure([{}])


def _v5_plus_v6():
    seed = dict(canonical("v5"))
    nc_add_into(seed, canonical("v6"), ONE)
    return seed


@pytest.mark.parametrize("name,side", [
    ("H11", "bi"), ("H11", "left"), ("H11", "right"),
    ("H22", "bi"), ("H22", "left"), ("H22", "right"),
    ("v5+v6", "bi"),
])
def test_closure_matrices_match_coordinates_of_actions(name, side):
    # closure() reads its matrices off the span phase's images, correcting
    # for queued rows that later insertions rewrote; rebuild every column
    # by acting on the final basis and solving for coordinates.  Stored
    # columns hold no zero entry and no index outside the basis, and the K
    # and K^-1 columns are exactly {j: q^(+-w)}
    seed = _v5_plus_v6() if name == "v5+v6" else standard_seed(name)
    mod = closure([seed], side=side)
    actions = []
    if mod.left is not None:
        actions.append((mod.left, lambda g, b: act_left((g,), b)))
    if mod.right is not None:
        actions.append((mod.right, lambda g, b: act_right(b, (g,))))
    n = mod.dim
    for mats, action in actions:
        for g in GENERATORS:
            want = [mod.ech.coords(action(g, b)) for b in mod.basis]
            assert mats[g] == want, (LETTER_NAMES[g], side)
            assert all(0 <= i < n and c for col in mats[g]
                       for i, c in col.items()), (LETTER_NAMES[g], side)
    for mats, pos, sign in ((mod.left, 0, 1), (mod.right, 1, -1)):
        if mats is not None:
            assert mats[K] == [{j: q(sign * w[pos])}
                               for j, w in enumerate(mod.weights)]
            assert mats[KI] == [{j: q(-sign * w[pos])}
                                for j, w in enumerate(mod.weights)]


def test_closure_cap_raises():
    with pytest.raises(LocalFinitenessExceeded):
        closure([canonical("v3")], config=LabConfig(closure_cap=5))


def test_matrices_satisfy_defining_relations():
    from hopflab.ncpoly import DOUBLE
    mod = standard_module("H20")
    n = mod.dim

    def word_matrix(mats, w, side):
        out = [{j: ONE} for j in range(n)]
        seq = w if side == "left" else tuple(reversed(w))
        for g in seq:
            out = [apply(out, col) for col in mats[g]]
        return out

    def poly_matrix(mats, p, side):
        out = [{} for _ in range(n)]
        for w, cf in p.items():
            m = word_matrix(mats, w, side)
            for j in range(n):
                nc_add_into(out[j], m[j], cf)
        return out

    for pat, rhs in DOUBLE.rules.items():
        for mats, side in ((mod.left, "left"), (mod.right, "right")):
            lhs_m = word_matrix(mats, pat, side)
            rhs_m = poly_matrix(mats, rhs, side)
            assert lhs_m == rhs_m, (pat, side)


# -- recorded change of basis onto the reference grids --

def _kron(Am, Bm):
    """Kronecker product of two matrices of sparse columns."""
    nb = len(Bm)
    return [{i * nb + k: a * b for i, a in acol.items()
             for k, b in bcol.items()}
            for acol in Am for bcol in Bm]


def _mul(Am, Bm):
    """Product of two matrices of sparse columns."""
    return [apply(Am, col) for col in Bm]


@pytest.mark.parametrize("name,gi", [("H11", 0), ("H20", 1), ("H02", 2)])
def test_change_of_basis_onto_reference_grid(name, gi):
    names, left, right = GRIDS[gi]
    mod = standard_module(name)
    n = len(names)
    assert mod.dim == n * n
    T = []
    for i in range(n):
        for j in range(n):
            co = mod.coords(canonical(names[i][j]))
            assert co is not None
            T.append(co)
    assert rank(T) == n * n
    ident = [{i: ONE} for i in range(n)]
    for g in GENERATORS:
        assert _mul(mod.left[g], T) == _mul(T, _kron(left[g], ident))
        assert _mul(mod.right[g], T) == _mul(T, _kron(ident, right[g]))


# -- simplicity and operator spans --

def test_burnside_spans_and_simplicity():
    for name in ("H11", "H20", "H02", "H00"):
        mod = standard_module(name)
        dim, capped = operator_span(mod)
        assert dim == mod.dim ** 2 and not capped, name
        assert is_simple(mod) is True, name


def test_word_cap_reports_truncation():
    mod = standard_module("H11")
    dim, capped = operator_span(mod, LabConfig(word_cap=1))
    assert capped and dim < 256


def test_non_simple_direct_sum_detected():
    both = closure([canonical("v5"), canonical("v6")], name="pair")
    assert both.dim == 18
    assert is_simple(both) is False


# -- Casimir spectra --

def test_casimir_definition_matches_vector():
    lam2 = ((q(1) - q(-1)).inverse()) ** 2
    want = {(E, F): ONE, (K,): q(-1) * lam2, (KI,): q(1) * lam2}
    assert casimir() == want


def test_casimir_spectra_frozen():
    c2, c0 = casimir_eigenvalue(2), casimir_eigenvalue(0)
    lam2 = ((q(1) - q(-1)).inverse()) ** 2
    assert c2 == (q(3) + q(-3)) * lam2
    assert c0 == (q(1) + q(-1)) * lam2
    h11 = standard_module("H11")
    assert casimir_spectrum(h11, "left") == [(c2, 12), (c0, 4)]
    assert casimir_spectrum(h11, "right") == [(c2, 12), (c0, 4)]
    assert casimir_spectrum(standard_module("H20"), "left") == [(c2, 9)]
    assert casimir_spectrum(standard_module("H02"), "right") == [(c2, 9)]
    assert casimir_spectrum(standard_module("H00"), "left") == [(c0, 1)]


# -- left decomposition --

def test_decompose_h11_four_equal_summands():
    mod = standard_module("H11")
    parts = decompose_left(mod)
    assert [s.dim for s in parts] == [4, 4, 4, 4]
    assert all(s.hw_exponent == 2 for s in parts)
    first = parts[0].matrices
    assert all(s.matrices == first for s in parts[1:])
    c2, c0 = casimir_eigenvalue(2), casimir_eigenvalue(0)
    for s in parts:
        assert summand_spectrum(s) == [(c2, 3), (c0, 1)]
    acc = Echelon()
    for s in parts:
        for vec in s.basis:
            assert acc.insert(vec)
    assert acc.dim == 16


def test_decompose_h20_h02_not_isomorphic():
    p20 = decompose_left(standard_module("H20"))
    p02 = decompose_left(standard_module("H02"))
    assert [s.dim for s in p20] == [3, 3, 3]
    assert [s.dim for s in p02] == [3, 3, 3]
    assert all(s.matrices == p20[0].matrices for s in p20)
    assert all(s.matrices == p02[0].matrices for s in p02)
    assert p20[0].matrices != p02[0].matrices
    c2 = casimir_eigenvalue(2)
    assert summand_spectrum(p20[0]) == [(c2, 3)]


# decompose_left output recorded in tests/fixtures/decompose_left.json, by
# qrat_text: seeds, the generated basis (its order and its unnormalized raw
# images) and every summand matrix, per generator letter
DECOMPOSE_PINNED = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "decompose_left.json")
    .read_text())


@pytest.mark.parametrize("name", ["H11", "H20", "H02", "4,0"])
def test_decompose_left_output_pinned(name):
    if name == "4,0":
        mod = closure([h_lambda_mu_seed(4, 0)], name="conj(4,0)")
    else:
        mod = standard_module(name)
    # the pinned output is dense: vectors of length dim, matrices row-major
    def dense(vec, n):
        return [qrat_text(vec.get(i, ZERO)) for i in range(n)]

    got = [{"seed": dense(s.seed, mod.dim),
            "basis": [dense(v, mod.dim) for v in s.basis],
            "matrices": {LETTER_NAMES[g]: [[qrat_text(col.get(i, ZERO))
                                            for col in s.matrices[g]]
                                           for i in range(s.dim)]
                         for g in GENERATORS}}
           for s in decompose_left(mod)]
    assert got == DECOMPOSE_PINNED[name]


def test_decompose_direct_sum_pair():
    both = closure([canonical("v5"), canonical("v6")], name="pair")
    parts = decompose_left(both)
    assert [s.dim for s in parts] == [3] * 6
    total = sum(s.dim for s in parts)
    assert total == both.dim


def test_trivial_module_decomposes_to_itself():
    mod = standard_module("H00")
    parts = decompose_left(mod)
    assert len(parts) == 1 and parts[0].dim == 1
    assert parts[0].hw_exponent == 0


# -- one-dimensional characters --

def test_exactly_two_characters():
    chars = one_dim_characters()
    assert len(chars) == 2
    for chi in chars:
        assert chi[E].is_zero() and chi[F].is_zero()
        assert chi[B].is_zero() and chi[C].is_zero()
        assert chi[K] == ONE and chi[KI] == ONE
        assert chi[A] == chi[D]
    vals = sorted(repr(chi[A]) for chi in chars)
    assert vals == [repr(-ONE), repr(ONE)]


def test_mixed_sign_candidate_rejected():
    from hopflab.bimodlab.core import character_is_valid
    zero = QRat.from_int(0)
    chi = {E: zero, F: zero, B: zero, C: zero,
           K: ONE, KI: ONE, A: ONE, D: -ONE}
    assert not character_is_valid(chi)


# -- conjecture seeds --

def test_h_lambda_mu_seed_values():
    assert h_lambda_mu_seed(1, 1) == {(KI,): ONE}
    assert h_lambda_mu_seed(2, 0) == canonical("v5")
    assert h_lambda_mu_seed(0, 2) == canonical("vddot33")
    assert h_lambda_mu_seed(0, 0) == {(): ONE}
    with pytest.raises(ParityError):
        h_lambda_mu_seed(1, 0)
    with pytest.raises(ParityError):
        h_lambda_mu_seed(-2, 0)


def test_h_lambda_mu_seed_hw_status():
    # the labeled seeds are conjectural generators; only some of them are
    # themselves highest-weight bivectors (the engine settles each case)
    assert is_hw_bivector(h_lambda_mu_seed(2, 0))
    assert not is_hw_bivector(h_lambda_mu_seed(1, 1))


# -- the process-global memos --

def test_clear_caches_empties_every_memo_and_keeps_results():
    import hopflab
    from hopflab import hopf, ncpoly
    from hopflab.bimodlab import core, suites, vectors

    before = standard_module("H11")
    v1 = canonical("v1")
    suites.act_on_monomial((E,), (("v1", 1), ("v3", 1)))
    cached = (core.standard_module, vectors._build, suites._gen_pow,
              suites._mono)
    assert all(f.cache_info().currsize for f in cached)
    hopflab.clear_caches()
    assert all(not p._nf for p in ncpoly.PRESENTATIONS.values())
    assert not (hopf._left_cache or hopf._right_cache or hopf._pair_cache)
    assert not (hopf._contract_cache or hopf._conj_cache)
    assert all(f.cache_info().currsize == 0 for f in cached)
    assert canonical("v1") == v1
    after = standard_module("H11")
    assert after is not before
    assert after.basis == before.basis and after.weights == before.weights
    assert after.left == before.left and after.right == before.right
