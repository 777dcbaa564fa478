"""Verification suites: identities, action lemmas, dimension counts,
projection injectivity, and graded product spans."""
import pytest

from hopflab.scalars import ONE, QRat, RangeError
from hopflab.ncpoly import B, C, DOUBLE, HXC, K, KI, nc_add_into
from hopflab.bimodlab import (
    UnknownSuite,
    UnsupportedLetters,
    act_on_monomial,
    canonical,
    hilbert_alternating,
    hilbert_check,
    hilbert_closed_form,
    hw_monomial_basis,
    hw_monomial_tuples,
    is_hw_bivector,
    lambda_proj,
    lambda_projection_check,
    peter_weyl_check,
    peter_weyl_dimension,
    relation_annihilation_check,
    s_monomial_tuples,
    verify_action_lemmas,
    verify_identities,
)
from hopflab.bimodlab.suites import _gen_pow


def q(k=1):
    return QRat.q_power(k)


# -- identities --

def test_identity_suites_pass():
    for suite in ("serre_verma", "centrality", "hw_products",
                  "proof_products", "all"):
        rep = verify_identities(suite)
        assert rep.passed, (suite, [r.name for r in rep.failures])
    assert verify_identities("all").total == 44


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuite):
        verify_identities("nonesuch")


def test_bivector_square_identity_directly():
    lhs = HXC.mul(canonical("v5"), canonical("v6"))
    rhs = HXC.mul(canonical("v1"), canonical("v1"))
    diff = dict(lhs)
    nc_add_into(diff, rhs, -ONE)
    assert not diff


# -- action lemmas --

def test_action_lemmas_small_bounds():
    rep = verify_action_lemmas(1, 1, 2, 1)
    assert rep.passed, [(r.name, r.params) for r in rep.failures[:5]]
    names = {r.name for r in rep.records}
    assert "c on v3^l v1^n v5^s" in names
    assert "lowering combination on v3^l v1^n v6^s (vanishing)" in names
    assert "F on v6^n" in names


def test_lemma_vanishing_characterization():
    rep = verify_action_lemmas(1, 0, 2, 1)
    vanish = [r for r in rep.records
              if r.name == "lowering combination on v3^l v1^n v6^s "
              "(vanishing)"]
    assert vanish
    for r in vanish:
        _, n, s = r.params
        assert r.passed, r
        assert (r.witness == "lhs zero") == (n == 0 and s == 0), r


def test_printed_factor_misprint_record_present():
    rep = verify_action_lemmas(0, 0, 1, 0)
    hits = [r for r in rep.records if "suspected misprint" in r.name]
    assert len(hits) == 1 and hits[0].passed


def test_single_lemma_instances_frozen():
    # c acting on the degree-one seed gives the degree-two bivector
    got = act_on_monomial((C,), (("v3", 1),))
    want = canonical("v1")
    diff = dict(got)
    nc_add_into(diff, want, -ONE)
    assert not diff
    # b on the same seed gives the mirror product
    got = act_on_monomial((B,), (("v3", 1),))
    want = canonical("v31")
    diff = dict(got)
    nc_add_into(diff, want, -ONE)
    assert not diff
    # b on the central degree-two bivector
    got = act_on_monomial((B,), (("v1", 1),))
    want = {}
    nc_add_into(want, canonical("v41"), (q(-2) - ONE) * q(1))
    diff = dict(got)
    nc_add_into(diff, want, -ONE)
    assert not diff


# -- graded monomial counts --

def test_hilbert_counts_frozen():
    rep = hilbert_check(6)
    assert rep.passed
    counts = [0] * 7
    for deg, _ in hw_monomial_tuples(6):
        counts[deg] += 1
    assert counts == [1, 4, 11, 24, 45, 76, 119]
    assert [hilbert_closed_form(n) for n in range(7)] == counts
    assert [hilbert_alternating(n) for n in range(7)] == counts


def test_hw_monomial_basis_low_degrees():
    basis = hw_monomial_basis(2)
    assert basis.counts == [1, 4, 11]
    deg1 = [p for p, d in zip(basis.polys, basis.degrees) if d == 1]
    for nm in ("v1", "v2", "v3", "v4"):
        assert canonical(nm) in deg1, nm
    assert {(): ONE} in basis.polys


def test_hw_monomials_multiply_into_hw():
    basis = hw_monomial_basis(3)
    assert sum(basis.counts) == 1 + 4 + 11 + 24
    polys = basis.polys
    for i, u in enumerate(polys):
        for j, v in enumerate(polys):
            prod = HXC.mul(u, v)
            assert prod, (i, j)
            assert is_hw_bivector(prod), (i, j)


# -- projection --

def test_lambda_residues_frozen():
    assert lambda_proj(canonical("v1")) == {(C, C): -ONE}
    assert lambda_proj(canonical("v3")) == {}
    lam2 = ((q(1) - q(-1)).inverse()) ** 2
    assert lambda_proj(canonical("v4")) == {
        (K,): q(-1) * lam2, (KI,): q(1) * lam2}
    assert lambda_proj(canonical("v5")) == {(KI, C, C): ONE}
    assert lambda_proj(canonical("v6")) == {(K, C, C): ONE}


def test_lambda_rejects_b_and_d():
    with pytest.raises(UnsupportedLetters):
        lambda_proj({(B,): ONE})
    with pytest.raises(UnsupportedLetters):
        lambda_proj(canonical("v41"))


def test_lambda_idempotent_and_linear():
    v = {}
    nc_add_into(v, canonical("v1"), q(3))
    nc_add_into(v, canonical("v4"), -ONE)
    once = lambda_proj(v)
    assert lambda_proj(once) == once
    split = {}
    nc_add_into(split, lambda_proj(canonical("v1")), q(3))
    nc_add_into(split, lambda_proj(canonical("v4")), -ONE)
    assert once == split


def test_lambda_not_multiplicative_on_v2():
    sq = lambda_proj(_gen_pow("v2", 2))
    sq_of = HXC.mul(lambda_proj(canonical("v2")),
                    lambda_proj(canonical("v2")))
    diff = dict(sq)
    nc_add_into(diff, sq_of, -ONE)
    assert diff


def test_lambda_projection_report():
    rep = lambda_projection_check(5)
    assert rep.passed, [r.name for r in rep.failures]
    assert len(s_monomial_tuples(5)) == 76
    rank = [r for r in rep.records
            if r.name == "projection injective on the span"]
    assert rank[0].witness == "rank 76 of 76"


# -- graded product spans --

def test_peter_weyl_degree_one():
    rep = peter_weyl_check(1)
    assert rep.passed, [r.name for r in rep.failures]


def test_peter_weyl_degree_two():
    rep = peter_weyl_check(2)
    assert rep.passed, [r.name for r in rep.failures]
    dims = [r for r in rep.records if r.name == "closures fill the product span"]
    assert dims[0].witness == "100 = 81 + 9 + 9 + 1"


def test_peter_weyl_dimension_formula():
    assert peter_weyl_dimension(1, 1) == 16
    assert peter_weyl_dimension(2, 2) == 81
    assert peter_weyl_dimension(2, 0) == 9
    assert peter_weyl_dimension(0, 0) == 1


def test_peter_weyl_out_of_range():
    with pytest.raises(RangeError):
        peter_weyl_check(0)
    with pytest.raises(RangeError):
        peter_weyl_check(3)


# -- defining relations annihilate the module --

def test_relation_annihilation_low_degree():
    rep = relation_annihilation_check(2)
    assert rep.passed, [r.name for r in rep.failures]
    assert rep.total == 2 * len(DOUBLE.rules)
