"""Acceptance gate: thirteen shipped criteria, one printed line each.

Every criterion prints exactly one `criterion NN PASS/FAIL` line (visible
even under output capture) and fails the run when any sub-check fails.
"""
import random
import time
from collections import Counter

import pytest

from hopflab.scalars import ONE, QRat, qint
from hopflab.ncpoly import (CQSL2, DOUBLE, E, HXC, UQSL2, nc_add_into,
                            presentation_check, random_normal_word)
from hopflab import hopf
from hopflab import store
from hopflab.cli import PRESENTATIONS, format_poly, parse_expr
from hopflab.bimodlab import core, suites
from hopflab.bimodlab import vectors as vx
from hopflab.bimodlab.linalg import apply, rank

ALL_PRES = (UQSL2, CQSL2, HXC, DOUBLE)


@pytest.fixture
def announce(capfd):
    def _go(num, desc, failures):
        status = "PASS" if not failures else "FAIL"
        tail = "" if not failures else " — " + "; ".join(
            str(f) for f in failures[:4])
        with capfd.disabled():
            print("criterion %2d %s: %s%s" % (num, status, desc, tail))
        assert not failures, failures
    return _go


@pytest.fixture(scope="session")
def modules():
    return {name: core.standard_module(name)
            for name in ("H00", "H11", "H20", "H02", "H22")}


@pytest.fixture(scope="session")
def decompositions(modules):
    return {name: core.decompose_left(mod)
            for name, mod in modules.items()}


def test_criterion_01_presentation_soundness(announce):
    bad = []
    t0 = time.time()
    for pres in ALL_PRES:
        rep = presentation_check(pres)
        if not rep.passed:
            bad.append("%s rewriting audit failed" % pres.name)
        for pat, rhs in sorted(pres.rules.items()):
            lhs_nf = pres.normal_form({pat: ONE})
            diff = dict(lhs_nf)
            nc_add_into(diff, pres.normal_form(dict(rhs)), -ONE)
            if diff:
                bad.append("%s: relation at %r not satisfied"
                           % (pres.name, pat))
        rng = random.Random(hash(pres.name) & 0xFFFF)
        letters = sorted(pres.alphabet)
        for _ in range(1000):
            w = tuple(rng.choice(letters)
                      for _ in range(rng.randrange(0, 7)))
            p = pres.normal_form({w: ONE})
            if pres.normal_form(dict(p)) != p:
                bad.append("%s: normal form not idempotent on %r"
                           % (pres.name, w))
                break
    took = time.time() - t0
    if took >= 10:
        bad.append("took %.1fs (budget 10s)" % took)
    announce(1, "presentation soundness (4 presentations, relations, "
             "idempotence x1000)", bad)


def test_criterion_02_action_table_reproduction(announce):
    rep = hopf.verify_action_tables()
    bad = []
    for r in rep.mismatches:
        bad.append("undocumented mismatch at %s" % r.label())
    for r in rep.suspects:
        if not r.presumed_match:
            bad.append("suspect %s: presumed form does not match"
                       % r.label())
        if r.derived is None:
            bad.append("suspect %s lacks a derived value" % r.label())
    clean = sum(1 for r in rep.rows if r.match)
    if clean + len(rep.suspects) != len(rep.rows):
        bad.append("row bookkeeping broken")
    announce(2, "action tables reproduced (%d entries, %d suspected "
             "misprints documented with derived values)"
             % (len(rep.rows), len(rep.suspects)), bad)


def test_criterion_03_relations_annihilate(announce):
    t0 = time.time()
    rep = suites.relation_annihilation_check(4)
    bad = [r.name for r in rep.failures]
    if rep.total != 2 * len(DOUBLE.rules):
        bad.append("expected both-side coverage of all %d relations"
                   % len(DOUBLE.rules))
    took = time.time() - t0
    if took >= 120:
        bad.append("took %.1fs (budget 120s)" % took)
    announce(3, "all defining relations annihilate degree<=4 monomials "
             "under both actions (%d checks)" % rep.total, bad)


def _grid_polys(names):
    return [[vx.canonical(nm) for nm in row] for row in names]


def _kron(Am, Bm):
    """Kronecker product of two matrices of sparse columns."""
    m = len(Bm)
    return [{i * m + k: a * b for i, a in acol.items()
             for k, b in bcol.items()}
            for acol in Am for bcol in Bm]


def _mul(Am, Bm):
    """Product of two matrices of sparse columns."""
    return [apply(Am, col) for col in Bm]


def _change_of_basis_ok(mod, names, left_fix, right_fix):
    """The recorded change of basis T from the published grid to the
    closure basis intertwines both recorded actions exactly."""
    grid = _grid_polys(names)
    n = len(grid)
    # column i * n + j of T holds the coordinates of grid[i][j]
    T = [mod.coords(grid[i][j]) for i in range(n) for j in range(n)]
    dim = n * n
    if rank(T) != dim:
        return ["grid does not span the closure"]
    eye = [{i: ONE} for i in range(n)]
    bad = []
    for g in core.GENERATORS:
        L = [{i: QRat.from_int(x) if isinstance(x, int) else x
              for i, x in col.items()} for col in left_fix[g]]
        R = [{i: QRat.from_int(x) if isinstance(x, int) else x
              for i, x in col.items()} for col in right_fix[g]]
        if _mul(mod.left[g], T) != _mul(T, _kron(L, eye)):
            bad.append("left matrix of %s differs" % g)
        if _mul(mod.right[g], T) != _mul(T, _kron(eye, R)):
            bad.append("right matrix of %s differs" % g)
    return bad


def test_criterion_04_h11(announce, modules):
    bad = []
    mod = modules["H11"]
    if mod.dim != 16:
        bad.append("dimension %d != 16" % mod.dim)
    hw = core.hw_bivectors(mod)
    wts = [tuple(core.weight_of(v)) for v in hw]
    if wts != [(2, 2), (2, 0), (0, 2), (0, 0)]:
        bad.append("hw-bivector weights %s" % wts)
    bad.extend(_change_of_basis_ok(mod, vx.H11_BASIS, vx.H11_LEFT,
                                   vx.H11_RIGHT))
    span, capped = core.operator_span(mod)
    if span != 256 or capped:
        bad.append("operator span %d (capped=%s)" % (span, capped))
    announce(4, "closure of E K^-1: dimension 16, hw weights "
             "(2,2),(2,0),(0,2),(0,0), matrices match the reference grid, "
             "operator span 256", bad)


def test_criterion_05_h20_h02(announce, modules):
    bad = []
    h20, h02 = modules["H20"], modules["H02"]
    for mod, nm in ((h20, "H20"), (h02, "H02")):
        if mod.dim != 9:
            bad.append("%s dimension %d != 9" % (nm, mod.dim))
    bad.extend(_change_of_basis_ok(h20, vx.H20_BASIS, vx.H20_LEFT,
                                   vx.H20_RIGHT))
    bad.extend(_change_of_basis_ok(h02, vx.H02_BASIS, vx.H02_LEFT,
                                   vx.H02_RIGHT))
    from hopflab.ncpoly import B
    zero20 = all(not col for col in h20.left[B])
    zero02 = all(not col for col in h02.left[B])
    if not zero20:
        bad.append("left b-matrix on H20 is not zero")
    if zero02:
        bad.append("left b-matrix on H02 is zero")
    announce(5, "closures of K^-1 c^2 and its mirror: dimension 9 each, "
             "matrices match the reference grids, left b-matrix zero "
             "exactly on the first", bad)


def test_criterion_06_degree_two_peter_weyl(announce):
    rep = suites.peter_weyl_check(2)
    bad = [r.name for r in rep.failures]
    fill = [r for r in rep.records
            if r.name == "closures fill the product span"]
    if not fill or fill[0].witness != "100 = 81 + 9 + 9 + 1":
        bad.append("span bookkeeping %s"
                   % (fill[0].witness if fill else "missing"))
    announce(6, "degree-2 products span dimension 100 = 81 + 9 + 9 + 1",
             bad)


def test_criterion_07_hw_algebra_identities(announce):
    rep = suites.verify_identities("all")
    bad = ["%s %s" % (r.name, r.params) for r in rep.failures]
    announce(7, "Serre/Verma, centrality, product and bracket identities "
             "(%d checks)" % rep.total, bad)


def test_criterion_08_hilbert_series(announce):
    rep = suites.hilbert_check(6)
    bad = [r.name for r in rep.failures]
    counts = [0] * 7
    for deg, _ in suites.hw_monomial_tuples(6):
        counts[deg] += 1
    if counts != [1, 4, 11, 24, 45, 76, 119]:
        bad.append("enumerated counts %s" % counts)
    announce(8, "hw monomial counts 1, 4, 11, 24, 45, 76, 119 by "
             "enumeration, alternating sum, and closed form", bad)


def test_criterion_09_proof_lemma_suite(announce):
    rep = suites.verify_action_lemmas(3, 3, 3, 3)
    bad = ["%s %s" % (r.name, r.params) for r in rep.failures]
    vanish = [r for r in rep.records if r.name.endswith("(vanishing)")]
    if not vanish:
        bad.append("vanishing characterizations missing")
    announce(9, "closed-form action lemmas for all exponents <= 3 "
             "(%d checks incl. vanishing characterizations)" % rep.total,
             bad)


def test_criterion_10_projection_injectivity(announce):
    rep = suites.lambda_projection_check(5)
    bad = ["%s %s" % (r.name, r.params) for r in rep.failures]
    rank = [r for r in rep.records
            if r.name == "projection injective on the span"]
    if not rank or rank[0].witness != "rank 76 of 76":
        bad.append("rank witness %s"
                   % (rank[0].witness if rank else "missing"))
    announce(10, "projection residues exact; injective on the spanning "
             "monomials up to degree 5 (rank 76)", bad)


def test_criterion_11_one_dimensional_modules(announce):
    chars = core.one_dim_characters()
    bad = []
    if len(chars) != 2:
        bad.append("%d characters" % len(chars))
    from hopflab.ncpoly import A as LA, D as LD
    vals = [chi[LA] for chi in chars]
    if not (ONE in vals and -ONE in vals):
        bad.append("unit values are not +1 and -1")
    if any(chi[LA] != chi[LD] for chi in chars):
        bad.append("a and d disagree")
    announce(11, "exactly two one-dimensional modules (unit values +1 "
             "and -1)", bad)


def _predicted_spectrum(weights):
    mult = Counter(w[0] for w in weights)
    out = []
    for w in sorted(mult, reverse=True):
        n = mult[w] - mult.get(w + 2, 0)
        if n > 0:
            out.append((core.casimir_eigenvalue(w), n * (w + 1)))
    return out


def test_criterion_12_casimir_spectra(announce, modules, decompositions):
    bad = []
    cas = vx.casimir()
    checked = 0
    for name, summands in sorted(decompositions.items()):
        for k, s in enumerate(summands):
            got = core.summand_spectrum(s)
            want = _predicted_spectrum(s.weights)
            if got != want:
                bad.append("%s summand %d: spectrum %s != predicted %s"
                           % (name, k, got, want))
            checked += 1
        # independent oracle: apply the Casimir to each hw vector directly
        mod = modules[name]
        for v in core.hw_vectors_left(mod):
            w = core.weight_of(v).left
            ev = core.casimir_eigenvalue(w)
            img = hopf.act_left(cas, v)
            scaled = {ww: c * ev for ww, c in v.items()}
            if img != scaled:
                bad.append("%s: Casimir action on a hw vector of weight %d "
                           "is not the predicted scalar" % (name, w))
                break
    announce(12, "Casimir spectra on all %d simple left summands match "
             "the weight-derived oracle and the direct hw action"
             % checked, bad)


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


def test_criterion_13_cli_and_store(announce, modules, tmp_path):
    bad = []
    for algebra, pres in sorted(PRESENTATIONS.items()):
        rng = random.Random(0xC13 + len(algebra))
        for i in range(500):
            poly = {}
            for _ in range(rng.randint(1, 4)):
                w = random_normal_word(pres, rng, max_len=5)
                c = _random_scalar(rng)
                s = poly.get(w)
                poly[w] = c if s is None else s + c
                if poly[w].is_zero():
                    del poly[w]
            text = format_poly(poly)
            if parse_expr(text, algebra) != poly:
                bad.append("%s round-trip #%d: %r" % (algebra, i, text))
                break
    for name, mod in sorted(modules.items()):
        p1 = tmp_path / (name + ".a")
        p2 = tmp_path / (name + ".b")
        store.save_module(mod, p1)
        store.save_module(mod, p2)
        if p1.read_bytes() != p2.read_bytes():
            bad.append("%s saves are not byte-identical" % name)
        back = store.load_module(p1)
        same = (back.basis == mod.basis
                and list(back.weights) == list(mod.weights)
                and all(back.left[g] == mod.left[g]
                        and back.right[g] == mod.right[g]
                        for g in core.GENERATORS))
        if not same:
            bad.append("%s archive round-trip differs" % name)
    announce(13, "parse-format identity on 500 random forms per "
             "presentation; archives of all reference closures "
             "round-trip byte-deterministically", bad)
