"""The gcd-free membership certificate of Echelon.contains (entries may be
unreduced pairs (num, den)), and the closures and archive checks built on
it."""
import random

import pytest

from hopflab.scalars import ONE, QRat, pconst, qint
from hopflab.ncpoly import HXC, enumerate_normal_words, word_key
from hopflab.hopf import act_left, act_right
from hopflab.bimodlab import closure, standard_module, vectors
from hopflab.bimodlab.core import GENERATORS, weight_components
from hopflab.bimodlab.linalg import Echelon, frac_add_into, frac_canonical

# 1/(q - 1) and the same value unreduced, as (q + 1)/(q^2 - 1)
INV_QM1 = QRat({0: 1}, {1: 1, 0: -1})
INV_QM1_UNREDUCED = ({1: 1, 0: 1}, {2: 1, 0: -1})


def _span():
    ech = Echelon()
    assert ech.insert({2: ONE, 0: INV_QM1})
    assert ech.insert({1: ONE, 0: QRat.q_power(1)})
    return ech


def test_equal_values_in_different_unreduced_forms_are_members():
    ech = _span()
    assert ech.contains({2: ONE, 0: INV_QM1})
    assert ech.contains({2: ({0: 1}, {0: 1}), 0: INV_QM1_UNREDUCED})
    # (q + 1) times the first row plus q^-1 times the second, with the
    # entries q^-1 and 2q/(q - 1) unreduced
    assert ech.contains({
        2: ({1: 1, 0: 1}, {0: 1}),
        1: ({3: 1}, {4: 1}),
        0: ({2: 2, 1: 2}, {2: 1, 0: -1}),
    })


def test_a_vector_off_the_span_by_one_term_is_not_a_member():
    ech = _span()
    assert not ech.contains({2: ONE, 0: INV_QM1_UNREDUCED, 3: ONE})
    assert not ech.contains({2: ONE, 0: ({1: 1, 0: 2}, {2: 1, 0: -1})})
    assert not ech.contains({2: ONE})
    assert not ech.contains({0: INV_QM1})


COEFFS = (ONE, -ONE, QRat.q_power(2), QRat.q_power(-1), qint(2), qint(3),
          INV_QM1, QRat(pconst(3), {1: 1, 0: 1}))


@pytest.mark.parametrize("seed", range(12))
def test_certificate_agrees_with_the_canonical_residue(seed):
    rng = random.Random(seed)
    mod = standard_module("H11")
    words = enumerate_normal_words(HXC, 3)
    for extra in (False, True):
        vec = {}
        for b in rng.sample(mod.basis, 4):
            c = rng.choice(COEFFS)
            # pair scales keep every entry an unreduced pair
            frac_add_into(vec, b, (c.num, c.den))
        if extra:
            frac_add_into(vec, {rng.choice(words): ONE}, rng.choice(COEFFS))
        got = mod.ech.contains(vec)
        assert got == (not mod.ech.reduce(frac_canonical(vec)))
        if not extra:
            assert got


def _reference_closure(seed):
    """Breadth-first span completion with the canonical actions and
    Echelon.insert, matrices by coordinates: the definition closure()
    must reproduce."""
    ech = Echelon(word_key)
    queue = []
    for s in weight_components(HXC.normal_form(seed)).values():
        if ech.insert(s):
            queue.append(ech.last_row)
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for g in GENERATORS:
            for img in (act_left((g,), v), act_right(v, (g,))):
                if ech.insert(img):
                    queue.append(ech.last_row)
    basis = ech.basis()
    left, right = {}, {}
    for g in GENERATORS:
        left[g] = [ech.coords(act_left((g,), b)) for b in basis]
        right[g] = [ech.coords(act_right(b, (g,))) for b in basis]
    return basis, left, right


@pytest.mark.parametrize("lam,mu", [(2, 2), (1, 3)])
def test_closure_matches_a_reference_search(lam, mu):
    seed = vectors.h_lambda_mu_seed(lam, mu)
    mod = closure([seed])
    basis, left, right = _reference_closure(seed)
    assert mod.basis == basis
    assert mod.left == left
    assert mod.right == right
