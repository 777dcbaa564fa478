"""hopflab: exact computer algebra for the quantum double of U_q(sl2).

Normal-form arithmetic in U_q(sl2), the quantized function algebra C_q[SL2],
their tensor product as a two-sided module over the quantum double, and a
small lab for closing subspaces under the double's two actions, certifying
simplicity, and checking identities exactly over Q(q).
"""

__version__ = "0.1.0"


def clear_caches():
    """Empty the process-global memos: the normal-form memo of every
    presentation, the action, contraction, conjugation and pairing memos
    of hopflab.hopf, the standard_module cache, the canonical-vector cache
    and the power and monomial caches of the suites.  They are exact and
    rebuilt on demand, so a long run can call this between tasks to
    release their memory; results do not change."""
    from . import hopf, ncpoly
    from .bimodlab import core, suites, vectors

    for pres in ncpoly.PRESENTATIONS.values():
        pres._nf.clear()
    for memo in (hopf._left_cache, hopf._right_cache, hopf._contract_cache,
                 hopf._conj_cache, hopf._pair_cache):
        memo.clear()
    for cached in (core.standard_module, vectors._build, suites._gen_pow,
                   suites._mono):
        cached.cache_clear()
