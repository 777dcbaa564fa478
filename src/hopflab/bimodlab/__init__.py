"""Finite-dimensional two-sided module laboratory.

Builds two-sided closures of bivectors inside the tensor algebra, extracts
weights, highest-weight vectors, Casimir spectra and decompositions, and
runs the bulk verification suites (identities, action lemmas, dimension
counts, degree-graded product spans).
"""
from .vectors import (  # noqa: F401
    ParityError,
    canonical,
    casimir,
    h_lambda_mu_seed,
    vector_names,
    H11_BASIS, H11_LEFT, H11_RIGHT,
    H20_BASIS, H20_LEFT, H20_RIGHT,
    H02_BASIS, H02_LEFT, H02_RIGHT,
)
from .linalg import Echelon  # noqa: F401
from . import core as _core
from .core import (  # noqa: F401
    DecompositionIncomplete,
    FDBimodule,
    GENERATORS,
    LabConfig,
    LeftSummand,
    LocalFinitenessExceeded,
    Weight,
    ZeroVector,
    casimir_eigenvalue,
    casimir_spectrum,
    closure,
    decompose_left,
    hw_bivectors,
    hw_vectors_left,
    is_hw_bivector,
    is_simple,
    one_dim_characters,
    operator_span,
    standard_module,
    standard_seed,
    summand_spectrum,
    weight_components,
    weight_of,
    word_weight,
)
from .suites import (  # noqa: F401
    CheckRecord,
    MonomialBasis,
    SuiteReport,
    UnknownSuite,
    UnsupportedLetters,
    act_on_monomial,
    hilbert_alternating,
    hilbert_check,
    hilbert_closed_form,
    hw_monomial_basis,
    hw_monomial_tuples,
    lambda_proj,
    lambda_projection_check,
    peter_weyl_check,
    peter_weyl_dimension,
    relation_annihilation_check,
    s_monomial_tuples,
    verify_action_lemmas,
    verify_identities,
)


def __getattr__(name):
    if name == "DEFAULT_CONFIG":
        return _core.DEFAULT_CONFIG
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
