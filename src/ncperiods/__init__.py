"""Numerical verification of iterated period integrals of cusp forms.

The package computes multiple period integrals R_l(f_1,...,f_l; y, x; t),
their noncommutative generating series J over a weighted alphabet, and the
associated unipotent cocycles Psi on SL2(Z); verifies the defining identities
to quadrature precision; extracts (multiple) L-values; and reconstructs
cusp-form collections from cocycle panel values degree by degree.
"""

from .sl2z import GroupElement, S, T, parse_word, decompose_word, eta_epsilon
from .ncpoly import (
    MultiplierSpec,
    TRIVIAL,
    Letter,
    Alphabet,
    GradedWords,
    NcPoly,
    mono_weight,
    mono_str,
    parse_mono,
    nc_mul,
    nc_inv,
    slash_factors,
)
from .modforms import (
    CuspForm,
    QSeries,
    eta_form,
    level_one_basis,
    cusp_space_basis,
    eval_forms,
    eval_form,
    form_linear_combination,
)
from .iterint import (
    QuadConfig,
    Endpoint,
    r_direct,
    path_split_check,
    vertical_J,
)
from .cocycle import (
    CuspCollection,
    psi,
    j_between,
    verify_cocycle,
    verify_multiplicativity,
    verify_equivariance,
    verify_base_point_independence,
    eta_example_check,
)
from .mlv import (
    PeriodPolynomial,
    moment,
    moments_table,
    lambda_value,
    period_polynomial,
    double_moments,
    double_period_polynomial,
    verify_shuffle,
    lambda_probe,
    clear_caches,
)
from .reconstruct import (
    BasisCatalog,
    PeelError,
    PeelReport,
    build_catalog,
    psi_evaluator,
    cocycle_from_json,
    dump_cocycle_values,
    deconjugate,
    peel,
    injectivity_probe,
)
from .config import RunConfig, DEFAULT_PANEL, parse_alphabet, parse_panel

__version__ = "0.1.0"
