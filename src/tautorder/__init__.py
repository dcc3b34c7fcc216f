"""Exact-arithmetic cross-verification of torsion orders, zeta special values,
symplectic group orders, and truncated characteristic-class identities."""
from __future__ import annotations

from .bernoulli_zeta import (
    BernoulliTable,
    ProportionalityResult,
    bernoulli,
    bernoulli_table,
    proportionality,
    todd_inverse_series,
    zeta_neg,
)
from .chern_symbolics import (
    GradedPolynomial,
    SymmetricReduction,
    borel_serre_check,
    chern_character,
    class_variables,
    fundamental_relations,
    lambda_star_class,
    newton_special_case,
    symmetric_reduce,
    todd_class,
)
from .exact_arith import (
    PrimeLocalOrder,
    factorial_p_valuation,
    is_prime,
    primes_above,
)
from .finite_field_checks import (
    ModPPolynomial,
    cyclotomic_chern_check,
    cyclotomic_chern_product,
    hurwitz_genus,
    symplectic_pairing_check,
)
from .group_orders import (
    SpOrderResult,
    degree_integrality,
    koblitz_coefficient,
    sp_order,
)
from .torsion_orders import (
    NgDecomposition,
    TorsionReport,
    boundary_coefficient,
    denominator_corollary_check,
    grr_chain_check,
    ng_local,
    ng_oracle,
    product_identity_check,
    torsion_report,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"
