"""qasc: exact q-series kernel and identity verification engine.

Exact-rational polynomial and truncated-series arithmetic, q-difference
operators, Al-Salam-Carlitz polynomial families, a coefficientwise identity
verification catalog, and high-precision numeric checks for the identities
that are not finitely computable.
"""

from .core import ParamSet, Poly, TSeries, X, Y, as_fraction, random_paramset
from .qkernel import (
    PhiSpec,
    PoleError,
    binom2,
    euler_inverse_series,
    euler_product_series,
    hyper_series,
    qbinom,
    qpoch,
    qpoch_multi,
    qpoch_t_poly,
)
from .qops import OperatorSpec, apply_operator, leibniz, op_power
from .polys import (
    PolyFamily,
    asc3_phi,
    asc3_psi,
    asc5_phi,
    asc5_psi,
    asc_phi,
    asc_psi,
    cauchy_pn,
    rogers_szego_hn,
)
from .identities import (
    CATALOG,
    IdentityCheck,
    Report,
    expand_poly_in_basis,
    expand_series_in_basis,
    qdiff_residual,
    synthesize_from_basis,
    trial_paramset,
    verify,
)
from .numeric import NUMERIC_CATALOG, NonConvergence, NumericConfig, NumericReport

__all__ = [
    "ParamSet",
    "Poly",
    "TSeries",
    "X",
    "Y",
    "as_fraction",
    "random_paramset",
    "PhiSpec",
    "PoleError",
    "binom2",
    "euler_inverse_series",
    "euler_product_series",
    "hyper_series",
    "qbinom",
    "qpoch",
    "qpoch_multi",
    "qpoch_t_poly",
    "OperatorSpec",
    "apply_operator",
    "leibniz",
    "op_power",
    "PolyFamily",
    "asc3_phi",
    "asc3_psi",
    "asc5_phi",
    "asc5_psi",
    "asc_phi",
    "asc_psi",
    "cauchy_pn",
    "rogers_szego_hn",
    "CATALOG",
    "IdentityCheck",
    "Report",
    "expand_poly_in_basis",
    "expand_series_in_basis",
    "qdiff_residual",
    "synthesize_from_basis",
    "trial_paramset",
    "verify",
    "NUMERIC_CATALOG",
    "NonConvergence",
    "NumericConfig",
    "NumericReport",
]

__version__ = "0.1.0"
