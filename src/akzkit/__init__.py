"""Poly-Bernoulli numbers, multiple zeta values, and the zeta functions
interpolating between them, with a verification battery for the identities
connecting the three.

The numeric layer carries explicit error bounds everywhere; the exact
layer works in Fractions end to end.  `verify_all` runs every identity
check in the package and returns structured reports.
"""

from .index_algebra import (
    PoleError,
    coarsenings,
    compositions,
    dual,
    depth,
    is_admissible,
    plus_one,
    refinements,
    weight,
)
from .mzv_numeric import (
    EvalResult,
    configure,
    current_precision,
    mzv,
    mzv_direct,
    mzsv,
    t0_value,
    t_value,
    zeta,
)
from .pbn import (
    multi_poly_bernoulli,
    poly_bernoulli_B,
    poly_bernoulli_C,
    B_symbolic,
    C_symbolic,
)
from .ak_zeta import (
    eta_at_positive,
    eta_closed_nonpositive,
    eta_nonpositive_value,
    xi_at_positive,
    xi_nonpositive,
    xitilde_closed,
)
from .level2 import psi_at_positive
from .reports import VerificationReport, summarize
from .verify import verify_all

__version__ = "0.1.0"

__all__ = [
    "B_symbolic",
    "C_symbolic",
    "EvalResult",
    "PoleError",
    "VerificationReport",
    "__version__",
    "coarsenings",
    "compositions",
    "configure",
    "current_precision",
    "depth",
    "dual",
    "eta_at_positive",
    "eta_closed_nonpositive",
    "eta_nonpositive_value",
    "is_admissible",
    "multi_poly_bernoulli",
    "mzsv",
    "mzv",
    "mzv_direct",
    "plus_one",
    "poly_bernoulli_B",
    "poly_bernoulli_C",
    "psi_at_positive",
    "refinements",
    "summarize",
    "t0_value",
    "t_value",
    "verify_all",
    "weight",
    "xi_at_positive",
    "xi_nonpositive",
    "xitilde_closed",
    "zeta",
]
