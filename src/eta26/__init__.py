"""eta26: coefficients of the 26th power of the Euler product.

Two independent evaluation paths for p26(n), the coefficient of q^n in
prod(1 - q^m)^26:

  * hecke.p26_cm    -- exact closed form through CM eigenform
                       coefficients at 12n + 13;
  * series.p26_oracle -- q-series expansion by the power-series recurrence.

Their agreement is the package's central invariant.  classify decides
which vanishing/nonvanishing conditions apply to an index, props batch-
verifies divisibility and nonvanishing claims over prime ranges, and cli
exposes everything with machine-readable output.
"""

from .arith import Factorization, factor_progression, factorize, is_prime
from .classify import (
    ConditionProfile,
    RangeStream,
    VanishingReport,
    apply_theorems,
    check_family,
)
from .errors import (
    BudgetError,
    ConsistencyError,
    Eta26Error,
    FactoringBudgetError,
    SeriesBudgetError,
)
from .hecke import (
    P26_DENOMINATOR,
    AlgInt3,
    CoeffBundle,
    coeff_bundle,
    p26_cm,
    t1_prime,
    t2_prime,
    t_prime_powers,
)
from .props import PropReport, run_all
from .series import PowerSeries, eta_power_series, p26_oracle

__version__ = "0.1.0"

__all__ = [
    "AlgInt3",
    "BudgetError",
    "CoeffBundle",
    "ConditionProfile",
    "ConsistencyError",
    "Eta26Error",
    "Factorization",
    "FactoringBudgetError",
    "P26_DENOMINATOR",
    "PowerSeries",
    "PropReport",
    "RangeStream",
    "SeriesBudgetError",
    "VanishingReport",
    "apply_theorems",
    "check_family",
    "coeff_bundle",
    "eta_power_series",
    "factor_progression",
    "factorize",
    "is_prime",
    "p26_cm",
    "p26_oracle",
    "run_all",
    "t1_prime",
    "t2_prime",
    "t_prime_powers",
]
