"""Exact weight distributions of two-generator trace codes over GF(q).

The public surface mirrors the computation pipeline: build a field tower,
attach code parameters, then obtain the weight distribution by direct
enumeration, by semi-analytic assembly from character sums, or from the
closed-form tables; the three routes agree exactly wherever the closed
forms apply.
"""

from .charsums import (
    CharSystem,
    InvariantError,
    NonIntegerResultError,
    class_counts,
    f_charsum,
    f_closed,
)
from .code import (
    BadParametersError,
    BudgetExceededError,
    CodeParams,
    brute_distribution,
    build_code,
    codeword_weight_from_lambda,
    semi_analytic_distribution,
)
from .cycint import CycInt, NotDivisibleError, OrderMismatchError, cyclotomic_polynomial
from .fields import (
    BadModulusError,
    BadPolynomialError,
    FieldTooLargeError,
    FieldTower,
    NonPrimeError,
    build_tower,
    find_primitive_polynomial,
)
from .theorem import (
    NonIntegerFrequencyError,
    NotApplicableError,
    TheoremCase,
    classify,
    instantiate_table,
    table_distribution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
