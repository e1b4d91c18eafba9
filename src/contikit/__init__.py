"""contikit: exact arithmetic for periodic second-order recurrences.

Generalized continuants, reduced d-step recurrences and their closed forms,
Pell equations via continued fractions, series verification, and prime
divisibility machinery for the resulting integer sequences.  Every layer
reads its sequence values from one integer core, contikit.core.
"""
from .continuants import (
    IDENTITIES,
    IdentityReport,
    continuant_determinant,
    continuant_pair,
    convergent,
    identity_failures,
    verify_identity,
)
from .divisibility import (
    ApparitionReport,
    CongruenceCase,
    PseudoprimeVerdict,
    RepetitionReport,
    congruence_suite,
    jacobi,
    law_of_repetition_check,
    lucas_pseudoprime_test,
    pisano,
    pisano_period,
    pseudoprime_scan,
    rank_of_apparition,
)
from .errors import (
    ContikitError,
    DegenerateDiscriminant,
    DivisionByZero,
    HypothesisViolated,
    IndexOutOfRange,
    InputTooLarge,
    InvalidSystem,
    InvariantViolated,
    NoAdmissibleRoot,
    PerfectSquare,
    PoleAtRoot,
    PrecisionExhausted,
    PrimalityUndecided,
    UsageError,
)
from .pell import PellSolution, expand_sqrt, pell_fundamental, pell_solutions
from .quadratic import QuadraticNumber
from .recurrence import (
    GFReport,
    ReducedRecurrence,
    binet,
    binet_negative,
    gf_verify,
    limit_ratio,
    reduce,
    roots,
)
from .series import (
    TELESCOPING_FAMILIES,
    ZETA_KINDS,
    ExactSumReport,
    PrecisionContext,
    SeriesReport,
    telescoping_sum,
    weighted_sum_exact,
    zeta_series,
)
from .systems import FIB, S8, PeriodicSystem

__version__ = "0.1.0"
