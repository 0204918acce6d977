"""arcfdr: online accept-to-reject-changes (ARC) multiple testing.

Streaming step-up procedures for e-values and p-values (online e-BH, online
BH, e-LOND, LOND, r-LOND, online BR, TOAD, e-TOAD, online Storey-BH, LORD,
SAFFRON), e-value boosting for Gaussian likelihood-ratio models, false
discovery metrics over rejection histories, brute-force oracles, and a
Monte-Carlo simulation harness.
"""

from .core import (
    ConfigError,
    InputError,
    RejectionSet,
    Score,
    ScoreKind,
    WeightSequence,
    is_self_consistent,
)
from .e_procedures import DeadlineSchedule, ELond, EToad, OnlineEBH
from .p_procedures import (
    Lond,
    Lord,
    OnlineBH,
    OnlineBR,
    OnlineStoreyBH,
    RLond,
    Saffron,
    ShapeFunction,
    Toad,
)
from .boosting import (
    GaussianLRModel,
    NonincreasingTransform,
    SolverError,
    TruncationSpec,
    TruncationVariant,
    check_transform_condition,
    expected_truncated_value,
    solve_boost_factor,
    truncate,
)

__version__ = "0.1.0"
