"""All sixteen data-fusion methods of Section 4, plus trust diagnostics."""

from repro.fusion.base import (
    DEFAULT_MAX_ROUNDS,
    DEFAULT_TOLERANCE,
    FORMAT_WEIGHT,
    FusionMethod,
    FusionProblem,
    FusionResult,
)
from repro.fusion.bayesian import (
    AccuFormat,
    AccuFormatAttr,
    AccuPr,
    AccuSim,
    AccuSimAttr,
    PopAccu,
    TruthFinder,
)
from repro.fusion.copy_aware import AccuCopy
from repro.fusion.batch import RestrictionSweep
from repro.fusion.ensemble import (
    ensemble_vote,
    precision_weighted_ensemble,
)
from repro.fusion.extensions import AccuCategory, select_plausible_values
from repro.fusion.seeding import consistent_item_seed, seed_coverage
from repro.fusion.ir import Cosine, ThreeEstimates, TwoEstimates
from repro.fusion.registry import (
    ITERATIVE_METHOD_NAMES,
    METHOD_NAMES,
    MethodInfo,
    all_method_infos,
    feature_matrix,
    make_method,
    method_info,
)
from repro.fusion.trust import (
    TrustDiagnostics,
    sample_trust,
    sampled_accuracy,
    trust_diagnostics,
)
from repro.fusion.vote import Vote
from repro.fusion.weblink import AvgLog, Hub, Invest, PooledInvest

__all__ = [
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_TOLERANCE",
    "FORMAT_WEIGHT",
    "FusionMethod",
    "FusionProblem",
    "FusionResult",
    "AccuFormat",
    "AccuFormatAttr",
    "AccuPr",
    "AccuSim",
    "AccuSimAttr",
    "PopAccu",
    "TruthFinder",
    "AccuCopy",
    "RestrictionSweep",
    "ensemble_vote",
    "precision_weighted_ensemble",
    "AccuCategory",
    "select_plausible_values",
    "consistent_item_seed",
    "seed_coverage",
    "Cosine",
    "ThreeEstimates",
    "TwoEstimates",
    "ITERATIVE_METHOD_NAMES",
    "METHOD_NAMES",
    "MethodInfo",
    "all_method_infos",
    "feature_matrix",
    "make_method",
    "method_info",
    "TrustDiagnostics",
    "sample_trust",
    "sampled_accuracy",
    "trust_diagnostics",
    "Vote",
    "AvgLog",
    "Hub",
    "Invest",
    "PooledInvest",
]
