"""Belief functions from coded-message evidence models, with an exact Bayesian counterpart.

The package derives Shafer-Dempster belief functions from probability
models over auxiliary code frames, combines them with Dempster's rule, and
contrasts them with exact Bayesian posterior analysis of the same models.
All probability arithmetic is exact (stdlib fractions); two bundled model
documents demonstrate structurally different evidence that yields one and
the same belief function but necessarily different Bayesian posteriors.
"""

from .bayes import (
    PosteriorReport,
    PriorSpec,
    SimulationReport,
    WilliamsReport,
    bayes_factor,
    posterior,
    posterior_odds,
    simulate,
    williams_check,
)
from .combine import CombinationResult, combine_masses, combine_models
from .errors import (
    BeliefkitError,
    CodeNotPossible,
    DuplicateCodeName,
    FrameMismatch,
    IncompleteCodebook,
    InfiniteOdds,
    InvalidPrior,
    MassNotNormalized,
    MassOnEmptySet,
    ModelSyntaxError,
    NegativeMass,
    NoAcceptedTrials,
    NotABeliefFunction,
    ProbabilitySumError,
    RationalTooLarge,
    TotalConflict,
    UndefinedOdds,
    UnknownLabel,
    UnknownMessage,
    UnknownPlaintext,
    ZeroMarginal,
)
from .frames import Frame, SubsetMask
from .mass import MassFunction, format_rational, parse_rational
from .evidence import Code, ConstrainingRelation, EvidenceModel
from .model_io import (
    bundled_model_path,
    load_model,
    parse_belief_table,
    parse_model,
    parse_prior_table,
    serialize_model,
    validate_model,
)
from .reports import emit_report

__version__ = "0.1.0"

__all__ = [
    "BeliefkitError",
    "Code",
    "CodeNotPossible",
    "CombinationResult",
    "ConstrainingRelation",
    "DuplicateCodeName",
    "EvidenceModel",
    "Frame",
    "FrameMismatch",
    "IncompleteCodebook",
    "InfiniteOdds",
    "InvalidPrior",
    "MassFunction",
    "MassNotNormalized",
    "MassOnEmptySet",
    "ModelSyntaxError",
    "NegativeMass",
    "NoAcceptedTrials",
    "NotABeliefFunction",
    "PosteriorReport",
    "PriorSpec",
    "ProbabilitySumError",
    "RationalTooLarge",
    "SimulationReport",
    "SubsetMask",
    "TotalConflict",
    "UndefinedOdds",
    "UnknownLabel",
    "UnknownMessage",
    "UnknownPlaintext",
    "WilliamsReport",
    "ZeroMarginal",
    "bayes_factor",
    "bundled_model_path",
    "combine_masses",
    "combine_models",
    "emit_report",
    "format_rational",
    "load_model",
    "parse_belief_table",
    "parse_model",
    "parse_prior_table",
    "parse_rational",
    "posterior",
    "posterior_odds",
    "serialize_model",
    "simulate",
    "validate_model",
    "williams_check",
]
