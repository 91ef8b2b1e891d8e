"""Exact Bayesian analysis of coded-message evidence models.

Where the belief-function route conditions only on which codes are possible,
the Bayesian route places a prior over the plaintext subsets themselves and
conditions on the full evidence.  Codes are chosen independently of the
plaintext, so the likelihood of a plaintext is the total probability of the
codes that encode it to the observed message.  Both routes read one record,
the message's constraining relation, built once per model: the plaintexts
each possible code decodes to and its integer weight over a common
denominator.  The belief route divides the weights by their sum, this one
sums them per plaintext over the denominator.  Everything
here is exact rational arithmetic except :func:`simulate`, which is the
Monte Carlo cross-check of the generative story.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Mapping, Sequence

from .errors import (
    FrameMismatch,
    InfiniteOdds,
    InvalidPrior,
    NoAcceptedTrials,
    UndefinedOdds,
    UnknownPlaintext,
    ZeroMarginal,
)
from .frames import SubsetMask
from .mass import MassFunction, exact, format_rational
from .evidence import EvidenceModel

SIMULATION_ALGORITHM = "mt19937"


@dataclass(frozen=True)
class PriorSpec:
    """Exact prior weights over plaintext subsets.

    Weights must be non-negative and sum exactly to 1.  A prior need not
    cover a model's whole plaintext domain; uncovered plaintexts are treated
    as prior 0 (they stay in posterior reports with probability 0).
    """

    weights: Mapping[SubsetMask, Fraction] = field(hash=False)

    def __post_init__(self) -> None:
        weights = {mask: exact(value) for mask, value in self.weights.items()}
        if not weights:
            raise InvalidPrior("a prior needs at least one plaintext")
        frames = {mask.frame for mask in weights}
        if len(frames) > 1:
            raise FrameMismatch("prior weights span more than one frame")
        for mask, value in weights.items():
            if len(mask) == 0:
                raise InvalidPrior("the empty set cannot carry prior weight")
            if value < 0:
                raise InvalidPrior(
                    f"prior weight of {mask} is negative: {format_rational(value)}"
                )
        total = sum(weights.values(), Fraction(0))
        if total != 1:
            raise InvalidPrior(
                f"prior weights sum to {format_rational(total)}, expected 1"
            )
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, plaintexts: Sequence[SubsetMask]) -> PriorSpec:
        """Equal weight on every plaintext of a domain."""
        return cls({mask: Fraction(1, len(plaintexts)) for mask in plaintexts})

    @classmethod
    def from_odds(cls, odds: Fraction, first: SubsetMask, second: SubsetMask) -> PriorSpec:
        """Two-point prior with weights in ratio ``odds : 1`` on (first, second)."""
        odds = exact(odds)
        if odds <= 0:
            raise InvalidPrior(f"prior odds must be positive, got {format_rational(odds)}")
        if first == second:
            raise InvalidPrior("the two plaintexts of an odds prior must differ")
        return cls({first: odds / (odds + 1), second: Fraction(1) / (odds + 1)})

    def weight_of(self, mask: SubsetMask) -> Fraction:
        return self.weights.get(mask, Fraction(0))


@dataclass(frozen=True)
class PosteriorReport:
    """Exact posterior over a model's plaintext domain, with its ingredients."""

    posterior: dict[SubsetMask, Fraction]
    likelihoods: dict[SubsetMask, Fraction]
    normalizer: Fraction


@dataclass(frozen=True)
class WilliamsReport:
    """Outcome of the uniform-prior equivalence check."""

    one_to_one: bool
    equivalent: bool
    mass: MassFunction
    uniform_posterior: dict[SubsetMask, Fraction]


@dataclass(frozen=True)
class SimulationReport:
    """Empirical plaintext frequencies among accepted Monte Carlo trials."""

    frequencies: dict[SubsetMask, float]
    accepted: int
    samples: int
    seed: int
    algorithm: str = SIMULATION_ALGORITHM


def likelihood(model: EvidenceModel, plaintext: SubsetMask, message: str) -> Fraction:
    """Probability the model sends `message` given `plaintext` was observed.

    Codes are chosen independently of the plaintext, so this is the total
    prior probability of the codes encoding `plaintext` to `message`.
    """
    likelihoods = _likelihoods(model, message)
    if plaintext not in likelihoods:
        raise UnknownPlaintext(f"{plaintext} is not in the plaintext domain")
    return likelihoods[plaintext]


def _likelihoods(model: EvidenceModel, message: str) -> dict[SubsetMask, Fraction]:
    """The likelihood of every plaintext of the domain, domain order."""
    relation = model.constraining_relation(message)
    sums = dict.fromkeys(model.plaintexts, 0)
    for name, masks in relation.decoded.items():
        for mask in masks:
            sums[mask] += relation.weights[name]
    return {mask: Fraction(total, relation.denominator) for mask, total in sums.items()}


def _check_prior_domain(model: EvidenceModel, prior: PriorSpec) -> None:
    for mask in prior.weights:
        if mask not in model.plaintexts:
            raise UnknownPlaintext(f"prior covers {mask}, not in the plaintext domain")


def posterior(model: EvidenceModel, prior: PriorSpec, message: str) -> PosteriorReport:
    """Exact posterior over the plaintext domain given the observed message."""
    likelihoods = _likelihoods(model, message)
    _check_prior_domain(model, prior)
    joint = {mask: prior.weight_of(mask) * likelihoods[mask] for mask in model.plaintexts}
    normalizer = sum(joint.values(), Fraction(0))
    if normalizer == 0:
        raise ZeroMarginal(
            f"message {message!r} has probability 0 under the prior"
        )
    posterior_map = {mask: value / normalizer for mask, value in joint.items()}
    return PosteriorReport(posterior_map, likelihoods, normalizer)


def bayes_factor(
    model: EvidenceModel, message: str, first: SubsetMask, second: SubsetMask
) -> Fraction:
    """Likelihood ratio of `first` to `second`; multiplies prior into posterior odds."""
    top = likelihood(model, first, message)
    bottom = likelihood(model, second, message)
    if bottom == 0:
        if top == 0:
            raise UndefinedOdds(f"both {first} and {second} have zero likelihood")
        raise InfiniteOdds(f"{second} has zero likelihood, {first} does not")
    return top / bottom


def posterior_odds(
    model: EvidenceModel,
    message: str,
    first: SubsetMask,
    second: SubsetMask,
    prior_odds: Fraction,
) -> Fraction:
    """Posterior odds of `first` to `second` given prior odds ``prior_odds : 1``."""
    prior_odds = exact(prior_odds)
    if prior_odds <= 0:
        raise InvalidPrior(
            f"prior odds must be positive, got {format_rational(prior_odds)}"
        )
    return prior_odds * bayes_factor(model, message, first, second)


def williams_check(model: EvidenceModel, message: str) -> WilliamsReport:
    """Compare the derived mass with the uniform-prior Bayesian posterior.

    ``one_to_one`` holds when every possible code decodes the message to
    exactly one plaintext; in that case the derived mass coincides with the
    posterior under a uniform prior over the plaintext domain, and
    ``equivalent`` records whether that equality holds exactly (comparing
    the posterior's positive entries, read as masses, with the focal
    elements).
    """
    relation = model.constraining_relation(message)
    mass = model.derive_mass(message)
    one_to_one = all(len(plaintexts) == 1 for plaintexts in relation.decoded.values())
    report = posterior(model, PriorSpec.uniform(model.plaintexts), message)
    as_mass = {mask: p for mask, p in report.posterior.items() if p > 0}
    equivalent = as_mass == dict(mass.focal())
    return WilliamsReport(one_to_one, equivalent, mass, report.posterior)


def simulate(
    model: EvidenceModel,
    prior: PriorSpec,
    message: str,
    samples: int,
    seed: int,
) -> SimulationReport:
    """Monte Carlo check of the generative story behind :func:`posterior`.

    Each trial draws a plaintext from the prior and a code from the model
    independently, keeps the trial when the code encodes the plaintext to
    `message`, and tabulates plaintext frequencies among kept trials.  The
    trial stream is fully determined by `seed` (Mersenne Twister).
    """
    decoded = model.constraining_relation(message).decoded
    if samples < 1:
        raise ValueError(f"sample count must be at least 1, got {samples}")
    _check_prior_domain(model, prior)
    domain = model.plaintexts
    # Trials index the domain and the codes: sends[c] holds the positions in
    # the domain of the plaintexts that code c decodes the message to.
    position = {mask.bits: p for p, mask in enumerate(domain)}
    sends = [{position[mask.bits] for mask in decoded.get(code.name, ())} for code in model.codes]
    plaintext_pool = [p for p, mask in enumerate(domain) if prior.weight_of(mask) > 0]
    plaintext_cum = list(accumulate(float(prior.weight_of(domain[p])) for p in plaintext_pool))
    code_cum = list(accumulate(float(code.prob) for code in model.codes))
    rng = random.Random(seed)
    counts = [0] * len(domain)
    accepted = 0
    last_plaintext = len(plaintext_pool) - 1
    last_code = len(code_cum) - 1
    for _ in range(samples):
        # min() guards the rare float round-up of u onto the last boundary
        u = rng.random() * plaintext_cum[-1]
        p = plaintext_pool[min(bisect_right(plaintext_cum, u), last_plaintext)]
        u = rng.random() * code_cum[-1]
        if p in sends[min(bisect_right(code_cum, u), last_code)]:
            counts[p] += 1
            accepted += 1
    if accepted == 0:
        raise NoAcceptedTrials(
            f"none of the {samples} trials produced message {message!r}"
        )
    frequencies = {mask: count / accepted for mask, count in zip(domain, counts)}
    return SimulationReport(frequencies, accepted, samples, seed)
