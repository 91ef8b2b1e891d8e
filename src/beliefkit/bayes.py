"""Exact Bayesian analysis of coded-message evidence models.

Where the belief-function route conditions only on which codes are possible,
the Bayesian route places a prior over the plaintext subsets themselves and
conditions on the full evidence.  Codes are chosen independently of the
plaintext, so the likelihood of a plaintext is the total probability of the
codes that encode it to the observed message.  Both routes read one record,
the message's constraining relation, which the model builds on the first
request for that message and keeps: the plaintexts each possible code
decodes to and its integer weight over a common denominator.  The belief
route divides the weights by their sum, this one sums them per plaintext
over the denominator.  :func:`posterior`, :func:`bayes_factor` and
:func:`williams_check` work on those integer numerators, with the prior's
weights put over one denominator of their own, and build a Fraction only for
each value they report.  Everything here is exact rational arithmetic except
:func:`simulate`, which is the Monte Carlo cross-check of the generative
story.  It draws the seeded stream in fixed-size chunks and makes
whole-chunk passes over each: every draw is placed among precomputed cuts
by a bisection, each trial's (plaintext, code) pair is tallied as one
integer key, and the model's table is read once per distinct key to decide
acceptance.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat, starmap
from operator import add, mul
from typing import Iterable, Mapping, Sequence

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
from .mass import MassFunction, _diagnostic_text, _over_one_denominator, exact
from .evidence import EvidenceModel

SIMULATION_ALGORITHM = "mt19937"
# Trials drawn per pass of simulate(); bounds the draws held in memory at once.
_SIMULATION_CHUNK = 4096

_ZERO = Fraction(0)


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
            if value.numerator < 0:
                raise InvalidPrior(
                    f"prior weight of {mask} is negative: {_diagnostic_text(value)}"
                )
        values = weights.values()
        denominator, numerators = _over_one_denominator(
            [v.numerator for v in values], [v.denominator for v in values]
        )
        if sum(numerators) != denominator:
            total = Fraction(sum(numerators), denominator)
            raise InvalidPrior(f"prior weights sum to {_diagnostic_text(total)}, expected 1")
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, plaintexts: Sequence[SubsetMask]) -> PriorSpec:
        """Equal weight on every plaintext of a domain; an empty one is an InvalidPrior."""
        return cls(dict.fromkeys(plaintexts, Fraction(1, len(plaintexts) or 1)))

    @classmethod
    def from_odds(cls, odds: Fraction, first: SubsetMask, second: SubsetMask) -> PriorSpec:
        """Two-point prior with weights in ratio ``odds : 1`` on (first, second)."""
        odds = _positive_odds(odds)
        if first == second:
            raise InvalidPrior("the two plaintexts of an odds prior must differ")
        return cls({first: odds / (odds + 1), second: Fraction(1) / (odds + 1)})

    def weight_of(self, mask: SubsetMask) -> Fraction:
        return self.weights.get(mask, _ZERO)


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


def _pooled_weights(model: EvidenceModel, message: str) -> tuple[Counter[int], int]:
    """Plaintext bits -> the total weight of the codes encoding it to `message`,
    and the denominator of those weights: P(`message` | plaintext) as integers."""
    relation = model.constraining_relation(message)
    sums: Counter[int] = Counter()
    for name, masks in relation.decoded.items():
        weight = relation.weights[name]
        for mask in masks:
            sums[mask.bits] += weight
    return sums, relation.denominator


def _likelihoods(model: EvidenceModel, message: str) -> dict[SubsetMask, Fraction]:
    """Each domain plaintext, in order, -> P(`message` | it)."""
    sums, denominator = _pooled_weights(model, message)
    return {mask: Fraction(sums[mask.bits], denominator) for mask in model.plaintexts}


def _check_prior_domain(model: EvidenceModel, prior: PriorSpec) -> None:
    for mask in prior.weights:
        if mask not in model._domain:
            raise UnknownPlaintext(f"prior covers {mask}, not in the plaintext domain")


def posterior(model: EvidenceModel, prior: PriorSpec, message: str) -> PosteriorReport:
    """Exact posterior over the plaintext domain given the observed message."""
    sums, denominator = _pooled_weights(model, message)
    _check_prior_domain(model, prior)
    domain = model.plaintexts
    weights = [prior.weight_of(mask) for mask in domain]
    prior_denominator, prior_numerators = _over_one_denominator(
        [w.numerator for w in weights], [w.denominator for w in weights]
    )
    likelihoods = [sums[mask.bits] for mask in domain]
    joint = list(map(mul, prior_numerators, likelihoods))
    total = sum(joint)
    if total == 0:
        raise ZeroMarginal(f"message {message!r} has probability 0 under the prior")
    return PosteriorReport(
        {mask: Fraction(j, total) for mask, j in zip(domain, joint)},
        {mask: Fraction(n, denominator) for mask, n in zip(domain, likelihoods)},
        Fraction(total, prior_denominator * denominator),
    )


def bayes_factor(
    model: EvidenceModel, message: str, first: SubsetMask, second: SubsetMask
) -> Fraction:
    """Likelihood ratio of `first` to `second`; multiplies prior into posterior odds."""
    sums = _pooled_weights(model, message)[0]
    for plaintext in (first, second):
        if plaintext not in model._domain:
            raise UnknownPlaintext(f"{plaintext} is not in the plaintext domain")
    top, bottom = sums[first.bits], sums[second.bits]  # over one denominator
    if bottom == 0:
        if top == 0:
            raise UndefinedOdds(f"both {first} and {second} have zero likelihood")
        raise InfiniteOdds(f"{second} has zero likelihood, {first} does not")
    return Fraction(top, bottom)


def posterior_odds(
    model: EvidenceModel,
    message: str,
    first: SubsetMask,
    second: SubsetMask,
    prior_odds: Fraction,
) -> Fraction:
    """Posterior odds of `first` to `second` given prior odds ``prior_odds : 1``."""
    return _positive_odds(prior_odds) * bayes_factor(model, message, first, second)


def _positive_odds(odds: Fraction) -> Fraction:
    """`odds` as an exact rational; raises InvalidPrior unless it is positive."""
    odds = exact(odds)
    if odds <= 0:
        raise InvalidPrior(f"prior odds must be positive, got {_diagnostic_text(odds)}")
    return odds


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
    as_mass = {mask: p for mask, p in report.posterior.items() if p}  # none is negative
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
    trial stream is fully determined by `seed` (Mersenne Twister), which
    must be non-negative: the generator seeds an int with its absolute value,
    so a negative seed would repeat another seed's stream.
    """
    sent = model._message_index(message)
    if samples < 1:
        raise ValueError(f"sample count must be at least 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    _check_prior_domain(model, prior)
    domain = model.plaintexts
    plaintext_pool = [p for p, mask in enumerate(domain) if prior.weight_of(mask) > 0]
    plaintext_cuts = _cuts(float(prior.weight_of(domain[p])) for p in plaintext_pool)
    code_cuts = _cuts(float(code.prob) for code in model.codes)
    codes = len(model.codes)
    draw = random.Random(seed).random
    # Trial t picks its plaintext with draw 2t and its code with draw 2t + 1,
    # and is tallied as one key: j * codes + c, with j indexing plaintext_pool.
    tally: Counter[int] = Counter()
    for start in range(0, samples, _SIMULATION_CHUNK):
        draws = list(starmap(draw, repeat((), 2 * min(_SIMULATION_CHUNK, samples - start))))
        picked = map(bisect_right, repeat(plaintext_cuts), draws[0::2])
        chosen = map(bisect_right, repeat(code_cuts), draws[1::2])
        tally.update(map(add, map(mul, picked, repeat(codes)), chosen))
    counts = [0] * len(domain)
    rows = model._rows
    for key, count in tally.items():
        j, c = divmod(key, codes)
        p = plaintext_pool[j]
        if rows[c][p] == sent:
            counts[p] += count
    accepted = sum(counts)
    if accepted == 0:
        raise NoAcceptedTrials(
            f"none of the {samples} trials produced message {message!r}"
        )
    frequencies = {mask: count / accepted for mask, count in zip(domain, counts)}
    return SimulationReport(frequencies, accepted, samples, seed)


def _cuts(weights: Iterable[float]) -> list[float]:
    """Where a draw u in [0, 1) moves past each cumulative weight but the last.

    Cut i is the least float u with ``u * total >= cum[i]``, where ``cum`` is
    the running sum of `weights` and ``total`` its last entry.  Float rounding
    keeps ``u * total`` monotone in u, so ``bisect_right(cuts, u)`` is
    ``min(bisect_right(cum, u * total), len(cum) - 1)`` for every u: the pick
    of the one-trial-at-a-time search, the rare round-up of ``u * total``
    onto the last boundary included, with no product per draw.
    """
    cum = list(accumulate(weights))
    total = cum[-1]
    cuts = []
    for bound in cum[:-1]:
        u = bound / total
        while u * total >= bound:
            u = math.nextafter(u, -math.inf)
        while u * total < bound:
            u = math.nextafter(u, math.inf)
        cuts.append(u)
    return cuts
