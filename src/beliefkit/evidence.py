"""Coded-message evidence models over an auxiliary frame of codes.

An :class:`EvidenceModel` packages a hypothesis frame, a message alphabet, a
shared plaintext domain (the nonempty subsets every code must encode), and a
set of codes with an exact probability distribution.  Observing a coded
message induces a constraining relation between codes and plaintexts, from
which a belief function over the hypothesis frame is derived: condition the
code distribution on the codes that could have produced the message, then
pool each code's probability onto the union of plaintexts it may have
encoded.

The relations are built once per model, in one lazy pass over the codebooks
that serves every message, and they are the one place the encoding is read
for an observed message.  The belief route here and the Bayesian route in
:mod:`beliefkit.bayes` read the same relation and the same integer code
weights; they differ only in the total they divide by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from operator import or_
from typing import Mapping

from .errors import (
    CodeNotPossible,
    DuplicateCodeName,
    FrameMismatch,
    IncompleteCodebook,
    ProbabilitySumError,
    TotalConflict,
    UnknownMessage,
)
from .frames import Frame, SubsetMask, _check_text
from .mass import MassFunction, format_rational


@dataclass(frozen=True, eq=True)
class Code:
    """A named encoding of plaintext subsets into message labels."""

    name: str
    prob: Fraction
    codebook: Mapping[SubsetMask, str] = field(hash=False)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"code name must be a non-empty string, got {self.name!r}")
        _check_text(self.name, "code name")
        if not isinstance(self.prob, Fraction):
            raise TypeError(f"code probability must be a Fraction, got {self.prob!r}")
        object.__setattr__(self, "codebook", dict(self.codebook))


@dataclass(frozen=True)
class ConstrainingRelation:
    """The (code name, plaintext) pairs consistent with an observed message."""

    pairs: tuple[tuple[str, SubsetMask], ...]

    @cached_property
    def decoded(self) -> dict[str, tuple[SubsetMask, ...]]:
        """Code name -> the plaintexts it decodes the message to, model order.

        In a model's relation, codes come in model order and each code's
        plaintexts in the order of the model's ``plaintexts``.  The dict is
        built once and shared by every reader of the relation; like
        ``Code.codebook``, it must not be mutated.
        """
        grouped: dict[str, list[SubsetMask]] = {}
        for name, mask in self.pairs:
            grouped.setdefault(name, []).append(mask)
        return {name: tuple(masks) for name, masks in grouped.items()}

    def possible_codes(self) -> tuple[str, ...]:
        """Names of codes that could have produced the message, model order."""
        return tuple(self.decoded)

    def compatibility_set(self, name: str) -> SubsetMask:
        """Union of all plaintexts the relation pairs with code `name`."""
        if name not in self.decoded:
            raise CodeNotPossible(f"code {name!r} is not in the constraining relation")
        masks = self.decoded[name]
        return SubsetMask(masks[0].frame, reduce(or_, [mask.bits for mask in masks]))


@dataclass(frozen=True)
class EvidenceModel:
    """A hypothesis frame, message alphabet, plaintext domain, and coded sources."""

    frame: Frame
    messages: tuple[str, ...]
    plaintexts: tuple[SubsetMask, ...]
    codes: tuple[Code, ...]
    observed: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", tuple(self.messages))
        object.__setattr__(self, "plaintexts", tuple(self.plaintexts))
        object.__setattr__(self, "codes", tuple(self.codes))
        if not self.messages:
            raise ValueError("a model needs at least one message label")
        if any(not isinstance(m, str) or not m for m in self.messages):
            raise ValueError("message labels must be non-empty strings")
        for message in self.messages:
            _check_text(message, "message label")
        if len(set(self.messages)) != len(self.messages):
            raise ValueError(f"message labels must be distinct: {self.messages}")
        if not self.plaintexts:
            raise ValueError("the plaintext domain must be non-empty")
        for mask in self.plaintexts:
            if mask.frame != self.frame:
                raise FrameMismatch(f"plaintext {mask} does not belong to the frame")
            if len(mask) == 0:
                raise ValueError("the empty set cannot be a plaintext")
        if len(set(self.plaintexts)) != len(self.plaintexts):
            raise ValueError("plaintext domain entries must be distinct")
        names = [code.name for code in self.codes]
        if len(set(names)) != len(names):
            raise DuplicateCodeName(f"code names must be distinct: {names}")
        domain = set(self.plaintexts)
        for code in self.codes:
            keys = set(code.codebook)
            if keys != domain:
                missing = sorted(str(m) for m in domain - keys)
                extra = sorted(str(m) for m in keys - domain)
                detail = []
                if missing:
                    detail.append(f"missing {', '.join(missing)}")
                if extra:
                    detail.append(f"extra {', '.join(extra)}")
                raise IncompleteCodebook(
                    f"code {code.name!r} must cover exactly the plaintext domain: "
                    + "; ".join(detail)
                )
            for mask, label in code.codebook.items():
                if label not in self.messages:
                    raise UnknownMessage(
                        f"code {code.name!r} maps {mask} to {label!r}, "
                        f"which is not in the message alphabet"
                    )
            if code.prob <= 0:
                raise ProbabilitySumError(
                    f"code {code.name!r} has non-positive probability "
                    f"{format_rational(code.prob)}"
                )
        total = sum((code.prob for code in self.codes), Fraction(0))
        if total != 1:
            raise ProbabilitySumError(
                f"code probabilities sum to {format_rational(total)}, expected 1"
            )
        if self.observed is not None and self.observed not in self.messages:
            raise UnknownMessage(
                f"observed message {self.observed!r} is not in the alphabet"
            )

    def _require_message(self, message: str) -> None:
        if message not in self.messages:
            raise UnknownMessage(
                f"message {message!r} is not in the alphabet "
                f"({', '.join(self.messages)})"
            )

    def constraining_relation(self, message: str) -> ConstrainingRelation:
        """All (code, plaintext) pairs whose encoding equals `message`.

        The relation is built once per model and shared by every call.
        """
        self._require_message(message)
        return self._relations[message]

    @cached_property
    def _relations(self) -> dict[str, ConstrainingRelation]:
        pairs: dict[str, list[tuple[str, SubsetMask]]] = {m: [] for m in self.messages}
        for code in self.codes:
            for mask in self.plaintexts:
                pairs[code.codebook[mask]].append((code.name, mask))
        return {message: ConstrainingRelation(tuple(p)) for message, p in pairs.items()}

    def derive_mass(self, message: str) -> MassFunction:
        """Belief function induced by observing `message`.

        Conditions the code distribution on the possible codes, then sums
        the conditional probability of every code whose compatibility set is
        a given subset.  Raises TotalConflict when no code can produce the
        message.
        """
        relation = self.constraining_relation(message)
        if not relation.decoded:
            raise TotalConflict(f"no code can produce message {message!r}")
        weights, _ = self._possible_code_weights(relation)
        pooled: dict[int, int] = {}
        for name, masks in relation.decoded.items():
            bits = reduce(or_, [mask.bits for mask in masks])
            pooled[bits] = pooled.get(bits, 0) + weights[name]
        return MassFunction._from_numerators(self.frame, sum(weights.values()), pooled)

    def _possible_code_weights(
        self, relation: ConstrainingRelation
    ) -> tuple[dict[str, int], int]:
        """Integer weights of the codes of `relation`, model order, and their denominator.

        A code's prior probability is its weight over the denominator, the
        common denominator of the possible codes' probabilities.  The belief
        route divides the weights by their sum instead, which gives
        P(code | the code is possible); the Bayesian route sums them per
        plaintext over the denominator, which gives the likelihoods.
        """
        prob = {code.name: code.prob for code in self.codes if code.name in relation.decoded}
        denominator = math.lcm(*(p.denominator for p in prob.values()))
        weights = {name: p.numerator * (denominator // p.denominator) for name, p in prob.items()}
        return weights, denominator
