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
for an observed message.  Each :class:`ConstrainingRelation` is one record:
what every possible code decodes the message to, and each such code's
prior probability as an integer weight over one common denominator.  The
belief route here and the Bayesian route in :mod:`beliefkit.bayes` read
the same record; they differ only in the total they divide the weights by.
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
    """The codes and plaintexts consistent with an observed message.

    ``decoded`` maps each possible code's name, in model order, to the
    plaintexts it decodes the message to, in the model's ``plaintexts``
    order; ``weights`` gives each such code's prior probability as an integer
    over ``denominator``, the lcm of those probabilities' denominators.  A model
    shares its records with every reader; like ``Code.codebook``, they must not
    be mutated.
    """

    decoded: Mapping[str, tuple[SubsetMask, ...]] = field(hash=False)
    weights: Mapping[str, int] = field(hash=False)
    denominator: int

    @property
    def pairs(self) -> tuple[tuple[str, SubsetMask], ...]:
        """Every (code name, plaintext) pair of the relation, in ``decoded`` order."""
        return tuple((name, mask) for name, masks in self.decoded.items() for mask in masks)

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
        grouped: dict[str, dict[str, list[SubsetMask]]] = {m: {} for m in self.messages}
        for code in self.codes:
            for mask in self.plaintexts:
                grouped[code.codebook[mask]].setdefault(code.name, []).append(mask)
        prob = {code.name: code.prob for code in self.codes}
        relations = {}
        for message, by_name in grouped.items():
            denominator = math.lcm(*(prob[name].denominator for name in by_name))
            relations[message] = ConstrainingRelation(
                {name: tuple(masks) for name, masks in by_name.items()},
                {
                    name: prob[name].numerator * (denominator // prob[name].denominator)
                    for name in by_name
                },
                denominator,
            )
        return relations

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
        pooled: dict[int, int] = {}
        for name, masks in relation.decoded.items():
            bits = reduce(or_, [mask.bits for mask in masks])
            pooled[bits] = pooled.get(bits, 0) + relation.weights[name]
        return MassFunction._from_numerators(self.frame, sum(relation.weights.values()), pooled)
