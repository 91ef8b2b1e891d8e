"""Coded-message evidence models over an auxiliary frame of codes.

An :class:`EvidenceModel` packages a hypothesis frame, a message alphabet, a
shared plaintext domain (the nonempty subsets every code must encode), and a
set of codes with an exact probability distribution.  Observing a coded
message induces a constraining relation between codes and plaintexts, from
which a belief function over the hypothesis frame is derived: condition the
code distribution on the codes that could have produced the message, then
pool each code's probability onto the union of plaintexts it may have
encoded.

A model holds its encoding as one table, built once by the constructor:
one row per code, holding for each position in ``plaintexts`` the index of
the message the code sends that plaintext to, read from the code's
``codebook`` dict.  A message's relation is built on its first request,
from the rows that send some plaintext to it, and kept by the model for
every later one; no other message's relation is built.  Each
:class:`ConstrainingRelation` is one record: what every possible code
decodes the message to, and each such code's prior probability as an
integer weight over one common denominator.  It computes each code's
compatibility set Γ(c) once, on first read, and pairs it with the code's
weight: ``derive_mass`` pools each weight on its Γ(c), and the product
route of :mod:`beliefkit.combine` each product of two on Γ₁ ∩ Γ₂.  The
belief route here and the Bayesian route in :mod:`beliefkit.bayes` read the
same record; they differ only in the total they divide the weights by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import compress
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
from .frames import Frame, SubsetMask, _check_ordered, _check_text
from .mass import MassFunction, _diagnostic_text, _over_one_denominator


@dataclass(frozen=True, eq=True)
class Code:
    """A named encoding of plaintext subsets into message labels.

    ``codebook`` is copied into a dict of the code's own, in the order given.
    """

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
    over ``denominator``, the lcm of those probabilities' denominators.  Each
    code's compatibility set Γ(c) is computed once per record on first read
    and paired with its weight; ``derive_mass`` and ``combine_models`` read
    those pairs.  They are no field, so ``==``, ``hash`` and ``repr`` ignore
    them.  A model shares its records with every reader; like
    ``Code.codebook``, they must not be mutated.
    """

    decoded: Mapping[str, tuple[SubsetMask, ...]] = field(hash=False)
    weights: Mapping[str, int] = field(hash=False)
    denominator: int

    @property
    def pairs(self) -> tuple[tuple[str, SubsetMask], ...]:
        """Every (code name, plaintext) pair of the relation, in ``decoded`` order."""
        return tuple((name, mask) for name, masks in self.decoded.items() for mask in masks)

    @cached_property
    def _compatibility(self) -> dict[str, tuple[int, int]]:
        """Each possible code's name -> (bits of its Γ, its weight), ``decoded`` order."""
        return {
            name: (reduce(or_, [m.bits for m in ms], 0), self.weights[name])
            for name, ms in self.decoded.items()
        }

    def compatibility_set(self, name: str) -> SubsetMask:
        """Union of all plaintexts the relation pairs with code `name`."""
        if name not in self.decoded:
            raise CodeNotPossible(f"code {name!r} is not in the constraining relation")
        return SubsetMask(self.decoded[name][0].frame, self._compatibility[name][0])


@dataclass(frozen=True)
class EvidenceModel:
    """A hypothesis frame, message alphabet, plaintext domain, and coded sources.

    The encoding is held as one table, built once: ``_rows[c][p]`` is the
    index in ``messages`` of the label code ``c`` sends ``plaintexts[p]`` to.
    """

    frame: Frame
    messages: tuple[str, ...]
    plaintexts: tuple[SubsetMask, ...]
    codes: tuple[Code, ...]
    observed: str | None = None

    def __post_init__(self) -> None:
        for what in ("messages", "plaintexts", "codes"):
            _check_ordered(getattr(self, what), what)
            object.__setattr__(self, what, tuple(getattr(self, what)))
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
        # all of one frame: distinct bits are distinct plaintexts
        if len({mask.bits for mask in self.plaintexts}) != len(self.plaintexts):
            raise ValueError("plaintext domain entries must be distinct")
        names = [code.name for code in self.codes]
        if len(set(names)) != len(names):
            raise DuplicateCodeName(f"code names must be distinct: {names}")
        index = {message: m for m, message in enumerate(self.messages)}
        rows = []
        for code in self.codes:
            rows.append(self._row_of(code, index))
            if code.prob.numerator <= 0:
                raise ProbabilitySumError(
                    f"code {code.name!r} has non-positive probability "
                    f"{_diagnostic_text(code.prob)}"
                )
        denominator, numerators = _over_one_denominator(
            [code.prob.numerator for code in self.codes],
            [code.prob.denominator for code in self.codes],
        )
        total = sum(numerators)
        if total != denominator:
            raise ProbabilitySumError(
                f"code probabilities sum to {_diagnostic_text(Fraction(total, denominator))}, "
                "expected 1"
            )
        if self.observed is not None and self.observed not in self.messages:
            raise UnknownMessage(
                f"observed message {self.observed!r} is not in the alphabet"
            )
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_relations", {})  # message index -> its relation

    def _row_of(self, code: Code, index: dict[str, int]) -> tuple[int, ...]:
        """The code's row of the table; raises its codebook's first fault."""
        codebook = code.codebook
        # keys in domain order, as builders write them, are read unhashed
        if tuple(codebook) == self.plaintexts:
            labels = codebook.values()
        else:
            keys, domain = set(codebook), set(self.plaintexts)
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
            labels = [codebook[mask] for mask in self.plaintexts]
        try:
            return tuple(map(index.__getitem__, labels))
        except (KeyError, TypeError):
            pass
        for mask, label in codebook.items():
            if label not in self.messages:
                raise UnknownMessage(
                    f"code {code.name!r} maps {mask} to {label!r}, "
                    f"which is not in the message alphabet"
                )
        # every label equals a message, but one does not hash like it
        return tuple(map(self.messages.index, labels))

    def _message_index(self, message: str) -> int:
        """Position of `message` in ``messages``; raises UnknownMessage if absent."""
        try:
            return self.messages.index(message)
        except ValueError:
            raise UnknownMessage(
                f"message {message!r} is not in the alphabet "
                f"({', '.join(self.messages)})"
            ) from None

    def constraining_relation(self, message: str) -> ConstrainingRelation:
        """All (code, plaintext) pairs whose encoding equals `message`.

        Each message's relation is built on its first call, from the codes
        whose row sends some plaintext to it, and shared by every later call.
        """
        m = self._message_index(message)
        if m not in self._relations:
            decoded, probs = {}, []
            for code, row in zip(self.codes, self._rows):
                masks = tuple(compress(self.plaintexts, map(m.__eq__, row)))
                if masks:
                    decoded[code.name] = masks
                    probs.append(code.prob)
            denominator, scaled = _over_one_denominator(
                [prob.numerator for prob in probs], [prob.denominator for prob in probs]
            )
            weights = dict(zip(decoded, scaled))
            self._relations[m] = ConstrainingRelation(decoded, weights, denominator)
        return self._relations[m]

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
        for bits, weight in relation._compatibility.values():
            pooled[bits] = pooled.get(bits, 0) + weight
        return MassFunction._from_numerators(self.frame, sum(relation.weights.values()), pooled)
