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
the message the code sends that plaintext to.  A code the document parser
builds carries its row, checked as it was read, and builds its ``codebook``
dict only when asked.  The relations are built once per model, in one lazy
pass over the table that serves every message.  Each
:class:`ConstrainingRelation` is one record: what every possible code
decodes the message to, and each such code's prior probability as an
integer weight over one common denominator.  The belief route here and the
Bayesian route in :mod:`beliefkit.bayes` read the same record; they differ
only in the total they divide the weights by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Mapping, Sequence

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
from .mass import MassFunction, _over_one_denominator, format_rational


def _table_row(indices: Iterable[int], messages: Sequence[str]) -> Sequence[int]:
    """A row of a model's table: a byte per plaintext while every message index fits."""
    return bytes(indices) if len(messages) <= 256 else tuple(indices)


@dataclass(frozen=True, eq=True)
class Code:
    """A named encoding of plaintext subsets into message labels.

    A code the document parser builds holds its row of the model's table
    and builds ``codebook`` from it on first read.
    """

    name: str
    prob: Fraction
    codebook: Mapping[SubsetMask, str] = field(hash=False)
    _row = None  # (plaintexts, messages, row) of a code built from a table row

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"code name must be a non-empty string, got {self.name!r}")
        _check_text(self.name, "code name")
        if not isinstance(self.prob, Fraction):
            raise TypeError(f"code probability must be a Fraction, got {self.prob!r}")
        if self._row is None:
            object.__setattr__(self, "codebook", dict(self.codebook))

    @classmethod
    def _from_row(
        cls, name: str, prob: Fraction, plaintexts: tuple, messages: tuple, row: Sequence[int]
    ) -> Code:
        """The code sending ``plaintexts[p]`` to ``messages[row[p]]``."""
        code = cls.__new__(cls)
        object.__setattr__(code, "name", name)
        object.__setattr__(code, "prob", prob)
        object.__setattr__(code, "_row", (plaintexts, messages, row))
        code.__post_init__()
        return code

    def __getattr__(self, attr: str):
        # Only attributes the instance lacks get here: the codebook of a code
        # built from a row, before its first read.
        if attr != "codebook" or self._row is None:
            raise AttributeError(attr)
        plaintexts, messages, row = self._row
        codebook = {mask: messages[m] for mask, m in zip(plaintexts, row)}
        object.__setattr__(self, "codebook", codebook)
        return codebook


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
                    f"{format_rational(code.prob)}"
                )
        denominator, numerators = _over_one_denominator(
            [code.prob.as_integer_ratio() for code in self.codes]
        )
        total = sum(numerators)
        if total != denominator:
            raise ProbabilitySumError(
                f"code probabilities sum to {format_rational(Fraction(total, denominator))}, "
                "expected 1"
            )
        if self.observed is not None and self.observed not in self.messages:
            raise UnknownMessage(
                f"observed message {self.observed!r} is not in the alphabet"
            )
        object.__setattr__(self, "_rows", tuple(rows))

    def _row_of(self, code: Code, index: dict[str, int]) -> tuple[int, ...]:
        """The code's row of the table; raises its codebook's first fault."""
        own = code._row
        if own is not None and own[0] is self.plaintexts and own[1] is self.messages:
            return own[2]  # read from a document against this domain and alphabet
        codebook = code.codebook
        try:
            # keys in domain order, as builders write them, are read unhashed
            if tuple(codebook) == self.plaintexts:
                labels = codebook.values()
            else:
                labels = [codebook[mask] for mask in self.plaintexts]
            row = _table_row(map(index.__getitem__, labels), self.messages)
            if len(codebook) == len(self.plaintexts):
                return row
        except (KeyError, TypeError):
            pass
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
        for mask, label in codebook.items():
            if label not in self.messages:
                raise UnknownMessage(
                    f"code {code.name!r} maps {mask} to {label!r}, "
                    f"which is not in the message alphabet"
                )
        # every label equals a message, but one does not hash like it
        indices = [self.messages.index(codebook[mask]) for mask in self.plaintexts]
        return _table_row(indices, self.messages)

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

        The relation is built once per model and shared by every call.
        """
        self._message_index(message)
        return self._relations[message]

    @cached_property
    def _relations(self) -> dict[str, ConstrainingRelation]:
        # decoded[m][c]: the plaintext positions code c sends to message m
        decoded: list[dict[int, list[int]]] = [{} for _ in self.messages]
        for c, row in enumerate(self._rows):
            for p, m in enumerate(row):
                decoded[m].setdefault(c, []).append(p)
        plaintexts = self.plaintexts
        names = [code.name for code in self.codes]
        numerators = [code.prob.numerator for code in self.codes]
        denominators = [code.prob.denominator for code in self.codes]
        relations = {}
        for message, by_code in zip(self.messages, decoded):
            denominator = math.lcm(*map(denominators.__getitem__, by_code))
            relations[message] = ConstrainingRelation(
                {
                    names[c]: tuple(map(plaintexts.__getitem__, positions))
                    for c, positions in by_code.items()
                },
                {names[c]: numerators[c] * (denominator // denominators[c]) for c in by_code},
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
