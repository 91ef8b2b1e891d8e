"""Finite frames of discernment and exact subset algebra over them.

A :class:`Frame` is an ordered tuple of distinct hypothesis labels; a
:class:`SubsetMask` is a subset of one frame stored as a positional bitmask
(bit ``i`` set means ``frame.labels[i]`` is a member).  Frames compare by
content, so two identically labelled frames are interchangeable; a frame
maps each label to its position in a dict built when the frame is.  A mask
hashes as its bits, so masks of one frame never collide.  All values are
immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import FrameMismatch, UnknownLabel

# Power-set enumeration must stay desk-scale (2^24 worst case).
MAX_FRAME_SIZE = 24

_LABEL_FORBIDDEN = set("{},")


def _check_label(label: object) -> str:
    if not isinstance(label, str) or not label:
        raise ValueError(f"labels must be non-empty strings, got {label!r}")
    if any(ch in _LABEL_FORBIDDEN or ch.isspace() for ch in label):
        raise ValueError(
            f"label {label!r} may not contain braces, commas, or whitespace"
        )
    _check_text(label, "label")
    return label


def _check_text(text: str, what: str) -> None:
    """Reject strings that cannot be written out, such as lone surrogates."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{what} {text!r} is not valid Unicode text") from None


def _check_ordered(values: object, what: str) -> None:
    """Reject a set, whose iteration order can change from one process to the next."""
    if isinstance(values, (set, frozenset)):
        raise TypeError(f"{what} must be an ordered collection, got a {type(values).__name__}")


@dataclass(frozen=True)
class Frame:
    """An ordered finite set of distinct hypothesis labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.labels, str):
            raise TypeError(f"frame labels must be a sequence of strings, got {self.labels!r}")
        _check_ordered(self.labels, "frame labels")
        labels = tuple(_check_label(name) for name in self.labels)
        object.__setattr__(self, "labels", labels)
        if not 1 <= len(labels) <= MAX_FRAME_SIZE:
            raise ValueError(
                f"frame size must be between 1 and {MAX_FRAME_SIZE}, got {len(labels)}"
            )
        if len(set(labels)) != len(labels):
            raise ValueError(f"frame labels must be distinct: {labels}")
        object.__setattr__(self, "_positions", {name: i for i, name in enumerate(labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        """Position of `label` in the frame; raises UnknownLabel if absent."""
        try:
            return self._positions[label]
        except (KeyError, TypeError):
            raise UnknownLabel(
                f"label {label!r} is not in frame {{{','.join(self.labels)}}}"
            ) from None

    def subset(self, names: Iterable[str]) -> SubsetMask:
        """Mask with exactly the named members; duplicate names collapse."""
        if isinstance(names, str):
            raise TypeError(f"subset takes an iterable of labels, got the string {names!r}")
        bits = 0
        for name in names:
            bits |= 1 << self.index(name)
        return SubsetMask(self, bits)

    def empty(self) -> SubsetMask:
        return SubsetMask(self, 0)

    def full(self) -> SubsetMask:
        return SubsetMask(self, (1 << self.size) - 1)

    def parse_subset(self, text: str) -> SubsetMask:
        """Parse a brace-and-comma subset string such as ``{yes,no}`` or ``{}``."""
        if len(text) < 2 or text[0] != "{" or text[-1] != "}":
            raise ValueError(f"subset must be written in braces, got {text!r}")
        body = text[1:-1]
        if not body:
            return self.empty()
        return self.subset(body.split(","))


@dataclass(frozen=True)
class SubsetMask:
    """A subset of one frame, stored positionally."""

    frame: Frame
    bits: int

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int):
            raise TypeError(f"bits must be an int, got {type(self.bits).__name__}")
        if not 0 <= self.bits < (1 << self.frame.size):
            raise ValueError(
                f"bits {self.bits:#x} out of range for a frame of size {self.frame.size}"
            )

    def __hash__(self) -> int:
        # equal masks have equal bits; the generated __eq__ still compares frames
        return self.bits

    def _require_same_frame(self, other: SubsetMask) -> None:
        if self.frame != other.frame:
            raise FrameMismatch(
                f"cannot combine subsets of {{{','.join(self.frame.labels)}}} "
                f"and {{{','.join(other.frame.labels)}}}"
            )

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(
            name for i, name in enumerate(self.frame.labels) if self.bits >> i & 1
        )

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __and__(self, other: SubsetMask) -> SubsetMask:
        self._require_same_frame(other)
        return SubsetMask(self.frame, self.bits & other.bits)

    def __or__(self, other: SubsetMask) -> SubsetMask:
        self._require_same_frame(other)
        return SubsetMask(self.frame, self.bits | other.bits)

    def issubset(self, other: SubsetMask) -> bool:
        self._require_same_frame(other)
        return self.bits & ~other.bits == 0

    def subsets(self) -> Iterator[SubsetMask]:
        """All subsets of this mask, in ascending bits-as-integer order."""
        sub = 0
        while True:
            yield SubsetMask(self.frame, sub)
            if sub == self.bits:
                return
            # next submask in ascending order
            sub = (sub - self.bits) & self.bits

    def __str__(self) -> str:
        bits = self.bits
        names = [name for i, name in enumerate(self.frame.labels) if bits >> i & 1]
        return "{" + ",".join(names) + "}"

    def __repr__(self) -> str:
        return f"SubsetMask({self})"
