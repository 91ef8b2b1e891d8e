"""Mass functions and the belief/plausibility functionals derived from them.

All probability values are exact rationals (:class:`fractions.Fraction`);
floats are rejected so golden values never pick up rounding noise.  A
:class:`MassFunction` stores only its focal elements (subsets with strictly
positive mass), validates normalization at construction, and never assigns
mass to the empty set.

Internally a mass function is held as ``int`` bitmasks and integer numerators
over one common denominator, so Bel/Pl queries, belief-table inversion and
Dempster's rule (:mod:`beliefkit.combine`) run on integers alone.  Values come
in through one intake: each is read once as an integer ratio and scaled to the
lcm by a factor computed once per distinct denominator.  :class:`SubsetMask`
and :class:`Fraction` values are built only where they leave the API.

Dense work goes through one transform over the subset lattice, size passes
over 2^size cells (Kennes & Smets, "Computational aspects of the Möbius
transformation", UAI 1990).  The table is packed into one integer of
fixed-width fields, each wide enough for ``max|cell| * 2^size`` and a sign
bit (8, 16, 32 or 64 bits, then whole bytes), and each pass is one masked
shift-and-add over the whole integer.  Summing up the lattice gives the table
of Bel numerators: on frames of at most MAX_INVERSION_FRAME labels a mass
builds it on its first Bel or Pl query and answers every query from it;
larger frames scan the focal elements instead.  Subtracting down the lattice
inverts a belief table in :meth:`from_belief`.
"""

from __future__ import annotations

import math
import re
import struct
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Iterable, Mapping

from .errors import (
    FrameMismatch,
    MassNotNormalized,
    MassOnEmptySet,
    NegativeMass,
    NotABeliefFunction,
)
from .frames import Frame, SubsetMask

# Dense belief-table inversion allocates 2^size cells; keep it desk-scale.
MAX_INVERSION_FRAME = 12

# The lattice transform's signed struct codes, by standard size in bytes.
_FIELD_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse the exact text forms ``p/q`` and integer shorthand ``p``."""
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    numerator = int(match.group(1))
    denominator = int(match.group(2)) if match.group(2) else 1
    if denominator == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(numerator, denominator)


def format_rational(value: Fraction) -> str:
    """Render a rational as ``p/q``, or ``p`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def exact(value: object) -> Fraction:
    """Coerce ints, Fractions, and rational literals; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"probability values must be exact rationals, got float {value!r}")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def _over_one_denominator(ratios: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """Exact ``(n, d)`` pairs over their lcm, computing ``lcm // d`` once per distinct d."""
    distinct = set(map(itemgetter(1), ratios))
    denominator = math.lcm(*distinct)
    scale = {d: denominator // d for d in distinct}
    return denominator, [n * scale[d] for n, d in ratios]


def _lattice_transform(table: list[int], size: int, inverse: bool) -> list[int]:
    """Fold every cell of `table` with the cells below it, one bit at a time.

    Forward, each cell ``A`` of the returned table is the sum of the cells
    of the subsets of ``A`` (the zeta transform); with `inverse` the same
    passes subtract and undo it (the Möbius inverse).

    The table is packed into one integer of fixed-width fields, cell ``k``
    in field ``k`` in offset binary (value + 2^(w-1)).  No partial sum
    exceeds ``max|cell| * 2^size`` in magnitude, so the width w is the
    smallest of 8, 16, 32 or 64 bits that holds that bound and a sign
    bit, and past 64 bits a whole number of bytes; no field then ever
    leaves [0, 2^w).  Bit ``i`` is one masked shift-and-add over the whole
    table: the fields without bit ``i``, less their bias, shifted onto
    their partners with it.  Cells go in and out through little-endian
    ``struct`` fields of that standard size, the same on every platform,
    or through ``int.to_bytes`` per cell past 64 bits.
    """
    cells = 1 << size
    bits = max(max(table), -min(table)).bit_length() + size + 1
    nbytes = -(-bits // 8)
    if nbytes <= 8:
        nbytes = 1 << (nbytes - 1).bit_length()
    width = nbytes * 8
    code = _FIELD_CODES.get(nbytes)
    if code is None:
        data = b"".join([n.to_bytes(nbytes, "little", signed=True) for n in table])
    else:
        fields = f"<{cells}{code}"
        data = struct.pack(fields, *table)
    # Two's complement to offset binary: flip each field's top bit.
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * cells, "little")
    packed = int.from_bytes(data, "little") ^ bias
    # Fields whose index has bit i clear: the low half for the top bit, and
    # each finer mask from the one above by a shift and an exclusive or.
    low = (1 << (width << (size - 1))) - 1
    for i in reversed(range(size)):
        shift = width << i
        step = ((packed & low) - (bias & low)) << shift
        packed = packed - step if inverse else packed + step
        if i:
            low ^= low << (shift >> 1)
    data = (packed ^ bias).to_bytes(nbytes << size, "little")
    if code is None:
        return [
            int.from_bytes(data[k : k + nbytes], "little", signed=True)
            for k in range(0, len(data), nbytes)
        ]
    return list(struct.unpack(fields, data))


class MassFunction:
    """A basic probability assignment over subsets of one frame.

    Construction merges duplicate subsets by addition, drops zero entries,
    and enforces the invariants: every stored mass is positive, the masses
    sum exactly to 1, and the empty set carries no mass.

    The masses are held as one denominator (the least common denominator of
    the reduced masses) and a ``bits -> numerator`` mapping in ascending
    bitmask order; :meth:`focal` and item access rebuild the
    ``SubsetMask``/``Fraction`` pairs from it.
    """

    __slots__ = ("_frame", "_denominator", "_numerators", "_belief_table")

    def __init__(self, frame: Frame, entries: Iterable[tuple[SubsetMask, object]]):
        keys, ratios = [], []
        for mask, value in entries:
            if mask.frame is not frame and mask.frame != frame:
                raise FrameMismatch(f"focal set {mask} does not belong to the frame")
            value = value if value.__class__ is Fraction else exact(value)
            if value < 0:
                raise NegativeMass(f"mass of {mask} is negative: {format_rational(value)}")
            keys.append(mask.bits)
            ratios.append(value.as_integer_ratio())
        denominator, scaled = _over_one_denominator(ratios)
        numerators: dict[int, int] = {}
        for bits, n in zip(keys, scaled):
            numerators[bits] = numerators.get(bits, 0) + n
        self._set(frame, denominator, numerators)

    @classmethod
    def _from_numerators(
        cls, frame: Frame, denominator: int, numerators: Mapping[int, int]
    ) -> MassFunction:
        """The mass ``numerators[bits] / denominator`` on each subset ``bits``.

        The numerators must be non-negative; the constructor's checks on
        the empty set and on normalization still apply.
        """
        mass = cls.__new__(cls)
        mass._set(frame, denominator, numerators)
        return mass

    def _set(self, frame: Frame, denominator: int, numerators: Mapping[int, int]) -> None:
        focal = {bits: n for bits, n in numerators.items() if n}
        if 0 in focal:
            raise MassOnEmptySet(
                f"the empty set carries mass {format_rational(Fraction(focal[0], denominator))}"
            )
        total = sum(focal.values())
        if total != denominator:
            raise MassNotNormalized(
                f"masses sum to {format_rational(Fraction(total, denominator))}, expected 1"
            )
        # Dividing out the common factor leaves the least common denominator
        # of the reduced masses, so equal masses are equal field by field.
        common = math.gcd(denominator, *focal.values())
        self._frame = frame
        self._denominator = denominator // common
        self._numerators = {bits: focal[bits] // common for bits in sorted(focal)}
        self._belief_table = None

    @classmethod
    def vacuous(cls, frame: Frame) -> MassFunction:
        """Total ignorance: all mass on the full frame."""
        return cls(frame, [(frame.full(), Fraction(1))])

    @classmethod
    def from_belief(cls, frame: Frame, belief: Mapping[SubsetMask, object]) -> MassFunction:
        """Invert a dense belief table back into a mass function.

        `belief` must assign a value to every one of the ``2^size`` subsets
        of the frame.  The inversion is the alternating-sign sum
        ``m(A) = sum over B below A of (-1)^|A minus B| * Bel(B)``, computed
        by the inverse lattice transform on the table's numerators over one
        denominator, scaled once per distinct denominator: size
        packed-integer passes, in fields wide enough for the largest
        numerator times 2^size plus a sign bit.  Raises ValueError for a
        frame larger than MAX_INVERSION_FRAME, and NotABeliefFunction when
        the table is not dense, Bel(full) != 1, Bel(empty) != 0, or any
        inverted mass is negative.
        """
        size = frame.size
        if size > MAX_INVERSION_FRAME:
            raise ValueError(
                f"belief inversion is limited to frames of size "
                f"{MAX_INVERSION_FRAME} or smaller, got {size}"
            )
        cells = 1 << size
        table = [(0, 1)] * cells
        for mask, value in belief.items():
            if mask.frame is not frame and mask.frame != frame:
                raise FrameMismatch(f"belief table key {mask} does not belong to the frame")
            value = value if value.__class__ is Fraction else exact(value)
            table[mask.bits] = value.as_integer_ratio()
        if len(belief) != cells:
            raise NotABeliefFunction(
                f"belief table must cover all {cells} subsets, got {len(belief)}"
            )
        if table[-1] != (1, 1):
            raise NotABeliefFunction(
                f"Bel of the full frame is {format_rational(Fraction(*table[-1]))}, expected 1"
            )
        denominator, table = _over_one_denominator(table)
        table = _lattice_transform(table, size, inverse=True)
        if table[0] != 0:
            raise NotABeliefFunction(
                f"inversion puts mass {format_rational(Fraction(table[0], denominator))} "
                f"on the empty set"
            )
        if min(table) < 0:
            bits = next(bits for bits, n in enumerate(table) if n < 0)
            mass = format_rational(Fraction(table[bits], denominator))
            where = SubsetMask(frame, bits)
            raise NotABeliefFunction(f"inversion yields negative mass {mass} on {where}")
        focal = zip(compress(range(cells), table), filter(None, table))
        return cls._from_numerators(frame, denominator, dict(focal))

    @property
    def frame(self) -> Frame:
        return self._frame

    def focal(self) -> tuple[tuple[SubsetMask, Fraction], ...]:
        """Focal elements with their masses, in ascending bitmask order."""
        frame, denominator = self._frame, self._denominator
        return tuple(
            (SubsetMask(frame, bits), Fraction(n, denominator))
            for bits, n in self._numerators.items()
        )

    def _require_frame(self, mask: SubsetMask) -> None:
        if mask.frame is not self._frame and mask.frame != self._frame:
            raise FrameMismatch(f"{mask} does not belong to the frame")

    def __getitem__(self, mask: SubsetMask) -> Fraction:
        self._require_frame(mask)
        return Fraction(self._numerators.get(mask.bits, 0), self._denominator)

    def _belief_numerator(self, bits: int) -> int:
        """Numerator of Bel(`bits`): the focal elements inside `bits`.

        Read from the Bel table, built on the first query; frames past
        MAX_INVERSION_FRAME scan the focal elements instead.
        """
        table = self._belief_table
        if table is None:
            size = self._frame.size
            if size > MAX_INVERSION_FRAME:
                outside = ~bits
                return sum([n for focal, n in self._numerators.items() if not focal & outside])
            table = [0] * (1 << size)
            for focal, n in self._numerators.items():
                table[focal] = n
            table = self._belief_table = _lattice_transform(table, size, inverse=False)
        return table[bits]

    def belief(self, mask: SubsetMask) -> Fraction:
        """Total mass of focal elements contained in `mask`.

        Read from the Bel table, built on the first query, or by a scan of
        the focal elements on frames past MAX_INVERSION_FRAME.
        """
        self._require_frame(mask)
        return Fraction(self._belief_numerator(mask.bits), self._denominator)

    def plausibility(self, mask: SubsetMask) -> Fraction:
        """Mass not committed against `mask`: 1 - Bel(complement).

        Read the same way as :meth:`belief`.
        """
        self._require_frame(mask)
        complement = mask.bits ^ ((1 << self._frame.size) - 1)
        return Fraction(
            self._denominator - self._belief_numerator(complement), self._denominator
        )

    def is_bayesian(self) -> bool:
        """True iff every focal element is a singleton."""
        return all(bits.bit_count() == 1 for bits in self._numerators)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return (
            self._frame == other._frame
            and self._denominator == other._denominator
            and self._numerators == other._numerators
        )

    def __hash__(self) -> int:
        return hash((self._frame, self._denominator, tuple(self._numerators.items())))

    def __repr__(self) -> str:
        body = "; ".join(f"m({mask}) = {format_rational(v)}" for mask, v in self.focal())
        return f"MassFunction<{body}>"
