"""Mass functions and the belief/plausibility functionals derived from them.

All probability values are exact rationals (:class:`fractions.Fraction`);
floats are rejected so golden values never pick up rounding noise.  A
:class:`MassFunction` stores only its focal elements (subsets with strictly
positive mass), validates normalization at construction, and never assigns
mass to the empty set.

Internally a mass function is held as ``int`` bitmasks and integer numerators
over one common denominator, so Bel/Pl queries, belief-table inversion and
Dempster's rule (:mod:`beliefkit.combine`) run on integers alone.  Values come
in through one intake into a column of numerators and a column of
denominators: a value of class exactly Fraction is read from its two slots,
``_numerator`` and ``_denominator``, with no method call, and any other value
as ``exact(value).as_integer_ratio()``.  The columns are scaled to the lcm of
the denominators, which :meth:`from_belief` takes as it reads.  A mass keeps
a dict of positive numerators that is already in ascending bitmask order
over the least common denominator as it is handed over; only other dicts
are sorted and reduced.
:class:`SubsetMask` and :class:`Fraction` values are built only where they
leave the API.

Dense work goes through one transform over the subset lattice, size passes
over 2^size cells (Kennes & Smets, "Computational aspects of the Möbius
transformation", UAI 1990).  The table is packed into one integer of
unsigned fields wide enough for the caller's bound on every cell and partial
sum, all non-negative, and each pass is one masked shift-and-add over the
whole integer; past 64 bits a slice transform runs.  The passes' masks and
the cell indices the read-backs use are kept per size, built on first use.
A mass sums its numerators up the lattice into both of its dense tables, in
fields its denominator bounds: the Bel numerators, and over the reversed
table, which turns the subsets of a cell into its supersets, the
commonality numerators.
On frames of at most MAX_INVERSION_FRAME labels a mass builds its Bel table
on its first Bel or Pl query and answers every query from it, building each
distinct value's Fraction once per mass, on its first read; larger frames
scan the focal elements instead.  Subtracting down the lattice inverts a
belief table in :meth:`from_belief`, in fields sized by its denominator,
confirmed by the forward passes, and the product of two commonality tables
in :mod:`beliefkit.combine`, for Dempster's rule on dense pairs.
"""

from __future__ import annotations

import math
import re
import struct
import sys
from fractions import Fraction
from functools import cache
from itertools import compress
from operator import add, sub
from typing import Iterable, Mapping

from .errors import (
    FrameMismatch,
    MassNotNormalized,
    MassOnEmptySet,
    NegativeMass,
    NotABeliefFunction,
    RationalTooLarge,
)
from .frames import Frame, SubsetMask

# Dense belief-table inversion allocates 2^size cells; keep it desk-scale.
MAX_INVERSION_FRAME = 12

# The lattice transform's unsigned struct codes, by field width in bits.
_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}

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
    """Render a rational as ``p/q``, or ``p`` when the denominator is 1.

    Raises RationalTooLarge when ``p`` or ``q`` has more decimal digits than
    Python converts to text (``sys.get_int_max_str_digits()``, 4300 by default).
    """
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise RationalTooLarge(
            "exact value too large to write: one of its integers has more than "
            f"{sys.get_int_max_str_digits()} decimal digits"
        ) from None


def _diagnostic_text(value: Fraction) -> str:
    """:func:`format_rational`, or a fixed phrase for a value too large to write."""
    try:
        return format_rational(value)
    except RationalTooLarge:
        return "a value too large to write"


def exact(value: object) -> Fraction:
    """Coerce ints, Fractions, and rational literals; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"probability values must be exact rationals, got float {value!r}")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def _over_one_denominator(
    numerators: list[int], denominators: list[int]
) -> tuple[int, list[int]]:
    """The ratios ``numerators[k] / denominators[k]`` over their lcm.

    Returns the lcm and each ratio's numerator over it.
    """
    denominator = math.lcm(*set(denominators))
    return denominator, [n * (denominator // d) for n, d in zip(numerators, denominators)]


def _field_width(bound: int) -> int:
    """The smallest of 8, 16, 32 or 64 bits that holds `bound`, or more past that."""
    return 8 << ((bound.bit_length() - 1) >> 3).bit_length()


@cache
def _pass_masks(size: int, width: int) -> tuple[tuple[int, int], ...]:
    """Each pass's ``(shift, low)`` for :func:`_passes`, top bit first, kept per
    size and width: sizes up to MAX_INVERSION_FRAME and widths of 8 to 64 bits
    make at most 48 entries, about 1.35 MB of ints if every one is built."""
    masks = []
    # The low half for the top bit; each finer mask from the one above.
    low = (1 << (width << (size - 1))) - 1
    for i in reversed(range(size)):
        shift = width << i
        masks.append((shift, low))
        if i:
            low ^= low << (shift >> 1)
    return tuple(masks)


@cache
def _cell_indices(size: int) -> tuple[int, ...]:
    """``tuple(range(1 << size))``, kept per size: at most 13 entries up to
    MAX_INVERSION_FRAME, about 0.25 MB if every one is built."""
    return tuple(range(1 << size))


def _passes(packed: int, size: int, width: int, inverse: bool) -> int:
    """The lattice transform on fields of `width` bits: for bit ``i``, the
    fields whose index has ``i`` clear, shifted onto their partners with it."""
    for shift, low in _pass_masks(size, width):
        step = (packed & low) << shift
        packed = packed - step if inverse else packed + step
    return packed


def _slice_transform(table: list[int], size: int, inverse: bool) -> list[int]:
    """The lattice transform by strided slices of cells, exact on any integers.

    Bit ``i`` updates the cells with it from their partners without it, by
    one slice per offset in a block of ``2^(i+1)`` cells or one per block,
    whichever is fewer.  Returns a new list.
    """
    op = sub if inverse else add
    table = list(table)
    cells = 1 << size
    for i in range(size):
        half = 1 << i
        step = half << 1
        if half <= cells // step:
            for hi in range(half, step):
                table[hi::step] = map(op, table[hi::step], table[hi - half :: step])
        else:
            for lo in range(0, cells, step):
                hi = lo + half
                table[hi : lo + step] = map(op, table[hi : lo + step], table[lo:hi])
    return table


def _lattice_transform(table: list[int], size: int, inverse: bool, bound: int) -> list[int]:
    """Fold every cell of `table` with the cells below it, one bit at a time.

    Forward, each cell ``A`` of the returned table is the sum of the cells
    of the subsets of ``A`` (the zeta transform); with `inverse` the same
    passes subtract and undo it (the Möbius inverse).

    `bound` is at least every cell and partial sum, all non-negative, so no
    pass carries or borrows across the unsigned fields of :func:`_field_width`
    bits, packed as little-endian ``struct`` fields of standard size, the
    same on every platform.  Past 64 bits the slice transform runs.
    """
    width = _field_width(bound)
    if width > 64:
        return _slice_transform(table, size, inverse)
    fields = f"<{1 << size}{_FIELD_CODES[width]}"
    packed = _passes(int.from_bytes(struct.pack(fields, *table), "little"), size, width, inverse)
    return list(struct.unpack(fields, packed.to_bytes(width << size >> 3, "little")))


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

    __slots__ = ("_frame", "_denominator", "_numerators", "_belief_table", "_fractions")

    def __init__(self, frame: Frame, entries: Iterable[tuple[SubsetMask, object]]):
        keys, nums, dens = [], [], []
        for mask, value in entries:
            if mask.frame is not frame and mask.frame != frame:
                raise FrameMismatch(f"focal set {mask} does not belong to the frame")
            if value.__class__ is Fraction:
                n, d = value._numerator, value._denominator
            else:
                n, d = exact(value).as_integer_ratio()
            if n < 0:
                raise NegativeMass(
                    f"mass of {mask} is negative: {_diagnostic_text(Fraction(n, d))}"
                )
            if n:
                keys.append(mask.bits)
                nums.append(n)
                dens.append(d)
        denominator, scaled = _over_one_denominator(nums, dens)
        numerators: dict[int, int] = {}
        for bits, n in zip(keys, scaled):
            numerators[bits] = numerators.get(bits, 0) + n
        self._set(frame, denominator, numerators)

    @classmethod
    def _from_numerators(
        cls, frame: Frame, denominator: int, numerators: dict[int, int]
    ) -> MassFunction:
        """The mass ``numerators[bits] / denominator`` on each subset ``bits``.

        The numerators must be positive; the constructor's checks on the
        empty set and on normalization still apply.  A dict already in
        ascending bitmask order over the least common denominator is kept
        as it is, so the caller must not change it afterwards.
        """
        mass = cls.__new__(cls)
        mass._set(frame, denominator, numerators)
        return mass

    def _set(self, frame: Frame, denominator: int, numerators: dict[int, int]) -> None:
        if 0 in numerators:
            raise MassOnEmptySet(
                "the empty set carries mass "
                f"{_diagnostic_text(Fraction(numerators[0], denominator))}"
            )
        total = sum(numerators.values())
        if total != denominator:
            raise MassNotNormalized(
                f"masses sum to {_diagnostic_text(Fraction(total, denominator))}, expected 1"
            )
        # Dividing out the common factor leaves the least common denominator
        # of the reduced masses, so equal masses are equal field by field.
        common = math.gcd(denominator, *numerators.values())
        keys = list(numerators)
        if common != 1 or keys != sorted(keys):
            numerators = {bits: numerators[bits] // common for bits in sorted(keys)}
        self._frame = frame
        self._denominator = denominator // common
        self._numerators = numerators
        self._belief_table = self._fractions = None

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
        denominator D, the lcm of the values' denominators, taken as they are
        read: size packed-integer passes in unsigned fields sized by D,
        confirmed by the forward passes.  Any other table, and any D
        past 64 bits, goes through the exact slice transform, which finds
        its first negative mass.  Raises ValueError for a
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
        nums, dens = [0] * cells, [1] * cells
        denominator = 1  # the lcm of the denominators read so far
        for mask, value in belief.items():
            if mask.frame is not frame and mask.frame != frame:
                raise FrameMismatch(f"belief table key {mask} does not belong to the frame")
            bits = mask.bits
            if value.__class__ is Fraction:
                nums[bits], d = value._numerator, value._denominator
            else:
                nums[bits], d = exact(value).as_integer_ratio()
            dens[bits] = d
            if denominator % d:
                denominator = math.lcm(denominator, d)
        if len(belief) != cells:
            raise NotABeliefFunction(
                f"belief table must cover all {cells} subsets, got {len(belief)}"
            )
        if nums[-1] != 1 or dens[-1] != 1:
            raise NotABeliefFunction(
                f"Bel of the full frame is {_diagnostic_text(Fraction(nums[-1], dens[-1]))}, "
                "expected 1"
            )
        table = [n * (denominator // d) for n, d in zip(nums, dens)]
        if table[0]:  # m(empty) = Bel(empty)
            raise NotABeliefFunction(
                f"inversion puts mass {_diagnostic_text(Fraction(table[0], denominator))} "
                f"on the empty set"
            )
        width, masses = _field_width(denominator), None
        if width <= 64:
            # D bounds every partial sum of a belief function's inverse.  A
            # cell that does not fit, or a borrow out of the top field,
            # raises; masses that sum to D sum back up with no carry, so
            # they are exact if that gives back the input.
            fields = f"<{cells}{_FIELD_CODES[width]}"
            try:
                packed = int.from_bytes(struct.pack(fields, *table), "little")
                inverted = _passes(packed, size, width, True)
                masses = struct.unpack(fields, inverted.to_bytes(width << size >> 3, "little"))
            except (struct.error, OverflowError):
                pass
        if masses is None or sum(masses) != denominator or (
            _passes(inverted, size, width, False) != packed
        ):
            masses = _slice_transform(table, size, True)
        focal = dict(zip(compress(_cell_indices(size), masses), filter(None, masses)))
        if min(focal.values()) < 0:
            bits = next(bits for bits, n in focal.items() if n < 0)
            mass = _diagnostic_text(Fraction(focal[bits], denominator))
            where = SubsetMask(frame, bits)
            raise NotABeliefFunction(f"inversion yields negative mass {mass} on {where}")
        return cls._from_numerators(frame, denominator, focal)

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

    def __getitem__(self, mask: SubsetMask) -> Fraction:
        if mask.frame is not self._frame and mask.frame != self._frame:
            raise FrameMismatch(f"{mask} does not belong to the frame")
        return Fraction(self._numerators.get(mask.bits, 0), self._denominator)

    def _belief_numerator(self, bits: int) -> int:
        """Numerator of Bel(`bits`): the focal elements inside `bits`.

        Called while there is no Bel table: builds it, with an empty map from
        a Bel or Pl numerator to its Fraction, and reads it; frames past
        MAX_INVERSION_FRAME scan the focal elements instead.  `bits` may be
        ``~B`` for the complement of B: as a mask it keeps the focal elements
        that miss B, and as an index it reads cell ``full ^ B``.
        """
        size = self._frame.size
        if size > MAX_INVERSION_FRAME:
            outside = ~bits
            return sum([n for focal, n in self._numerators.items() if not focal & outside])
        self._belief_table = self._summed_table(0)
        self._fractions = {}
        return self._belief_table[bits]

    def _summed_table(self, flip: int) -> list[int]:
        """Each focal element A's numerator at cell ``flip ^ A`` of a 2^size
        table, summed up the lattice: for `flip` 0 cell B holds Bel(B), and
        for the full frame's bits cell ``full ^ B`` holds the commonality
        Q(B), the mass on the supersets of B, both as numerators.  Every
        partial sum adds up non-negative numerators that total the
        denominator, so the denominator bounds the transform's fields."""
        size = self._frame.size
        table = [0] * (1 << size)
        for bits, n in self._numerators.items():
            table[flip ^ bits] = n
        return _lattice_transform(table, size, False, self._denominator)

    def belief(self, mask: SubsetMask) -> Fraction:
        """Total mass of focal elements contained in `mask`.

        Read from the Bel table, built on the first query; later queries
        build each distinct value's Fraction once per mass, on its first read.
        Frames past MAX_INVERSION_FRAME scan the focal elements instead.
        """
        if mask.frame is not self._frame and mask.frame != self._frame:
            raise FrameMismatch(f"{mask} does not belong to the frame")
        fractions, bits = self._fractions, mask.bits
        if fractions is None:  # no table yet, or a frame past MAX_INVERSION_FRAME
            return Fraction(self._belief_numerator(bits), self._denominator)
        numerator = self._belief_table[bits]
        value = fractions.get(numerator)
        if value is None:
            value = fractions[numerator] = Fraction(numerator, self._denominator)
        return value

    def plausibility(self, mask: SubsetMask) -> Fraction:
        """Mass not committed against `mask`: 1 - Bel(complement).

        Read the same way as :meth:`belief`, from the same map of Fractions.
        """
        if mask.frame is not self._frame and mask.frame != self._frame:
            raise FrameMismatch(f"{mask} does not belong to the frame")
        fractions, against = self._fractions, ~mask.bits  # Bel of the complement
        if fractions is None:
            return Fraction(self._denominator - self._belief_numerator(against), self._denominator)
        numerator = self._denominator - self._belief_table[against]
        value = fractions.get(numerator)
        if value is None:
            value = fractions[numerator] = Fraction(numerator, self._denominator)
        return value

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
