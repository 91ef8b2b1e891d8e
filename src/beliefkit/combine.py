"""Dempster's rule of combination, by three routes.

:func:`combine_masses` works directly on two mass functions, by one of two
routes chosen by size.  Most pairs intersect every pair of focal elements,
set aside the product mass that lands on the empty set as conflict, and
renormalize.  Dense pairs on frames of at most MAX_INVERSION_FRAME labels
multiply the two commonality tables cell by cell instead and invert the
product with the lattice transform of :mod:`beliefkit.mass`.
:func:`combine_models` never builds the two mass functions; it pools each
code pair's product weight onto Γ₁(c₁) ∩ Γ₂(c₂), the meet of the two codes'
compatibility sets, which each relation computes once.  It and the
focal-intersection route run one pairwise kernel; their independence lies in
its input, one Γ per code rather than pooled focal elements.  The three
routes agree exactly, combined mass and conflict both, which the test suite
checks across random model pairs and against set oracles.

Every route pools integer products of common-denominator numerators onto
``int`` bitmasks and counts conflict as an integer over the product of the
denominators; ``SubsetMask`` and ``Fraction`` values appear only in the
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Iterable

from .errors import FrameMismatch, TotalConflict
from .frames import Frame
from .mass import MAX_INVERSION_FRAME, MassFunction, _lattice_transform
from .evidence import EvidenceModel


@dataclass(frozen=True)
class CombinationResult:
    """A combined mass function plus the conflict mass that was ruled out."""

    combined: MassFunction
    conflict: Fraction


def _renormalized(
    frame: Frame, pooled: dict[int, int], conflict: int, total: int, why: str
) -> CombinationResult:
    """`pooled` over ``total - conflict``, with the conflict over `total`.

    Raises TotalConflict with the text `why` when all of `total` conflicts.
    """
    if conflict == total:
        raise TotalConflict(why)
    combined = MassFunction._from_numerators(frame, total - conflict, pooled)
    return CombinationResult(combined, Fraction(conflict, total))


def _pairwise(
    frame: Frame, left: Iterable, right: Iterable, total: int, why: str
) -> CombinationResult:
    """Dempster's rule on two lists of ``(bits, integer weight)`` pairs.

    Pools each product on the meet of its two bit sets, or on the conflict
    when the meet is empty, and renormalizes over `total`, the sum of all
    products; raises TotalConflict with the text `why` if all of it conflicts.
    """
    right = tuple(right)
    pooled: dict[int, int] = {}
    conflict = 0
    for bits1, x1 in left:
        for bits2, x2 in right:
            meet = bits1 & bits2
            if meet:
                pooled[meet] = pooled.get(meet, 0) + x1 * x2
            else:
                conflict += x1 * x2
    return _renormalized(frame, pooled, conflict, total, why)


# The dispatch rule of combine_masses.  The intersection loop costs one step
# per pair of focal elements, k1 * k2 in all; the commonality route costs
# three lattice transforms and one product over the 2^size cells, plus a
# fixed cost.  So a pair goes through commonality tables when
#     k1 * k2 > _PAIRS_PER_CELL * (2^size + _FIXED_CELLS)
# on a frame of at most MAX_INVERSION_FRAME labels.  Both constants are fitted
# to a sweep of frames 3-12 at k1 = k2 (BENCH_18.json).  The routes broke
# even at k1 * k2 of 3-5 times 2^size on frames 8-12, about 6 times on frames
# 6 and 7 and 6-8 times on frame 5; the rule switches at 4.1-5 times on frames
# 8-12, 6 on frame 7, 8 on frame 6 and 12 on frame 5.  No pair on 4 labels or
# fewer reaches it (15 * 15 = 225 < 320); there the commonality route was
# never more than 10 microseconds faster.
_PAIRS_PER_CELL = 4
_FIXED_CELLS = 64


def combine_masses(m1: MassFunction, m2: MassFunction) -> CombinationResult:
    """Combine two mass functions over one frame with Dempster's rule.

    A pair of masses with k1 and k2 focal elements on a frame of at most
    MAX_INVERSION_FRAME labels goes through commonality tables when
    ``k1 * k2 > 4 * (2^size + 64)``; every other pair intersects each pair
    of focal elements.  The two routes give the same exact result.
    """
    if m1.frame != m2.frame:
        raise FrameMismatch("mass functions must share a frame to be combined")
    size = m1.frame.size
    pairs = len(m1._numerators) * len(m2._numerators)
    if size <= MAX_INVERSION_FRAME and pairs > _PAIRS_PER_CELL * ((1 << size) + _FIXED_CELLS):
        return _combine_by_commonality(m1, m2)
    return _combine_by_intersection(m1, m2)


def _combine_by_intersection(m1: MassFunction, m2: MassFunction) -> CombinationResult:
    """Dempster's rule by intersecting every pair of focal elements."""
    total = m1._denominator * m2._denominator
    left, right = m1._numerators.items(), m2._numerators.items()
    return _pairwise(m1.frame, left, right, total, "every focal intersection is empty")


def _combine_by_commonality(m1: MassFunction, m2: MassFunction) -> CombinationResult:
    """Dempster's rule through the product of the two commonality tables.

    The commonality Q(A) of a mass sums it over the supersets of A, and
    the unnormalised combination has Q1 * Q2 as its commonality.  Cell
    ``full ^ A`` of a table holds A, so the supersets of A sit below that
    cell: the zeta transform of each reversed mass is its reversed Q, and
    the Möbius inverse of their cell-by-cell product is the reversed
    unnormalised combination, over ``d1 * d2``, with the conflict in cell
    ``full`` (Kennes & Smets, UAI 1990).
    """
    size = m1.frame.size
    cells = 1 << size
    full = cells - 1
    # The kernel's unsigned fields need every cell and partial sum
    # non-negative and within the bound.  Every partial sum forward adds up
    # some of a mass's non-negative numerators, so its denominator bounds it.
    # Part-way through, the inverse holds a partial zeta transform of the
    # non-negative unnormalised combination, whose cells total d1 * d2.
    tables = []
    for mass in (m1, m2):
        table = [0] * cells
        for bits, n in mass._numerators.items():
            table[full ^ bits] = n
        tables.append(_lattice_transform(table, size, False, mass._denominator))
    bound = m1._denominator * m2._denominator
    product = _lattice_transform(list(map(mul, *tables)), size, True, bound)
    # The last cell holds the conflict; reversed, the rest hold A at index A - 1.
    conflict = product.pop()
    product.reverse()
    pooled = dict(zip(compress(range(1, cells), product), filter(None, product)))
    return _renormalized(m1.frame, pooled, conflict, bound, "every focal intersection is empty")


def combine_models(
    model1: EvidenceModel,
    message1: str,
    model2: EvidenceModel,
    message2: str,
) -> CombinationResult:
    """Combine the evidence of two observed messages via the joint relation.

    Both models must share the hypothesis frame; their codes are chosen
    independently, so code pairs carry the product of each model's
    message-conditioned code probabilities.  A code pair's compatibility set
    is Γ₁(c₁) ∩ Γ₂(c₂), the meet of the sets each relation computes once, and
    by distributivity the union of its plaintext pairs' intersections.  Product
    mass on empty meets is the conflict; the rest renormalizes.
    """
    if model1.frame != model2.frame:
        raise FrameMismatch("models must share the hypothesis frame to be combined")
    relation1 = model1.constraining_relation(message1)
    relation2 = model2.constraining_relation(message2)
    if not relation1.decoded or not relation2.decoded:
        raise TotalConflict("one of the messages cannot be produced by any code")
    total = sum(relation1.weights.values()) * sum(relation2.weights.values())
    left, right = relation1._compatibility.values(), relation2._compatibility.values()
    why = "the two messages rule out every code pair"
    return _pairwise(model1.frame, left, right, total, why)
