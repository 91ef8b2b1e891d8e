"""Dempster's rule of combination, implemented two independent ways.

:func:`combine_masses` works directly on two mass functions: intersect every
pair of focal elements, set aside the product mass that lands on the empty
set as conflict, and renormalize.  :func:`combine_models` never builds the
two mass functions; it enumerates the joint constraining relation of two
coded-message models (code pairs with every plaintext pair they may have
encoded) and pools conditional product probability onto the union of the
nonempty intersections.  The two routes agree exactly, combined mass and
conflict both, which the test suite checks across random model pairs.

Both routes pool integer products of common-denominator numerators onto
``int`` bitmasks and count conflict as an integer over the product of the
denominators; ``SubsetMask`` and ``Fraction`` values appear only in the
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FrameMismatch, TotalConflict
from .frames import Frame
from .mass import MassFunction
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


def combine_masses(m1: MassFunction, m2: MassFunction) -> CombinationResult:
    """Combine two mass functions over one frame with Dempster's rule."""
    if m1.frame != m2.frame:
        raise FrameMismatch("mass functions must share a frame to be combined")
    right = tuple(m2._numerators.items())
    pooled: dict[int, int] = {}
    conflict = 0
    for bits1, x1 in m1._numerators.items():
        for bits2, x2 in right:
            meet = bits1 & bits2
            if meet:
                pooled[meet] = pooled.get(meet, 0) + x1 * x2
            else:
                conflict += x1 * x2
    total = m1._denominator * m2._denominator
    return _renormalized(
        m1.frame, pooled, conflict, total, "every focal intersection is empty"
    )


def combine_models(
    model1: EvidenceModel,
    message1: str,
    model2: EvidenceModel,
    message2: str,
) -> CombinationResult:
    """Combine the evidence of two observed messages via the joint relation.

    Both models must share the hypothesis frame; their codes are chosen
    independently, so code pairs carry the product of each model's
    message-conditioned code probabilities.  A code pair is compatible when
    some plaintext pair it may have encoded intersects; its compatibility
    set is the union of those intersections.  Product mass on incompatible
    pairs is the conflict, and the rest renormalizes to the combined mass.
    """
    if model1.frame != model2.frame:
        raise FrameMismatch("models must share the hypothesis frame to be combined")
    relation1 = model1.constraining_relation(message1)
    relation2 = model2.constraining_relation(message2)
    if not relation1.decoded or not relation2.decoded:
        raise TotalConflict("one of the messages cannot be produced by any code")
    codes2 = [
        (relation2.weights[name], tuple(mask.bits for mask in plaintexts))
        for name, plaintexts in relation2.decoded.items()
    ]
    pooled: dict[int, int] = {}
    conflict = 0
    for name1, plaintexts1 in relation1.decoded.items():
        w1 = relation1.weights[name1]
        decoded1 = tuple(mask.bits for mask in plaintexts1)
        for w2, decoded2 in codes2:
            compat = 0  # empty intersections add nothing to the union
            for a1 in decoded1:
                for a2 in decoded2:
                    compat |= a1 & a2
            if compat:
                pooled[compat] = pooled.get(compat, 0) + w1 * w2
            else:
                conflict += w1 * w2
    total = sum(relation1.weights.values()) * sum(relation2.weights.values())
    return _renormalized(
        model1.frame, pooled, conflict, total, "the two messages rule out every code pair"
    )
