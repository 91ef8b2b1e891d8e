"""Dempster's rule of combination, implemented two independent ways.

:func:`combine_masses` works directly on two mass functions: intersect every
pair of focal elements, set aside the product mass that lands on the empty
set as conflict, and renormalize.  :func:`combine_models` never builds the
two mass functions; it enumerates the joint constraining relation of two
coded-message models (code pairs with every plaintext pair they may have
encoded) and pools conditional product probability onto the union of the
nonempty intersections.  The two routes agree exactly, combined mass and
conflict both, which the test suite checks across random model pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FrameMismatch, TotalConflict
from .frames import SubsetMask
from .mass import MassFunction
from .evidence import EvidenceModel


@dataclass(frozen=True)
class CombinationResult:
    """A combined mass function plus the conflict mass that was ruled out."""

    combined: MassFunction
    conflict: Fraction


def combine_masses(m1: MassFunction, m2: MassFunction) -> CombinationResult:
    """Combine two mass functions over one frame with Dempster's rule."""
    if m1.frame != m2.frame:
        raise FrameMismatch("mass functions must share a frame to be combined")
    pooled: dict[SubsetMask, Fraction] = {}
    conflict = Fraction(0)
    for left, v1 in m1.focal():
        for right, v2 in m2.focal():
            meet = left & right
            if len(meet) == 0:
                conflict += v1 * v2
            else:
                pooled[meet] = pooled.get(meet, Fraction(0)) + v1 * v2
    if conflict == 1:
        raise TotalConflict("every focal intersection is empty")
    scale = 1 - conflict
    entries = [(mask, value / scale) for mask, value in pooled.items()]
    return CombinationResult(MassFunction(m1.frame, entries), conflict)


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
    weight1 = model1._possible_code_weights(relation1)
    weight2 = model2._possible_code_weights(relation2)
    pooled: dict[SubsetMask, Fraction] = {}
    conflict = Fraction(0)
    for name1, plaintexts1 in relation1.decoded.items():
        for name2, plaintexts2 in relation2.decoded.items():
            weight = weight1[name1] * weight2[name2]
            compat: SubsetMask | None = None
            for a1 in plaintexts1:
                for a2 in plaintexts2:
                    meet = a1 & a2
                    if len(meet) > 0:
                        compat = meet if compat is None else compat | meet
            if compat is None:
                conflict += weight
            else:
                pooled[compat] = pooled.get(compat, Fraction(0)) + weight
    if conflict == 1:
        raise TotalConflict("the two messages rule out every code pair")
    scale = 1 - conflict
    entries = [(mask, value / scale) for mask, value in pooled.items()]
    return CombinationResult(MassFunction(model1.frame, entries), conflict)

