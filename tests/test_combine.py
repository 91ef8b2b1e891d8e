import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from beliefkit import (
    Code,
    EvidenceModel,
    Frame,
    FrameMismatch,
    MassFunction,
    TotalConflict,
    UnknownMessage,
    combine_masses,
    combine_models,
)

from helpers import (
    MANY_CODES,
    as_set_dict,
    mixed_fractions,
    oracle_combine,
    oracle_derive,
    producible_message,
    random_frame,
    random_mass,
    random_model,
    wide_mass,
)
from test_mass import masses

F = Fraction
YN = Frame(("yes", "no"))
NO = YN.subset(["no"])
YES = YN.subset(["yes"])
TOP = YN.full()


def spy_mass():
    return MassFunction(YN, [(NO, F(2, 3)), (TOP, F(1, 3))])


class TestDirectCombination:
    def test_vacuous_is_identity(self):
        result = combine_masses(spy_mass(), MassFunction.vacuous(YN))
        assert result.combined == spy_mass()
        assert result.conflict == 0

    def test_spy_mass_with_itself(self):
        # four focal pairs: {no}x{no}, {no}xT, Tx{no}, TxT; none empty
        result = combine_masses(spy_mass(), spy_mass())
        assert result.combined[NO] == F(8, 9)
        assert result.combined[TOP] == F(1, 9)
        assert result.conflict == 0

    def test_total_conflict(self):
        yes_sure = MassFunction(YN, [(YES, F(1))])
        no_sure = MassFunction(YN, [(NO, F(1))])
        with pytest.raises(TotalConflict, match="^every focal intersection is empty$"):
            combine_masses(yes_sure, no_sure)

    def test_partial_conflict_renormalizes(self):
        half = MassFunction(YN, [(YES, F(1, 2)), (TOP, F(1, 2))])
        no_sure = MassFunction(YN, [(NO, F(1))])
        result = combine_masses(half, no_sure)
        assert result.conflict == F(1, 2)
        assert result.combined.focal() == ((NO, F(1)),)

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatch):
            combine_masses(spy_mass(), MassFunction.vacuous(Frame(("a", "b"))))

    def test_matches_set_oracle(self):
        rng = random.Random(2718)
        for _ in range(100):
            frame = random_frame(rng, 4)
            m1 = random_mass(rng, frame)
            m2 = random_mass(rng, frame)
            expected, conflict = oracle_combine(as_set_dict(m1), as_set_dict(m2))
            if expected is None:
                with pytest.raises(TotalConflict):
                    combine_masses(m1, m2)
            else:
                result = combine_masses(m1, m2)
                assert as_set_dict(result.combined) == expected
                assert result.conflict == conflict

    def test_matches_set_oracle_at_scale_with_unlike_denominators(self):
        rng = random.Random(1729)
        for size in (8, 9, 10):
            m1, m2 = wide_mass(rng, size), wide_mass(rng, size)
            expected, conflict = oracle_combine(as_set_dict(m1), as_set_dict(m2))
            result = combine_masses(m1, m2)
            assert as_set_dict(result.combined) == expected
            assert result.conflict == conflict


@st.composite
def mass_pairs(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    frame = Frame(tuple("abcd"[:size]))
    return draw(masses(frame=frame)), draw(masses(frame=frame))


@settings(max_examples=100)
@given(mass_pairs())
def test_commutativity(pair):
    m1, m2 = pair
    try:
        left = combine_masses(m1, m2)
    except TotalConflict:
        with pytest.raises(TotalConflict):
            combine_masses(m2, m1)
        return
    right = combine_masses(m2, m1)
    assert left.combined == right.combined
    assert left.conflict == right.conflict


@settings(max_examples=100)
@given(masses())
def test_identity_element(m):
    result = combine_masses(m, MassFunction.vacuous(m.frame))
    assert result.combined == m
    assert result.conflict == 0


def test_associativity_of_combined_mass():
    rng = random.Random(1414)
    checked = 0
    while checked < 200:
        frame = random_frame(rng, 3)
        m1, m2, m3 = (random_mass(rng, frame) for _ in range(3))
        try:
            left = combine_masses(combine_masses(m1, m2).combined, m3).combined
            right = combine_masses(m1, combine_masses(m2, m3).combined).combined
        except TotalConflict:
            continue
        assert left == right
        checked += 1


class TestProductCombination:
    def test_spy_model_with_itself(self, example1):
        result = combine_models(example1, "BANANA", example1, "BANANA")
        assert result.combined[NO] == F(8, 9)
        assert result.combined[TOP] == F(1, 9)
        assert result.conflict == 0

    def test_vacuous_second_source_changes_nothing(self, example1):
        vacuous_code = Code("u", F(1), {TOP: "PEAR"})
        vacuous_model = EvidenceModel(YN, ("PEAR",), (TOP,), (vacuous_code,))
        result = combine_models(example1, "BANANA", vacuous_model, "PEAR")
        assert result.combined == example1.derive_mass("BANANA")
        assert result.conflict == 0

    def test_frame_mismatch(self, example1):
        other = Frame(("a", "b"))
        code = Code("u", F(1), {other.full(): "PEAR"})
        model = EvidenceModel(other, ("PEAR",), (other.full(),), (code,))
        with pytest.raises(FrameMismatch):
            combine_models(example1, "BANANA", model, "PEAR")

    def test_cross_model_total_conflict(self):
        a = YN.subset(["yes"])
        b = YN.subset(["no"])
        yes_model = EvidenceModel(YN, ("qa",), (a,), (Code("s", F(1), {a: "qa"}),))
        no_model = EvidenceModel(YN, ("qb",), (b,), (Code("u", F(1), {b: "qb"}),))
        with pytest.raises(
            TotalConflict, match="^the two messages rule out every code pair$"
        ):
            combine_models(yes_model, "qa", no_model, "qb")

    def test_unknown_message_rejected(self, example1):
        with pytest.raises(UnknownMessage):
            combine_models(example1, "KIWI", example1, "BANANA")

    def test_unproducible_message_is_total_conflict(self, example1):
        code = Code("u", F(1), {TOP: "PEAR"})
        model = EvidenceModel(YN, ("PEAR", "PLUM"), (TOP,), (code,))
        with pytest.raises(TotalConflict):
            combine_models(example1, "BANANA", model, "PLUM")

    def test_agrees_with_direct_route_on_random_pairs(self):
        rng = random.Random(161803)
        # The many-code pairs keep to about a hundred codes a side: the
        # product route enumerates every plaintext pair of every code pair.
        many = {**MANY_CODES, "min_codes": 100, "max_codes": 120}

        def model_pairs():
            for _ in range(120):
                frame = random_frame(rng, 3)
                yield random_model(rng, frame), random_model(rng, frame)
            for _ in range(3):
                frame = random_frame(rng, 6, min_size=5)
                yield random_model(rng, frame, **many), random_model(rng, frame, **many)

        for model1, model2 in model_pairs():
            q1 = producible_message(rng, model1)
            q2 = producible_message(rng, model2)
            try:
                direct = combine_masses(
                    model1.derive_mass(q1), model2.derive_mass(q2)
                )
            except TotalConflict:
                with pytest.raises(TotalConflict):
                    combine_models(model1, q1, model2, q2)
                continue
            product = combine_models(model1, q1, model2, q2)
            assert product.combined == direct.combined
            assert product.conflict == direct.conflict

    def test_agrees_with_direct_route_on_unlike_code_denominators(self):
        rng = random.Random(8128)
        many = {**MANY_CODES, "min_codes": 60, "max_codes": 80, "fractions": mixed_fractions}
        for _ in range(3):
            frame = random_frame(rng, 6, min_size=5)
            model1, model2 = (random_model(rng, frame, **many) for _ in range(2))
            q1, q2 = producible_message(rng, model1), producible_message(rng, model2)
            m1, m2 = model1.derive_mass(q1), model2.derive_mass(q2)
            assert as_set_dict(m1) == oracle_derive(model1, q1)
            assert as_set_dict(m2) == oracle_derive(model2, q2)
            direct = combine_masses(m1, m2)
            product = combine_models(model1, q1, model2, q2)
            assert product.combined == direct.combined
            assert product.conflict == direct.conflict

    def test_conditioning_makes_conflict_match_direct_route(self):
        # s3 of the left model cannot produce q0 at all; only cross-model
        # disagreement may count as conflict, not single-model impossibility.
        a = YN.subset(["yes"])
        b = YN.subset(["no"])
        left = EvidenceModel(
            YN,
            ("q0", "q1"),
            (a, b, TOP),
            (
                Code("s1", F(1, 2), {a: "q0", b: "q0", TOP: "q0"}),
                Code("s2", F(1, 4), {a: "q0", b: "q1", TOP: "q1"}),
                Code("s3", F(1, 4), {a: "q1", b: "q1", TOP: "q1"}),
            ),
        )
        right = EvidenceModel(YN, ("r0",), (b,), (Code("u", F(1), {b: "r0"}),))
        # left derives m(T) = 2/3, m({yes}) = 1/3 after conditioning away s3;
        # against m({no}) = 1 the {yes} part is the only conflict.
        result = combine_models(left, "q0", right, "r0")
        direct = combine_masses(left.derive_mass("q0"), right.derive_mass("r0"))
        assert result.conflict == direct.conflict == F(1, 3)
        assert result.combined == direct.combined
        assert result.combined.focal() == ((NO, F(1)),)
