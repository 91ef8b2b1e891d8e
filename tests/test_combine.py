import math
import random
import struct
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from beliefkit import (
    Code,
    EvidenceModel,
    Frame,
    FrameMismatch,
    MassFunction,
    SubsetMask,
    TotalConflict,
    UnknownMessage,
    combine_masses,
    combine_models,
)
from beliefkit import combine, mass
from beliefkit.combine import _combine_by_commonality, _combine_by_intersection
from beliefkit.mass import MAX_INVERSION_FRAME

from helpers import (
    MANY_CODES,
    as_set_dict,
    fractions_over,
    mixed_fractions,
    oracle_combine,
    oracle_combine_models,
    oracle_derive,
    prime_fractions,
    producible_message,
    random_fractions,
    random_frame,
    random_mass,
    random_model,
    wide_frame,
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


ROUTES = (_combine_by_intersection, _combine_by_commonality)


def dense_threshold(size):
    """The most pairs of focal elements `combine_masses` intersects at `size`."""
    return combine._PAIRS_PER_CELL * ((1 << size) + combine._FIXED_CELLS)


def mass_pair(rng, frame, focal, fractions=mixed_fractions):
    """Two random masses of exactly `focal` focal elements each."""
    return tuple(
        random_mass(rng, frame, max_focal=focal, min_focal=focal, fractions=fractions)
        for _ in range(2)
    )


def assert_routes_agree(m1, m2):
    """Both routes on one pair: each equal to the set oracle and to the other.

    Returns the intersection route's result, or None when both raise
    TotalConflict with the text of `combine_masses`.
    """
    expected, conflict = oracle_combine(as_set_dict(m1), as_set_dict(m2))
    if expected is None:
        for route in ROUTES:
            with pytest.raises(TotalConflict, match="^every focal intersection is empty$"):
                route(m1, m2)
        return None
    direct, dense = (route(m1, m2) for route in ROUTES)
    for result in (direct, dense):
        assert as_set_dict(result.combined) == expected
        assert result.conflict == conflict
    assert dense.combined.frame is direct.combined.frame
    assert dense.combined._denominator == direct.combined._denominator
    assert list(dense.combined._numerators.items()) == list(
        direct.combined._numerators.items()
    )
    assert dense.conflict == direct.conflict
    return direct


class TestCommonalityRoute:
    @pytest.mark.parametrize("size", range(1, MAX_INVERSION_FRAME + 1))
    def test_both_sides_of_the_rule(self, size, monkeypatch):
        rng = random.Random(3000 + size)
        frame = wide_frame(size)
        limit = dense_threshold(size)
        most = (1 << size) - 1
        below = min(math.isqrt(limit), most)
        above = below + 1
        # On four labels or fewer no pair reaches the commonality route.
        assert (above <= most) is (size > 4)
        sides = [(below, False)] + ([(above, True)] if above <= most else [])
        picked = []
        monkeypatch.setattr(
            combine,
            "_combine_by_commonality",
            lambda m1, m2: picked.append(True) or _combine_by_commonality(m1, m2),
        )
        for focal, dense in sides:
            assert (focal * focal > limit) is dense
            m1, m2 = mass_pair(rng, frame, focal)
            assert_routes_agree(m1, m2)
            picked.clear()
            try:
                combine_masses(m1, m2)
            except TotalConflict:
                pass
            assert picked == [True] * dense

    @pytest.mark.parametrize("size, focal", [(6, 12), (8, 16), (10, 12)])
    def test_chained_inputs(self, size, focal):
        rng = random.Random(4000 + size)
        frame = wide_frame(size)

        def combined():
            m1, m2 = mass_pair(rng, frame, focal)
            return assert_routes_agree(m1, m2).combined

        left, right = combined(), combined()
        assert len(left.focal()) * len(right.focal()) > dense_threshold(size)
        again = assert_routes_agree(left, right)
        assert again is not None
        assert combine_masses(left, right) == again

    @pytest.mark.parametrize("fractions", [mixed_fractions, prime_fractions])
    @pytest.mark.parametrize("size", [5, 7, 9])
    def test_unlike_and_wide_denominators(self, size, fractions):
        rng = random.Random(5000 + size)
        frame = wide_frame(size)
        for focal in (3, 24):
            m1, m2 = mass_pair(rng, frame, focal, fractions)
            assert_routes_agree(m1, m2)

    @pytest.mark.parametrize("width", [8, 16, 32, 64, 72, 80])
    def test_products_on_each_side_of_a_field_width(self, width):
        # The inverse pass is sized by d1 * d2, which its input reaches in
        # the cell of the empty set's commonality: a product of width - 1
        # bits fits fields of `width` bits, one bit more needs the next.
        rng = random.Random(6000 + width)
        frame = wide_frame(6)
        a = (width - 1) // 2
        b = width - 1 - a
        for d1, d2, bits in (((1 << a) - 1, (1 << b) - 1, width - 1), (1 << a, 1 << b, width)):
            assert (d1 * d2).bit_length() == bits
            m1, m2 = (
                random_mass(rng, frame, min(24, d), 2, fractions_over(d)) for d in (d1, d2)
            )
            assert (m1._denominator, m2._denominator) == (d1, d2)
            assert assert_routes_agree(m1, m2) is not None

    @pytest.mark.parametrize(
        "fractions, fields",
        [(fractions_over((1 << 31) - 1), ["<1024I", "<1024I", "<1024Q"]), (prime_fractions, [])],
        ids=["q-fields", "whole-bytes"],
    )
    def test_dense_pair_fields_on_10_labels(self, fractions, fields, monkeypatch):
        # d1 * d2 of 62 bits keeps the inverse in 64-bit fields, which the
        # general bound, max|cell| * 2^10, would overflow.  Over the large
        # primes d1 * d2 is past 2^128, and every transform is the slice
        # transform, which packs nothing.
        packed = []

        def pack(form, *values):
            packed.append(form)
            return struct.pack(form, *values)

        rng = random.Random(1010)
        frame = wide_frame(10)
        m1, m2 = mass_pair(rng, frame, 67, fractions)
        assert 67 * 67 > dense_threshold(10)
        product = m1._denominator * m2._denominator
        assert (54 < product.bit_length() <= 64) if fields else (product > 1 << 128)
        monkeypatch.setattr(mass, "struct", SimpleNamespace(pack=pack, unpack=struct.unpack))
        direct = assert_routes_agree(m1, m2)
        assert packed == fields
        assert combine_masses(m1, m2) == direct

    def test_total_conflict_on_both_routes(self):
        frame = wide_frame(8)
        low = MassFunction(frame, [(SubsetMask(frame, bits), F(1, 15)) for bits in range(1, 16)])
        high = MassFunction(
            frame, [(SubsetMask(frame, bits << 4), F(1, 15)) for bits in range(1, 16)]
        )
        assert assert_routes_agree(low, high) is None

    def test_frames_past_the_inversion_limit_stay_on_the_intersection_loop(
        self, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the lattice transform was called")

        monkeypatch.setattr(combine, "_lattice_transform", refuse)
        monkeypatch.setattr(mass, "_lattice_transform", refuse)
        rng = random.Random(13)
        size = MAX_INVERSION_FRAME + 1
        frame = wide_frame(size)
        m1, m2 = mass_pair(rng, frame, 200)
        assert 200 * 200 > dense_threshold(size)
        expected, conflict = oracle_combine(as_set_dict(m1), as_set_dict(m2))
        result = combine_masses(m1, m2)
        assert as_set_dict(result.combined) == expected
        assert result.conflict == conflict


@st.composite
def mass_pairs(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    frame = Frame(tuple("abcdef"[:size]))
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
@given(mass_pairs())
def test_routes_agree(pair):
    m1, m2 = pair
    try:
        direct = _combine_by_intersection(m1, m2)
    except TotalConflict:
        with pytest.raises(TotalConflict):
            _combine_by_commonality(m1, m2)
        return
    dense = _combine_by_commonality(m1, m2)
    assert dense.combined == direct.combined
    assert dense.conflict == direct.conflict


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
        # product route intersects one compatibility set per code pair.
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

    def test_matches_plaintext_pair_oracle(self):
        # Codes that decode several plaintexts make the oracle's union over
        # plaintext pairs differ from any single intersection.
        rng = random.Random(31337)
        multi = conflicts = 0
        for i in range(200):
            frame = random_frame(rng, 6, min_size=2)
            model1, model2 = (
                random_model(
                    rng,
                    frame,
                    max_codes=6,
                    max_messages=3,
                    min_plaintexts=2,
                    max_plaintexts=8,
                    fractions=mixed_fractions if i % 2 else random_fractions,
                )
                for _ in range(2)
            )
            q1, q2 = rng.choice(model1.messages), rng.choice(model2.messages)
            multi += sum(
                len(a) > 1 and len(b) > 1
                for a in model1.constraining_relation(q1).decoded.values()
                for b in model2.constraining_relation(q2).decoded.values()
            )
            expected, conflict = oracle_combine_models(model1, q1, model2, q2)
            if expected is None:
                conflicts += 1
                with pytest.raises(TotalConflict):
                    combine_models(model1, q1, model2, q2)
                continue
            result = combine_models(model1, q1, model2, q2)
            assert as_set_dict(result.combined) == expected
            assert result.conflict == conflict
        assert multi > 0 and conflicts > 0

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
