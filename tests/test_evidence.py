import math
import random
from fractions import Fraction
from itertools import chain

import pytest

from beliefkit import (
    Code,
    CodeNotPossible,
    DuplicateCodeName,
    EvidenceModel,
    Frame,
    FrameMismatch,
    IncompleteCodebook,
    ProbabilitySumError,
    TotalConflict,
    UnknownMessage,
)

from helpers import (
    MANY_CODES,
    as_set_dict,
    mixed_fractions,
    oracle_derive,
    producible_message,
    random_fractions,
    random_frame,
    random_model,
)

F = Fraction
YN = Frame(("yes", "no"))
NO = YN.subset(["no"])
YES = YN.subset(["yes"])
TOP = YN.full()


def relation_sets(relation):
    return {(name, frozenset(mask.members)) for name, mask in relation.pairs}


class TestConstrainingRelation:
    def test_spy_model_banana(self, example1):
        relation = example1.constraining_relation("BANANA")
        assert relation_sets(relation) == {
            ("s1", frozenset({"yes", "no"})),
            ("s2", frozenset({"no"})),
        }

    def test_merged_codeword_model_banana(self, example2):
        relation = example2.constraining_relation("BANANA")
        assert relation_sets(relation) == {
            ("s1'", frozenset({"no"})),
            ("s1'", frozenset({"yes", "no"})),
            ("s2", frozenset({"no"})),
        }

    def test_spy_model_apple(self, example1):
        relation = example1.constraining_relation("APPLE")
        assert relation_sets(relation) == {
            ("s1", frozenset({"yes"})),
            ("s2", frozenset({"yes"})),
        }

    def test_unknown_message(self, example1):
        with pytest.raises(UnknownMessage):
            example1.constraining_relation("KIWI")

    def test_built_once_per_model(self, example2):
        assert example2.constraining_relation("BANANA") is example2.constraining_relation(
            "BANANA"
        )

    def test_record_matches_codebooks_and_code_probabilities(self):
        rng = random.Random(60606)
        for i in range(120):
            fractions = mixed_fractions if i % 2 else random_fractions
            model = random_model(rng, random_frame(rng, 4), max_codes=6, fractions=fractions)
            prob = {code.name: code.prob for code in model.codes}
            for message in model.messages:
                relation = model.constraining_relation(message)
                expected = tuple(
                    (code.name, mask)
                    for code in model.codes
                    for mask in model.plaintexts
                    if code.codebook[mask] == message
                )
                flattened = tuple(
                    (name, mask) for name, masks in relation.decoded.items() for mask in masks
                )
                assert relation.pairs == flattened == expected
                assert list(relation.weights) == list(relation.decoded)
                for name, weight in relation.weights.items():
                    assert F(weight, relation.denominator) == prob[name]
                assert relation.denominator == math.lcm(
                    *(prob[name].denominator for name in relation.decoded)
                )


class TestPossibleCodes:
    def test_banana_keeps_all_codes(self, example1):
        relation = example1.constraining_relation("BANANA")
        assert relation.possible_codes() == ("s1", "s2")

    def test_cherry_keeps_all_codes(self, example1):
        relation = example1.constraining_relation("CHERRY")
        assert relation.possible_codes() == ("s1", "s2")

    def test_empty_relation(self):
        frame = Frame(("a", "b"))
        a = frame.subset(["a"])
        model = EvidenceModel(frame, ("q0", "q1"), (a,), (Code("s", F(1), {a: "q0"}),))
        relation = model.constraining_relation("q1")
        assert relation.possible_codes() == ()
        assert relation.pairs == ()
        assert relation.weights == {}


class TestCompatibilitySets:
    def test_spy_model(self, example1):
        relation = example1.constraining_relation("BANANA")
        assert relation.compatibility_set("s2") == NO
        assert relation.compatibility_set("s1") == TOP

    def test_merged_codeword_union(self, example2):
        relation = example2.constraining_relation("BANANA")
        assert relation.compatibility_set("s1'") == TOP

    def test_code_not_possible(self, example1):
        relation = example1.constraining_relation("APPLE")
        with pytest.raises(CodeNotPossible):
            relation.compatibility_set("s9")


class TestDeriveMass:
    def test_spy_model_banana(self, example1):
        m = example1.derive_mass("BANANA")
        assert m[NO] == F(2, 3)
        assert m[TOP] == F(1, 3)
        assert m.belief(YES) == 0
        assert m.belief(NO) == F(2, 3)

    def test_both_examples_identical(self, example1, example2):
        assert example1.derive_mass("BANANA") == example2.derive_mass("BANANA")

    def test_single_injective_code_decodes_exactly(self):
        frame = Frame(("a", "b"))
        a = frame.subset(["a"])
        code = Code("s", F(1), {a: "q0", frame.full(): "q1"})
        model = EvidenceModel(frame, ("q0", "q1"), (a, frame.full()), (code,))
        m = model.derive_mass("q0")
        assert m.focal() == ((a, F(1)),)

    def test_total_conflict_when_no_code_emits(self):
        frame = Frame(("a", "b"))
        a = frame.subset(["a"])
        code = Code("s", F(1), {a: "q0"})
        model = EvidenceModel(frame, ("q0", "q1"), (a,), (code,))
        with pytest.raises(TotalConflict):
            model.derive_mass("q1")

    def test_conditioning_drops_impossible_codes(self):
        # s2 cannot produce q0, so its mass conditions away: P(s1 | S1) = 1
        frame = Frame(("a", "b"))
        a = frame.subset(["a"])
        b = frame.subset(["b"])
        s1 = Code("s1", F(1, 4), {a: "q0", b: "q0"})
        s2 = Code("s2", F(3, 4), {a: "q1", b: "q1"})
        model = EvidenceModel(frame, ("q0", "q1"), (a, b), (s1, s2))
        m = model.derive_mass("q0")
        assert m.focal() == ((frame.full(), F(1)),)

    def test_matches_brute_force_oracle_on_random_models(self):
        rng = random.Random(424242)
        small = (random_model(rng, random_frame(rng, 4), max_codes=5) for _ in range(150))
        many = (
            random_model(rng, random_frame(rng, 6, min_size=5), **MANY_CODES)
            for _ in range(8)
        )
        for model in chain(small, many):
            message = producible_message(rng, model)
            expected = oracle_derive(model, message)
            assert expected is not None
            assert as_set_dict(model.derive_mass(message)) == expected

    def test_focal_elements_are_exactly_the_compatibility_sets(self):
        rng = random.Random(5150)
        for _ in range(80):
            model = random_model(rng, random_frame(rng, 3))
            message = producible_message(rng, model)
            relation = model.constraining_relation(message)
            compat = {
                relation.compatibility_set(name) for name in relation.possible_codes()
            }
            focal = {mask for mask, _ in model.derive_mass(message).focal()}
            assert focal == compat

    def test_conditional_probabilities_sum_to_one(self):
        rng = random.Random(31337)
        for _ in range(60):
            model = random_model(rng, random_frame(rng, 3))
            message = producible_message(rng, model)
            possible = set(model.constraining_relation(message).possible_codes())
            prob = {code.name: code.prob for code in model.codes}
            total = sum(prob[name] for name in possible)
            conditional = [prob[name] / total for name in possible]
            assert sum(conditional) == 1


class TestModelValidation:
    def codebook(self):
        return {YES: "APPLE", NO: "BANANA", TOP: "CHERRY"}

    def test_duplicate_code_names(self):
        codes = (
            Code("s", F(1, 2), self.codebook()),
            Code("s", F(1, 2), self.codebook()),
        )
        with pytest.raises(DuplicateCodeName):
            EvidenceModel(YN, ("APPLE", "BANANA", "CHERRY"), (YES, NO, TOP), codes)

    def test_probability_sum(self):
        codes = (
            Code("s1", F(1, 3), self.codebook()),
            Code("s2", F(1, 3), self.codebook()),
        )
        with pytest.raises(ProbabilitySumError):
            EvidenceModel(YN, ("APPLE", "BANANA", "CHERRY"), (YES, NO, TOP), codes)

    def test_zero_probability_code_rejected(self):
        codes = (
            Code("s1", F(0), self.codebook()),
            Code("s2", F(1), self.codebook()),
        )
        with pytest.raises(ProbabilitySumError):
            EvidenceModel(YN, ("APPLE", "BANANA", "CHERRY"), (YES, NO, TOP), codes)

    def test_incomplete_codebook(self):
        codes = (Code("s", F(1), {YES: "APPLE", NO: "BANANA"}),)
        with pytest.raises(IncompleteCodebook):
            EvidenceModel(YN, ("APPLE", "BANANA"), (YES, NO, TOP), codes)

    def test_codebook_with_extra_plaintext(self):
        codes = (Code("s", F(1), self.codebook()),)
        with pytest.raises(IncompleteCodebook):
            EvidenceModel(YN, ("APPLE", "BANANA", "CHERRY"), (YES, NO), codes)

    def test_codebook_value_outside_alphabet(self):
        codes = (Code("s", F(1), self.codebook()),)
        with pytest.raises(UnknownMessage):
            EvidenceModel(YN, ("APPLE", "BANANA"), (YES, NO, TOP), codes)

    def test_observed_outside_alphabet(self):
        codes = (Code("s", F(1), self.codebook()),)
        with pytest.raises(UnknownMessage):
            EvidenceModel(
                YN, ("APPLE", "BANANA", "CHERRY"), (YES, NO, TOP), codes, observed="KIWI"
            )

    def test_empty_plaintext_rejected(self):
        with pytest.raises(ValueError):
            EvidenceModel(
                YN,
                ("APPLE",),
                (YN.empty(),),
                (Code("s", F(1), {YN.empty(): "APPLE"}),),
            )

    def test_plaintext_on_foreign_frame_rejected(self):
        other = Frame(("a", "b"))
        with pytest.raises(FrameMismatch):
            EvidenceModel(
                YN,
                ("APPLE",),
                (other.full(),),
                (Code("s", F(1), {other.full(): "APPLE"}),),
            )

    def test_duplicate_plaintexts_rejected(self):
        with pytest.raises(ValueError):
            EvidenceModel(
                YN,
                ("APPLE",),
                (TOP, TOP),
                (Code("s", F(1), {TOP: "APPLE"}),),
            )

    def test_duplicate_messages_rejected(self):
        with pytest.raises(ValueError):
            EvidenceModel(
                YN,
                ("APPLE", "APPLE"),
                (TOP,),
                (Code("s", F(1), {TOP: "APPLE"}),),
            )

    @pytest.mark.parametrize(
        "build,error,message",
        [
            (lambda: Code("", F(1), {TOP: "APPLE"}), ValueError,
             "code name must be a non-empty string, got ''"),
            (lambda: Code(7, F(1), {TOP: "APPLE"}), ValueError,
             "code name must be a non-empty string, got 7"),
            (lambda: Code("s", 0.5, {TOP: "APPLE"}), TypeError,
             "code probability must be a Fraction, got 0.5"),
            (lambda: EvidenceModel(YN, ("APPLE", ""), (TOP,), (Code("s", F(1), {TOP: "APPLE"}),)),
             ValueError, "message labels must be non-empty strings"),
            (lambda: EvidenceModel(YN, ("APPLE", 7), (TOP,), (Code("s", F(1), {TOP: "APPLE"}),)),
             ValueError, "message labels must be non-empty strings"),
            (lambda: EvidenceModel(YN, ("APPLE",), (), ()), ValueError,
             "the plaintext domain must be non-empty"),
        ],
        ids=["empty-code-name", "non-string-code-name", "float-probability",
             "empty-message-label", "non-string-message-label", "empty-domain"],
    )
    def test_constructor_diagnostics(self, build, error, message):
        with pytest.raises(error) as err:
            build()
        assert type(err.value) is error
        assert str(err.value) == message
