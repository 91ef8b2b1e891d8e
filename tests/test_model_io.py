import json
import random
from fractions import Fraction

import pytest

from beliefkit import (
    Code,
    DuplicateCodeName,
    EvidenceModel,
    Frame,
    IncompleteCodebook,
    InvalidPrior,
    MassFunction,
    ModelSyntaxError,
    ProbabilitySumError,
    UnknownLabel,
    UnknownMessage,
    bundled_model_path,
    parse_belief_table,
    parse_model,
    parse_prior_table,
    serialize_model,
    validate_model,
)

from helpers import random_frame, random_model

F = Fraction
YN = Frame(("yes", "no"))


def spy_document(**overrides):
    doc = {
        "frame": ["yes", "no"],
        "messages": ["APPLE", "BANANA", "CHERRY"],
        "plaintexts": [["yes"], ["no"], ["yes", "no"]],
        "codes": [
            {
                "name": "s1",
                "prob": "1/3",
                "map": {"{yes}": "APPLE", "{no}": "CHERRY", "{yes,no}": "BANANA"},
            },
            {
                "name": "s2",
                "prob": "2/3",
                "map": {"{yes}": "APPLE", "{no}": "BANANA", "{yes,no}": "CHERRY"},
            },
        ],
        "observed": "BANANA",
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestParseModel:
    def test_bundled_spy_model(self, example1):
        assert example1.frame == YN
        assert example1.messages == ("APPLE", "BANANA", "CHERRY")
        assert example1.observed == "BANANA"
        assert [code.name for code in example1.codes] == ["s1", "s2"]
        assert [code.prob for code in example1.codes] == [F(1, 3), F(2, 3)]
        assert example1.codes[0].codebook[YN.subset(["no"])] == "CHERRY"

    def test_probability_sum_error(self):
        doc = spy_document()
        broken = doc.replace('"prob": "2/3"', '"prob": "1/3"')
        with pytest.raises(ProbabilitySumError):
            parse_model(broken)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model("{ not json }")
        assert "line 1" in str(err.value)

    def test_deeply_nested_document_is_a_syntax_error(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("[" * 100000)

    @pytest.mark.parametrize(
        "mutation,error",
        [
            ({"extra": 1}, ModelSyntaxError),
            ({"frame": ["yes", "yes"]}, ModelSyntaxError),
            ({"frame": "yes"}, ModelSyntaxError),
            ({"plaintexts": [[]]}, ModelSyntaxError),
            ({"plaintexts": [["maybe"]]}, UnknownLabel),
            ({"observed": "KIWI"}, UnknownMessage),
            ({"observed": 3}, ModelSyntaxError),
        ],
    )
    def test_rejections(self, mutation, error):
        with pytest.raises(error):
            parse_model(spy_document(**mutation))

    def test_field_context_in_errors(self):
        with pytest.raises(UnknownLabel) as err:
            parse_model(spy_document(plaintexts=[["maybe"]]))
        assert "plaintexts[0]" in str(err.value)
        bad_prob = json.loads(spy_document())
        bad_prob["codes"][0]["prob"] = "0.33"
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(json.dumps(bad_prob))
        assert "codes[0].prob" in str(err.value)

    def test_duplicate_code_name(self):
        doc = json.loads(spy_document())
        doc["codes"][1]["name"] = "s1"
        with pytest.raises(DuplicateCodeName):
            parse_model(json.dumps(doc))

    def test_incomplete_codebook(self):
        doc = json.loads(spy_document())
        del doc["codes"][0]["map"]["{no}"]
        with pytest.raises(IncompleteCodebook):
            parse_model(json.dumps(doc))

    def test_empty_subset_in_map_rejected(self):
        doc = json.loads(spy_document())
        doc["codes"][0]["map"]["{}"] = "APPLE"
        with pytest.raises(ModelSyntaxError):
            parse_model(json.dumps(doc))

    def test_semantically_duplicate_map_keys_rejected(self):
        doc = json.loads(spy_document())
        doc["codes"][0]["map"]["{no,yes}"] = "APPLE"
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(json.dumps(doc))
        assert "duplicate" in str(err.value)


class TestSerializeModel:
    def test_bundled_documents_round_trip_byte_identically(self):
        for name in ("example1", "example2"):
            text = bundled_model_path(name).read_text(encoding="utf-8")
            assert serialize_model(parse_model(text)) == text

    def test_random_models_round_trip_semantically(self):
        rng = random.Random(271828)
        for _ in range(60):
            model = random_model(rng, random_frame(rng, 4))
            assert parse_model(serialize_model(model)) == model

    def test_observed_field_omitted_when_absent(self, example1):
        model = EvidenceModel(
            example1.frame,
            example1.messages,
            example1.plaintexts,
            example1.codes,
        )
        assert '"observed"' not in serialize_model(model)


class TestValidateModel:
    def test_spy_model_clean(self, example1):
        assert validate_model(example1) == []

    def test_merged_codeword_warning(self, example2):
        assert validate_model(example2) == [
            "code s1' non-injective on BANANA: {no}, {yes,no}"
        ]

    def test_non_injective_masks_in_plaintexts_order(self):
        text = json.dumps(
            {
                "frame": ["yes", "no"],
                "messages": ["q0"],
                "plaintexts": [["yes", "no"], ["yes"], ["no"]],
                "codes": [
                    {
                        "name": "s",
                        "prob": "1",
                        "map": {"{no}": "q0", "{yes,no}": "q0", "{yes}": "q0"},
                    }
                ],
            }
        )
        assert validate_model(parse_model(text)) == [
            "code s non-injective on q0: {yes,no}, {yes}, {no}"
        ]

    def test_unused_message_warning(self):
        frame = Frame(("a", "b"))
        top = frame.full()
        model = EvidenceModel(
            frame, ("q0", "KIWI"), (top,), (Code("s", F(1), {top: "q0"}),)
        )
        assert validate_model(model) == ["message KIWI emitted by no code"]

    def test_unproducible_observed_warning(self):
        frame = Frame(("a", "b"))
        top = frame.full()
        model = EvidenceModel(
            frame,
            ("q0", "KIWI"),
            (top,),
            (Code("s", F(1), {top: "q0"}),),
            observed="KIWI",
        )
        findings = validate_model(model)
        assert "message KIWI emitted by no code" in findings
        assert "observed message KIWI cannot be produced by any code" in findings


class TestBeliefTable:
    def test_parse_and_invert(self):
        text = json.dumps(
            {
                "frame": ["yes", "no"],
                "belief": {"{}": "0", "{yes}": "0", "{no}": "2/3", "{yes,no}": "1"},
            }
        )
        frame, table = parse_belief_table(text)
        mass = MassFunction.from_belief(frame, table)
        assert dict(mass.focal()) == {
            frame.subset(["no"]): F(2, 3),
            frame.full(): F(1, 3),
        }

    @pytest.mark.parametrize(
        "doc",
        [
            '{"frame": ["a"]}',
            '{"frame": ["a"], "belief": {"{a}": 1}}',
            '{"frame": ["a"], "belief": {"a": "1"}}',
            '{"frame": ["a"], "belief": {}, "extra": 1}',
        ],
    )
    def test_rejections(self, doc):
        with pytest.raises(ModelSyntaxError):
            parse_belief_table(doc)

    def test_duplicate_subset_rejected(self):
        text = json.dumps(
            {
                "frame": ["a", "b"],
                "belief": {"{}": "0", "{a}": "0", "{b}": "0", "{a,b}": "1/2", "{b,a}": "1"},
            }
        )
        with pytest.raises(ModelSyntaxError) as info:
            parse_belief_table(text)
        assert str(info.value) == "belief['{b,a}']: duplicate subset {a,b}"


class TestPriorTable:
    def test_parse(self):
        prior = parse_prior_table(
            '{"weights": {"{no}": "2/3", "{yes,no}": "1/3"}}', YN
        )
        assert prior.weights == {YN.subset(["no"]): F(2, 3), YN.full(): F(1, 3)}

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidPrior):
            parse_prior_table('{"weights": {"{no}": "1/3"}}', YN)

    def test_rejects_unknown_label(self):
        with pytest.raises(UnknownLabel):
            parse_prior_table('{"weights": {"{maybe}": "1"}}', YN)

    def test_duplicate_subset_rejected(self):
        text = '{"weights": {"{no}": "1/2", "{yes,no}": "1/2", "{no,yes}": "1/2"}}'
        with pytest.raises(ModelSyntaxError) as info:
            parse_prior_table(text, YN)
        assert str(info.value) == "weights['{no,yes}']: duplicate subset {yes,no}"

    def test_rejects_shape(self):
        with pytest.raises(ModelSyntaxError):
            parse_prior_table('{"prior": {}}', YN)


def test_bundled_model_path_unknown_name():
    with pytest.raises(FileNotFoundError):
        bundled_model_path("example9")
