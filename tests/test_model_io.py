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
    PriorSpec,
    ProbabilitySumError,
    UnknownLabel,
    UnknownMessage,
    bundled_model_path,
    parse_belief_table,
    parse_model,
    parse_prior_table,
    serialize_model,
    simulate,
    validate_model,
)

from helpers import (
    as_set_dict,
    mixed_fractions,
    oracle_derive,
    oracle_simulate,
    out_of_domain_order,
    producible_message,
    random_fractions,
    random_frame,
    random_model,
    simulation_outcome,
)

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


def spell_full_set_no_yes(doc):
    """Key the first code's full-frame entry as "{no,yes}" instead of "{yes,no}"."""
    book = doc["codes"][0]["map"]
    book["{no,yes}"] = book.pop("{yes,no}")


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

    @pytest.mark.parametrize(
        "key,label,first_book,error,message",
        [
            ("{maybe}", "APPLE", None, UnknownLabel,
             "codes[1].map['{maybe}']: label 'maybe' is not in frame {yes,no}"),
            ("yes", "APPLE", None, ModelSyntaxError,
             "codes[1].map['yes']: subset must be written in braces, got 'yes'"),
            ("{}", "APPLE", None, ModelSyntaxError,
             "codes[1].map['{}']: the empty set is not a valid plaintext"),
            ("{no}", 3, None, ModelSyntaxError,
             "codes[1].map['{no}']: expected a message label string"),
            ("{no,yes}", "APPLE", None, ModelSyntaxError,
             "codes[1].map['{no,yes}']: duplicate plaintext {yes,no}"),
            # the first code already read "{no,yes}": a key seen before is still checked
            ("{no,yes}", "APPLE", spell_full_set_no_yes, ModelSyntaxError,
             "codes[1].map['{no,yes}']: duplicate plaintext {yes,no}"),
        ],
        ids=["unknown-label", "no-braces", "empty-set", "label-type", "duplicate",
             "duplicate-of-a-key-read-before"],
    )
    def test_later_code_map_errors_name_their_entry(
        self, key, label, first_book, error, message
    ):
        doc = json.loads(spy_document())
        if first_book is not None:
            first_book(doc)
        doc["codes"][1]["map"][key] = label
        with pytest.raises(error) as err:
            parse_model(json.dumps(doc))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "maps,edits,error,message",
        [
            # faults found while reading a map entry come first, in map order
            ([{"{a}": "X", "{z}": "X", "{b}": "KIWI", "{a,b}": "X"}, None], {},
             UnknownLabel, "codes[0].map['{z}']: label 'z' is not in frame {a,b,c}"),
            ([{"{a}": "KIWI", "{z}": "X", "{b}": "Y", "{a,b}": "X"}, None], {},
             UnknownLabel, "codes[0].map['{z}']: label 'z' is not in frame {a,b,c}"),
            ([None, {"{b,a}": "KIWI", "{a}": "Y", "{b}": "X", "{a,b}": "Y"}], {},
             ModelSyntaxError, "codes[1].map['{a,b}']: duplicate plaintext {a,b}"),
            ([{"{a}": "KIWI", "{}": "X", "{b}": "Y", "{a,b}": "X"}, None], {},
             ModelSyntaxError, "codes[0].map['{}']: the empty set is not a valid plaintext"),
            ([{"{a}": 3, "{z}": "X"}, None], {},
             ModelSyntaxError, "codes[0].map['{a}']: expected a message label string"),
            ([{"{a}": "X", "{b}": "Y", "{a,b}": "X"}, {"{a}": ["Y"]}], {"name": "\ud800"},
             ModelSyntaxError, "codes[0].name: code name '\\ud800' is not valid Unicode text"),
            ([{"{a}": "X", "{b}": "Y", "{a,b}": 0}, None], {"name": "\ud800"},
             ModelSyntaxError, "codes[0].map['{a,b}']: expected a message label string"),
            # then the model's checks, in the constructor's order
            ([{"{b}": "KIWI", "{c}": "X", "{a,c}": "Y"}, None], {},
             IncompleteCodebook,
             "code 'c1' must cover exactly the plaintext domain: "
             "missing {a,b}, {a}; extra {a,c}, {c}"),
            ([{"{a}": "X", "{b}": "KIWI", "{a,b}": "X"}, {"{a}": "Y", "{c}": "X"}], {},
             UnknownMessage,
             "code 'c1' maps {b} to 'KIWI', which is not in the message alphabet"),
            ([{"{a,b}": "KIWI", "{a}": "LIME", "{b}": "Y"}, None], {},
             UnknownMessage,
             "code 'c1' maps {a,b} to 'KIWI', which is not in the message alphabet"),
            ([{"{a}": "X", "{b}": "KIWI", "{a,b}": "X"}, None], {"prob": "0"},
             UnknownMessage,
             "code 'c1' maps {b} to 'KIWI', which is not in the message alphabet"),
            ([None, {"{a}": "Y"}], {"prob": "0"},
             ProbabilitySumError, "code 'c1' has non-positive probability 0"),
            ([None, {"{a}": "Y", "{c}": "X"}], {"name": "c2"},
             DuplicateCodeName, "code names must be distinct: ['c2', 'c2']"),
        ],
        ids=[
            "unknown-key-label-before-bad-message", "bad-message-before-unknown-key-label",
            "same-subset-spelled-twice", "empty-set-key", "non-string-label",
            "lone-surrogate-name", "map-fault-before-lone-surrogate-name",
            "missing-and-extra-keys", "bad-message-before-later-missing-key",
            "first-bad-message-in-map-order", "bad-message-before-zero-prob",
            "zero-prob-before-later-missing-key", "duplicate-name-before-missing-key",
        ],
    )
    def test_multi_fault_documents_report_their_first_fault(
        self, maps, edits, error, message
    ):
        doc = {
            "frame": ["a", "b", "c"],
            "messages": ["X", "Y"],
            "plaintexts": [["a"], ["b"], ["a", "b"]],
            "codes": [
                {"name": "c1", "prob": "1/2", "map": {"{a}": "X", "{b}": "Y", "{a,b}": "X"}},
                {"name": "c2", "prob": "1/2", "map": {"{a}": "Y", "{b}": "X", "{a,b}": "Y"}},
            ],
        }
        for record, book in zip(doc["codes"], maps):
            if book is not None:
                record["map"] = book
        doc["codes"][0].update(edits)
        with pytest.raises(error) as err:
            parse_model(json.dumps(doc))
        assert type(err.value) is error
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "edits,error,message",
        [
            ({"messages": ["X", "X"]}, ModelSyntaxError,
             "message labels must be distinct: ('X', 'X')"),
            ({"messages": []}, ModelSyntaxError, "a model needs at least one message label"),
            ({"plaintexts": [["a"], ["b"], ["b", "a"], ["a", "b"]]}, ModelSyntaxError,
             "plaintext domain entries must be distinct"),
            ({"observed": "KIWI", "prob": "1/3"}, ProbabilitySumError,
             "code probabilities sum to 5/6, expected 1"),
            ({"observed": "KIWI"}, UnknownMessage,
             "code 'c2' maps {b} to 'KIWI', which is not in the message alphabet"),
        ],
        ids=["duplicate-messages", "no-messages", "duplicate-plaintexts",
             "bad-sum-before-unknown-observed", "bad-message-before-unknown-observed"],
    )
    def test_model_level_faults_precede_a_bad_message_label(self, edits, error, message):
        doc = {
            "frame": ["a", "b", "c"],
            "messages": ["X", "Y"],
            "plaintexts": [["a"], ["b"], ["a", "b"]],
            "codes": [
                {"name": "c1", "prob": "1/2", "map": {"{a}": "X", "{b}": "Y", "{a,b}": "X"}},
                {"name": "c2", "prob": "1/2", "map": {"{a}": "Y", "{b}": "X", "{a,b}": "Y"}},
            ],
        }
        if "prob" in edits:
            doc["codes"][0]["prob"] = edits.pop("prob")
        else:
            doc["codes"][1]["map"]["{b}"] = "KIWI"
        doc.update(edits)
        with pytest.raises(error) as err:
            parse_model(json.dumps(doc))
        assert type(err.value) is error
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda doc: ["frame"], "document must be a JSON object"),
            (lambda doc: {**doc, "plaintexts": "{yes}"}, "plaintexts: expected a list of subsets"),
            (lambda doc: {**doc, "codes": {}}, "codes: expected a list of code records"),
            (lambda doc: {**doc, "codes": [["s1"]]},
             "codes[0]: expected an object with name, prob, map"),
            (lambda doc: {**doc, "codes": [doc["codes"][0], {**doc["codes"][1], "weight": 1}]},
             "codes[1]: unknown field 'weight'"),
            (lambda doc: {**doc, "codes": [{"name": "s1", "prob": "1"}]},
             "codes[0]: missing field 'map'"),
            (lambda doc: {**doc, "codes": [{**doc["codes"][0], "name": ""}]},
             "codes[0].name: expected a non-empty string"),
            (lambda doc: {**doc, "codes": [{**doc["codes"][0], "name": 7}]},
             "codes[0].name: expected a non-empty string"),
            (lambda doc: {**doc, "codes": [{**doc["codes"][0], "prob": 0.5}]},
             'codes[0].prob: expected a rational string such as "2/3"'),
            (lambda doc: {**doc, "codes": [{**doc["codes"][0], "map": []}]},
             "codes[0].map: expected an object keyed by subset strings"),
        ],
        ids=[
            "document-not-an-object", "plaintexts-not-a-list", "codes-not-a-list",
            "code-not-an-object", "unknown-code-field", "missing-code-field", "empty-name",
            "non-string-name", "non-string-prob", "map-not-an-object",
        ],
    )
    def test_document_shape_faults_name_their_field(self, edit, message):
        doc = edit(json.loads(spy_document()))
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(json.dumps(doc))
        assert type(err.value) is ModelSyntaxError
        assert str(err.value) == message

    def test_keys_shared_by_codes_parse_to_equal_masks(self):
        doc = json.loads(spy_document())
        spell_full_set_no_yes(doc)
        model = parse_model(json.dumps(doc))
        full = YN.subset(["yes", "no"])
        assert [code.codebook[full] for code in model.codes] == ["BANANA", "CHERRY"]
        assert [list(code.codebook) for code in model.codes] == [
            [YN.subset(["yes"]), YN.subset(["no"]), full]
        ] * 2

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_maps_out_of_domain_order_parse_to_the_canonical_model(self, name):
        text = bundled_model_path(name).read_text(encoding="utf-8")
        shuffled = out_of_domain_order(text)
        model = parse_model(shuffled)
        assert model == parse_model(text)
        assert serialize_model(model) == text
        # each codebook iterates in the order its document wrote it
        books = [record["map"] for record in json.loads(shuffled)["codes"]]
        assert [list(code.codebook) for code in model.codes] == [
            [YN.parse_subset(key) for key in book] for book in books
        ]


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

    def test_both_constructors_round_trip_to_equal_models(self):
        rng = random.Random(314159)
        for trial in range(40):
            fractions = mixed_fractions if trial % 2 else random_fractions
            built = random_model(rng, random_frame(rng, 5), max_codes=6, fractions=fractions)
            text = serialize_model(built)
            parsed = parse_model(text)
            for model in (built, parsed):
                again = parse_model(serialize_model(model))
                assert again == model == built
                assert serialize_model(again) == text
                assert [code.codebook for code in again.codes] == [
                    code.codebook for code in built.codes
                ]
                for message in model.messages:
                    assert again.constraining_relation(message) == built.constraining_relation(
                        message
                    )

    def test_alphabets_past_one_byte_of_message_index(self):
        # the suite's only alphabet past 256 messages, where an index needs more than a byte
        rng = random.Random(2560)
        for trial in range(6):
            built = random_model(
                rng, random_frame(rng, 4), max_codes=5, min_messages=300, max_messages=300,
                fractions=mixed_fractions,
            )
            parsed = parse_model(serialize_model(built))
            assert parsed == built
            assert validate_model(parsed) == validate_model(built)
            message = producible_message(rng, built)
            assert as_set_dict(parsed.derive_mass(message)) == oracle_derive(built, message)
            prior = PriorSpec.uniform(built.plaintexts)
            expected = simulation_outcome(oracle_simulate, built, prior, message, 500, trial)
            for model in (built, parsed):
                assert simulation_outcome(simulate, model, prior, message, 500, trial) == expected

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

    def test_two_non_injective_messages_in_message_order(self):
        frame = Frame(("a", "b", "c"))
        domain = tuple(frame.subset(members) for members in (["a"], ["b"], ["c"], ["a", "b"]))
        code = Code("s", F(1), dict(zip(domain, ("q1", "q0", "q1", "q0"))))
        model = EvidenceModel(frame, ("q0", "q1"), domain, (code,))
        assert model._rows == ((1, 0, 1, 0),)
        assert validate_model(model) == [
            "code s non-injective on q0: {b}, {a,b}",
            "code s non-injective on q1: {a}, {c}",
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

    @pytest.mark.parametrize(
        "parse,text,message",
        [
            (parse_belief_table, '{"frame": ["a"], "belief": ["{a}", "1"]}',
             "belief: expected an object keyed by subset strings"),
            (lambda text: parse_prior_table(text, YN), '{"weights": "{no}"}',
             "weights: expected an object keyed by subset strings"),
        ],
        ids=["belief", "prior"],
    )
    def test_table_that_is_not_an_object(self, parse, text, message):
        with pytest.raises(ModelSyntaxError) as info:
            parse(text)
        assert type(info.value) is ModelSyntaxError
        assert str(info.value) == message

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

    @pytest.mark.parametrize(
        "key, value, error, message",
        [
            ("zz", "x", ModelSyntaxError, "subset must be written in braces, got 'zz'"),
            ("{a,zz}", "x", UnknownLabel, "label 'zz' is not in frame {a,b}"),
            ("{b,a}", "x", ModelSyntaxError, "duplicate subset {a,b}"),
            ("{b}", "1/0", ModelSyntaxError, "zero denominator: '1/0'"),
        ],
        ids=["syntax", "unknown-label", "duplicate", "rational"],
    )
    def test_entry_checks_run_in_order(self, key, value, error, message):
        # Each entry is checked for subset syntax, unknown labels, a duplicate
        # subset and then its rational; the first fault found is reported.
        text = json.dumps({"frame": ["a", "b"], "belief": {"{a,b}": "1", key: value}})
        with pytest.raises(error) as info:
            parse_belief_table(text)
        assert str(info.value) == f"belief[{key!r}]: {message}"


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
