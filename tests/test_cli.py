import json

import pytest

from beliefkit import bundled_model_path
from beliefkit.cli import run_command

SEED = "20250808"

DERIVE_EXAMPLE1 = """\
frame = {yes,no}
message = BANANA
m({no}) = 2/3
m({yes,no}) = 1/3
Bel({yes}) = 0
Bel({no}) = 2/3
Bel({yes,no}) = 1
Pl({yes}) = 1/3
Pl({no}) = 1
Pl({yes,no}) = 1
"""

FACTORS_EXAMPLE2 = """\
frame = {yes,no}
message = BANANA
pair = {no} vs {yes,no}
factor = 3
"""

WILLIAMS_EXAMPLE2 = """\
frame = {yes,no}
message = BANANA
one_to_one = false
equivalent = false
m({no}) = 2/3
m({yes,no}) = 1/3
posterior({yes}) = 0
posterior({no}) = 3/4
posterior({yes,no}) = 1/4
"""

BAYES_ODDS_EXAMPLE2 = """\
frame = {yes,no}
message = BANANA
pair = {no} vs {yes,no}
prior_odds = 2
factor = 3
posterior_odds = 6
"""

BAYES_UNIFORM_EXAMPLE1 = """\
frame = {yes,no}
message = BANANA
prior({yes}) = 1/3
prior({no}) = 1/3
prior({yes,no}) = 1/3
likelihood({yes}) = 0
likelihood({no}) = 2/3
likelihood({yes,no}) = 1/3
normalizer = 1/3
posterior({yes}) = 0
posterior({no}) = 2/3
posterior({yes,no}) = 1/3
"""

COMBINE_EXAMPLE1_TWICE = """\
method = direct
frame = {yes,no}
conflict = 0
m({no}) = 8/9
m({yes,no}) = 1/9
Bel({yes}) = 0
Bel({no}) = 8/9
Bel({yes,no}) = 1
Pl({yes}) = 1/9
Pl({no}) = 1
Pl({yes,no}) = 1
"""

SIMULATE_EXAMPLE1 = """\
frame = {yes,no}
message = BANANA
samples = 100000
seed = 20250808
algorithm = mt19937
accepted = 33413
freq({yes}) = 0.000000
freq({no}) = 0.662975
freq({yes,no}) = 0.337025
"""


def run(capsys, *argv):
    status = run_command(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestGoldenReports:
    def test_derive_example1(self, capsys, example1_path):
        status, out, err = run(capsys, "derive", example1_path, "--message", "BANANA")
        assert status == 0 and err == ""
        assert out == DERIVE_EXAMPLE1

    def test_derive_example2_same_mass(self, capsys, example1_path, example2_path):
        _, out1, _ = run(capsys, "derive", example1_path, "--message", "BANANA")
        _, out2, _ = run(capsys, "derive", example2_path, "--message", "BANANA")
        mass_lines = [line for line in out1.splitlines() if line.startswith("m(")]
        assert mass_lines == [line for line in out2.splitlines() if line.startswith("m(")]

    def test_factors_example2(self, capsys, example2_path):
        status, out, _ = run(
            capsys, "factors", example2_path, "--message", "BANANA",
            "--pair", "{no}", "T",
        )
        assert status == 0
        assert out == FACTORS_EXAMPLE2

    def test_williams_example2(self, capsys, example2_path):
        status, out, _ = run(capsys, "williams", example2_path)
        assert status == 0
        assert out == WILLIAMS_EXAMPLE2

    def test_bayes_odds_example2(self, capsys, example2_path):
        status, out, _ = run(
            capsys, "bayes", example2_path, "--odds", "2", "--pair", "{no}", "T"
        )
        assert status == 0
        assert out == BAYES_ODDS_EXAMPLE2

    def test_bayes_uniform_example1(self, capsys, example1_path):
        status, out, _ = run(capsys, "bayes", example1_path, "--prior", "uniform")
        assert status == 0
        assert out == BAYES_UNIFORM_EXAMPLE1

    def test_combine_direct(self, capsys, example1_path):
        status, out, _ = run(capsys, "combine", example1_path, example1_path)
        assert status == 0
        assert out == COMBINE_EXAMPLE1_TWICE

    def test_combine_product_same_but_for_method_line(self, capsys, example1_path):
        _, direct, _ = run(capsys, "combine", example1_path, example1_path)
        status, product, _ = run(
            capsys, "combine", example1_path, example1_path, "--method", "product"
        )
        assert status == 0
        assert product == direct.replace("method = direct", "method = product")

    def test_simulate_example1(self, capsys, example1_path):
        status, out, _ = run(
            capsys, "simulate", example1_path, "--samples", "100000", "--seed", SEED
        )
        assert status == 0
        assert out == SIMULATE_EXAMPLE1

    def test_validate_example2(self, capsys, example2_path):
        status, out, _ = run(capsys, "validate", example2_path)
        assert status == 0
        assert out == "warning: code s1' non-injective on BANANA: {no}, {yes,no}\n"

    def test_validate_example1_clean(self, capsys, example1_path):
        status, out, _ = run(capsys, "validate", example1_path)
        assert status == 0
        assert out == "no findings\n"


class TestReportShape:
    def test_vacuous_mass_is_a_single_line(self, capsys, tmp_path):
        doc = {
            "frame": ["yes", "no"],
            "messages": ["q0"],
            "plaintexts": [["yes", "no"]],
            "codes": [{"name": "s", "prob": "1", "map": {"{yes,no}": "q0"}}],
        }
        path = tmp_path / "vacuous.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        status, out, _ = run(capsys, "derive", str(path), "--message", "q0")
        assert status == 0
        assert [line for line in out.splitlines() if line.startswith("m(")] == [
            "m({yes,no}) = 1"
        ]

    def test_large_frames_list_belief_only_for_focal_sets(self, capsys, tmp_path):
        labels = ["a", "b", "c", "d", "e"]
        doc = {
            "frame": labels,
            "messages": ["q0"],
            "plaintexts": [["a"], ["a", "b", "c", "d", "e"]],
            "codes": [
                {
                    "name": "s",
                    "prob": "1",
                    "map": {"{a}": "q0", "{a,b,c,d,e}": "q0"},
                }
            ],
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        status, out, _ = run(capsys, "derive", str(path), "--message", "q0")
        assert status == 0
        bel_lines = [line for line in out.splitlines() if line.startswith("Bel(")]
        # focal is only the full frame here, so Bel rows are focal + T collapsed
        assert bel_lines == ["Bel({a,b,c,d,e}) = 1"]


class TestMachineFormat:
    def test_derive_round_trip(self, capsys, example1_path):
        status, out, _ = run(
            capsys, "derive", example1_path, "--message", "BANANA",
            "--format", "machine",
        )
        assert status == 0
        doc = json.loads(out)
        assert doc == {
            "kind": "derive",
            "frame": "{yes,no}",
            "message": "BANANA",
            "mass": {"{no}": "2/3", "{yes,no}": "1/3"},
            "belief": {"{yes}": "0", "{no}": "2/3", "{yes,no}": "1"},
            "plausibility": {"{yes}": "1/3", "{no}": "1", "{yes,no}": "1"},
        }

    def test_simulate_round_trip_is_exact(self, capsys, example2_path):
        status, out, _ = run(
            capsys, "simulate", example2_path, "--samples", "100000",
            "--seed", SEED, "--format", "machine",
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["accepted"] == 44453
        assert doc["frequency"]["{no}"] == 0.746676
        # reparsing reproduces the document byte for byte
        assert json.dumps(doc, indent=2, ensure_ascii=False) + "\n" == out

    def test_williams_booleans(self, capsys, example1_path):
        _, out, _ = run(capsys, "williams", example1_path, "--format", "machine")
        doc = json.loads(out)
        assert doc["one_to_one"] is True and doc["equivalent"] is True


class TestDeterminism:
    def test_identical_invocations_are_byte_identical(self, capsys, example2_path):
        argv = [
            "simulate", example2_path, "--samples", "5000", "--seed", "7",
            "--format", "machine",
        ]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestFromBelief:
    def belief_doc(self, tmp_path, frame, belief):
        path = tmp_path / "belief.json"
        path.write_text(json.dumps({"frame": frame, "belief": belief}), encoding="utf-8")
        return str(path)

    def test_inversion_report(self, capsys, tmp_path):
        path = self.belief_doc(
            tmp_path,
            ["yes", "no"],
            {"{}": "0", "{yes}": "0", "{no}": "2/3", "{yes,no}": "1"},
        )
        status, out, _ = run(capsys, "derive", "--from-belief", path)
        assert status == 0
        assert "m({no}) = 2/3" in out
        assert "m({yes,no}) = 1/3" in out
        assert "message" not in out

    def test_frame_size_cap(self, capsys, tmp_path):
        labels = [f"x{i}" for i in range(13)]
        path = self.belief_doc(tmp_path, labels, {})
        status, _, err = run(capsys, "derive", "--from-belief", path)
        assert status == 1
        assert "12" in err

    def test_oversized_frame_reported_before_entries(self, capsys, tmp_path):
        labels = [f"x{i}" for i in range(13)]
        path = self.belief_doc(tmp_path, labels, {"x0": "1"})
        status, out, err = run(capsys, "derive", "--from-belief", path)
        assert status == 1
        assert out == ""
        assert err.splitlines() == [
            "error: ModelSyntaxError: frame: belief inversion is limited to "
            "frames of size 12 or smaller, got 13"
        ]

    def test_duplicate_subset_rejected(self, capsys, tmp_path):
        path = self.belief_doc(
            tmp_path,
            ["a", "b"],
            {"{}": "0", "{a}": "0", "{b}": "0", "{a,b}": "1/2", "{b,a}": "1"},
        )
        status, out, err = run(capsys, "derive", "--from-belief", path)
        assert status == 1
        assert out == ""
        assert err.splitlines() == [
            "error: ModelSyntaxError: belief['{b,a}']: duplicate subset {a,b}"
        ]

    def test_sparse_table_rejected(self, capsys, tmp_path):
        path = self.belief_doc(tmp_path, ["yes", "no"], {"{yes,no}": "1"})
        status, _, err = run(capsys, "derive", "--from-belief", path)
        assert status == 1
        assert "NotABeliefFunction" in err

    def test_model_and_from_belief_conflict(self, capsys, tmp_path, example1_path):
        path = self.belief_doc(tmp_path, ["yes"], {"{}": "0", "{yes}": "1"})
        status, _, err = run(capsys, "derive", example1_path, "--from-belief", path)
        assert status == 2
        assert "usage error" in err


class TestExitCodes:
    def test_unknown_message_is_domain_error(self, capsys, example1_path):
        status, out, err = run(capsys, "derive", example1_path, "--message", "KIWI")
        assert status == 1
        assert out == ""
        assert "UnknownMessage" in err

    def test_missing_file(self, capsys):
        status, _, err = run(capsys, "derive", "no-such-file.json", "--message", "Q")
        assert status == 1
        assert err != ""

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{", b"[" * 100000, b"[" + b"1" * 5000 + b"]"],
        ids=["non-utf8", "deeply-nested", "huge-integer"],
    )
    @pytest.mark.parametrize("form", ["model", "from-belief", "prior-file"])
    def test_unreadable_document_is_model_error(
        self, capsys, tmp_path, example1_path, form, content
    ):
        path = tmp_path / "document.json"
        path.write_bytes(content)
        argv = {
            "model": ["derive", str(path)],
            "from-belief": ["derive", "--from-belief", str(path)],
            "prior-file": ["bayes", example1_path, "--prior-file", str(path)],
        }[form]
        status, out, err = run(capsys, *argv)
        assert status == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ModelSyntaxError")

    @pytest.mark.parametrize("command", ["derive", "bayes", "williams", "validate"])
    @pytest.mark.parametrize(
        "model,old,new",
        [
            ("example1", "no", "n\\ud800"),
            ("example1", "CHERRY", "CHERRY\\ud800"),
            # example2, because validate prints the name of its non-injective code
            ("example2", "s1'", "s1'\\ud800"),
        ],
        ids=["frame-label", "message-label", "code-name"],
    )
    def test_lone_surrogate_label_is_model_error(
        self, capsys, tmp_path, model, old, new, command
    ):
        path = tmp_path / "surrogate.json"
        with open(bundled_model_path(model), encoding="utf-8") as handle:
            path.write_text(handle.read().replace(old, new), encoding="utf-8")
        status, out, err = run(capsys, command, str(path))
        assert status == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ModelSyntaxError")

    def test_rational_with_trailing_newline_is_model_error(
        self, capsys, tmp_path, example2_path
    ):
        path = tmp_path / "newline.json"
        with open(example2_path, encoding="utf-8") as handle:
            path.write_text(handle.read().replace('"1/3"', '"1/3\\n"'), encoding="utf-8")
        status, out, err = run(capsys, "derive", str(path))
        assert status == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ModelSyntaxError")

    def test_observed_field_supplies_message(self, capsys, example1_path):
        status, out, _ = run(capsys, "derive", example1_path)
        assert status == 0
        assert out == DERIVE_EXAMPLE1

    def test_usage_errors_exit_2(self, capsys, example1_path):
        assert run(capsys, )[0] == 2
        assert run(capsys, "frobnicate")[0] == 2
        assert run(capsys, "derive")[0] == 2
        assert run(capsys, "factors", example1_path, "--message", "BANANA")[0] == 2
        assert run(capsys, "bayes", example1_path, "--odds", "2")[0] == 2
        assert run(capsys, "bayes", example1_path, "--pair", "{no}", "T")[0] == 2
        assert run(
            capsys, "bayes", example1_path, "--odds", "x", "--pair", "{no}", "T"
        )[0] == 2
        assert run(
            capsys, "bayes", example1_path, "--odds", "2\n", "--pair", "{no}", "T"
        )[0] == 2
        assert run(
            capsys, "factors", example1_path, "--pair", "no", "T"
        )[0] == 2
        assert run(capsys, "simulate", example1_path, "--samples", "10")[0] == 2
        assert run(
            capsys, "bayes", example1_path, "--prior", "uniform",
            "--prior-file", "x.json",
        )[0] == 2

    def test_no_observed_and_no_flag_is_usage_error(self, capsys, tmp_path):
        doc = {
            "frame": ["a"],
            "messages": ["q0"],
            "plaintexts": [["a"]],
            "codes": [{"name": "s", "prob": "1", "map": {"{a}": "q0"}}],
        }
        path = tmp_path / "unobserved.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        status, _, err = run(capsys, "derive", str(path))
        assert status == 2
        assert "--message" in err

    def test_unknown_label_in_pair_is_domain_error(self, capsys, example1_path):
        status, _, err = run(
            capsys, "factors", example1_path, "--message", "BANANA",
            "--pair", "{maybe}", "T",
        )
        assert status == 1
        assert "UnknownLabel" in err

    def test_total_conflict_surfaces(self, capsys, tmp_path):
        doc = {
            "frame": ["a"],
            "messages": ["q0", "q1"],
            "plaintexts": [["a"]],
            "codes": [{"name": "s", "prob": "1", "map": {"{a}": "q0"}}],
        }
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        status, _, err = run(capsys, "derive", str(path), "--message", "q1")
        assert status == 1
        assert "TotalConflict" in err

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "derive", "--help")[0] == 0


class TestPriorFile:
    def test_bayes_with_prior_file(self, capsys, tmp_path, example1_path):
        path = tmp_path / "prior.json"
        path.write_text(
            json.dumps({"weights": {"{no}": "2/3", "{yes,no}": "1/3"}}),
            encoding="utf-8",
        )
        status, out, _ = run(
            capsys, "bayes", example1_path, "--prior-file", str(path)
        )
        assert status == 0
        # prior odds 2 between {no} and T, so posterior odds are 4 : 1
        assert "posterior({no}) = 4/5" in out
        assert "posterior({yes,no}) = 1/5" in out
        assert "prior({yes}) = 0" in out

    def test_duplicate_subset_rejected(self, capsys, tmp_path, example1_path):
        path = tmp_path / "prior.json"
        path.write_text(
            json.dumps({"weights": {"{no}": "1/2", "{yes,no}": "1/2", "{no,yes}": "1/2"}}),
            encoding="utf-8",
        )
        status, out, err = run(
            capsys, "bayes", example1_path, "--prior-file", str(path)
        )
        assert status == 1
        assert out == ""
        assert err.splitlines() == [
            "error: ModelSyntaxError: weights['{no,yes}']: duplicate subset {yes,no}"
        ]
