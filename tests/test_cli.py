import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import beliefkit
from beliefkit import bundled_model_path
from beliefkit import cli
from beliefkit.cli import run_command

from helpers import out_of_domain_order

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


# argparse's own errors; "M" stands for the first bundled model's path
ARGPARSE_ERRORS = {
    "no-argv": [],
    "unknown-command": ["frobnicate"],
    "unknown-option": ["derive", "--bogus"],
    "option-of-another-command": ["validate", "M", "--message", "X"],
    "missing-required": ["simulate", "M", "--samples", "10"],
    "zero-samples": ["simulate", "M", "--samples", "0", "--seed", "1"],
    "non-integer-seed": ["simulate", "M", "--samples", "10", "--seed", "x"],
    "negative-seed": ["simulate", "M", "--samples", "10", "--seed", "-5"],
    "bad-rational": ["bayes", "M", "--odds", "x", "--pair", "{no}", "T"],
    "bad-subset": ["factors", "M", "--pair", "no", "T"],
    "bad-choice": ["derive", "M", "--format", "xml"],
}


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

    def test_seed_zero_runs(self, capsys, example2_path):
        status, out, err = run(
            capsys, "simulate", example2_path, "--samples", "10", "--seed", "0"
        )
        assert status == 0 and err == ""
        assert "\nseed = 0\n" in out


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

    @pytest.mark.parametrize(
        "odds,value", [(["--odds", "0"], F(0)), (["--odds=-1/2"], F(-1, 2))], ids=["0", "-1/2"]
    )
    def test_bad_odds_reported_as_the_library_reports_them(
        self, capsys, example1, example1_path, odds, value
    ):
        # {yes} has zero likelihood, so the factor would fail too; the odds fail first
        no, yes = example1.frame.subset(["no"]), example1.frame.subset(["yes"])
        with pytest.raises(beliefkit.BeliefkitError) as err:
            beliefkit.posterior_odds(example1, "BANANA", no, yes, value)
        assert type(err.value) is beliefkit.InvalidPrior
        status, out, line = run(capsys, "bayes", example1_path, *odds, "--pair", "{no}", "{yes}")
        assert (status, out) == (1, "")
        assert line == f"error: InvalidPrior: {err.value}\n"

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

    @pytest.mark.parametrize("form", ["model", "combine", "from-belief", "prior-file"])
    def test_path_with_nul_is_a_file_error(self, capsys, example1_path, form):
        # a process argument cannot hold NUL, but an in-process argv can
        argv = {
            "model": ["derive", "a\x00b.json"],
            "combine": ["combine", example1_path, "a\x00b.json"],
            "from-belief": ["derive", "--from-belief", "a\x00b.json"],
            "prior-file": ["bayes", example1_path, "--prior-file", "a\x00b.json"],
        }[form]
        status, out, err = run(capsys, *argv)
        assert (status, out) == (1, "")
        assert err == "error: [Errno 22] embedded null byte: 'a\\x00b.json'\n"

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

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("form", ["combine-direct", "combine-product", "prior-file"])
    def test_result_too_large_to_write_is_domain_error(self, capsys, tmp_path, form, fmt):
        # s1 (probability 1/P) and s2 swap X and Y, so each document's mass has
        # a 3001-digit denominator; the combination of two documents, or the
        # posterior under a prior over a 2001-digit denominator, has one past
        # the 4300 digits Python writes
        paths = []
        for p in (10**3000 + 3, 10**3000 + 7):
            doc = {
                "frame": ["a", "b"],
                "messages": ["X", "Y"],
                "plaintexts": [["a"], ["b"]],
                "codes": [
                    {"name": "s1", "prob": f"1/{p}", "map": {"{a}": "X", "{b}": "Y"}},
                    {"name": "s2", "prob": f"{p - 1}/{p}", "map": {"{a}": "Y", "{b}": "X"}},
                ],
                "observed": "X",
            }
            paths.append(tmp_path / f"model{len(paths)}.json")
            paths[-1].write_text(json.dumps(doc), encoding="utf-8")
        r = 10**2000 + 11
        prior = tmp_path / "prior.json"
        prior.write_text(
            json.dumps({"weights": {"{a}": f"1/{r}", "{b}": f"{r - 1}/{r}"}}), encoding="utf-8"
        )
        argv = {
            "combine-direct": ["combine", *map(str, paths), "--method", "direct"],
            "combine-product": ["combine", *map(str, paths), "--method", "product"],
            "prior-file": ["bayes", str(paths[0]), "--prior-file", str(prior)],
        }[form]
        status, out, err = run(capsys, *argv, "--format", fmt)
        assert (status, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: RationalTooLarge: ")

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_diagnostic_too_large_to_write_keeps_its_class(self, capsys, tmp_path, fmt):
        # the two probabilities sum to a value over a 6001-digit denominator,
        # past the 4300 digits Python writes, and not to 1
        doc = {
            "frame": ["a", "b"],
            "messages": ["X", "Y"],
            "plaintexts": [["a"], ["b"]],
            "codes": [
                {"name": "s1", "prob": f"1/{10**3000 + 3}", "map": {"{a}": "X", "{b}": "Y"}},
                {"name": "s2", "prob": f"1/{10**3000 + 7}", "map": {"{a}": "Y", "{b}": "X"}},
            ],
            "observed": "X",
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        status, out, err = run(capsys, "derive", str(path), "--format", fmt)
        assert (status, out) == (1, "")
        assert err == (
            "error: ProbabilitySumError: code probabilities sum to a value too large "
            "to write, expected 1\n"
        )

    def test_module_entry_point_matches_run_command(self, capsys, example1_path):
        env = {**os.environ, "PYTHONPATH": str(Path(beliefkit.__file__).resolve().parents[1])}
        argvs = [
            ["derive", example1_path, "--message", "BANANA"],
            ["derive", example1_path, "--message", "KIWI"],
            ["bayes", example1_path, "--pair", "{no}", "T"],
        ]
        statuses = []
        for argv in argvs:
            done = subprocess.run(
                [sys.executable, "-m", "beliefkit", *argv], env=env, capture_output=True, text=True
            )
            assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)
            statuses.append(done.returncode)
        assert statuses == [0, 1, 2]

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

    @pytest.mark.parametrize(
        "argv,line",
        [
            (["simulate", "M", "--samples", "x", "--seed", "1"],
             "usage error: argument --samples: expected an integer, got 'x'"),
            (["simulate", "M", "--samples", "10", "--seed", "-5"],
             "usage error: argument --seed: expected a non-negative seed, got -5"),
            (["bayes", "M", "--odds", "2", "--pair", "{no}", "T", "--prior", "uniform"],
             "usage error: --odds and prior options are mutually exclusive"),
            (["bayes", "M", "--odds", "2", "--pair", "{no}", "T", "--prior-file", "x.json"],
             "usage error: --odds and prior options are mutually exclusive"),
        ],
        ids=["non-integer-samples", "negative-seed", "odds-with-prior", "odds-with-prior-file"],
    )
    def test_usage_error_lines(self, capsys, example1_path, argv, line):
        argv = [example1_path if token == "M" else token for token in argv]
        assert run(capsys, *argv) == (2, "", line + "\n")

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

    @pytest.mark.parametrize(
        "argv",
        [["factors", "--pair", "{}", "T"], ["bayes", "--odds", "2", "--pair", "T", "{}"]],
        ids=["first", "second"],
    )
    def test_plaintext_outside_the_domain_is_domain_error(self, capsys, example1_path, argv):
        status, out, err = run(capsys, argv[0], example1_path, *argv[1:])
        assert (status, out) == (1, "")
        assert err == "error: UnknownPlaintext: {} is not in the plaintext domain\n"

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

    @pytest.mark.parametrize(
        "argv", list(ARGPARSE_ERRORS.values()), ids=list(ARGPARSE_ERRORS)
    )
    def test_argparse_errors_are_one_usage_line(self, capsys, example1_path, argv):
        argv = [example1_path if token == "M" else token for token in argv]
        status, out, err = run(capsys, *argv)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ")
        # nothing carries over to the next call in the same process
        assert run(capsys, "derive", example1_path, "--message", "BANANA") == (
            0, DERIVE_EXAMPLE1, ""
        )

    def test_line_break_in_argument_stays_one_line(self, capsys, example1_path):
        status, out, err = run(capsys, "derive", example1_path, "b\nc")
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err == "usage error: unrecognized arguments: b\\nc\n"

    def test_line_break_in_label_stays_one_line(self, capsys, tmp_path):
        doc = {
            "frame": ["a"],
            "messages": ["A\nB", "C\u2028D"],
            "plaintexts": [["a"]],
            "codes": [{"name": "s", "prob": "1", "map": {"{a}": "A\nB"}}],
        }
        path = tmp_path / "multiline.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        status, out, err = run(capsys, "derive", str(path), "--message", "X")
        assert status == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: UnknownMessage: ")
        assert "A\\nB, C\\u2028D" in err

    @pytest.mark.parametrize(
        "argv,usage",
        [
            ([], "usage: beliefkit [-h] command ..."),
            (
                ["derive"],
                "usage: beliefkit derive [-h] [--format {text,machine}] [--message MESSAGE] "
                "[--from-belief FILE] [model]",
            ),
            (
                ["combine"],
                "usage: beliefkit combine [-h] [--format {text,machine}] [--message1 MESSAGE1] "
                "[--message2 MESSAGE2] [--method {direct,product}] model1 model2",
            ),
            (
                ["bayes"],
                "usage: beliefkit bayes [-h] [--format {text,machine}] [--message MESSAGE] "
                "[--prior {uniform}] [--prior-file FILE] [--odds A] [--pair FIRST SECOND] model",
            ),
            (
                ["factors"],
                "usage: beliefkit factors [-h] [--format {text,machine}] [--message MESSAGE] "
                "--pair FIRST SECOND model",
            ),
            (
                ["williams"],
                "usage: beliefkit williams [-h] [--format {text,machine}] [--message MESSAGE] "
                "model",
            ),
            (
                ["simulate"],
                "usage: beliefkit simulate [-h] [--format {text,machine}] [--message MESSAGE] "
                "--samples SAMPLES --seed SEED [--prior {uniform}] [--prior-file FILE] model",
            ),
            (
                ["validate"],
                "usage: beliefkit validate [-h] [--format {text,machine}] model",
            ),
        ],
        ids=["beliefkit", "derive", "combine", "bayes", "factors", "williams", "simulate",
             "validate"],
    )
    def test_help_exits_zero(self, capsys, monkeypatch, argv, usage):
        monkeypatch.setenv("COLUMNS", "200")
        status, out, err = run(capsys, *argv, "--help")
        assert status == 0
        assert err == ""
        assert out.splitlines()[0] == usage


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


# every golden report above, by argv (derive's also with "--message=BANANA");
# "M" and "M2" stand for the bundled models' paths
GOLDENS = [
    (["derive", "M", "--message", "BANANA"], DERIVE_EXAMPLE1),
    (["derive", "M"], DERIVE_EXAMPLE1),
    (["derive", "M", "--message=BANANA"], DERIVE_EXAMPLE1),
    (["factors", "M2", "--message", "BANANA", "--pair", "{no}", "T"], FACTORS_EXAMPLE2),
    (["williams", "M2"], WILLIAMS_EXAMPLE2),
    (["bayes", "M2", "--odds", "2", "--pair", "{no}", "T"], BAYES_ODDS_EXAMPLE2),
    (["bayes", "M", "--prior", "uniform"], BAYES_UNIFORM_EXAMPLE1),
    (["combine", "M", "M"], COMBINE_EXAMPLE1_TWICE),
    (["simulate", "M", "--samples", "100000", "--seed", SEED], SIMULATE_EXAMPLE1),
    (["validate", "M2"], "warning: code s1' non-injective on BANANA: {no}, {yes,no}\n"),
    (["validate", "M"], "no findings\n"),
]

COMMANDS = ["derive", "combine", "bayes", "factors", "williams", "simulate", "validate"]


def with_paths(argv, example1_path, example2_path):
    return [{"M": example1_path, "M2": example2_path}.get(token, token) for token in argv]


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_maps_out_of_domain_order_report_as_the_canonical_documents(
    capsys, tmp_path, example1_path, example2_path, fmt
):
    shuffled = []
    for path in (example1_path, example2_path):
        target = tmp_path / Path(path).name
        text = Path(path).read_text(encoding="utf-8")
        target.write_text(out_of_domain_order(text), encoding="utf-8")
        shuffled.append(str(target))
    assert {argv[0] for argv, _ in GOLDENS} == set(COMMANDS)
    for argv, _ in GOLDENS:
        canonical = run(capsys, *with_paths(argv, example1_path, example2_path), "--format", fmt)
        assert canonical[0] == 0
        assert run(capsys, *with_paths(argv, *shuffled), "--format", fmt) == canonical


class TestOneParserPerProcess:
    def test_no_state_carries_over_between_calls(
        self, capsys, monkeypatch, example1_path, example2_path
    ):
        calls = (
            [(argv, "80") for argv, _ in GOLDENS]
            + [(argv, "80") for argv in ARGPARSE_ERRORS.values()]
            + [(["derive", "M", "--message", "KIWI"], "80")]
            + [
                (command + ["--help"], columns)
                for command in [[]] + [[name] for name in COMMANDS]
                for columns in ("80", "200")
            ]
        )

        def run_all(order):
            results = {}
            for i in order:
                argv, columns = calls[i]
                monkeypatch.setenv("COLUMNS", columns)
                results[i] = run(capsys, *with_paths(argv, example1_path, example2_path))
            return results

        with monkeypatch.context() as patch:  # a parser of its own for every call
            patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh = run_all(range(len(calls)))
        forward = run_all(range(len(calls)))
        backward = run_all(reversed(range(len(calls))))
        assert forward == backward == fresh

        for i, (_, golden) in enumerate(GOLDENS):
            assert forward[i] == (0, golden, "")
        statuses = [forward[i][0] for i in range(len(GOLDENS), len(calls))]
        helps = 2 * (1 + len(COMMANDS))
        assert statuses == [2] * len(ARGPARSE_ERRORS) + [1] + [0] * helps
        # help is formatted when asked for, at the width of that moment
        derive_help = [forward[calls.index((["derive", "--help"], c))] for c in ("80", "200")]
        assert derive_help[0] != derive_help[1]
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "abbreviated,full",
        [
            (["derive", "M", "--mess", "BANANA"], ["derive", "M", "--message", "BANANA"]),
            (["derive", "M", "--mess=BANANA"], ["derive", "M", "--message=BANANA"]),
            (["derive", "M", "--form", "machine"], ["derive", "M", "--format", "machine"]),
            (
                ["combine", "M", "M", "--meth", "product"],
                ["combine", "M", "M", "--method", "product"],
            ),
            (
                ["simulate", "M", "--samp", "10", "--seed", "1"],
                ["simulate", "M", "--samples", "10", "--seed", "1"],
            ),
            (["derive", "M", "--he"], ["derive", "M", "--help"]),
            (["--he"], ["--help"]),
        ],
        ids=["message", "message=", "format", "method", "samples", "help", "top-level-help"],
    )
    def test_long_options_are_spelled_in_full(
        self, capsys, example1_path, example2_path, abbreviated, full
    ):
        status, out, err = run(capsys, *with_paths(abbreviated, example1_path, example2_path))
        assert (status, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ")
        status, out, err = run(capsys, *with_paths(full, example1_path, example2_path))
        assert (status, err) == (0, "")
        assert out != ""


def parse_outcome(capsys, parse, argv):
    """The namespace `parse` gives `argv` as a dict, or its usage error's text,
    or the exit status, stdout and stderr of its help."""
    try:
        return vars(parse(argv))
    except cli._UsageError as err:
        return f"usage error: {err}"
    except SystemExit as exit:
        captured = capsys.readouterr()
        return exit.code, captured.out, captured.err


class TestDispatch:
    """An argv that starts with a command's name goes straight to its subparser."""

    @pytest.mark.parametrize(
        "argv",
        [argv for argv, _ in GOLDENS] + list(ARGPARSE_ERRORS.values()),
        ids=[f"golden-{i}" for i in range(len(GOLDENS))] + list(ARGPARSE_ERRORS),
    )
    def test_same_namespace_or_error_as_the_full_parser(
        self, capsys, example1_path, example2_path, argv
    ):
        argv = with_paths(argv, example1_path, example2_path)
        full = parse_outcome(capsys, cli.build_parser().parse_args, argv)
        assert parse_outcome(capsys, cli._parse_args, argv) == full
        if argv and argv[0] in COMMANDS and isinstance(full, dict):
            assert full["command"] == argv[0]

    @pytest.mark.parametrize("columns", ["80", "200"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_same_help_as_the_full_parser(self, capsys, monkeypatch, command, columns):
        monkeypatch.setenv("COLUMNS", columns)
        full = parse_outcome(capsys, cli.build_parser().parse_args, [command, "--help"])
        assert full[0] == 0 and full[1].startswith(f"usage: beliefkit {command} ")
        assert full[2] == ""
        assert parse_outcome(capsys, cli._parse_args, [command, "--help"]) == full

    @pytest.mark.parametrize(
        "argv",
        [[], ["-h"], ["frobnicate"], ["--format", "text", "derive", "M"]],
        ids=["no-argv", "top-level-help", "unknown-command", "option-before-command"],
    )
    def test_other_argv_go_through_the_full_parser(
        self, capsys, monkeypatch, example1_path, example2_path, argv
    ):
        argv = with_paths(argv, example1_path, example2_path)
        full = parse_outcome(capsys, cli.build_parser().parse_args, argv)
        for subparser in cli.build_parser()._commands.values():
            monkeypatch.setitem(vars(subparser), "parse_args", None)  # a call would fail
        assert parse_outcome(capsys, cli._parse_args, argv) == full
        assert not isinstance(full, dict)


OPTIONS = (
    "-h", "--help", "--format", "--message", "--from-belief", "--message1", "--message2",
    "--method", "--prior", "--prior-file", "--odds", "--pair", "--samples", "--seed",
)
VALUES = ("BANANA", "KIWI", "{no}", "{yes,no}", "T", "uniform", "machine", "product", "2", "10")
# file arguments, replaced by real paths when the argv runs
FILES = ("M", "M2", "MISSING", "NON_UTF8")
# Arbitrary text is kept to five characters, which bounds any --samples it spells
# at 99999 trials; it has no NUL, which no process argument can hold.
TEXT = st.text(st.characters(exclude_characters="\x00"), max_size=5)
PREFIXES = sorted({option[:n] for option in OPTIONS for n in range(2, len(option) + 1)})
TOKENS = st.one_of(
    st.sampled_from(COMMANDS),
    st.sampled_from(PREFIXES),
    st.builds("{}={}".format, st.sampled_from(OPTIONS), st.sampled_from(VALUES) | TEXT),
    st.sampled_from(FILES),
    st.sampled_from(VALUES),
    TEXT,
)
ARGVS = st.one_of(
    st.builds(
        lambda command, file, rest: [command, file, *rest],
        st.sampled_from(COMMANDS),
        st.sampled_from(FILES),
        st.lists(TOKENS, max_size=6),
    ),
    st.builds(
        lambda command, file, pairs: [command, file, *(t for pair in pairs for t in pair)],
        st.sampled_from(COMMANDS),
        st.sampled_from(FILES),
        st.lists(st.tuples(st.sampled_from(OPTIONS), st.sampled_from(VALUES)), max_size=3),
    ),
    st.lists(TOKENS, max_size=8),
)


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory, example1_path, example2_path):
    folder = tmp_path_factory.mktemp("argv")
    (folder / "non-utf8.json").write_bytes(b"\xff\xfe{")
    return {
        "M": example1_path,
        "M2": example2_path,
        "MISSING": str(folder / "missing.json"),
        "NON_UTF8": str(folder / "non-utf8.json"),
    }


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argv=ARGVS)
def test_every_argv_ends_in_a_status_and_at_most_one_diagnostic_line(argv_files, argv):
    argv = [argv_files.get(token, token) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run_command(argv)
    assert status in (0, 1, 2)
    if status == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n")



# Documents for the file arguments: arbitrary bytes, or a valid document of
# the argument's kind (a bundled model, a belief table, a prior) with a few
# random edits, each replacing, deleting or renaming one entry at any depth
# with arbitrary JSON or with labels, subsets and rationals that are nearly
# valid (a lone surrogate among them).
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
LABELS = st.sampled_from(["yes", "no", "maybe", "BANANA", "KIWI", "\ud800"]) | st.text(max_size=3)
SUBSETS = st.builds("{{{}}}".format, st.lists(LABELS, max_size=3).map(",".join))
RATIONALS = st.sampled_from(["1", "0", "1/2", "1/3", "2/3", "-1/3", "1/0", "0.5", "1/3\n"])
ENTRIES = LABELS | SUBSETS | RATIONALS | ANY_JSON
BASES = {
    "model": json.loads(bundled_model_path("example2").read_text(encoding="utf-8")),
    "belief": {
        "frame": ["yes", "no"],
        "belief": {"{}": "0", "{yes}": "0", "{no}": "2/3", "{yes,no}": "1"},
    },
    "prior": {"weights": {"{yes}": "1/3", "{no}": "1/3", "{yes,no}": "1/3"}},
}


@st.composite
def edited_documents(draw, kind):
    doc = json.loads(json.dumps(BASES[kind]))
    for _ in range(draw(st.integers(0, 3))):
        if not doc:
            break
        node = doc
        while True:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            edit = draw(st.sampled_from(["replace", "delete", "rename"]))
            if edit == "replace":
                node[key] = draw(ENTRIES)
            elif edit == "delete" or isinstance(node, list):
                del node[key]
            else:
                node[draw(SUBSETS | LABELS)] = node.pop(key)
            break
    return json.dumps(doc).encode()


# every file argument of every subcommand, with the kind of document it
# takes: "D" is the drawn document, "M" the first bundled model and
# "MESSAGE" a drawn message
FILE_ARGVS = [
    ("model", ["derive", "D"]),
    ("model", ["derive", "D", "--message", "MESSAGE"]),
    ("belief", ["derive", "--from-belief", "D"]),
    ("model", ["combine", "D", "M", "--message1", "MESSAGE"]),
    ("model", ["combine", "M", "D", "--message2", "MESSAGE", "--method", "product"]),
    ("model", ["bayes", "D", "--message", "MESSAGE"]),
    ("prior", ["bayes", "M", "--prior-file", "D"]),
    ("model", ["factors", "D", "--message", "MESSAGE", "--pair", "{no}", "T"]),
    ("model", ["williams", "D", "--message", "MESSAGE"]),
    ("model", ["simulate", "D", "--message", "MESSAGE", "--samples", "20", "--seed", "1"]),
    ("prior", ["simulate", "M", "--samples", "20", "--seed", "1", "--prior-file", "D"]),
    ("model", ["validate", "D"]),
]


@st.composite
def file_cases(draw):
    kind, argv = draw(st.sampled_from(FILE_ARGVS))
    document = draw(st.binary(max_size=48) | edited_documents(kind))
    message = draw(st.sampled_from(["BANANA", "APPLE"]) | LABELS)
    return argv, document, message


@pytest.fixture(scope="module")
def drawn_path(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "document.json"


@settings(derandomize=True, max_examples=250, deadline=None)
@given(case=file_cases(), form=st.sampled_from(["text", "machine"]))
def test_every_document_ends_in_a_status_and_at_most_one_diagnostic_line(
    drawn_path, example1_path, case, form
):
    argv, document, message = case
    drawn_path.write_bytes(document)
    files = {"D": str(drawn_path), "M": example1_path, "MESSAGE": message}
    argv = [files.get(token, token) for token in argv] + ["--format", form]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run_command(argv)
    assert status in (0, 1, 2)
    if status == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n")
