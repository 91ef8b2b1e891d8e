"""Tests of the benchmark itself: generators, span arithmetic, p90, gate.

Run from the repository root with ``python3 -m pytest -q bench``; the
package's own suite (``tests/``) does not collect this file.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DATA = BENCH.parent / "src" / "beliefkit" / "data"


@pytest.fixture(scope="module")
def bk():
    return run.import_beliefkit()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    prepare = workloads.WORKLOADS[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = prepare(7, dirs[0], DATA)
    again = prepare(7, dirs[1], DATA)
    other = prepare(8, dirs[2], DATA)
    assert repr(first.inputs) == repr(again.inputs)
    assert repr(first.inputs) != repr(other.inputs)
    written = sorted(p.name for p in dirs[0].iterdir())
    assert written == sorted(p.name for p in dirs[1].iterdir())
    for doc in written:
        assert (dirs[0] / doc).read_bytes() == (dirs[1] / doc).read_bytes()


def test_self_time_on_a_hand_built_tree():
    tree = [
        ["op", 0.0, 10.0, None, 0],
        ["run_command", 1.0, 9.0, 0, 0],
        ["build_parser", 1.0, 3.0, 1, 0],
        ["load_model", 4.0, 6.0, 1, 0],
        ["EvidenceModel.derive_mass", 6.0, 8.0, 1, 0],
        ["EvidenceModel.constraining_relation", 6.5, 7.0, 4, 0],
        ["op", 10.0, 12.0, None, 1],
        ["emit_report", 10.5, 11.0, 6, 1],
    ]
    assert spans.self_times(tree) == [2.0, 2.0, 2.0, 2.0, 1.5, 0.5, 1.5, 0.5]
    got = spans.layer_metrics(tree, spans.Counter())
    assert got["cli.self_ms_per_op"] == 2000.0  # (run_command 2 s + build_parser 2 s) / 2 ops
    assert got["cli.calls_per_op"] == 1.0
    assert got["cli.build_parser_ms_per_op"] == 1000.0
    assert got["model_io.self_ms_per_op"] == 1000.0
    assert got["evidence.self_ms_per_op"] == 1000.0
    assert got["reports.self_ms_per_op"] == 250.0
    assert got["cli.share"] == pytest.approx(4 / 12)
    assert got["evidence.share"] == pytest.approx(2 / 12)
    assert got["combine.self_ms_per_op"] == 0.0


def test_children_that_overlap_are_counted_once():
    tree = [["op", 0.0, 10.0, None, 0], ["a", 1.0, 4.0, 0, 0], ["b", 3.0, 5.0, 0, 0]]
    assert spans.self_times(tree)[0] == 6.0


def test_p90_is_refused_below_100_ops():
    with pytest.raises(ValueError, match="at least 100"):
        run.p90([0.001] * 99)
    assert run.p90([float(i) for i in range(1, 101)]) == pytest.approx(90.9)


def _example1(bk):
    path = DATA / "example1.json"
    spec = workloads.spec_from_document(path.read_text(encoding="utf-8"))
    return str(path), spec


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_gate_flags_a_corrupted_expected_value(bk, fmt):
    path, spec = _example1(bk)
    good = oracles.payload_derive(spec, "BANANA")
    bad = oracles.payload_derive(spec, "BANANA")
    bad["mass"]["{no}"] = "1/2"
    argv = ["derive", path, "--format", fmt]
    failures = run.Failures()
    run.gate([workloads.cli_op(bk, "good", argv, good)], failures)
    assert failures.items == []
    run.gate([workloads.cli_op(bk, "bad", argv, bad)], failures)
    assert len(failures.items) == 1 and failures.items[0].startswith("bad:")


def test_gate_flags_a_wrong_exit_status_or_error_class(bk):
    path, _ = _example1(bk)
    argv = ["derive", path, "--message", "KIWI"]
    failures = run.Failures()
    run.gate([workloads.cli_op(bk, "ok", argv, (1, "error: UnknownMessage: "))], failures)
    assert failures.items == []
    run.gate([workloads.cli_op(bk, "status", argv, (2, "error: UnknownMessage: "))], failures)
    run.gate([workloads.cli_op(bk, "class", argv, (1, "error: TotalConflict: "))], failures)
    assert [f.split(":")[0] for f in failures.items] == ["status", "class"]


def test_gate_flags_a_corrupted_library_result(bk):
    frame = bk.Frame(("a", "b"))
    half = Fraction(1, 2)
    m1 = bk.MassFunction(frame, [(frame.subset(["a"]), half), (frame.full(), half)])
    plain = {0b01: half, 0b11: half}
    combined, conflict = oracles.combine(plain, plain)
    expected = workloads._plain_result(combined, conflict)
    corrupted = workloads._plain_result({**combined, 0b11: Fraction(1, 3)}, conflict)

    def op(name, want):
        call = lambda: bk.combine_masses(m1, m1)  # noqa: E731
        return workloads.Op(name, call, workloads._equals(want), workloads._canon_result)

    failures = run.Failures()
    run.gate([op("good", expected)], failures)
    assert failures.items == []
    run.gate([op("bad", corrupted)], failures)
    assert len(failures.items) == 1


def test_window_flags_a_repeat_that_differs_from_the_first_run():
    calls = iter(range(1000))
    op = workloads.Op("drifts", lambda: next(calls) >= 3, lambda out: None)
    failures = run.Failures()
    first = run.gate([op], failures)
    measured, best = run.window([op], first, 0.0, 10, failures)
    assert len(measured) == 10 and best == {"drifts": min(measured)}
    assert len(failures.items) == 8  # calls 3 to 10 of 0 to 10


def test_best_times_keep_the_mix_at_each_ops_fastest_repeat():
    cycle = [workloads.Op(name, None, None) for name in ("a", "b", "a")]
    assert run.best_times(cycle, {"a": 1.0, "b": 10.0}, 6) == [1.0, 10.0, 1.0] * 2


@pytest.mark.parametrize("traced, key", [(0, "end_to_end"), (1, "per_layer")])
def test_a_run_reports_exactly_the_declared_metrics(traced, key, capsys):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = ["--workload", "cli-desk", "--seed", "3", "--seconds", "0.2", "--trace", str(traced)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared[key]
    }
