"""Span recorder for the traced run, and the per-layer arithmetic.

The recorder wraps each layer's public entry points from outside the
package: every name is replaced where its caller looks it up (module
attributes for functions, class attributes for methods) and put back when
the traced window ends.  A span is ``[name, start, end, parent, op]``; spans
stay in memory until the run writes them out.

Counters are computed at the same boundaries from each call's inputs and
outputs.  The time spent computing them is taken off the span clock, so it
shows in the traced run's wall time (``trace.overhead_ratio``) but not in any
layer's self time.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "model_io", "evidence", "mass", "combine", "bayes", "reports")

# Span name -> layer.  ``frames`` has no entry points of its own here; its
# time shows as self time of whichever layer called it.
SPAN_LAYER = {
    "run_command": "cli",
    "build_parser": "cli",
    "load_model": "model_io",
    "parse_belief_table": "model_io",
    "parse_prior_table": "model_io",
    "validate_model": "model_io",
    "EvidenceModel.constraining_relation": "evidence",
    "EvidenceModel.derive_mass": "evidence",
    "combine_masses": "combine",
    "combine_models": "combine",
    "MassFunction.__init__": "mass",
    "MassFunction.belief": "mass",
    "MassFunction.plausibility": "mass",
    "MassFunction.from_belief": "mass",
    "posterior": "bayes",
    "bayes_factor": "bayes",
    "posterior_odds": "bayes",
    "williams_check": "bayes",
    "simulate": "bayes",
    "emit_report": "reports",
}

OP = "op"


class Tracer:
    """Spans and counters of one traced window, and the patches that make them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.paused = 0.0
        self.counts: Counter = Counter()
        self._undo: list = []

    def now(self) -> float:
        return perf_counter() - self.paused

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name: str, fn, count=None):
        """`fn` recording a span named `name`, then its counters via `count`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.now(), None, self.stack[-1] if self.stack else None, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.now()
                self.stack.pop()
            if count is not None:
                started = perf_counter()
                count(self, args, result)
                self.paused += perf_counter() - started
            return result

        return traced

    # ----- installing and removing the recorders -----

    def patch_function(self, fn, name: str, count=None) -> None:
        """Replace `fn` in every beliefkit module namespace that binds it."""
        wrapper = self.wrap(name, fn, count)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "beliefkit" or mod_name.startswith("beliefkit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))

    def patch_method(self, cls, attr: str, count=None) -> None:
        original = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, original.__func__, count)))
        else:
            setattr(cls, attr, self.wrap(name, original, count))
        self._undo.append((cls, attr, original))

    def install(self, bk) -> None:
        cli, bayes = bk.cli, bk.bayes
        for name in ("run_command", "build_parser"):
            self.patch_function(getattr(cli, name), name)
        self.patch_function(cli.load_model, "load_model", _count_file)
        self.patch_function(cli.parse_belief_table, "parse_belief_table", _count_text)
        self.patch_function(cli.parse_prior_table, "parse_prior_table", _count_text)
        self.patch_function(cli.validate_model, "validate_model")
        self.patch_method(bk.EvidenceModel, "constraining_relation", _count_relation)
        self.patch_method(bk.EvidenceModel, "derive_mass")
        self.patch_function(bk.combine.combine_masses, "combine_masses", _count_masses)
        self.patch_function(bk.combine.combine_models, "combine_models", _count_models)
        self.patch_method(bk.MassFunction, "__init__")
        self.patch_method(bk.MassFunction, "belief", _count_belief)
        self.patch_method(bk.MassFunction, "plausibility", _count_query)
        self.patch_method(bk.MassFunction, "from_belief", _count_inversion)
        self.patch_function(bayes.posterior, "posterior", _count_posterior)
        self.patch_function(bayes.bayes_factor, "bayes_factor", _count_factor)
        self.patch_function(bayes.posterior_odds, "posterior_odds")
        self.patch_function(bayes.williams_check, "williams_check")
        self.patch_function(bayes.simulate, "simulate", _count_trials)
        self.patch_function(cli.emit_report, "emit_report", _count_report)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ----- counters, computed from each call's inputs and outputs -----

def _count_file(t: Tracer, args, result) -> None:
    t.counts["model_io.bytes_in"] += os.path.getsize(args[0])


def _count_text(t: Tracer, args, result) -> None:
    t.counts["model_io.bytes_in"] += len(args[0].encode("utf-8"))


def _count_relation(t: Tracer, args, result) -> None:
    t.counts["evidence.codes"] += len(args[0].codes)
    t.counts["evidence.relation_pairs"] += len(result.pairs)


def _count_output(t: Tracer, result) -> None:
    focal = result.combined.focal()
    t.counts["combine.calls"] += 1
    t.counts["combine.focal_out"] += len(focal)
    denominator = math.lcm(*(v.denominator for _, v in focal))
    t.counts["combine.denominator_bits"] += denominator.bit_length()


def _count_masses(t: Tracer, args, result) -> None:
    left = [m.bits for m, _ in args[0].focal()]
    right = [m.bits for m, _ in args[1].focal()]
    t.counts["combine.pairs"] += len(left) * len(right)
    t.counts["combine.nonempty"] += sum(1 for a in left for b in right if a & b)
    _count_output(t, result)


def _decoded(model, message) -> Counter:
    """Plaintext bits -> how many codes decode `message` to it."""
    return Counter(
        mask.bits
        for code in model.codes
        for mask in model.plaintexts
        if code.codebook[mask] == message
    )


def _count_models(t: Tracer, args, result) -> None:
    left, right = _decoded(args[0], args[1]), _decoded(args[2], args[3])
    t.counts["combine.pairs"] += sum(left.values()) * sum(right.values())
    t.counts["combine.nonempty"] += sum(
        n * k for a, n in left.items() for b, k in right.items() if a & b
    )
    _count_output(t, result)


def _count_query(t: Tracer, args, result) -> None:
    t.counts["mass.belief_queries"] += 1
    t.counts["mass.lattice_cells"] += 1


def _count_belief(t: Tracer, args, result) -> None:
    # Pl(A) is answered through Bel(complement); count the query once.
    if t.parent_name() != "MassFunction.plausibility":
        _count_query(t, args, result)


def _count_inversion(t: Tracer, args, result) -> None:
    t.counts["mass.lattice_cells"] += 1 << args[1].size


def _count_posterior(t: Tracer, args, result) -> None:
    t.counts["bayes.code_checks"] += len(args[0].codes) * len(args[0].plaintexts)


def _count_factor(t: Tracer, args, result) -> None:
    t.counts["bayes.code_checks"] += 2 * len(args[0].codes)


def _count_trials(t: Tracer, args, result) -> None:
    t.counts["bayes.trials"] += result.samples
    t.counts["bayes.accepted"] += result.accepted


def _count_report(t: Tracer, args, result) -> None:
    t.counts["reports.bytes_out"] += len(result.encode("utf-8"))


# ----- arithmetic over recorded spans -----

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = []
    for sid, (name, start, end, parent, op) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-op layer metrics from the spans and counters of a traced window."""
    ops = sum(1 for s in spans if s[0] == OP)
    op_time = sum(s[2] - s[1] for s in spans if s[0] == OP)
    self_ms: Counter = Counter()
    calls: Counter = Counter()
    build_parser = 0.0
    for span, own in zip(spans, self_times(spans)):
        layer = SPAN_LAYER.get(span[0])
        if layer is None:
            continue
        self_ms[layer] += own * 1000
        calls[layer] += 1
        if span[0] == "build_parser":
            build_parser += own * 1000
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_op"] = self_ms[layer] / ops
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
        out[f"{layer}.share"] = self_ms[layer] / 1000 / op_time
    out["cli.build_parser_ms_per_op"] = build_parser / ops
    for key in (
        "model_io.bytes_in", "evidence.codes", "evidence.relation_pairs",
        "combine.pairs", "combine.focal_out", "mass.belief_queries",
        "mass.lattice_cells", "bayes.code_checks", "bayes.trials", "reports.bytes_out",
    ):
        out[f"{key}_per_op"] = counts[key] / ops
    for name, part, whole in (
        ("combine.nonempty_ratio", "combine.nonempty", "combine.pairs"),
        ("combine.denominator_bits", "combine.denominator_bits", "combine.calls"),
        ("bayes.acceptance_ratio", "bayes.accepted", "bayes.trials"),
    ):
        out[name] = counts[part] / counts[whole] if counts[whole] else 0.0
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms_per_op"):
        return "ms"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith(("share", "_ratio")):
        return "1"
    return "count"
