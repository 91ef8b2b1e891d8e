"""The workloads: seeded inputs, the op cycle, and each op's check.

A workload is prepared in two steps.  ``prepare(seed, work_dir, data_dir)``
runs the benchmark's own code only: it draws the inputs, writes the
documents the CLI reads, and computes every op's expected result with the
oracles.  ``plan.build(bk)`` then makes the library calls that turn plain
inputs into beliefkit objects (timed as set-up) and returns the op cycle.
``bk`` is the imported ``beliefkit`` package; ops look names up on it when
they run, so the traced run can patch them.

An op's ``call`` is the timed part.  ``canon`` turns its output into a plain
comparable value outside the timed part, and ``check`` compares that value
with the oracle's, returning ``None`` or a message.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen
import oracles
from gen import ModelSpec, fraction_text, subset_text


def _same(value: object) -> object:
    return value


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    canon: Callable[[object], object] = _same


@dataclass(frozen=True)
class Plan:
    build: Callable[[object], list[Op]]
    inputs: tuple  # every generated input, for the determinism test


def interleave(weighted: list[tuple[Op, int]]) -> list[Op]:
    """One cycle in which each op's repeats are spread evenly.

    The host's speed drifts from second to second, so repeats run back to
    back would all sample one stretch of it; spread out, they sample the
    whole window.
    """
    slots = [((i + 0.5) / n, k, op) for k, (op, n) in enumerate(weighted) for i in range(n)]
    return [op for _, _, op in sorted(slots, key=lambda slot: slot[:2])]


def _equals(expected: object) -> Callable[[object], str | None]:
    return lambda got: None if got == expected else "output differs from the oracle"


# ---------- CLI ops ----------

def _structure(payload: object) -> object:
    """Order-sensitive comparable form of a JSON value."""
    return json.loads(json.dumps(payload), object_pairs_hook=list)


def cli_op(bk, name: str, argv: list[str], expect) -> Op:
    """One in-process ``run_command(argv)`` with stdout and stderr captured.

    `expect` is the oracle payload of a successful run, checked in the
    format the argv asks for, or an ``(exit status, stderr prefix)`` pair for
    an expected error with its one-line diagnostic.
    """

    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = bk.cli.run_command(argv)
        return status, out.getvalue(), err.getvalue()

    if isinstance(expect, tuple):
        want_status, prefix = expect

        def check(result):
            status, out, err = result
            one_line = err.count("\n") == 1
            if status == want_status and not out and err.startswith(prefix) and one_line:
                return None
            return f"expected exit {want_status} and {prefix!r}, got {status} {err!r}"

        return Op(name, call, check)

    machine = "machine" in argv
    want = _structure(expect) if machine else oracles.render_text(expect)

    def check(result):
        status, out, err = result
        if status != 0 or err:
            return f"exit {status}: {err.strip()}"
        try:
            got = _structure(json.loads(out)) if machine else out
        except ValueError as exc:
            return f"machine output is not JSON: {exc}"
        return None if got == want else "output differs from the oracle"

    return Op(name, call, check)


def spec_from_document(text: str) -> ModelSpec:
    """Read a model document into plain data, for the bundled models."""
    doc = json.loads(text)
    frame = tuple(doc["frame"])
    masks = [sum(1 << frame.index(x) for x in names) for names in doc["plaintexts"]]
    keys = [subset_text(frame, m) for m in masks]
    return ModelSpec(
        labels=frame,
        messages=tuple(doc["messages"]),
        plaintexts=tuple(masks),
        names=tuple(c["name"] for c in doc["codes"]),
        probs=tuple(Fraction(c["prob"]) for c in doc["codes"]),
        codebooks=tuple(tuple(c["map"][k] for k in keys) for c in doc["codes"]),
        observed=doc.get("observed"),
    )


def likely_pair(spec: ModelSpec, message: str) -> tuple[int, int] | None:
    """The first two plaintexts with positive likelihood, so odds are finite."""
    like = oracles.likelihoods(spec, message)
    positive = [p for p, lk in zip(spec.plaintexts, like) if lk > 0]
    return (positive[0], positive[1]) if len(positive) >= 2 else None


@dataclass(frozen=True)
class ModelInput:
    """A model document on disk, with what the ops on it need."""

    tag: str
    path: str
    spec: ModelSpec
    message: str
    flag: tuple[str, ...]  # ("--message", m), or () when the model declares it
    pair: tuple[int, int]


def model_cases(m: ModelInput, odds: Fraction, samples: int, sim_seed: int):
    """(kind, argv, payload) of derive, bayes, odds, factors, williams,
    simulate and validate on one model, without ``--format``."""
    full = (1 << len(m.spec.labels)) - 1
    shown = ["T" if p == full else subset_text(m.spec.labels, p) for p in m.pair]
    q, flag = m.message, list(m.flag)
    return [
        ("derive", ["derive", m.path, *flag], oracles.payload_derive(m.spec, q)),
        (
            "bayes",
            ["bayes", m.path, *flag, "--prior", "uniform"],
            oracles.payload_bayes(m.spec, q),
        ),
        (
            "odds",
            ["bayes", m.path, *flag, "--odds", fraction_text(odds), "--pair", *shown],
            oracles.payload_odds(m.spec, q, *m.pair, odds),
        ),
        (
            "factors",
            ["factors", m.path, *flag, "--pair", *shown],
            oracles.payload_factors(m.spec, q, *m.pair),
        ),
        ("williams", ["williams", m.path, *flag], oracles.payload_williams(m.spec, q)),
        (
            "simulate",
            ["simulate", m.path, *flag, "--samples", str(samples), "--seed", str(sim_seed)],
            oracles.payload_simulate(m.spec, q, samples, sim_seed),
        ),
        ("validate", ["validate", m.path], oracles.payload_validate(m.spec)),
    ]


def _writer(work: Path, docs: list):
    def write(name: str, text: str) -> str:
        docs.append((name, text))
        (work / name).write_text(text, encoding="utf-8")
        return str(work / name)

    return write


# ---------- cli-desk ----------

# (frame labels, codes, plaintexts, messages) of the seeded desk models.
DESK_SLOTS = ((3, 4, 4, 3), (4, 6, 6, 4), (4, 6, 8, 4), (6, 8, 8, 5))
DESK_SAMPLES = 1000
FORMATS = ("text", "machine")


def desk_model(seed: int, slot: int, partner: ModelSpec | None = None) -> ModelSpec:
    """Seeded desk model; codes decode one or two plaintexts each.

    Redraws until two plaintexts have positive likelihood (finite odds) and,
    given a `partner` on the same frame, until the pair is not in total
    conflict.
    """
    size, codes, plaintexts, messages = DESK_SLOTS[slot]
    attempt = 0
    while True:
        rng = gen.rng_for(seed, f"desk-{slot}-{attempt}")
        spec = gen.random_model(
            rng, size, codes, plaintexts, messages, gen.spread(codes * 3 // 2, codes, 1)
        )
        conflicted = partner is not None and oracles.total_conflict(
            oracles.derive(partner, "q0"), oracles.derive(spec, "q0")
        )
        if likely_pair(spec, "q0") is not None and not conflicted:
            return spec
        attempt += 1


def prepare_cli_desk(seed: int, work: Path, data: Path) -> Plan:
    docs: list = []
    write = _writer(work, docs)
    models = []
    for name in ("example1", "example2"):
        path = data / f"{name}.json"
        spec = spec_from_document(path.read_text(encoding="utf-8"))
        # {no} against T, the pair the README uses
        models.append(ModelInput(name, str(path), spec, spec.observed, (), spec.plaintexts[1:3]))
    seeded = [desk_model(seed, slot) for slot in range(len(DESK_SLOTS))]
    seeded[2] = desk_model(seed, 2, partner=seeded[1])
    for i, spec in enumerate(seeded):
        path = write(f"desk{i}.json", gen.model_document(spec))
        pair = likely_pair(spec, "q0")
        models.append(ModelInput(f"desk{i}", path, spec, "q0", ("--message", "q0"), pair))

    rng = gen.rng_for(seed, "desk-extra")
    odds = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    sim_seed = rng.randrange(1 << 31)
    fb_frame = gen.labels(3)
    fb_mass = gen.random_mass(rng, 3, 3)
    fb_path = write("belief.json", gen.belief_document(fb_frame, gen.belief_table(fb_mass, 3)))
    prior_model = models[3]
    prior = gen.random_probs(rng, len(prior_model.spec.plaintexts), 5)
    prior_path = write(
        "prior.json",
        json.dumps({"weights": {
            subset_text(prior_model.spec.labels, p): fraction_text(w)
            for p, w in zip(prior_model.spec.plaintexts, prior)
        }}),
    )
    missing = str(work / "missing.json")

    cases = []
    for m, m_odds in zip(models, [Fraction(2)] * 2 + [odds] * len(seeded)):
        for kind, argv, payload in model_cases(m, m_odds, DESK_SAMPLES, sim_seed):
            cases.append((f"{kind} {m.tag}", argv, payload))
    # desk1 and desk2 share a frame; neither pair is in total conflict.
    for tag, a, b, flags in (
        ("bundled", models[0], models[1], []),
        ("desk", models[3], models[4], ["--message1", "q0", "--message2", "q0"]),
    ):
        for method in ("direct", "product"):
            cases.append((
                f"combine {tag} {method}",
                ["combine", a.path, b.path, *flags, "--method", method],
                oracles.payload_combine(a.spec, a.message, b.spec, b.message, method),
            ))
    cases.append(("from-belief", ["derive", "--from-belief", fb_path],
                  oracles.payload_from_belief(fb_frame, fb_mass)))
    cases.append((
        "prior-file",
        ["bayes", prior_model.path, "--message", "q0", "--prior-file", prior_path],
        oracles.payload_bayes(prior_model.spec, "q0", list(prior)),
    ))
    errors = [
        ("unknown message", ["derive", models[0].path, "--message", "KIWI"],
         (1, "error: UnknownMessage: ")),
        ("missing model argument", ["derive"], (2, "usage error: ")),
        ("missing model file", ["derive", missing], (1, "error: [Errno 2]")),
    ]

    def build(bk) -> list[Op]:
        ops = [
            cli_op(bk, f"{name} {fmt}", argv + ["--format", fmt], payload)
            for fmt in FORMATS
            for name, argv, payload in cases
        ]
        return ops + [cli_op(bk, name, argv, expect) for name, argv, expect in errors]

    return Plan(build, (tuple(docs), odds, sim_seed))


# ---------- combine-dense ----------

# Focal elements per side at frame sizes 8, 10 and 12.
DENSE_SIZES = ((8, 64), (10, 128), (12, 256))
DENSE_MODEL = dict(frame_size=8, codes=64, plaintexts=16, messages=6)
DENSE_DECODED = gen.spread(218, 64, 3)  # 3.4 plaintexts per code on average
# One wide model: derive_mass is quadratic in the code count, so at 1000
# codes its quadratic part is most of the op.
WIDE_MODEL = dict(frame_size=8, codes=1000, plaintexts=16, messages=6)
WIDE_DECODED = gen.spread(2500, 1000, 2)  # 2.5 plaintexts per code on average
# Repeats per cycle, heaviest first.  The median lands among the
# from_belief ops and the p90 among the frame-10 combinations; above those
# sit combine_models, the Bel and Pl tables and one frame-12 combination.
# The wide derive_mass sits between median and p90 and takes about a
# tenth of the cycle, enough for a change to it to move ops_per_s.
DENSE_REPEATS = {
    "combine 12": 1, "combine_models": 1, "pl table": 1, "bel table": 1,
    "combine 10": 4, "derive 1000": 6, "from_belief": 30, "combine 8": 6,
    "derive+combine": 6,
}


def _canon_result(result) -> tuple:
    return (_canon_mass(result.combined), (result.conflict.numerator, result.conflict.denominator))


def _canon_mass(mass) -> tuple:
    return tuple((m.bits, v.numerator, v.denominator) for m, v in mass.focal())


def _canon_values(values) -> tuple:
    return tuple((v.numerator, v.denominator) for v in values)


def _plain_mass(mass: dict[int, Fraction]) -> tuple:
    return tuple((b, mass[b].numerator, mass[b].denominator) for b in sorted(mass))


def _plain_result(mass: dict[int, Fraction], conflict: Fraction) -> tuple:
    return (_plain_mass(mass), (conflict.numerator, conflict.denominator))


def prepare_combine_dense(seed: int, work: Path, data: Path) -> Plan:
    pairs = {}
    for size, focal in DENSE_SIZES:
        rng = gen.rng_for(seed, f"dense-{size}")
        pairs[size] = (gen.random_mass(rng, size, focal), gen.random_mass(rng, size, focal))
    rng = gen.rng_for(seed, "dense-models")
    specs = [gen.random_model(rng, **DENSE_MODEL, decoded=DENSE_DECODED) for _ in range(2)]
    wide = gen.random_model(gen.rng_for(seed, "dense-wide"), **WIDE_MODEL, decoded=WIDE_DECODED)
    big = gen.random_mass(gen.rng_for(seed, "dense-lattice"), 12, 256)
    bel = gen.belief_table(big, 12)
    full = (1 << 12) - 1
    pl = [1 - bel[full ^ x] for x in range(1 << 12)]

    expected = {f"combine {s}": _plain_result(*oracles.combine(*pairs[s])) for s, _ in DENSE_SIZES}
    joint = _plain_result(*oracles.combine(*(oracles.derive(s, "q0") for s in specs)))
    expected["combine_models"] = expected["derive+combine"] = joint
    expected["derive 1000"] = _plain_mass(oracles.derive(wide, "q0"))
    expected["bel table"] = tuple((v.numerator, v.denominator) for v in bel)
    expected["pl table"] = tuple((v.numerator, v.denominator) for v in pl)
    expected["from_belief"] = _plain_mass(big)

    def build(bk) -> list[Op]:
        frames = {size: bk.Frame(gen.labels(size)) for size in (8, 10, 12)}

        def mass(size, plain):
            frame = frames[size]
            return bk.MassFunction(frame, [(bk.SubsetMask(frame, b), v) for b, v in plain.items()])

        def model(spec):
            frame = frames[len(spec.labels)]
            domain = [bk.SubsetMask(frame, p) for p in spec.plaintexts]
            codes = [
                bk.Code(name, prob, dict(zip(domain, book)))
                for name, prob, book in zip(spec.names, spec.probs, spec.codebooks)
            ]
            return bk.EvidenceModel(frame, spec.messages, domain, codes, spec.observed)

        objs = {s: (mass(s, a), mass(s, b)) for s, (a, b) in pairs.items()}
        m1, m2, m3 = (model(s) for s in (*specs, wide))
        lattice = mass(12, big)
        masks = [bk.SubsetMask(frames[12], x) for x in range(1 << 12)]
        table = dict(zip(masks, bel))

        def combine(size):
            a, b = objs[size]
            return lambda: bk.combine_masses(a, b)

        calls = {
            "combine 12": (combine(12), _canon_result),
            "combine 10": (combine(10), _canon_result),
            "combine 8": (combine(8), _canon_result),
            "combine_models": (lambda: bk.combine_models(m1, "q0", m2, "q0"), _canon_result),
            "derive+combine": (
                lambda: bk.combine_masses(m1.derive_mass("q0"), m2.derive_mass("q0")),
                _canon_result,
            ),
            "derive 1000": (lambda: m3.derive_mass("q0"), _canon_mass),
            "bel table": (lambda: [lattice.belief(x) for x in masks], _canon_values),
            "pl table": (lambda: [lattice.plausibility(x) for x in masks], _canon_values),
            "from_belief": (lambda: bk.MassFunction.from_belief(frames[12], table), _canon_mass),
        }
        ops = {
            name: Op(name, call, _equals(expected[name]), canon)
            for name, (call, canon) in calls.items()
        }
        return interleave([(ops[name], repeats) for name, repeats in DENSE_REPEATS.items()])

    return Plan(build, (tuple(pairs.items()), tuple(specs), wide, tuple(sorted(big.items()))))


WORKLOADS = {
    "cli-desk": prepare_cli_desk,
    "combine-dense": prepare_combine_dense,
}
