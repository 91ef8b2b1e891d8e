"""Every subcommand's output, byte for byte, against a committed digest corpus.

The inputs are drawn by the seeded generators of ``helpers``: models and
prior files on frames of up to six labels, dense belief tables on frames of
1 to 12 labels (their cells reach every field width of the lattice transform,
past 64 bits included), half of them on ``mixed_fractions``.  Each argv runs
in process, in a temporary working directory, with relative paths, and the
corpus holds a short digest of its (status, stdout, stderr).  It covers every
subcommand in both formats, the expected exit-1 and exit-2 cases, and
``--help`` at ``COLUMNS`` 80 and 200.

The check needs only the standard library, so it also runs without pytest
(``PYTHONPATH=src python tests/test_byte_identity.py`` prints any argv whose
output changed).  Regenerate the corpus, when an output change is meant, with

    PYTHONPATH=src python tests/test_byte_identity.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from math import lcm
from pathlib import Path

from beliefkit import Frame, SubsetMask, bundled_model_path, format_rational, serialize_model
from beliefkit.cli import run_command

from helpers import (
    mixed_fractions,
    oracle_lattice_transform,
    prime_fractions,
    producible_message,
    random_fractions,
    random_frame,
    random_mass,
    random_model,
    wide_frame,
)

CORPUS = Path(__file__).with_name("byte_identity.json")
SEED = 1507
COMMANDS = ("derive", "combine", "bayes", "factors", "williams", "simulate", "validate")


def _write(name: str, doc: object) -> str:
    Path(name).write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    return name


def _belief_document(mass) -> dict:
    """The dense Bel table of `mass`, by the reference transform of ``helpers``."""
    frame, focal = mass.frame, mass.focal()
    denominator = lcm(*(value.denominator for _, value in focal))
    table = [0] * (1 << frame.size)
    for mask, value in focal:
        table[mask.bits] = int(value * denominator)
    table = oracle_lattice_transform(table, frame.size, inverse=False)
    return {
        "frame": list(frame.labels),
        "belief": {
            str(SubsetMask(frame, bits)): format_rational(Fraction(n, denominator))
            for bits, n in enumerate(table)
        },
    }


def _model_argvs(rng: random.Random, name: str, model, prior: str) -> list[list[str]]:
    message = producible_message(rng, model)
    # drawn from the domain twice over, so a one-plaintext domain gives a pair
    first, second = (str(mask) for mask in rng.sample(model.plaintexts * 2, 2))
    observed = ["--message", message]
    seed = str(rng.randrange(1000))
    return [
        ["derive", name, *observed],
        ["bayes", name, *observed],
        ["bayes", name, *observed, "--prior-file", prior],
        ["bayes", name, *observed, "--odds", "2/3", "--pair", first, second],
        ["factors", name, *observed, "--pair", second, first],
        ["williams", name, *observed],
        ["simulate", name, *observed, "--samples", "500", "--seed", seed],
        ["simulate", name, *observed, "--samples", "500", "--seed", seed, "--prior-file", prior],
        ["validate", name],
    ]


def _inputs_and_argvs() -> list[tuple[list[str], str]]:
    """Write the corpus's input files in the working directory; its (argv, COLUMNS) list."""
    rng = random.Random(SEED)
    argvs: list[list[str]] = []

    # Models and prior files; each pair of models shares a frame for combine.
    for i in range(4):
        fractions = mixed_fractions if i % 2 else random_fractions
        frame = random_frame(rng, 6)
        pair = []
        for j in range(2):
            model = random_model(rng, frame, max_codes=6, fractions=fractions)
            name = f"model{i}{j}.json"
            Path(name).write_text(serialize_model(model), encoding="utf-8")
            weights = fractions(rng, len(model.plaintexts))
            prior = _write(
                f"prior{i}{j}.json",
                {"weights": dict(zip(map(str, model.plaintexts), map(format_rational, weights)))},
            )
            argvs += _model_argvs(rng, name, model, prior)
            pair.append((name, producible_message(rng, model)))
        (name1, message1), (name2, message2) = pair
        for method in ("direct", "product"):
            argvs.append(
                ["combine", name1, name2, "--message1", message1, "--message2", message2,
                 "--method", method]
            )

    # Dense belief tables on frames of 1 to 12 labels, in fields of every
    # width: from size 9 on, odd sizes over primes past 2^64 (fields past 64
    # bits) and even sizes on mixed_fractions (64-bit fields at size 12).
    for size in range(1, 13):
        if size < 9:
            fractions = mixed_fractions if size % 2 else random_fractions
        else:
            fractions = prime_fractions if size % 2 else mixed_fractions
        frame = Frame(("a", "b", "c", "d", "e", "f")[:size]) if size <= 6 else wide_frame(size)
        mass = random_mass(rng, frame, max_focal=48, min_focal=min(2, size), fractions=fractions)
        table = _write(f"belief{size}.json", _belief_document(mass))
        argvs.append(["derive", "--from-belief", table])

    # Documents the commands must refuse with exit status 1.
    Path("non-utf8.json").write_bytes(b"\xff\xfe{")
    Path("broken.json").write_text('{"frame": ["a"],', encoding="utf-8")
    _write("conflict.json", {
        "frame": ["a"], "messages": ["q0", "q1"], "plaintexts": [["a"]],
        "codes": [{"name": "s", "prob": "1", "map": {"{a}": "q0"}}],
    })
    _write("not-belief.json", {"frame": ["a", "b"], "belief": {
        "{}": "0", "{a}": "1/2", "{b}": "1/2", "{a,b}": "2/3"}})
    _write("sparse-belief.json", {"frame": ["a", "b"], "belief": {"{a,b}": "1"}})
    _write("oversized-belief.json", {"frame": [f"h{i}" for i in range(13)], "belief": {}})
    _write("bad-prior.json", {"weights": {"{yes}": "1/3"}})
    Path("example1.json").write_bytes(bundled_model_path("example1").read_bytes())
    argvs += [
        ["derive", "example1.json"],
        ["derive", "example1.json", "--message", "KIWI"],
        ["derive", "missing.json"],
        ["derive", "non-utf8.json"],
        ["derive", "broken.json"],
        ["derive", "conflict.json", "--message", "q1"],
        ["derive", "--from-belief", "not-belief.json"],
        ["derive", "--from-belief", "sparse-belief.json"],
        ["derive", "--from-belief", "oversized-belief.json"],
        ["bayes", "example1.json", "--prior-file", "bad-prior.json"],
        ["bayes", "example1.json", "--prior-file", "non-utf8.json"],
        ["factors", "example1.json", "--pair", "{maybe}", "T"],
        ["combine", "example1.json", "model00.json"],
    ]
    runs = [(argv + ["--format", form], "80") for argv in argvs for form in ("text", "machine")]
    # Usage errors, exit status 2, and help.
    runs += [(argv, "80") for argv in [
        [],
        ["derive"],
        ["derive", "example1.json", "--bogus"],
        ["derive", "example1.json", "--from-belief", "belief1.json"],
        ["derive", "conflict.json"],
        ["bayes", "example1.json", "--odds", "2"],
        ["bayes", "example1.json", "--pair", "{no}", "T"],
        ["bayes", "example1.json", "--odds", "2", "--pair", "{no}", "T", "--prior", "uniform"],
        ["bayes", "example1.json", "--prior", "uniform", "--prior-file", "bad-prior.json"],
        ["factors", "example1.json", "--pair", "no", "T"],
        ["simulate", "example1.json", "--samples", "10"],
        ["simulate", "example1.json", "--samples", "x", "--seed", "1"],
        ["simulate", "example1.json", "--samples", "0", "--seed", "1"],
        ["validate", "example1.json", "--message", "BANANA"],
    ]]
    runs += [
        (command + ["--help"], columns)
        for command in [[]] + [[name] for name in COMMANDS]
        for columns in ("80", "200")
    ]
    return runs


def _digest(status: int, out: str, err: str) -> str:
    text = json.dumps([status, out, err], ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def corpus_digests() -> dict[str, str]:
    """Digest of each corpus argv's (status, stdout, stderr), keyed by COLUMNS and argv."""
    digests: dict[str, str] = {}
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)
        try:
            for argv, width in _inputs_and_argvs():
                os.environ["COLUMNS"] = width
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = run_command(argv)
                key = f"COLUMNS={width} " + " ".join(argv)
                assert key not in digests, key
                digests[key] = _digest(status, out.getvalue(), err.getvalue())
        finally:
            os.chdir(cwd)
            if columns is None:
                os.environ.pop("COLUMNS", None)
            else:
                os.environ["COLUMNS"] = columns
    return digests


def test_outputs_match_the_committed_corpus():
    expected = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert corpus_digests() == expected


if __name__ == "__main__":
    digests = corpus_digests()
    if sys.argv[1:] == ["--write"]:
        text = json.dumps(digests, indent=1, ensure_ascii=False) + "\n"
        CORPUS.write_text(text, encoding="utf-8")
        print(f"wrote {len(digests)} digests to {CORPUS}")
        sys.exit(0)
    expected = json.loads(CORPUS.read_text(encoding="utf-8"))
    changed = sorted(k for k in digests.keys() | expected if digests.get(k) != expected.get(k))
    for key in changed:
        print(f"changed: {key}")
    print(f"{len(digests) - len(changed)} of {len(expected)} digests match")
    sys.exit(1 if changed else 0)
