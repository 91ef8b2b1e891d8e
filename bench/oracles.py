"""Independent expected values for every benchmark op.

The oracles work on the generators' plain data (``int`` bitmasks, label
tuples, ``Fraction`` values) and never on beliefkit's types, so agreement
with the program is a real cross-check.  ``payload_*`` functions build the
documented ``--format machine`` payload of a subcommand; :func:`render_text`
renders a payload the way the README documents the text format.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

from gen import ModelSpec, fraction_text, subset_text

ZERO = Fraction(0)


# ---------- mass functions ----------

def derive(spec: ModelSpec, message: str) -> dict[int, Fraction] | None:
    """Pool each possible code's probability onto the union it decodes to."""
    pooled: dict[int, Fraction] = {}
    for prob, book in zip(spec.probs, spec.codebooks):
        union = 0
        for plain, label in zip(spec.plaintexts, book):
            if label == message:
                union |= plain
        if union:
            pooled[union] = pooled.get(union, ZERO) + prob
    if not pooled:
        return None
    total = sum(pooled.values(), ZERO)
    return {bits: value / total for bits, value in pooled.items()}


def combine(m1: dict[int, Fraction], m2: dict[int, Fraction]):
    """Dempster's rule on bitmask-keyed masses; returns (combined, conflict)."""
    pooled: dict[int, Fraction] = {}
    conflict = ZERO
    for a, va in m1.items():
        for b, vb in m2.items():
            meet = a & b
            if meet:
                pooled[meet] = pooled.get(meet, ZERO) + va * vb
            else:
                conflict += va * vb
    scale = 1 - conflict
    return {bits: v / scale for bits, v in pooled.items()}, conflict


def total_conflict(m1: dict[int, Fraction], m2: dict[int, Fraction]) -> bool:
    return all(a & b == 0 for a in m1 for b in m2)


def belief(mass: dict[int, Fraction], bits: int) -> Fraction:
    return sum((v for s, v in mass.items() if s & ~bits == 0), ZERO)


def plausibility(mass: dict[int, Fraction], bits: int) -> Fraction:
    return sum((v for s, v in mass.items() if s & bits), ZERO)


# ---------- Bayesian side ----------

def likelihoods(spec: ModelSpec, message: str) -> list[Fraction]:
    return [
        sum((p for p, book in zip(spec.probs, spec.codebooks) if book[j] == message), ZERO)
        for j in range(len(spec.plaintexts))
    ]


def posterior(spec: ModelSpec, prior: list[Fraction], message: str):
    like = likelihoods(spec, message)
    joint = [w * l for w, l in zip(prior, like)]
    normalizer = sum(joint, ZERO)
    return like, normalizer, [j / normalizer for j in joint]


def simulate(spec: ModelSpec, prior: list[Fraction], message: str, samples: int, seed: int):
    """The documented mt19937 trial stream: plaintext draw, then code draw."""
    pool = [j for j, w in enumerate(prior) if w > 0]
    plain_cum = list(accumulate(float(prior[j]) for j in pool))
    code_cum = list(accumulate(float(p) for p in spec.probs))
    rng = random.Random(seed)
    counts = [0] * len(spec.plaintexts)
    accepted = 0
    last_plain, last_code = len(pool) - 1, len(code_cum) - 1
    for _ in range(samples):
        j = pool[min(bisect_right(plain_cum, rng.random() * plain_cum[-1]), last_plain)]
        i = min(bisect_right(code_cum, rng.random() * code_cum[-1]), last_code)
        if spec.codebooks[i][j] == message:
            counts[j] += 1
            accepted += 1
    return accepted, [c / accepted for c in counts]


# ---------- machine payloads ----------

def _tables(frame: tuple[str, ...], mass: dict[int, Fraction]) -> dict[str, object]:
    size = len(frame)
    if size <= 4:
        rows = list(range(1, 1 << size))
    else:
        rows = sorted(set(mass) | {(1 << size) - 1})
    return {
        "mass": {subset_text(frame, b): fraction_text(mass[b]) for b in sorted(mass)},
        "belief": {subset_text(frame, b): fraction_text(belief(mass, b)) for b in rows},
        "plausibility": {
            subset_text(frame, b): fraction_text(plausibility(mass, b)) for b in rows
        },
    }


def _frame(frame: tuple[str, ...]) -> str:
    return "{" + ",".join(frame) + "}"


def payload_derive(spec: ModelSpec, message: str) -> dict[str, object]:
    return {
        "kind": "derive",
        "frame": _frame(spec.labels),
        "message": message,
        **_tables(spec.labels, derive(spec, message)),
    }


def payload_from_belief(frame: tuple[str, ...], mass: dict[int, Fraction]) -> dict[str, object]:
    return {"kind": "derive", "frame": _frame(frame), **_tables(frame, mass)}


def payload_combine(s1: ModelSpec, msg1: str, s2: ModelSpec, msg2: str, method: str):
    combined, conflict = combine(derive(s1, msg1), derive(s2, msg2))
    return {
        "kind": "combine",
        "method": method,
        "frame": _frame(s1.labels),
        "conflict": fraction_text(conflict),
        **_tables(s1.labels, combined),
    }


def payload_bayes(spec: ModelSpec, message: str, prior: list[Fraction] | None = None):
    n = len(spec.plaintexts)
    if prior is None:
        prior = [Fraction(1, n)] * n
    like, normalizer, post = posterior(spec, prior, message)
    names = [subset_text(spec.labels, p) for p in spec.plaintexts]
    return {
        "kind": "bayes",
        "frame": _frame(spec.labels),
        "message": message,
        "prior": dict(zip(names, map(fraction_text, prior))),
        "likelihood": dict(zip(names, map(fraction_text, like))),
        "normalizer": fraction_text(normalizer),
        "posterior": dict(zip(names, map(fraction_text, post))),
    }


def _factor(spec: ModelSpec, message: str, first: int, second: int) -> Fraction:
    like = likelihoods(spec, message)
    return like[spec.plaintexts.index(first)] / like[spec.plaintexts.index(second)]


def payload_odds(spec: ModelSpec, message: str, first: int, second: int, odds: Fraction):
    factor = _factor(spec, message, first, second)
    return {
        "kind": "bayes",
        "frame": _frame(spec.labels),
        "message": message,
        "pair": [subset_text(spec.labels, first), subset_text(spec.labels, second)],
        "prior_odds": fraction_text(odds),
        "factor": fraction_text(factor),
        "posterior_odds": fraction_text(odds * factor),
    }


def payload_factors(spec: ModelSpec, message: str, first: int, second: int):
    return {
        "kind": "factors",
        "frame": _frame(spec.labels),
        "message": message,
        "pair": [subset_text(spec.labels, first), subset_text(spec.labels, second)],
        "factor": fraction_text(_factor(spec, message, first, second)),
    }


def payload_williams(spec: ModelSpec, message: str):
    mass = derive(spec, message)
    decoded = [
        sum(1 for label in book if label == message) for book in spec.codebooks
    ]
    n = len(spec.plaintexts)
    _, _, post = posterior(spec, [Fraction(1, n)] * n, message)
    as_mass = {p: v for p, v in zip(spec.plaintexts, post) if v > 0}
    return {
        "kind": "williams",
        "frame": _frame(spec.labels),
        "message": message,
        "one_to_one": all(d == 1 for d in decoded if d),
        "equivalent": as_mass == mass,
        "mass": {subset_text(spec.labels, b): fraction_text(mass[b]) for b in sorted(mass)},
        "uniform_posterior": {
            subset_text(spec.labels, p): fraction_text(v)
            for p, v in zip(spec.plaintexts, post)
        },
    }


def payload_simulate(spec: ModelSpec, message: str, samples: int, seed: int):
    n = len(spec.plaintexts)
    accepted, freq = simulate(spec, [Fraction(1, n)] * n, message, samples, seed)
    return {
        "kind": "simulate",
        "frame": _frame(spec.labels),
        "message": message,
        "samples": samples,
        "seed": seed,
        "algorithm": "mt19937",
        "accepted": accepted,
        "frequency": {
            subset_text(spec.labels, p): round(f, 6) for p, f in zip(spec.plaintexts, freq)
        },
    }


def payload_validate(spec: ModelSpec):
    findings = []
    for name, book in zip(spec.names, spec.codebooks):
        for message in spec.messages:
            hits = [p for p, label in zip(spec.plaintexts, book) if label == message]
            if len(hits) > 1:
                listed = ", ".join(subset_text(spec.labels, p) for p in hits)
                findings.append(f"code {name} non-injective on {message}: {listed}")
    emitted = {label for book in spec.codebooks for label in book}
    findings += [f"message {m} emitted by no code" for m in spec.messages if m not in emitted]
    if spec.observed is not None and spec.observed not in emitted:
        findings.append(f"observed message {spec.observed} cannot be produced by any code")
    return {"kind": "validate", "findings": findings}


# ---------- text rendering ----------

_PREFIX = {
    "mass": "m",
    "belief": "Bel",
    "plausibility": "Pl",
    "prior": "prior",
    "likelihood": "likelihood",
    "posterior": "posterior",
    "uniform_posterior": "posterior",
    "frequency": "freq",
}


def _scalar(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def render_text(payload: dict[str, object]) -> str:
    """The documented ``--format text`` rendering of a machine payload."""
    lines: list[str] = []
    for key, value in payload.items():
        if key == "kind":
            continue
        if key == "findings":
            lines += [f"warning: {f}" for f in value] or ["no findings"]
        elif key == "pair":
            lines.append(f"pair = {value[0]} vs {value[1]}")
        elif isinstance(value, dict):
            lines += [f"{_PREFIX[key]}({k}) = {_scalar(v)}" for k, v in value.items()]
        else:
            lines.append(f"{key} = {_scalar(value)}")
    return "\n".join(lines) + "\n"
