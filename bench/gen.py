"""Seeded input generators for the benchmark.

Everything here is plain data: frames are tuples of labels, subsets are
``int`` bitmasks over a frame's label positions, probabilities are
``Fraction`` values.  Nothing imports beliefkit, so the oracles can check the
program against inputs the program did not build.  One ``random.Random``
seeded from the workload seed drives every draw; the same seed yields the
same inputs byte for byte.

Sizes are fixed per slot and only the content is drawn, so the cost of a
workload stays nearly the same from one seed to the next.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ModelSpec:
    """A coded-message model as plain data.

    ``codebooks[i][j]`` is the message code ``i`` sends for plaintext ``j``.
    """

    labels: tuple[str, ...]
    messages: tuple[str, ...]
    plaintexts: tuple[int, ...]
    names: tuple[str, ...]
    probs: tuple[Fraction, ...]
    codebooks: tuple[tuple[str, ...], ...]
    observed: str | None


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent deterministic stream per named input of a workload."""
    return random.Random(f"{seed}:{stream}")


def labels(size: int) -> tuple[str, ...]:
    return tuple(f"h{i}" for i in range(size))


def subset_text(frame: tuple[str, ...], bits: int) -> str:
    """Canonical brace form of a subset, labels in frame order."""
    return "{" + ",".join(x for i, x in enumerate(frame) if bits >> i & 1) + "}"


def random_probs(rng: random.Random, count: int, mean: int) -> tuple[Fraction, ...]:
    """`count` positive probabilities over the fixed denominator ``count * mean``.

    A fixed denominator keeps the size of the exact arithmetic, and so its
    cost, the same under every seed.
    """
    total = count * mean
    cuts = sorted(rng.sample(range(1, total), count - 1))
    return tuple(Fraction(b - a, total) for a, b in zip([0, *cuts], [*cuts, total]))


def distinct_masks(rng: random.Random, size: int, count: int) -> list[int]:
    """`count` distinct nonempty subsets of a frame of `size` labels."""
    chosen: set[int] = set()
    while len(chosen) < count:
        chosen.add(rng.randrange(1, 1 << size))
    return sorted(chosen)


def random_mass(rng: random.Random, size: int, focal: int) -> dict[int, Fraction]:
    """Mass over `focal` distinct random subsets."""
    return dict(zip(distinct_masks(rng, size, focal), random_probs(rng, focal, 100)))


def random_model(
    rng: random.Random,
    frame_size: int,
    codes: int,
    plaintexts: int,
    messages: int,
    decoded: list[int],
) -> ModelSpec:
    """A model whose code ``i`` sends the observed message for ``decoded[i]``
    distinct plaintexts and a random other message for the rest.

    The observed message is always the first one, ``q0``; ``decoded`` is
    shuffled so which codes decode more varies with the seed but the total
    does not.
    """
    frame = labels(frame_size)
    alphabet = tuple(f"q{i}" for i in range(messages))
    domain = distinct_masks(rng, frame_size, plaintexts)
    rng.shuffle(domain)
    counts = list(decoded)
    rng.shuffle(counts)
    books = []
    for hits in counts:
        book = [rng.choice(alphabet[1:]) for _ in domain]
        for j in rng.sample(range(len(domain)), hits):
            book[j] = alphabet[0]
        books.append(tuple(book))
    probs = random_probs(rng, codes, 5)
    return ModelSpec(
        labels=frame,
        messages=alphabet,
        plaintexts=tuple(domain),
        names=tuple(f"c{i}" for i in range(codes)),
        probs=probs,
        codebooks=tuple(books),
        observed=alphabet[0],
    )


def spread(total: int, count: int, low: int) -> list[int]:
    """`count` integers of ``low`` or ``low + 1`` summing to `total`."""
    extra = total - low * count
    return [low + 1] * extra + [low] * (count - extra)


def model_document(spec: ModelSpec) -> str:
    """The model as a JSON model document (the README's field order)."""
    doc: dict[str, object] = {
        "frame": list(spec.labels),
        "messages": list(spec.messages),
        "plaintexts": [
            [x for i, x in enumerate(spec.labels) if p >> i & 1] for p in spec.plaintexts
        ],
        "codes": [
            {
                "name": name,
                "prob": f"{prob.numerator}/{prob.denominator}",
                "map": {
                    subset_text(spec.labels, p): book[j]
                    for j, p in enumerate(spec.plaintexts)
                },
            }
            for name, prob, book in zip(spec.names, spec.probs, spec.codebooks)
        ],
    }
    if spec.observed is not None:
        doc["observed"] = spec.observed
    return json.dumps(doc, indent=2) + "\n"


def belief_table(mass: dict[int, Fraction], size: int) -> list[Fraction]:
    """Dense Bel over all ``2**size`` subsets, by the zeta transform."""
    table = [Fraction(0)] * (1 << size)
    for bits, value in mass.items():
        table[bits] += value
    for i in range(size):
        bit = 1 << i
        for x in range(1 << size):
            if x & bit:
                table[x] += table[x ^ bit]
    return table


def belief_document(frame: tuple[str, ...], table: list[Fraction]) -> str:
    return json.dumps(
        {
            "frame": list(frame),
            "belief": {
                subset_text(frame, bits): fraction_text(v) for bits, v in enumerate(table)
            },
        }
    )


def fraction_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
