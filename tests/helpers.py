"""Independent oracles and random-instance generators shared by the tests.

The oracles work on plain frozensets of labels and dicts, never on the
package's mask or mass types, so agreement between the two routes is a real
cross-check and not a tautology.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, combinations

from beliefkit import (
    Code,
    EvidenceModel,
    Frame,
    MassFunction,
    NoAcceptedTrials,
    PriorSpec,
    SimulationReport,
)


# ---------- set-of-labels oracles ----------

def powerset(labels):
    """All subsets of `labels` as frozensets, smallest first."""
    items = list(labels)
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            yield frozenset(combo)


def oracle_belief(mass_by_set, subset):
    """Eq-style summation: total mass of focal sets contained in `subset`."""
    return sum(
        (v for s, v in mass_by_set.items() if s <= subset),
        Fraction(0),
    )


def oracle_mobius(labels, belief_by_set):
    """Alternating-sign inversion of a dense belief table over frozensets."""
    mass = {}
    for a in powerset(labels):
        total = Fraction(0)
        for b in powerset(a):
            sign = -1 if (len(a) - len(b)) % 2 else 1
            total += sign * belief_by_set[b]
        if total != 0:
            mass[a] = total
    return mass


def oracle_derive(model: EvidenceModel, message):
    """Brute-force mass derivation over plain data structures.

    Enumerates every (code, plaintext) pair, filters the pairs whose
    encoding is `message`, pools code probability onto the union of each
    code's decoded plaintexts, and normalizes at the end.  Returns a dict
    frozenset -> Fraction, or None when no code can produce the message.
    """
    probs = {code.name: code.prob for code in model.codes}
    books = {
        code.name: {frozenset(mask.members): label for mask, label in code.codebook.items()}
        for code in model.codes
    }
    decoded = {}
    for name, book in books.items():
        hits = [plain for plain, label in book.items() if label == message]
        if hits:
            decoded[name] = frozenset().union(*hits)
    if not decoded:
        return None
    total = sum((probs[name] for name in decoded), Fraction(0))
    pooled = {}
    for name, union in decoded.items():
        pooled[union] = pooled.get(union, Fraction(0)) + probs[name]
    return {union: value / total for union, value in pooled.items()}


def oracle_likelihood(model: EvidenceModel, message):
    """Brute-force likelihoods over plain data structures.

    For every plaintext of the domain, the total probability of the codes
    whose codebook sends it to `message`.  Returns a dict frozenset ->
    Fraction with an entry for each plaintext, zero included.
    """
    table = {frozenset(mask.members): Fraction(0) for mask in model.plaintexts}
    for code in model.codes:
        for mask, label in code.codebook.items():
            if label == message:
                table[frozenset(mask.members)] += code.prob
    return table


def oracle_posterior(model: EvidenceModel, prior_by_set, message):
    """Posterior by Bayes' rule over plain data structures.

    `prior_by_set` maps frozensets to prior weights; a plaintext it leaves
    out has prior 0.  Each prior weight times :func:`oracle_likelihood`,
    divided by their sum.  Returns ``(posterior, likelihoods, normalizer)``,
    the tables keyed by frozenset, or None when that sum is 0.
    """
    likelihoods = oracle_likelihood(model, message)
    joint = {s: Fraction(prior_by_set.get(s, 0)) * v for s, v in likelihoods.items()}
    normalizer = sum(joint.values(), Fraction(0))
    if normalizer == 0:
        return None
    return {s: v / normalizer for s, v in joint.items()}, likelihoods, normalizer


def oracle_combine(mass1_by_set, mass2_by_set):
    """Dempster's rule on frozenset-keyed mass dicts; returns (combined, conflict)."""
    pooled = {}
    conflict = Fraction(0)
    for a, va in mass1_by_set.items():
        for b, vb in mass2_by_set.items():
            meet = a & b
            if meet:
                pooled[meet] = pooled.get(meet, Fraction(0)) + va * vb
            else:
                conflict += va * vb
    if conflict == 1:
        return None, conflict
    return {s: v / (1 - conflict) for s, v in pooled.items()}, conflict


def oracle_combine_models(model1: EvidenceModel, message1, model2: EvidenceModel, message2):
    """Product-space Dempster's rule over plain data structures.

    Reads each model's codebooks: a code is possible when it sends some
    plaintext to its message.  Every pair of possible codes carries the
    product of the two codes' probabilities, conditioned on possible codes,
    and pools it onto the union of the nonempty intersections of every
    plaintext pair the two codes decode their messages to; a pair with none
    is conflict.  Returns (combined, conflict) as in :func:`oracle_combine`,
    or (None, None) when either message has no possible code.
    """
    sources = []
    for model, message in ((model1, message1), (model2, message2)):
        decoded = {}
        for code in model.codes:
            hits = [
                frozenset(mask.members)
                for mask, label in code.codebook.items()
                if label == message
            ]
            if hits:
                decoded[code.name] = (code.prob, hits)
        sources.append(decoded)
    left, right = sources
    if not left or not right:
        return None, None
    total = sum((p for p, _ in left.values()), Fraction(0)) * sum(
        (p for p, _ in right.values()), Fraction(0)
    )
    pooled = {}
    conflict = Fraction(0)
    for p1, hits1 in left.values():
        for p2, hits2 in right.values():
            meets = [a & b for a in hits1 for b in hits2 if a & b]
            weight = p1 * p2 / total
            if meets:
                union = frozenset().union(*meets)
                pooled[union] = pooled.get(union, Fraction(0)) + weight
            else:
                conflict += weight
    if conflict == 1:
        return None, conflict
    return {s: v / (1 - conflict) for s, v in pooled.items()}, conflict


def oracle_simulate(model: EvidenceModel, prior: PriorSpec, message, samples, seed):
    """The Monte Carlo trials one at a time: draw a plaintext, then a code.

    Reads the codes' relation records and draws from the same stream as
    :func:`beliefkit.simulate`, so the two reports must be equal.  Expects a
    valid message, sample count and prior.
    """
    decoded = model.constraining_relation(message).decoded
    domain = model.plaintexts
    # Trials index the domain and the codes: sends[c] holds the positions in
    # the domain of the plaintexts that code c decodes the message to.
    position = {mask.bits: p for p, mask in enumerate(domain)}
    sends = [{position[mask.bits] for mask in decoded.get(code.name, ())} for code in model.codes]
    plaintext_pool = [p for p, mask in enumerate(domain) if prior.weight_of(mask) > 0]
    plaintext_cum = list(accumulate(float(prior.weight_of(domain[p])) for p in plaintext_pool))
    code_cum = list(accumulate(float(code.prob) for code in model.codes))
    rng = random.Random(seed)
    counts = [0] * len(domain)
    accepted = 0
    last_plaintext = len(plaintext_pool) - 1
    last_code = len(code_cum) - 1
    for _ in range(samples):
        # min() guards the rare float round-up of u onto the last boundary
        u = rng.random() * plaintext_cum[-1]
        p = plaintext_pool[min(bisect_right(plaintext_cum, u), last_plaintext)]
        u = rng.random() * code_cum[-1]
        if p in sends[min(bisect_right(code_cum, u), last_code)]:
            counts[p] += 1
            accepted += 1
    if accepted == 0:
        raise NoAcceptedTrials(
            f"none of the {samples} trials produced message {message!r}"
        )
    frequencies = {mask: count / accepted for mask, count in zip(domain, counts)}
    return SimulationReport(frequencies, accepted, samples, seed)


def simulation_outcome(run, *args):
    """The report of ``run(*args)``, or the text of its NoAcceptedTrials."""
    try:
        return run(*args)
    except NoAcceptedTrials as err:
        return str(err)


def as_set_dict(mass: MassFunction):
    """Read a MassFunction into the oracle's frozenset representation."""
    return {frozenset(mask.members): value for mask, value in mass.focal()}


# ---------- random instances ----------

LABEL_POOL = ("a", "b", "c", "d", "e", "f")


def random_fractions(rng, count):
    """`count` positive fractions summing exactly to 1."""
    weights = [rng.randint(1, 9) for _ in range(count)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


# The divisors of 720720, the least common multiple of 1..16: fractions over
# them have unlike denominators but a common denominator of 20 bits at most.
_DIVISORS = sorted({q for d in range(1, 849) if 720720 % d == 0 for q in (d, 720720 // d)})


def mixed_fractions(rng, count):
    """`count` positive fractions summing exactly to 1, on unlike denominators.

    All but one are unit fractions over random divisors of 720720 no smaller
    than ``2 * count``, so they sum to at most 1/2; the remainder goes to a
    random position.
    """
    large = [d for d in _DIVISORS if d >= 2 * count]
    values = [Fraction(1, rng.choice(large)) for _ in range(count - 1)]
    values.append(1 - sum(values, Fraction(0)))
    rng.shuffle(values)
    return values


# Mersenne primes 2^89 - 1 and 2^61 - 1, and three smaller primes.
_LARGE_PRIMES = ((1 << 89) - 1, (1 << 61) - 1, (1 << 31) - 1, 1_000_000_007, 998_244_353)


def prime_fractions(rng, count):
    """`count` positive fractions summing exactly to 1, over large primes.

    The first is over 2^89 - 1 and the rest but one over random primes of the
    list, each below ``1 / (2 * count)``; the remainder goes to a random
    position.  So for `count` of 2 or more the common denominator is past
    2^64.
    """
    primes = [_LARGE_PRIMES[0]] + [rng.choice(_LARGE_PRIMES) for _ in range(count - 2)]
    values = [Fraction(rng.randint(1, q // (2 * count)), q) for q in primes[: count - 1]]
    values.append(1 - sum(values, Fraction(0)))
    rng.shuffle(values)
    return values


def fractions_over(denominator):
    """A `fractions` for random_mass whose values have lcm `denominator`.

    Each call gives `count` positive fractions summing exactly to 1: one is
    ``1 / denominator`` and the rest split what remains at random.  Needs
    ``2 <= count <= denominator``.
    """

    def fractions(rng, count):
        cuts = set()
        while len(cuts) < count - 2:
            cuts.add(rng.randrange(1, denominator - 1))
        edges = [0, *sorted(cuts), denominator - 1]
        values = [Fraction(1, denominator)]
        values += [Fraction(b - a, denominator) for a, b in zip(edges, edges[1:])]
        rng.shuffle(values)
        return values

    return fractions


def wide_frame(size):
    """A frame of `size` labels ``h0``, ``h1``, ..., for sizes past LABEL_POOL."""
    return Frame(tuple(f"h{i}" for i in range(size)))


def wide_mass(rng, size):
    """64-128 focal elements on a frame of `size` labels, unlike denominators."""
    return random_mass(
        rng, wide_frame(size), max_focal=128, min_focal=64, fractions=mixed_fractions
    )


def random_frame(rng, max_size, min_size=1):
    return Frame(LABEL_POOL[: rng.randint(min_size, max_size)])


def random_mask(rng, frame, nonempty=True):
    bits = rng.randint(1 if nonempty else 0, (1 << frame.size) - 1)
    return frame.subset(
        [label for i, label in enumerate(frame.labels) if bits >> i & 1]
    )


def random_mass(rng, frame, max_focal=4, min_focal=1, fractions=random_fractions):
    count = rng.randint(min_focal, min(max_focal, (1 << frame.size) - 1))
    masks = set()
    while len(masks) < count:
        masks.add(random_mask(rng, frame))
    masks = sorted(masks, key=lambda m: m.bits)
    return MassFunction(frame, list(zip(masks, fractions(rng, count))))


def random_model(
    rng,
    frame,
    max_codes=4,
    max_messages=5,
    max_plaintexts=4,
    min_codes=1,
    min_messages=1,
    min_plaintexts=1,
    fractions=random_fractions,
):
    messages = tuple(f"q{i}" for i in range(rng.randint(min_messages, max_messages)))
    domain_size = rng.randint(min_plaintexts, min(max_plaintexts, (1 << frame.size) - 1))
    domain = set()
    while len(domain) < domain_size:
        domain.add(random_mask(rng, frame))
    domain = tuple(sorted(domain, key=lambda m: m.bits))
    count = rng.randint(min_codes, max_codes)
    probs = fractions(rng, count)
    codes = tuple(
        Code(
            f"s{i}",
            probs[i],
            {mask: rng.choice(messages) for mask in domain},
        )
        for i in range(count)
    )
    return EvidenceModel(frame, messages, domain, codes)


# Hundreds of codes over a dozen plaintexts and four messages: on a frame of
# five or six labels, a possible code decodes the message to several
# plaintexts, so grouping the relation by code is exercised at scale.
MANY_CODES = dict(
    min_codes=200,
    max_codes=400,
    min_messages=4,
    max_messages=4,
    min_plaintexts=12,
    max_plaintexts=12,
)


def producible_message(rng, model):
    """A message some code actually emits, so derivation cannot fully conflict."""
    emitted = sorted({label for code in model.codes for label in code.codebook.values()})
    return rng.choice(emitted)


def random_prior(rng, plaintexts):
    values = random_fractions(rng, len(plaintexts))
    return PriorSpec(dict(zip(plaintexts, values)))


# ---------- documents ----------

def out_of_domain_order(text):
    """A yes/no model document with every map reversed and the first code's
    ``{yes,no}`` key spelt ``{no,yes}``; it describes the same model."""
    doc = json.loads(text)
    for record in doc["codes"]:
        record["map"] = dict(reversed(record["map"].items()))
    first = doc["codes"][0]
    first["map"] = {("{no,yes}" if k == "{yes,no}" else k): v for k, v in first["map"].items()}
    return json.dumps(doc, indent=2) + "\n"
