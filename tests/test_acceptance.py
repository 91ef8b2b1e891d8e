"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here: golden values are exact rational
equalities, the simulation criterion allows 0.01 absolute deviation, and
the randomized criteria demand exact agreement on every generated instance.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from beliefkit import (
    Frame,
    MassFunction,
    PriorSpec,
    TotalConflict,
    ZeroMarginal,
    combine_masses,
    combine_models,
    posterior,
    posterior_odds,
    simulate,
    williams_check,
)
from beliefkit.cli import run_command
from beliefkit.combine import _combine_by_commonality

from helpers import (
    as_set_dict,
    oracle_derive,
    producible_message,
    random_frame,
    random_mass,
    random_model,
    random_prior,
)

F = Fraction
SEED = 20250808

YN = Frame(("yes", "no"))
NO = YN.subset(["no"])
YES = YN.subset(["yes"])
TOP = YN.full()


def report(criterion, detail):
    print(f"criterion {criterion}: PASS - {detail}")


def machine(capsys, *argv):
    status = run_command([*argv, "--format", "machine"])
    out = capsys.readouterr().out
    assert status == 0, f"command {argv} exited {status}"
    return json.loads(out)


def test_criterion_1_golden_example1(capsys, example1_path):
    start = time.perf_counter()
    doc = machine(capsys, "derive", example1_path, "--message", "BANANA")
    elapsed = time.perf_counter() - start
    assert doc["mass"] == {"{no}": "2/3", "{yes,no}": "1/3"}
    assert doc["belief"]["{yes}"] == "0"
    assert doc["belief"]["{no}"] == "2/3"
    assert elapsed < 1.0
    report(1, f"derive on example1 gives the golden mass and beliefs in {elapsed:.3f}s")


def test_criterion_2_golden_example2_identical(capsys, example1_path, example2_path, example1, example2):
    doc1 = machine(capsys, "derive", example1_path, "--message", "BANANA")
    doc2 = machine(capsys, "derive", example2_path, "--message", "BANANA")
    assert doc1["mass"] == doc2["mass"]
    assert example1.derive_mass("BANANA") == example2.derive_mass("BANANA")
    report(2, "example2 derives a mass function exactly equal to example1's")


def test_criterion_3_bayes_factors_and_odds(capsys, example1_path, example2_path, example1, example2):
    doc1 = machine(
        capsys, "factors", example1_path, "--message", "BANANA", "--pair", "{no}", "T"
    )
    doc2 = machine(
        capsys, "factors", example2_path, "--message", "BANANA", "--pair", "{no}", "T"
    )
    assert doc1["factor"] == "2"
    assert doc2["factor"] == "3"
    for a in (F(1, 3), F(1), F(2)):
        assert posterior_odds(example1, "BANANA", NO, TOP, a) == 2 * a
        assert posterior_odds(example2, "BANANA", NO, TOP, a) == 3 * a
        for path, expected in ((example1_path, 2 * a), (example2_path, 3 * a)):
            doc = machine(
                capsys, "bayes", path, "--odds", f"{a.numerator}/{a.denominator}",
                "--pair", "{no}", "T",
            )
            assert doc["posterior_odds"] == (
                str(expected.numerator) if expected.denominator == 1
                else f"{expected.numerator}/{expected.denominator}"
            )
    report(3, "factors are exactly 2 and 3; posterior odds are exactly 2a and 3a")


def test_criterion_4_williams(example1, example2):
    one = williams_check(example1, "BANANA")
    assert one.one_to_one is True and one.equivalent is True
    two = williams_check(example2, "BANANA")
    assert two.one_to_one is False and two.equivalent is False
    assert two.uniform_posterior == {YES: F(0), NO: F(3, 4), TOP: F(1, 4)}
    assert dict(two.mass.focal()) == {NO: F(2, 3), TOP: F(1, 3)}
    report(4, "example1 is one-to-one and equivalent; example2 is neither (3/4,1/4 vs 2/3,1/3)")


def test_criterion_5_product_equals_direct():
    start = time.perf_counter()
    rng = random.Random(SEED)
    agreements = 0
    conflicts = 0
    pairs = 0
    while agreements < 200:
        pairs += 1
        frame = random_frame(rng, 3)
        model1 = random_model(rng, frame, max_codes=4, max_messages=5)
        model2 = random_model(rng, frame, max_codes=4, max_messages=5)
        q1 = producible_message(rng, model1)
        q2 = producible_message(rng, model2)
        # These masses are too small for combine_masses to pick the
        # commonality route, so it is called here as a third route.
        m1, m2 = model1.derive_mass(q1), model2.derive_mass(q2)
        try:
            direct = combine_masses(m1, m2)
        except TotalConflict:
            with pytest.raises(TotalConflict):
                combine_models(model1, q1, model2, q2)
            with pytest.raises(TotalConflict):
                _combine_by_commonality(m1, m2)
            conflicts += 1
            continue
        product = combine_models(model1, q1, model2, q2)
        dense = _combine_by_commonality(m1, m2)
        assert product.combined == direct.combined == dense.combined
        assert product.conflict == direct.conflict == dense.conflict
        agreements += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        5,
        f"{agreements} random pairs agree exactly across three routes (product, "
        f"direct, commonality; combined and conflict), {conflicts} conflicted pairs "
        f"agree on TotalConflict, {elapsed:.2f}s",
    )


def test_criterion_6_oracle_equality():
    rng = random.Random(SEED + 1)
    for _ in range(500):
        model = random_model(rng, random_frame(rng, 4), max_codes=5)
        message = producible_message(rng, model)
        expected = oracle_derive(model, message)
        assert expected is not None
        assert as_set_dict(model.derive_mass(message)) == expected
    report(6, "derive_mass equals the brute-force oracle on 500 random models")


def test_criterion_7_property_suite():
    rng = random.Random(SEED + 2)

    # Moebius round-trip
    for _ in range(200):
        frame = random_frame(rng, 4)
        m = random_mass(rng, frame)
        table = {mask: m.belief(mask) for mask in frame.full().subsets()}
        assert MassFunction.from_belief(frame, table) == m

    # Bel monotonicity, 2-monotonicity, Pl >= Bel
    for _ in range(200):
        frame = random_frame(rng, 4)
        m = random_mass(rng, frame)
        subsets = list(frame.full().subsets())
        bel = {mask: m.belief(mask) for mask in subsets}
        for a in subsets:
            assert bel[a] <= m.plausibility(a)
            for b in subsets:
                if a.issubset(b):
                    assert bel[a] <= bel[b]
                assert bel[a | b] + bel[a & b] >= bel[a] + bel[b]

    # combination commutativity and identity
    for _ in range(200):
        frame = random_frame(rng, 4)
        m1 = random_mass(rng, frame)
        m2 = random_mass(rng, frame)
        try:
            left = combine_masses(m1, m2)
        except TotalConflict:
            with pytest.raises(TotalConflict):
                combine_masses(m2, m1)
        else:
            right = combine_masses(m2, m1)
            assert left.combined == right.combined and left.conflict == right.conflict
        identity = combine_masses(m1, MassFunction.vacuous(frame))
        assert identity.combined == m1 and identity.conflict == 0

    # posterior normalization and exactness
    checked = 0
    while checked < 200:
        model = random_model(rng, random_frame(rng, 4))
        message = producible_message(rng, model)
        prior = random_prior(rng, model.plaintexts)
        try:
            result = posterior(model, prior, message)
        except ZeroMarginal:
            continue
        assert sum(result.posterior.values()) == 1
        for mask in model.plaintexts:
            assert (
                result.posterior[mask] * result.normalizer
                == prior.weight_of(mask) * result.likelihoods[mask]
            )
        checked += 1

    report(7, "Moebius round-trip, monotonicity, 2-monotonicity, Pl>=Bel, "
              "commutativity, identity, posterior exactness: 200 instances each, zero failures")


def test_criterion_8_simulation(example1, example2):
    start = time.perf_counter()
    for model in (example1, example2):
        prior = PriorSpec.uniform(model.plaintexts)
        exact = posterior(model, prior, "BANANA").posterior
        result = simulate(model, prior, "BANANA", 100_000, SEED)
        for mask, frequency in result.frequencies.items():
            assert abs(frequency - float(exact[mask])) < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(8, f"empirical frequencies within 0.01 of both exact posteriors "
              f"(seed {SEED}, n=100000) in {elapsed:.2f}s")
