import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest

from beliefkit import (
    Code,
    EvidenceModel,
    Frame,
    FrameMismatch,
    InfiniteOdds,
    InvalidPrior,
    NoAcceptedTrials,
    PriorSpec,
    TotalConflict,
    UndefinedOdds,
    UnknownMessage,
    UnknownPlaintext,
    ZeroMarginal,
    bayes,
    bayes_factor,
    parse_model,
    posterior,
    posterior_odds,
    serialize_model,
    simulate,
    williams_check,
)

from helpers import (
    MANY_CODES,
    mixed_fractions,
    oracle_likelihood,
    oracle_simulate,
    producible_message,
    random_fractions,
    random_frame,
    random_model,
    random_prior,
    simulation_outcome,
)

F = Fraction
CHUNK = bayes._SIMULATION_CHUNK
YN = Frame(("yes", "no"))
NO = YN.subset(["no"])
YES = YN.subset(["yes"])
TOP = YN.full()

SEED = 20250808


def oracle_models(rng):
    """150 small models, then 6 with hundreds of codes on unlike denominators."""
    for _ in range(150):
        yield random_model(rng, random_frame(rng, 4), max_codes=5)
    for _ in range(6):
        yield random_model(
            rng, random_frame(rng, 6, min_size=5), **MANY_CODES, fractions=mixed_fractions
        )


class TestLikelihood:
    def test_spy_model(self, example1):
        likelihoods = bayes._likelihoods(example1, "BANANA")
        assert likelihoods[NO] == F(2, 3)
        assert likelihoods[YES] == 0
        assert likelihoods[TOP] == F(1, 3)

    def test_merged_codeword_model(self, example2):
        likelihoods = bayes._likelihoods(example2, "BANANA")
        assert likelihoods[NO] == 1
        assert likelihoods[TOP] == F(1, 3)

    def test_unknown_plaintext_and_message(self, example1):
        with pytest.raises(UnknownMessage):
            bayes._likelihoods(example1, "KIWI")
        other_domain = Frame(("yes", "no")).empty()
        assert other_domain not in bayes._likelihoods(example1, "BANANA")

    def test_matches_oracle_on_random_models(self):
        rng = random.Random(31337)
        for model in oracle_models(rng):
            message = rng.choice(model.messages)
            expected = oracle_likelihood(model, message)
            likelihoods = bayes._likelihoods(model, message)
            for mask in model.plaintexts:
                assert likelihoods[mask] == expected[frozenset(mask.members)]


class TestPriorSpec:
    def test_uniform(self, example1):
        prior = PriorSpec.uniform(example1.plaintexts)
        assert all(v == F(1, 3) for v in prior.weights.values())

    def test_uniform_over_empty_domain(self):
        with pytest.raises(InvalidPrior, match="at least one plaintext"):
            PriorSpec.uniform(())

    def test_from_odds(self):
        prior = PriorSpec.from_odds(F(2), NO, TOP)
        assert prior.weights == {NO: F(2, 3), TOP: F(1, 3)}
        assert prior.weight_of(YES) == 0

    def test_explicit_weights_validated(self):
        with pytest.raises(InvalidPrior):
            PriorSpec({NO: F(1, 2)})
        with pytest.raises(InvalidPrior):
            PriorSpec({NO: F(3, 2), TOP: F(-1, 2)})
        with pytest.raises(InvalidPrior):
            PriorSpec({YN.empty(): F(1)})
        with pytest.raises(InvalidPrior):
            PriorSpec({})

    def test_mixed_frames_rejected(self):
        other = Frame(("a", "b"))
        with pytest.raises(FrameMismatch):
            PriorSpec({NO: F(1, 2), other.full(): F(1, 2)})

    def test_bad_odds(self):
        with pytest.raises(InvalidPrior):
            PriorSpec.from_odds(F(0), NO, TOP)
        with pytest.raises(InvalidPrior):
            PriorSpec.from_odds(F(-1), NO, TOP)
        with pytest.raises(InvalidPrior):
            PriorSpec.from_odds(F(1), NO, NO)


class TestPosterior:
    def test_spy_model_uniform(self, example1):
        report = posterior(example1, PriorSpec.uniform(example1.plaintexts), "BANANA")
        assert report.posterior == {YES: F(0), NO: F(2, 3), TOP: F(1, 3)}
        assert report.normalizer == F(1, 3)

    def test_merged_codeword_model_uniform(self, example2):
        report = posterior(example2, PriorSpec.uniform(example2.plaintexts), "BANANA")
        assert report.posterior == {YES: F(0), NO: F(3, 4), TOP: F(1, 4)}

    def test_concentrated_prior(self, example1):
        report = posterior(example1, PriorSpec({NO: F(1)}), "BANANA")
        assert report.posterior[NO] == 1
        assert report.posterior[YES] == 0 and report.posterior[TOP] == 0

    def test_zero_marginal(self, example1):
        with pytest.raises(ZeroMarginal):
            posterior(example1, PriorSpec({YES: F(1)}), "BANANA")

    def test_unknown_message(self, example1):
        with pytest.raises(UnknownMessage):
            posterior(example1, PriorSpec.uniform(example1.plaintexts), "KIWI")

    def test_prior_key_outside_domain(self, example1):
        outside = YN.subset(["yes"])
        model = EvidenceModel(
            YN, ("q0",), (TOP,), (Code("s", F(1), {TOP: "q0"}),)
        )
        with pytest.raises(UnknownPlaintext):
            posterior(model, PriorSpec({outside: F(1)}), "q0")

    def test_matches_oracle_on_random_models(self):
        rng = random.Random(27182)
        for model in oracle_models(rng):
            message = rng.choice(model.messages)
            prior = random_prior(rng, model.plaintexts)
            table = oracle_likelihood(model, message)
            joint = {
                mask: prior.weight_of(mask) * table[frozenset(mask.members)]
                for mask in model.plaintexts
            }
            normalizer = sum(joint.values(), Fraction(0))
            if normalizer == 0:
                with pytest.raises(ZeroMarginal):
                    posterior(model, prior, message)
                continue
            report = posterior(model, prior, message)
            assert report.normalizer == normalizer
            assert report.posterior == {mask: v / normalizer for mask, v in joint.items()}
            assert report.likelihoods == {
                mask: table[frozenset(mask.members)] for mask in model.plaintexts
            }

    def test_exactness_identity_on_random_models(self):
        rng = random.Random(8086)
        checked = 0
        while checked < 100:
            model = random_model(rng, random_frame(rng, 3))
            message = producible_message(rng, model)
            prior = random_prior(rng, model.plaintexts)
            try:
                report = posterior(model, prior, message)
            except ZeroMarginal:
                continue
            assert sum(report.posterior.values()) == 1
            for mask in model.plaintexts:
                assert (
                    report.posterior[mask] * report.normalizer
                    == prior.weight_of(mask) * report.likelihoods[mask]
                )
            checked += 1


class TestOdds:
    @pytest.mark.parametrize("a", [F(1, 3), F(1), F(2), F(7, 5)])
    def test_spy_model_doubles_prior_odds(self, example1, a):
        assert posterior_odds(example1, "BANANA", NO, TOP, a) == 2 * a

    @pytest.mark.parametrize("a", [F(1, 3), F(1), F(2), F(7, 5)])
    def test_merged_codeword_model_triples_prior_odds(self, example2, a):
        assert posterior_odds(example2, "BANANA", NO, TOP, a) == 3 * a

    def test_identical_pair_returns_prior_odds(self, example1):
        assert posterior_odds(example1, "BANANA", NO, NO, F(7, 5)) == F(7, 5)

    def test_factors(self, example1, example2):
        assert bayes_factor(example1, "BANANA", NO, TOP) == 2
        assert bayes_factor(example2, "BANANA", NO, TOP) == 3
        assert bayes_factor(example1, "BANANA", TOP, NO) == F(1, 2)

    def test_odds_equal_factor_times_prior(self, example1):
        for a in (F(1, 3), F(1), F(2), F(7, 5)):
            assert posterior_odds(example1, "BANANA", NO, TOP, a) == a * bayes_factor(
                example1, "BANANA", NO, TOP
            )

    def test_prior_sensitivity_splits_the_two_models(self, example1, example2):
        for a in (F(1, 3), F(1), F(2), F(7, 5)):
            assert posterior_odds(example2, "BANANA", NO, TOP, a) > posterior_odds(
                example1, "BANANA", NO, TOP, a
            )

    def test_infinite_and_undefined_odds(self, example1):
        with pytest.raises(InfiniteOdds):
            bayes_factor(example1, "BANANA", NO, YES)
        frame = Frame(("a", "b"))
        x = frame.subset(["a"])
        y = frame.subset(["b"])
        model = EvidenceModel(
            frame,
            ("q0", "q1"),
            (x, y, frame.full()),
            (Code("s", F(1), {x: "q0", y: "q0", frame.full(): "q1"}),),
        )
        with pytest.raises(UndefinedOdds):
            bayes_factor(model, "q1", x, y)

    def test_plaintext_outside_the_domain_first_reported_first(self, example1):
        empty, foreign = YN.empty(), Frame(("a", "b")).subset(["a"])
        for first, second, named in (
            (empty, TOP, empty),
            (NO, empty, empty),
            (foreign, NO, foreign),
            (empty, foreign, empty),
            (foreign, empty, foreign),
        ):
            with pytest.raises(UnknownPlaintext) as err:
                bayes_factor(example1, "BANANA", first, second)
            assert str(err.value) == f"{named} is not in the plaintext domain"
            with pytest.raises(UnknownMessage):
                bayes_factor(example1, "KIWI", first, second)

    def test_non_positive_prior_odds_rejected(self, example1):
        with pytest.raises(InvalidPrior):
            posterior_odds(example1, "BANANA", NO, TOP, F(0))


class TestWilliams:
    def test_spy_model_equivalent(self, example1):
        report = williams_check(example1, "BANANA")
        assert report.one_to_one is True
        assert report.equivalent is True
        assert report.uniform_posterior == {YES: F(0), NO: F(2, 3), TOP: F(1, 3)}

    def test_merged_codeword_model_not_equivalent(self, example2):
        report = williams_check(example2, "BANANA")
        assert report.one_to_one is False
        assert report.equivalent is False
        assert report.uniform_posterior == {YES: F(0), NO: F(3, 4), TOP: F(1, 4)}
        assert dict(report.mass.focal()) == {NO: F(2, 3), TOP: F(1, 3)}

    def test_single_injective_code(self):
        frame = Frame(("a", "b"))
        x = frame.subset(["a"])
        model = EvidenceModel(
            frame,
            ("q0", "q1"),
            (x, frame.full()),
            (Code("s", F(1), {x: "q0", frame.full(): "q1"}),),
        )
        report = williams_check(model, "q0")
        assert report.one_to_one is True and report.equivalent is True

    def test_total_conflict(self):
        frame = Frame(("a", "b"))
        x = frame.subset(["a"])
        model = EvidenceModel(
            frame, ("q0", "q1"), (x,), (Code("s", F(1), {x: "q0"}),)
        )
        with pytest.raises(TotalConflict):
            williams_check(model, "q1")

    def test_one_to_one_implies_equivalent_on_random_models(self):
        rng = random.Random(46368)
        one_to_one_seen = 0
        for _ in range(250):
            model = random_model(rng, random_frame(rng, 3))
            message = producible_message(rng, model)
            report = williams_check(model, message)
            if report.one_to_one:
                one_to_one_seen += 1
                assert report.equivalent
        assert one_to_one_seen > 0


class TestSimulate:
    def test_deterministic_for_fixed_seed(self, example1):
        prior = PriorSpec.uniform(example1.plaintexts)
        a = simulate(example1, prior, "BANANA", 2000, SEED)
        b = simulate(example1, prior, "BANANA", 2000, SEED)
        assert a == b
        assert a.algorithm == "mt19937"

    def test_concentrated_prior_accepts_exactly(self, example1):
        report = simulate(example1, PriorSpec({NO: F(1)}), "BANANA", 500, SEED)
        assert report.frequencies[NO] == 1.0
        assert report.frequencies[YES] == 0.0
        assert 0 < report.accepted <= 500

    def test_converges_to_exact_posterior(self, example1, example2):
        for model, expect_no in ((example1, F(2, 3)), (example2, F(3, 4))):
            prior = PriorSpec.uniform(model.plaintexts)
            report = simulate(model, prior, "BANANA", 100_000, SEED)
            exact = posterior(model, prior, "BANANA").posterior
            for mask, frequency in report.frequencies.items():
                assert abs(frequency - float(exact[mask])) < 0.01
            assert abs(report.frequencies[NO] - float(expect_no)) < 0.01

    def test_no_accepted_trials(self):
        # the only weighted plaintext encodes to q1 under a rare code:
        # with one trial and this seed the draw picks the common code
        frame = Frame(("a", "b"))
        x = frame.subset(["a"])
        y = frame.subset(["b"])
        model = EvidenceModel(
            frame,
            ("q0", "q1"),
            (x, y),
            (
                Code("rare", F(1, 1000), {x: "q1", y: "q0"}),
                Code("common", F(999, 1000), {x: "q0", y: "q0"}),
            ),
        )
        with pytest.raises(NoAcceptedTrials):
            simulate(model, PriorSpec({x: F(1)}), "q1", 1, SEED)

    @pytest.mark.parametrize(
        "samples",
        [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3],
        ids=["one", "chunk-1", "chunk", "chunk+1", "2chunk+3"],
    )
    def test_equals_the_per_trial_oracle(self, samples):
        rng = random.Random(8080 + samples)
        for trial in range(12):
            fractions = mixed_fractions if trial % 3 else random_fractions
            model = random_model(
                rng, random_frame(rng, 4, min_size=2), min_codes=2, max_codes=6,
                min_plaintexts=2, max_plaintexts=6, min_messages=2, max_messages=3,
                fractions=fractions,
            )
            if trial % 2:  # the parser's constructor
                model = parse_model(serialize_model(model))
            message = producible_message(rng, model)
            # some plaintexts weightless, some left out of the prior
            weighted = [mask for mask in model.plaintexts if rng.random() < 0.7]
            weighted = weighted or [model.plaintexts[0]]
            weights = dict(zip(weighted, fractions(rng, len(weighted))))
            for mask in model.plaintexts:
                if mask not in weights and rng.random() < 0.5:
                    weights[mask] = F(0)
            prior = PriorSpec(weights)
            seed = rng.randrange(1 << 32)
            args = (model, prior, message, samples, seed)
            assert simulation_outcome(simulate, *args) == simulation_outcome(
                oracle_simulate, *args
            )

    def test_cuts_pick_as_the_per_trial_search(self):
        rng = random.Random(1618)
        top = 1 - 2 ** -53  # the largest draw random() returns
        for trial in range(300):
            count = rng.randint(1, 8)
            fractions = mixed_fractions if trial % 2 else random_fractions
            weights = [float(w) for w in fractions(rng, count)]
            if trial % 5 == 0:
                weights[0] = 1e-320  # a weight that rounds to a subnormal
            cum = list(accumulate(weights))
            cuts = bayes._cuts(weights)
            draws = [0.0, top] + [rng.random() for _ in range(50)]
            for cut in cuts:
                draws += [cut, math.nextafter(cut, 0.0), math.nextafter(cut, 1.0)]
            for u in draws:
                if 0.0 <= u <= top:
                    expected = min(bisect_right(cum, u * cum[-1]), count - 1)
                    assert bisect_right(cuts, u) == expected

    def test_bad_sample_count(self, example1):
        with pytest.raises(ValueError):
            simulate(example1, PriorSpec.uniform(example1.plaintexts), "BANANA", 0, SEED)
