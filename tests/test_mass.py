import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from beliefkit import (
    Frame,
    FrameMismatch,
    MassFunction,
    MassNotNormalized,
    MassOnEmptySet,
    NegativeMass,
    NotABeliefFunction,
    RationalTooLarge,
    SubsetMask,
    format_rational,
    parse_rational,
)

from beliefkit import mass
from beliefkit.mass import (
    MAX_INVERSION_FRAME,
    _field_width,
    _lattice_transform,
    _slice_transform,
)

from helpers import (
    as_set_dict,
    fractions_over,
    mixed_fractions,
    oracle_belief,
    oracle_mobius,
    powerset,
    prime_fractions,
    random_mask,
    random_mass,
    wide_frame,
    wide_mass,
)

F = Fraction
YN = Frame(("yes", "no"))
NO = YN.subset(["no"])
YES = YN.subset(["yes"])
TOP = YN.full()


def spy_mass():
    return MassFunction(YN, [(NO, F(2, 3)), (TOP, F(1, 3))])


class TestConstruction:
    def test_two_focal_mass(self):
        m = spy_mass()
        assert m[NO] == F(2, 3)
        assert m[TOP] == F(1, 3)
        assert m[YES] == 0

    def test_vacuous(self):
        m = MassFunction.vacuous(YN)
        assert m.focal() == ((TOP, F(1)),)
        single = Frame(("a",))
        assert MassFunction.vacuous(single).focal() == ((single.full(), F(1)),)

    def test_not_normalized(self):
        with pytest.raises(MassNotNormalized, match="^masses sum to 1/2, expected 1$"):
            MassFunction(YN, [(NO, F(1, 2))])

    def test_mass_on_empty_set(self):
        with pytest.raises(MassOnEmptySet, match="^the empty set carries mass 1/3$"):
            MassFunction(YN, [(YN.empty(), F(1, 3)), (TOP, F(2, 3))])

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            MassFunction(YN, [(NO, F(-1, 3)), (TOP, F(4, 3))])

    def test_duplicates_merge_and_zeros_drop(self):
        m = MassFunction(YN, [(NO, F(1, 3)), (NO, F(1, 3)), (TOP, F(1, 3)), (YES, F(0))])
        assert m == spy_mass()
        assert [mask for mask, _ in m.focal()] == [NO, TOP]

    def test_zero_entries_drop_out_before_the_checks(self):
        m = MassFunction(YN, [(YN.empty(), F(0)), (NO, F(2, 3)), (TOP, F(1, 3))])
        assert m == spy_mass()
        assert list(m._numerators) == [NO.bits, TOP.bits]
        m = MassFunction(YN, [(YES, F(0)), (NO, F(2, 3)), (YES, "0"), (TOP, F(1, 3))])
        assert YES.bits not in m._numerators
        assert m == spy_mass()
        assert m[YES] == 0

    def test_from_numerators_canonical_in_any_key_order_and_scale(self):
        abc = Frame(("a", "b", "c"))
        reduced = {1: 2, 3: 1, 5: 4, 6: 3, 7: 5}  # over 15, in ascending order
        shuffled = dict(reversed(reduced.items()))
        scaled = {bits: 6 * n for bits, n in reduced.items()}
        masses = [
            MassFunction._from_numerators(abc, 15, reduced),
            MassFunction._from_numerators(abc, 15, shuffled),
            MassFunction._from_numerators(abc, 90, scaled),
        ]
        for m in masses:
            assert m._denominator == 15
            assert list(m._numerators.items()) == list(reduced.items())
            assert m == masses[0]
            assert hash(m) == hash(masses[0])
            assert m.focal() == masses[0].focal()

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            MassFunction(YN, [(TOP, 1.0)])

    def test_foreign_frame_rejected(self):
        other = Frame(("yes", "no", "maybe"))
        with pytest.raises(FrameMismatch):
            MassFunction(YN, [(other.full(), F(1))])

    def test_string_and_int_entries_coerce_exactly(self):
        m = MassFunction(YN, [(NO, "2/3"), (TOP, "1/3")])
        assert m == spy_mass()
        assert MassFunction(YN, [(TOP, 1)]) == MassFunction.vacuous(YN)


class TestBeliefAndPlausibility:
    def test_spy_beliefs(self):
        m = spy_mass()
        assert m.belief(NO) == F(2, 3)
        assert m.belief(YES) == 0
        assert m.belief(TOP) == 1
        assert m.belief(YN.empty()) == 0

    def test_spy_plausibilities(self):
        m = spy_mass()
        assert m.plausibility(YES) == F(1, 3)
        assert m.plausibility(NO) == 1
        assert m.plausibility(TOP) == 1

    def test_vacuous_belief_vanishes_on_proper_subsets(self):
        m = MassFunction.vacuous(YN)
        assert m.belief(NO) == 0
        assert m.belief(YES) == 0
        assert m.belief(TOP) == 1

    def test_foreign_frame_query_rejected(self):
        with pytest.raises(FrameMismatch):
            spy_mass().belief(Frame(("a", "b")).full())
        # Both paths: a Bel table on 3 labels, a scan on 13.  A frame of
        # other labels is refused, before the table is built and after; an
        # equal frame that is another object is accepted.
        for size in (3, MAX_INVERSION_FRAME + 1):
            frame = wide_frame(size)
            m = random_mass(random.Random(size), frame, max_focal=8, min_focal=2)
            foreign = Frame(tuple(f"x{i}" for i in range(size))).full()
            twin = wide_frame(size)
            assert twin is not frame and twin == frame
            for _ in range(2):
                for query in (m.belief, m.plausibility, m.__getitem__):
                    with pytest.raises(FrameMismatch, match="does not belong to the frame"):
                        query(foreign)
                assert m.belief(twin.full()) == 1
                assert m.plausibility(twin.empty()) == 0
                assert m[twin.full()] == m[frame.full()]
            assert (m._belief_table is None) is (size > MAX_INVERSION_FRAME)


class TestBeliefInversion:
    def test_spy_belief_table_inverts_to_spy_mass(self):
        bel = {
            YN.empty(): F(0),
            YES: F(0),
            NO: F(2, 3),
            TOP: F(1),
        }
        assert MassFunction.from_belief(YN, bel) == spy_mass()

    def test_inverted_mass_equals_and_hashes_like_the_derived_one(self, example1):
        derived = example1.derive_mass("BANANA")
        bel = {mask: derived.belief(mask) for mask in TOP.subsets()}
        inverted = MassFunction.from_belief(YN, bel)
        assert inverted is not derived
        assert inverted == derived == spy_mass()
        assert hash(inverted) == hash(derived)
        assert len({derived, inverted, spy_mass()}) == 1
        assert repr(inverted) == "MassFunction<m({no}) = 2/3; m({yes,no}) = 1/3>"
        assert derived.__eq__(bel) is NotImplemented
        assert derived != bel

    def test_indicator_of_full_frame_is_vacuous(self):
        bel = {mask: F(1) if mask == TOP else F(0) for mask in TOP.subsets()}
        assert MassFunction.from_belief(YN, bel) == MassFunction.vacuous(YN)

    def test_missing_entries_rejected(self):
        with pytest.raises(NotABeliefFunction):
            MassFunction.from_belief(YN, {TOP: F(1)})

    def test_full_frame_belief_must_be_one(self):
        bel = {mask: F(0) for mask in TOP.subsets()}
        bel[TOP] = F(1, 2)
        with pytest.raises(NotABeliefFunction):
            MassFunction.from_belief(YN, bel)

    def test_empty_set_belief_must_be_zero(self):
        bel = {YN.empty(): F(1, 4), YES: F(1, 4), NO: F(1, 4), TOP: F(1)}
        with pytest.raises(
            NotABeliefFunction, match="^inversion puts mass 1/4 on the empty set$"
        ):
            MassFunction.from_belief(YN, bel)

    def test_non_monotone_table_rejected(self):
        # Bel({yes}) > Bel(T) forces a negative mass somewhere
        bel = {YN.empty(): F(0), YES: F(9, 10), NO: F(9, 10), TOP: F(1)}
        with pytest.raises(
            NotABeliefFunction,
            match=r"^inversion yields negative mass -4/5 on \{yes,no\}$",
        ):
            MassFunction.from_belief(YN, bel)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_on_random_masses(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            frame = Frame(("a", "b", "c", "d")[: rng.randint(1, 4)])
            m = random_mass(rng, frame)
            bel = {mask: m.belief(mask) for mask in frame.full().subsets()}
            assert MassFunction.from_belief(frame, bel) == m

    def test_inversion_matches_signed_sum_oracle(self):
        rng = random.Random(99)
        for _ in range(50):
            frame = Frame(("a", "b", "c")[: rng.randint(1, 3)])
            m = random_mass(rng, frame)
            bel_sets = {
                frozenset(mask.members): m.belief(mask)
                for mask in frame.full().subsets()
            }
            assert oracle_mobius(frame.labels, bel_sets) == as_set_dict(m)


class TestKernelsAtScale:
    """The integer kernels against the set oracles, on 64-128 focal elements
    whose masses have unlike denominators."""

    def test_belief_and_plausibility_match_oracle_at_frame_8(self):
        m = wide_mass(random.Random(2424), 8)
        by_set = as_set_dict(m)
        labels = frozenset(m.frame.labels)
        for subset in powerset(m.frame.labels):
            mask = m.frame.subset(subset)
            assert m.belief(mask) == oracle_belief(by_set, subset)
            assert m.plausibility(mask) == 1 - oracle_belief(by_set, labels - subset)

    def test_inversion_matches_oracle_and_round_trips_at_frame_10(self):
        m = wide_mass(random.Random(4242), 10)
        by_set = as_set_dict(m)
        bel_sets = {subset: oracle_belief(by_set, subset) for subset in powerset(m.frame.labels)}
        table = {m.frame.subset(subset): value for subset, value in bel_sets.items()}
        inverted = MassFunction.from_belief(m.frame, table)
        assert as_set_dict(inverted) == oracle_mobius(m.frame.labels, bel_sets)
        assert inverted == m

    def test_frame_over_the_inversion_limit_rejected(self):
        frame = wide_frame(MAX_INVERSION_FRAME + 1)
        with pytest.raises(ValueError, match="limited to frames of size 12 or smaller, got 13"):
            MassFunction.from_belief(frame, {})


def oracle_tables(m):
    """Subset -> Bel from the set oracle, over every subset of the frame."""
    by_set = as_set_dict(m)
    return {subset: oracle_belief(by_set, subset) for subset in powerset(m.frame.labels)}


class TestLatticeTransform:
    """Bel, Pl and from_belief share one transform over the subset lattice;
    past MAX_INVERSION_FRAME, Bel and Pl scan the focal elements instead."""

    @pytest.mark.parametrize("size", range(1, MAX_INVERSION_FRAME + 1))
    def test_every_frame_size_against_the_oracles(self, size):
        rng = random.Random(5000 + size)
        count = min(48, (1 << size) - 1)
        m = random_mass(
            rng, wide_frame(size), max_focal=count, min_focal=count, fractions=mixed_fractions
        )
        bel_sets = oracle_tables(m)
        table = {m.frame.subset(subset): value for subset, value in bel_sets.items()}
        labels = frozenset(m.frame.labels)
        plaus = {m.frame.subset(s): 1 - bel_sets[labels - s] for s in bel_sets}
        masks = list(table)
        # Bel and Pl of every subset, interleaved in a random order, on a
        # fresh mass and then on a warm one; the first query, Pl on odd sizes
        # and Bel on even, builds the table and the map of Fractions
        assert m._belief_table is None and m._fractions is None
        for _ in ("fresh", "warm"):
            rng.shuffle(masks)
            values = []
            for k, mask in enumerate(masks):
                reads = ((m.belief, table), (m.plausibility, plaus))
                for query, expected in reads[:: -1 if (k + size) % 2 else 1]:
                    values.append(query(mask))
                    assert values[-1] == expected[mask]
        assert m._belief_table is not None
        # the map holds one entry per distinct Bel or Pl value, and the warm
        # sweep reads each as one Fraction
        assert len(m._fractions) == len(set(values)) <= 1 << (size + 1)
        assert len(set(map(id, values))) == len(set(values))
        inverted = MassFunction.from_belief(m.frame, table)
        if size <= 10:
            assert as_set_dict(inverted) == oracle_mobius(m.frame.labels, bel_sets)
        assert inverted == m

    def test_dense_table_at_frame_12_with_256_focal_elements(self):
        m = random_mass(
            random.Random(1212),
            wide_frame(12),
            max_focal=256,
            min_focal=256,
            fractions=mixed_fractions,
        )
        bel_sets = oracle_tables(m)
        labels = frozenset(m.frame.labels)
        for subset, bel in bel_sets.items():
            mask = m.frame.subset(subset)
            assert m.belief(mask) == bel
            assert m.plausibility(mask) == 1 - bel_sets[labels - subset]
        assert m._belief_table is not None

    def test_frame_past_the_inversion_limit_scans(self):
        rng = random.Random(1313)
        m = wide_mass(rng, MAX_INVERSION_FRAME + 1)
        by_set = as_set_dict(m)
        labels = m.frame.labels
        for _ in range(300):
            subset = frozenset(label for label in labels if rng.random() < 0.7)
            mask = m.frame.subset(subset)
            assert m.belief(mask) == oracle_belief(by_set, subset)
            assert m.plausibility(mask) == 1 - oracle_belief(by_set, frozenset(labels) - subset)
        assert m._belief_table is None and m._fractions is None

    @pytest.mark.parametrize("size", (3, MAX_INVERSION_FRAME, MAX_INVERSION_FRAME + 1))
    def test_queries_keep_equality_hash_and_copies(self, size):
        def fresh():
            rng = random.Random(2730 + size)
            return wide_mass(rng, size) if size > 8 else random_mass(rng, wide_frame(size), 6)

        m, untouched = fresh(), fresh()
        before = hash(m)
        rng = random.Random(size)
        masks = [random_mask(rng, m.frame, nonempty=False) for _ in range(64)]
        answers = [(m.belief(mask), m.plausibility(mask)) for mask in masks]
        assert m == untouched and untouched == m
        assert hash(m) == before == hash(untouched)
        for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert twin == m and hash(twin) == hash(m)
            assert [(twin.belief(mask), twin.plausibility(mask)) for mask in masks] == answers


def extreme_tables(size, magnitude):
    """Tables whose transforms reach ``magnitude * 2^size`` in both signs, as
    ``(table, zeta, mobius)`` triples with both transforms in closed form.

    A constant c sums to ``c * 2^|A|`` at A and inverts to c on the empty
    set alone; ``c * (-1)^|A|`` sums to c on the empty set alone and inverts
    to ``c * (-2)^|A|``.
    """
    cells = range(1 << size)
    triples = []
    for c in (magnitude, -magnitude):
        alone = [c] + [0] * ((1 << size) - 1)
        triples.append(([c] * (1 << size), [c << k.bit_count() for k in cells], alone))
        parity = [c * (-1) ** k.bit_count() for k in cells]
        triples.append((parity, alone, [c * (-2) ** k.bit_count() for k in cells]))
    return triples


def label_sets(size):
    """The label set of each cell of a table on ``wide_frame(size)``, by bits."""
    frame = wide_frame(size)
    return [frozenset(SubsetMask(frame, bits).members) for bits in range(1 << size)]


def oracle_zeta(size, table):
    """Each cell's sum over its subsets, by oracle_belief on the nonzero cells."""
    sets = label_sets(size)
    by_set = {subset: value for subset, value in zip(sets, table) if value}
    return [oracle_belief(by_set, subset) for subset in sets]


def sparse_table(rng, size, magnitude):
    """Up to 24 random cells in [-magnitude, magnitude], the rest zero."""
    table = [0] * (1 << size)
    for k in rng.sample(range(1 << size), min(1 << size, 24)):
        table[k] = rng.randint(-magnitude, magnitude)
    return table


def nonnegative_tables(rng, size, total):
    """Non-negative tables that total `total`: all of it on the empty set,
    whose sums then reach `total` in every cell, all on the full set, and
    split at random over up to 24 cells."""
    cells = 1 << size
    first, last, split = ([0] * cells for _ in range(3))
    first[0] = last[-1] = total
    edges = [0, *sorted(rng.randrange(total + 1) for _ in range(23)), total]
    for low, high in zip(edges, edges[1:]):
        split[rng.randrange(cells)] += high - low
    return first, last, split


def bel_abc(denominator, changes):
    """``(denominator, Bel numerators)`` on a, b, c, bits 1, 2, 4, of the mass
    1/5 on {a}, {b}, {c} and {a,b,c} and 1/10 on {a,b} and {b,c}, with the
    cells in `changes` replaced."""
    base = {0: 0, 1: 20, 2: 20, 3: 50, 4: 20, 5: 40, 6: 50, 7: 100}
    return denominator, {**{k: n * denominator // 100 for k, n in base.items()}, **changes}


class TestPackedTransform:
    """The unsigned packed kernel on non-negative tables on each side of every
    field width, and the slice transform, which takes signed tables and
    fields past 64 bits, against the set oracles and closed forms."""

    @pytest.mark.parametrize("size", range(1, MAX_INVERSION_FRAME + 1))
    @pytest.mark.parametrize("inverse", [False, True], ids=["zeta", "mobius"])
    def test_random_signed_tables(self, size, inverse):
        # Sparse tables keep oracle_belief cheap at every size: forward, a
        # table goes to its sums; inverse, the sums go back to the table.
        rng = random.Random(7000 + size)
        for bits in (1, 6, 20, 45):
            table = sparse_table(rng, size, 1 << bits)
            sums = oracle_zeta(size, table)
            if inverse:
                assert _slice_transform(sums, size, True) == table
            else:
                assert _slice_transform(table, size, False) == sums
            if inverse and size <= 8:
                dense = [rng.randint(-(1 << bits), 1 << bits) for _ in range(1 << size)]
                sets = label_sets(size)
                masses = oracle_mobius(wide_frame(size).labels, dict(zip(sets, dense)))
                expected = [masses.get(subset, 0) for subset in sets]
                assert _slice_transform(dense, size, True) == expected

    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_each_side_of_the_width_boundaries(self, width):
        # A bound of `width` bits packs fields of `width` bits, and one bit
        # more the next width (past 64 bits, the slice transform).  Each
        # table is non-negative and totals the bound.
        rng = random.Random(width)
        for bound in ((1 << width) - 1, 1 << width):
            assert _field_width(bound) == (width if bound < 1 << width else 2 * width)
            for size in range(1, MAX_INVERSION_FRAME + 1):
                for table in nonnegative_tables(rng, size, bound):
                    sums = _lattice_transform(table, size, False, bound)
                    assert sums == _slice_transform(table, size, False)
                    assert _lattice_transform(sums, size, True, bound) == table

    @pytest.mark.parametrize("width", [8, 16, 32, 64, 72, 80])
    def test_bel_tables_on_each_side_of_the_denominator_bound(self, width):
        # The Bel table is sized by the denominator, which it reaches at the
        # full set: one of width - 1 bits fits fields of `width` bits, one
        # bit more needs the next width.
        rng = random.Random(9000 + width)
        for size in (3, 7):
            frame = wide_frame(size)
            labels = frozenset(frame.labels)
            for denominator in ((1 << (width - 1)) - 1, 1 << (width - 1)):
                m = random_mass(
                    rng, frame, max_focal=20, min_focal=2, fractions=fractions_over(denominator)
                )
                assert m._denominator == denominator
                by_set = as_set_dict(m)
                for subset in powerset(frame.labels):
                    mask = frame.subset(subset)
                    assert m.belief(mask) == oracle_belief(by_set, subset)
                    assert m.plausibility(mask) == 1 - oracle_belief(by_set, labels - subset)

    @pytest.mark.parametrize("bits", [70, 200])
    def test_cells_past_64_bits(self, bits):
        # The slice transform on signed cells, against closed forms and the
        # set oracle; the kernel hands a bound past 64 bits to it.
        rng = random.Random(bits)
        magnitude = (1 << bits) - 1
        for size in range(1, MAX_INVERSION_FRAME + 1):
            for table, sums, masses in extreme_tables(size, magnitude):
                assert _slice_transform(table, size, False) == sums
                assert _slice_transform(table, size, True) == masses
            table = sparse_table(rng, size, magnitude)
            sums = oracle_zeta(size, table)
            assert _slice_transform(table, size, False) == sums
            assert _slice_transform(sums, size, True) == table
            table = [abs(cell) for cell in table]
            assert _lattice_transform(table, size, False, sum(table)) == oracle_zeta(size, table)

    @pytest.mark.parametrize("size", [2, 3, 6, 8, 10])
    def test_round_trip_over_large_prime_denominators(self, size):
        m = random_mass(
            random.Random(8000 + size),
            wide_frame(size),
            max_focal=24,
            min_focal=2,
            fractions=prime_fractions,
        )
        assert m._denominator > 1 << 64
        bel_sets = oracle_tables(m)
        table = {m.frame.subset(subset): value for subset, value in bel_sets.items()}
        assert {mask: m.belief(mask) for mask in table} == table
        inverted = MassFunction.from_belief(m.frame, table)
        assert as_set_dict(inverted) == oracle_mobius(m.frame.labels, bel_sets)
        assert inverted == m

    def test_lowest_negative_bitmask_is_named_past_64_bits(self):
        # As test_lowest_negative_bitmask_is_named, with 1/2 moved to a
        # 2^89 - 1 denominator: m({a,b}) = m({a,c}) = -h and m({b,c}) = -2h.
        prime = (1 << 89) - 1
        h = F(prime // 2, prime)
        values = {7: F(1), 6: F(0), 5: h, 4: h, 3: h, 2: h, 1: h, 0: F(0)}
        with pytest.raises(NotABeliefFunction) as caught:
            MassFunction.from_belief(ABC, abc_table(values))
        assert str(caught.value) == (
            f"inversion yields negative mass -{prime // 2}/{prime} on {{a,b}}"
        )

    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_belief_tables_never_reach_the_slice_transform(self, width, monkeypatch):
        # Bel tables over the least and the largest denominator that need
        # fields of `width` bits invert in the packed kernel, which the
        # forward passes confirm; past 64 bits the slice transform inverts.
        inverted = []

        def counted(table, size, inverse):
            inverted.append(size)
            return _slice_transform(table, size, inverse)

        rng = random.Random(9100 + width)
        denominators = [1 << (width - 1), (1 << width) - 1]
        if width == 64:
            denominators.append(1 << 64)
        for size in range(1, MAX_INVERSION_FRAME + 1):
            frame = wide_frame(size)
            masses = [MassFunction.vacuous(frame)] if size == 1 else [
                random_mass(rng, frame, 20, 2, fractions_over(denominator))
                for denominator in denominators
            ]
            assert size == 1 or [m._denominator for m in masses] == denominators
            for m in masses:
                table = {mask: m.belief(mask) for mask in frame.full().subsets()}
                monkeypatch.setattr(mass, "_slice_transform", counted)
                assert MassFunction.from_belief(frame, table) == m
                monkeypatch.undo()
        past = [size for size in range(2, MAX_INVERSION_FRAME + 1) if width == 64]
        assert inverted == past

    @pytest.mark.parametrize(
        "table, text",
        [
            # Bel({a,b}) = D + 1 fits its field; the top field borrows.
            (bel_abc(100, {3: 101}), "-31/100 on {a,b,c}"),
            # Bel({a,b}) = D + 1 = 256 does not fit 8-bit fields.
            (bel_abc(255, {3: 256}), "-77/255 on {a,b,c}"),
            # Bel({a,c}) = 255/101 fills its 8-bit field, past D.
            (bel_abc(101, {5: 255}), "-194/101 on {a,b,c}"),
            # A negative cell does not fit an unsigned field.
            (bel_abc(100, {2: -1}), "-1/100 on {b}"),
            # A middle field borrows from the next (D = 10 and 20): the
            # packed integer stays non-negative, but its fields no longer
            # sum to D.
            (bel_abc(100, {3: 30}), "-1/10 on {a,b}"),
            (bel_abc(100, {1: 30, 3: 45}), "-1/20 on {a,b}"),
        ],
        ids=["over-D", "over-the-field", "field-maximum", "negative", "borrow", "borrows"],
    )
    def test_non_belief_tables_name_the_first_negative_mass(self, table, text):
        denominator, numerators = table
        table = abc_table({bits: F(n, denominator) for bits, n in numerators.items()})
        with pytest.raises(NotABeliefFunction) as caught:
            MassFunction.from_belief(ABC, table)
        assert str(caught.value) == f"inversion yields negative mass {text}"


class Half(Fraction):
    """A Fraction subclass: it is not exactly Fraction, so it goes through exact()."""


ABC = Frame(("a", "b", "c"))


def spy_belief(convert=lambda value: value):
    """The spy mass's dense Bel table, each value passed through `convert`."""
    return {mask: convert(spy_mass().belief(mask)) for mask in TOP.subsets()}


def abc_table(values):
    """A dense table on ABC from a ``bits -> value`` dict, in the dict's order."""
    return {SubsetMask(ABC, bits): value for bits, value in values.items()}


class TestIntake:
    """The constructor and from_belief put values over one denominator through
    one intake; these pin what it accepts, its diagnostics and their order."""

    @pytest.mark.parametrize(
        "convert",
        [format_rational, lambda v: int(v) if v.denominator == 1 else v, Half],
        ids=["text", "int", "fraction-subclass"],
    )
    def test_non_fraction_values_give_the_same_mass(self, convert):
        assert MassFunction.from_belief(YN, spy_belief(convert)) == spy_mass()
        entries = [(NO, convert(F(2, 3))), (TOP, convert(F(1, 3))), (YES, convert(F(0)))]
        assert MassFunction(YN, entries) == spy_mass()
        assert MassFunction(YN, [(TOP, convert(F(1)))]) == MassFunction.vacuous(YN)

    def test_float_rejected(self):
        bel = spy_belief()
        bel[NO] = 2 / 3
        with pytest.raises(TypeError, match="^probability values must be exact rationals"):
            MassFunction.from_belief(YN, bel)

    def test_frame_checked_before_value_in_iteration_order(self):
        foreign = Frame(("yes", "no", "maybe")).full()
        for bel in ({foreign: 0.5}, {foreign: F(1), NO: 0.5}):
            with pytest.raises(
                FrameMismatch,
                match=r"^belief table key \{yes,no,maybe\} does not belong to the frame$",
            ):
                MassFunction.from_belief(YN, bel)
        with pytest.raises(TypeError):
            MassFunction.from_belief(YN, {NO: 0.5, foreign: F(1)})
        for entries in ([(foreign, 0.5)], [(foreign, F(1)), (NO, 0.5)]):
            with pytest.raises(
                FrameMismatch,
                match=r"^focal set \{yes,no,maybe\} does not belong to the frame$",
            ):
                MassFunction(YN, entries)
        with pytest.raises(TypeError):
            MassFunction(YN, [(NO, 0.5), (foreign, F(1))])
        with pytest.raises(NegativeMass, match=r"^mass of \{no\} is negative: -1/3$"):
            MassFunction(YN, [(NO, F(-1, 3)), (foreign, F(1))])

    def test_equal_but_distinct_frame_accepted(self):
        twin = Frame(YN.labels)
        assert twin is not YN and twin == YN
        bel = {SubsetMask(twin, mask.bits): value for mask, value in spy_belief().items()}
        assert MassFunction.from_belief(YN, bel) == spy_mass()
        m = MassFunction(YN, [(SubsetMask(twin, NO.bits), F(2, 3)), (TOP, F(1, 3))])
        assert m == spy_mass()
        assert m[SubsetMask(twin, NO.bits)] == F(2, 3)
        assert m.belief(SubsetMask(twin, NO.bits)) == F(2, 3)
        assert m.plausibility(SubsetMask(twin, YES.bits)) == F(1, 3)

    def test_checks_run_in_order(self):
        wide = wide_frame(MAX_INVERSION_FRAME + 1)
        with pytest.raises(ValueError, match="^belief inversion is limited"):
            MassFunction.from_belief(wide, {YN.full(): 0.5})
        values = {bits: F(0) for bits in range(7)}
        values[0] = F(1, 4)
        # one cell short, with Bel(empty) = 1/4 and Bel(full) = 1/2 as well
        short = {bits: value for bits, value in values.items() if bits != 6}
        with pytest.raises(
            NotABeliefFunction, match="^belief table must cover all 8 subsets, got 7$"
        ):
            MassFunction.from_belief(ABC, abc_table({**short, 7: F(1, 2)}))
        # Bel(empty) = 1/4 as well: the full frame is checked first
        with pytest.raises(
            NotABeliefFunction, match="^Bel of the full frame is 1/2, expected 1$"
        ):
            MassFunction.from_belief(ABC, abc_table({**values, 7: F(1, 2)}))
        # Bel(empty) = 1/4 and negative masses: the empty set is checked first
        with pytest.raises(
            NotABeliefFunction, match="^inversion puts mass 1/4 on the empty set$"
        ):
            MassFunction.from_belief(ABC, abc_table({**values, 7: F(1)}))

    def test_lowest_negative_bitmask_is_named(self):
        # m({a,b}) = m({a,c}) = -1/2 and m({b,c}) = -1; {a,b} has the lowest bits.
        # The table runs in descending bit order, so the lowest comes last.
        half = F(1, 2)
        values = {7: F(1), 6: F(0), 5: half, 4: half, 3: half, 2: half, 1: half, 0: F(0)}
        with pytest.raises(
            NotABeliefFunction, match=r"^inversion yields negative mass -1/2 on \{a,b\}$"
        ):
            MassFunction.from_belief(ABC, abc_table(values))

    def test_frame_12_round_trip_agrees_field_by_field(self):
        m = random_mass(
            random.Random(1224),
            wide_frame(12),
            max_focal=300,
            min_focal=300,
            fractions=mixed_fractions,
        )
        assert len({v.denominator for _, v in m.focal()}) > 1
        table = {mask: m.belief(mask) for mask in m.frame.full().subsets()}
        inverted = MassFunction.from_belief(m.frame, table)
        assert inverted._denominator == m._denominator
        assert list(inverted._numerators.items()) == list(m._numerators.items())
        assert inverted.focal() == m.focal()


@st.composite
def masses(draw, frame=None, max_size=4):
    if frame is None:
        size = draw(st.integers(min_value=1, max_value=max_size))
        frame = Frame(tuple("abcd"[:size]))
    size = frame.size
    count = draw(st.integers(min_value=1, max_value=min(4, (1 << size) - 1)))
    bits = draw(
        st.lists(
            st.integers(min_value=1, max_value=(1 << size) - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=9), min_size=count, max_size=count)
    )
    total = sum(weights)
    return MassFunction(
        frame,
        [(SubsetMask(frame, b), Fraction(w, total)) for b, w in zip(bits, weights)],
    )


@settings(max_examples=100)
@given(masses())
def test_normalization_is_exact(m):
    assert sum((v for _, v in m.focal()), Fraction(0)) == 1
    assert all(v > 0 for _, v in m.focal())
    assert all(len(mask) > 0 for mask, _ in m.focal())


@settings(max_examples=60)
@given(masses())
def test_belief_is_monotone_and_two_monotone(m):
    frame = m.frame
    subsets = list(frame.full().subsets())
    bel = {mask: m.belief(mask) for mask in subsets}
    for a in subsets:
        for b in subsets:
            if a.issubset(b):
                assert bel[a] <= bel[b]
            assert bel[a | b] + bel[a & b] >= bel[a] + bel[b]


@settings(max_examples=100)
@given(masses())
def test_plausibility_dominates_belief(m):
    for mask in m.frame.full().subsets():
        assert m.belief(mask) <= m.plausibility(mask)


@settings(max_examples=60)
@given(masses())
def test_belief_matches_set_oracle(m):
    by_set = as_set_dict(m)
    for subset in powerset(m.frame.labels):
        mask = m.frame.subset(subset)
        assert m.belief(mask) == oracle_belief(by_set, subset)


def _written(value, form):
    """`value` as a Fraction, as an int when it is whole, or as ``p/q`` text."""
    if form == "text":
        return format_rational(value)
    if form == "int" and value.denominator == 1:
        return int(value)
    return value


@st.composite
def belief_tables(draw):
    """A mass's dense Bel table with 0-2 cells below the full frame changed,
    each value written as a Fraction, an int or ``p/q`` text."""
    m = draw(masses())
    frame = m.frame
    full = (1 << frame.size) - 1
    values = [m.belief(SubsetMask(frame, bits)) for bits in range(full + 1)]
    changes = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=full - 1),
                st.fractions(min_value=-1, max_value=2, max_denominator=6),
            ),
            max_size=2,
        )
    )
    for bits, value in changes:
        values[bits] = value
    forms = draw(
        st.lists(
            st.sampled_from(["fraction", "int", "text"]), min_size=full + 1, max_size=full + 1
        )
    )
    table = {
        SubsetMask(frame, bits): _written(value, form)
        for bits, (value, form) in enumerate(zip(values, forms))
    }
    return frame, values, table


@settings(derandomize=True, max_examples=100, deadline=None)
@given(belief_tables())
def test_from_belief_matches_signed_sum_oracle_or_its_diagnostic(case):
    frame, values, table = case
    expected = oracle_mobius(
        frame.labels,
        {frozenset(SubsetMask(frame, bits).members): v for bits, v in enumerate(values)},
    )
    empty = expected.get(frozenset(), Fraction(0))
    negative = sorted(
        (sum(1 << frame.labels.index(label) for label in subset), value)
        for subset, value in expected.items()
        if value < 0
    )
    if empty:
        message = f"inversion puts mass {format_rational(empty)} on the empty set"
    elif negative:
        bits, value = negative[0]
        members = ",".join(label for i, label in enumerate(frame.labels) if bits >> i & 1)
        message = f"inversion yields negative mass {format_rational(value)} on {{{members}}}"
    else:
        assert as_set_dict(MassFunction.from_belief(frame, table)) == expected
        return
    with pytest.raises(NotABeliefFunction) as caught:
        MassFunction.from_belief(frame, table)
    assert str(caught.value) == message


class TestRationalText:
    @pytest.mark.parametrize(
        "text,value",
        [("2/3", F(2, 3)), ("1", F(1)), ("0", F(0)), ("-1/2", F(-1, 2)), ("4/6", F(2, 3))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text", ["", "a", "1.5", "1/0", "1 / 2", "/3", "2/", "1/2\n", "\u0661/\u0662"]
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_format_round_trips(self):
        for value in (F(2, 3), F(1), F(0), F(7, 5), F(-3, 4)):
            assert parse_rational(format_rational(value)) == value

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
        reason="needs Python's default limit of 4300 digits for int-to-str",
    )
    def test_format_up_to_the_digit_limit(self):
        # 10**4299 has 4300 digits, the most Python writes by default
        for value in (F(10**4299), F(1, 10**4299), F(-(10**4299) - 1, 3)):
            assert parse_rational(format_rational(value)) == value
        for value in (F(10**4300), F(1, 10**4300), F(-(10**4300) - 1, 3)):
            with pytest.raises(RationalTooLarge, match=r"^exact value too large to write: "):
                format_rational(value)

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
        reason="needs Python's default limit of 4300 digits for int-to-str",
    )
    def test_diagnostics_past_the_digit_limit_keep_their_class(self):
        # the two masses sum to a value over a 6001-digit denominator
        entries = [(NO, F(1, 10**3000 + 3)), (TOP, F(1, 10**3000 + 7))]
        with pytest.raises(
            MassNotNormalized, match=r"^masses sum to a value too large to write, expected 1$"
        ):
            MassFunction(YN, entries)
