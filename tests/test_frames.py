import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import beliefkit
from beliefkit import (
    Frame,
    FrameMismatch,
    SubsetMask,
    UnknownLabel,
    bundled_model_path,
    parse_model,
)

from helpers import powerset


@pytest.fixture
def yn():
    return Frame(("yes", "no"))


class TestFrame:
    def test_content_identity(self):
        assert Frame(("yes", "no")) == Frame(("yes", "no"))
        assert Frame(("yes", "no")) != Frame(("no", "yes"))
        # masks from identically labelled frames are interchangeable
        a = Frame(("yes", "no")).subset(["no"])
        b = Frame(("yes", "no")).subset(["no"])
        assert a == b and (a & b) == a

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            Frame(())
        with pytest.raises(ValueError):
            Frame(tuple(f"x{i}" for i in range(25)))
        assert Frame(tuple(f"x{i}" for i in range(24))).size == 24

    @pytest.mark.parametrize("labels", [("a", "a"), ("",), ("a,b",), ("{x}",), ("a b",)])
    def test_bad_labels(self, labels):
        with pytest.raises(ValueError):
            Frame(labels)

    def test_bare_string_labels_rejected(self):
        with pytest.raises(TypeError, match=r"^frame labels must be a sequence of strings, got 'abc'$"):
            Frame("abc")

    @pytest.mark.parametrize("labels", [{"yes", "no", "maybe"}, frozenset({"yes", "no"})])
    def test_unordered_labels_rejected(self, labels):
        # a set's order, and so the frame's, could change with the hash seed
        kind = type(labels).__name__
        with pytest.raises(TypeError) as err:
            Frame(labels)
        assert str(err.value) == f"frame labels must be an ordered collection, got a {kind}"

    def test_not_equal_to_another_type(self, yn):
        assert yn.__eq__(("yes", "no")) is NotImplemented
        assert yn != ("yes", "no")

    def test_index(self, yn):
        assert yn.index("no") == 1
        with pytest.raises(UnknownLabel, match=r"^label 'maybe' is not in frame \{yes,no\}$"):
            yn.index("maybe")
        with pytest.raises(UnknownLabel, match=r"^label \['no'\] is not in frame"):
            yn.index(["no"])


class TestSubsets:
    def test_subset_from_labels(self, yn):
        assert yn.subset(["no"]).members == ("no",)
        assert yn.subset(["yes", "no"]) == yn.full()
        assert yn.subset(["no", "no"]).members == ("no",)  # duplicates collapse
        assert yn.subset({"no", "yes"}) == yn.full()  # bits do not depend on order
        with pytest.raises(UnknownLabel):
            yn.subset(["maybe"])

    def test_subset_of_a_bare_string_rejected(self):
        frame = Frame(("a", "b", "c"))
        with pytest.raises(TypeError, match=r"^subset takes an iterable of labels, got the string 'ab'$"):
            frame.subset("ab")

    def test_intersect(self, yn):
        no = yn.subset(["no"])
        yes = yn.subset(["yes"])
        assert (no & yn.full()) == no
        assert len(yes & no) == 0
        assert (yn.full() & yn.full()) == yn.full()

    def test_union(self, yn):
        no = yn.subset(["no"])
        yes = yn.subset(["yes"])
        assert (yes | no) == yn.full()
        assert (yn.empty() | no) == no
        assert (no | no) == no

    def test_is_subset(self, yn):
        no = yn.subset(["no"])
        assert no.issubset(yn.full())
        assert not yn.full().issubset(no)
        assert yn.empty().issubset(yn.subset(["yes"]))

    def test_cross_frame_operations_fail(self, yn):
        other = Frame(("yes", "no", "maybe")).subset(["no"])
        with pytest.raises(FrameMismatch):
            yn.subset(["no"]) & other
        with pytest.raises(FrameMismatch):
            yn.subset(["no"]) | other
        with pytest.raises(FrameMismatch):
            yn.subset(["no"]).issubset(other)

    def test_iteration_and_repr(self, yn):
        assert yn.full().members == ("yes", "no")
        assert yn.empty().members == ()
        assert repr(yn.subset(["no"])) == "SubsetMask({no})"

    def test_str_and_parse_round_trip(self, yn):
        for mask in yn.full().subsets():
            assert yn.parse_subset(str(mask)) == mask
        assert str(yn.empty()) == "{}"
        assert str(yn.full()) == "{yes,no}"
        with pytest.raises(ValueError):
            yn.parse_subset("yes,no")


    @pytest.mark.parametrize(
        "bits,message",
        [
            (4, "bits 0x4 out of range for a frame of size 2"),
            (-1, "bits -0x1 out of range for a frame of size 2"),
        ],
        ids=["past-the-frame", "negative"],
    )
    def test_mask_bits_out_of_range(self, yn, bits, message):
        with pytest.raises(ValueError) as err:
            SubsetMask(yn, bits)
        assert type(err.value) is ValueError
        assert str(err.value) == message

    @pytest.mark.parametrize("bits", [1.0, Fraction(1), 4.0], ids=["float", "fraction", "float-past-the-frame"])
    def test_mask_bits_must_be_an_int(self, yn, bits):
        with pytest.raises(TypeError, match=rf"^bits must be an int, got {type(bits).__name__}$"):
            SubsetMask(yn, bits)

class TestEnumeration:
    def test_order_over_full_frame(self, yn):
        got = [mask.members for mask in yn.full().subsets()]
        assert got == [(), ("yes",), ("no",), ("yes", "no")]

    def test_singleton_bound(self, yn):
        got = list(yn.subset(["no"]).subsets())
        assert got == [yn.empty(), yn.subset(["no"])]

    def test_empty_bound(self, yn):
        assert list(yn.empty().subsets()) == [yn.empty()]

    def test_every_bound_counts_and_order(self):
        frame = Frame(("a", "b", "c", "d"))
        for bound in frame.full().subsets():
            seen = list(bound.subsets())
            assert len(seen) == 1 << len(bound)
            assert len(set(seen)) == len(seen)
            assert [m.bits for m in seen] == sorted(m.bits for m in seen)
            assert all(m.issubset(bound) for m in seen)


def test_algebra_matches_label_set_oracle_exhaustively():
    frame = Frame(("a", "b", "c", "d", "e"))
    masks = {frozenset(m.members): m for m in frame.full().subsets()}
    for left_set, left in masks.items():
        for right_set, right in masks.items():
            assert frozenset((left & right).members) == left_set & right_set
            assert frozenset((left | right).members) == left_set | right_set
            assert left.issubset(right) == (left_set <= right_set)
    # enumeration agrees with the itertools-based oracle
    assert {frozenset(m.members) for m in frame.full().subsets()} == set(
        powerset(frame.labels)
    )


@st.composite
def mask_pairs(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    frame = Frame(tuple("abcdef"[:size]))
    bits = st.integers(min_value=0, max_value=(1 << size) - 1)
    return SubsetMask(frame, draw(bits)), SubsetMask(frame, draw(bits))


@given(mask_pairs())
def test_lattice_bounds_property(pair):
    a, b = pair
    assert (a & b).issubset(a)
    assert a.issubset(a | b)


def test_masks_are_hashable():
    frame = Frame(("a", "b", "c"))
    seen = {frame.subset(["a"]), frame.subset(["a"])}
    assert len(seen) == 1


def test_masks_of_equal_frames_are_one_key():
    # two parsed documents give two distinct but equal frames
    text = bundled_model_path("example2").read_text(encoding="utf-8")
    left, right = parse_model(text).frame, parse_model(text).frame
    assert left is not right and left == right
    table = {mask: str(mask) for mask in left.full().subsets()}
    for mask in right.full().subsets():
        assert table[mask] == str(mask)
    assert len(set(left.full().subsets()) | set(right.full().subsets())) == 4


def test_equal_bits_on_different_frames_are_two_keys():
    yn, ny, ynm = Frame(("yes", "no")), Frame(("no", "yes")), Frame(("yes", "no", "maybe"))
    masks = [SubsetMask(frame, 1) for frame in (yn, ny, ynm)]
    table = {mask: str(mask) for mask in masks}
    assert len(table) == len(set(masks)) == 3
    assert [table[mask] for mask in masks] == ["{yes}", "{no}", "{yes}"]
    assert SubsetMask(yn, 1) != SubsetMask(ynm, 1)


def test_copies_and_pickles_hash_their_labels_afresh(tmp_path):
    # String hashes are salted per process, so an unpickled frame and the
    # masks keyed on it must hash as those built where they are read.
    frame = Frame(("yes", "no", "maybe"))
    assert copy.copy(frame) == frame and hash(copy.deepcopy(frame)) == hash(frame)
    table = {mask: str(mask) for mask in frame.full().subsets()}
    path = tmp_path / "table.pickle"
    path.write_bytes(pickle.dumps((frame, table)))
    check = (
        "import pickle, sys\n"
        "from beliefkit import Frame\n"
        "frame, table = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "fresh = Frame(('yes', 'no', 'maybe'))\n"
        "assert hash(frame) == hash(fresh)\n"
        "for mask in fresh.full().subsets():\n"
        "    assert table[mask] == str(mask)\n"
    )
    src = str(Path(beliefkit.__file__).resolve().parents[1])
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", check, str(path)], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr


def test_parsed_model_mass_and_relation_pickle_across_processes(tmp_path):
    path = bundled_model_path("example2")
    model = parse_model(path.read_text(encoding="utf-8"))
    mass = model.derive_mass("BANANA")
    mass.belief(model.frame.full())  # the Bel table travels with the mass
    relation = model.constraining_relation("BANANA")
    pickled = tmp_path / "model.pickle"
    pickled.write_bytes(pickle.dumps((model, mass, relation)))
    check = (
        "import pickle, sys\n"
        "from beliefkit import parse_model\n"
        "loaded = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "fresh = parse_model(open(sys.argv[2], encoding='utf-8').read())\n"
        "built = (fresh, fresh.derive_mass('BANANA'), fresh.constraining_relation('BANANA'))\n"
        "for old, new in zip(loaded, built):\n"
        "    assert old == new and hash(old) == hash(new), (old, new)\n"
        "assert loaded[1]._belief_table is not None\n"
        "for mask in fresh.frame.full().subsets():\n"
        "    assert loaded[1].belief(mask) == built[1].belief(mask)\n"
        "for mask in fresh.plaintexts:\n"
        "    assert loaded[0].codes[1].codebook[mask] == fresh.codes[1].codebook[mask]\n"
    )
    src = str(Path(beliefkit.__file__).resolve().parents[1])
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", check, str(pickled), str(path)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
