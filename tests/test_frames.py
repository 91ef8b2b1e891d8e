import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import beliefkit
from beliefkit import Frame, FrameMismatch, SubsetMask, UnknownLabel

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
        with pytest.raises(UnknownLabel):
            yn.subset(["maybe"])

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

    def test_complement_and_contains(self, yn):
        no = yn.subset(["no"])
        assert no.complement() == yn.subset(["yes"])
        assert "no" in no and "yes" not in no
        with pytest.raises(UnknownLabel):
            "maybe" in no

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


def test_copies_and_pickles_hash_their_labels_afresh(tmp_path):
    # String hashes are salted per process, so a frame's hash must be
    # recomputed where it is unpickled, or masks keyed on it go missing.
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
