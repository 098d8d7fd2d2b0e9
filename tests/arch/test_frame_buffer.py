"""Tests for the frame-buffer region model."""

import numpy as np
import pytest

from repro.arch.frame_buffer import Extent, FrameBuffer, FrameBufferSet
from repro.errors import AllocationError, CapacityError


class TestExtent:
    def test_end(self):
        assert Extent(10, 5).end == 15

    def test_overlap_detection(self):
        assert Extent(0, 10).overlaps(Extent(9, 5))
        assert not Extent(0, 10).overlaps(Extent(10, 5))
        assert Extent(5, 1).overlaps(Extent(0, 10))

    def test_invalid_rejected(self):
        with pytest.raises(AllocationError):
            Extent(-1, 5)
        with pytest.raises(AllocationError):
            Extent(0, 0)


class TestFrameBufferSet:
    def test_bind_and_release(self):
        fb = FrameBufferSet(1024)
        fb.bind("x", 0, [Extent(0, 100)])
        assert fb.is_bound("x", 0)
        assert fb.occupied_words == 100
        assert fb.free_words == 924
        fb.release("x", 0)
        assert not fb.is_bound("x", 0)
        assert fb.occupied_words == 0

    def test_overlap_rejected(self):
        fb = FrameBufferSet(1024)
        fb.bind("x", 0, [Extent(0, 100)])
        with pytest.raises(AllocationError, match="overlaps"):
            fb.bind("y", 0, [Extent(50, 100)])

    def test_duplicate_bind_rejected(self):
        fb = FrameBufferSet(1024)
        fb.bind("x", 0, [Extent(0, 100)])
        with pytest.raises(AllocationError, match="already bound"):
            fb.bind("x", 0, [Extent(200, 100)])

    def test_instances_are_distinct(self):
        fb = FrameBufferSet(1024)
        fb.bind("x", 0, [Extent(0, 100)])
        fb.bind("x", 1, [Extent(100, 100)])
        assert fb.is_bound("x", 0) and fb.is_bound("x", 1)

    def test_out_of_range_rejected(self):
        fb = FrameBufferSet(128)
        with pytest.raises(AllocationError, match="exceeds capacity"):
            fb.bind("x", 0, [Extent(100, 100)])

    def test_release_unbound_rejected(self):
        with pytest.raises(AllocationError, match="not bound"):
            FrameBufferSet(128).release("ghost", 0)

    def test_empty_extents_rejected(self):
        with pytest.raises(AllocationError):
            FrameBufferSet(128).bind("x", 0, [])

    def test_split_region(self):
        fb = FrameBufferSet(1024)
        fb.bind("x", 0, [Extent(0, 50), Extent(100, 50)])
        assert fb.occupied_words == 100

    def test_zero_capacity_rejected(self):
        with pytest.raises(CapacityError):
            FrameBufferSet(0)

    def test_clear(self):
        fb = FrameBufferSet(1024)
        fb.bind("x", 0, [Extent(0, 100)])
        fb.clear()
        assert fb.live_regions() == ()


class TestOverlapIndex:
    """``bind``'s overlap check answered from the sorted extent index."""

    def test_extent_straddling_two_live_regions(self):
        fb = FrameBufferSet(1024)
        fb.bind("a", 0, [Extent(0, 100)])
        fb.bind("b", 0, [Extent(200, 100)])
        with pytest.raises(AllocationError, match="overlaps a#0"):
            fb.bind("c", 0, [Extent(50, 200)])
        assert not fb.is_bound("c", 0)

    def test_touching_boundaries_do_not_overlap(self):
        fb = FrameBufferSet(1024)
        fb.bind("a", 0, [Extent(100, 100)])
        fb.bind("below", 0, [Extent(0, 100)])
        fb.bind("above", 0, [Extent(200, 100)])
        with pytest.raises(AllocationError, match="overlaps a#0"):
            fb.bind("x", 0, [Extent(199, 1)])
        with pytest.raises(AllocationError, match="overlaps a#0"):
            fb.bind("y", 0, [Extent(100, 1)])

    def test_multi_extent_regions(self):
        fb = FrameBufferSet(1024)
        fb.bind("split", 0, [Extent(0, 50), Extent(100, 50)])
        fb.bind("gap", 0, [Extent(50, 50)])
        with pytest.raises(AllocationError, match="overlaps split#0"):
            fb.bind("late", 0, [Extent(300, 10), Extent(149, 2)])
        fb.bind("rest", 0, [Extent(150, 10), Extent(400, 10)])
        assert fb.occupied_words == 170

    def test_release_then_rebind_same_words(self):
        fb = FrameBufferSet(1024)
        fb.bind("a", 0, [Extent(0, 100), Extent(500, 20)])
        fb.bind("b", 0, [Extent(100, 100)])
        fb.release("a", 0)
        assert fb._index == [(100, 200)]
        fb.bind("c", 0, [Extent(0, 100)])
        fb.bind("d", 0, [Extent(500, 20)])
        assert fb._index == [(0, 100), (100, 200), (500, 520)]
        with pytest.raises(AllocationError, match="overlaps c#0"):
            fb.bind("e", 0, [Extent(99, 1)])

    def test_clear_resets_the_index(self):
        fb = FrameBufferSet(1024)
        fb.bind("a", 0, [Extent(0, 1024)])
        fb.clear()
        fb.bind("b", 0, [Extent(10, 10)])
        assert fb.live_regions() == (("b", 0),)
        # A stale index would only send bind to the directory scan, so
        # look at the index itself.
        assert fb._index == [(10, 20)]

    def test_error_names_the_first_bound_overlapped_region(self):
        """Several regions overlap: the message names the earliest
        bound one (directory order), not the nearest in address."""
        fb = FrameBufferSet(1024)
        fb.bind("high", 0, [Extent(600, 100)])
        fb.bind("low", 0, [Extent(0, 100)])
        fb.bind("mid", 0, [Extent(300, 100)])
        with pytest.raises(AllocationError) as info:
            fb.bind("x", 0, [Extent(50, 10), Extent(350, 300)])
        assert str(info.value) == (
            "set0: x#0 extent [350..650) overlaps high#0 extent [600..700)"
        )

    def test_self_overlapping_region_rejected(self):
        fb = FrameBufferSet(1024)
        with pytest.raises(AllocationError, match="overlapping extents"):
            fb.bind("odd", 0, [Extent(0, 100), Extent(10, 5)])
        assert not fb.is_bound("odd", 0)
        assert fb._index == []
        fb.bind("ok", 0, [Extent(100, 5), Extent(0, 100)])

    def test_live_overlap_reported_before_self_overlap(self):
        fb = FrameBufferSet(1024)
        fb.bind("a", 0, [Extent(0, 10)])
        with pytest.raises(AllocationError, match="overlaps a#0"):
            fb.bind("b", 0, [Extent(5, 20), Extent(10, 20)])

    def test_live_region_extents_in_binding_order(self):
        fb = FrameBufferSet(1024)
        fb.bind("b", 1, [Extent(200, 10)])
        fb.bind("a", 0, [Extent(0, 5), Extent(20, 5)])
        assert fb.live_region_extents() == (
            ("b", 1, (Extent(200, 10),)),
            ("a", 0, (Extent(0, 5), Extent(20, 5))),
        )


class TestFunctionalStorage:
    def test_write_read_roundtrip(self):
        fb = FrameBufferSet(1024, functional=True)
        fb.bind("x", 0, [Extent(10, 4)])
        fb.write("x", 0, np.array([1, 2, 3, 4]))
        assert fb.read("x", 0).tolist() == [1, 2, 3, 4]

    def test_split_region_roundtrip(self):
        fb = FrameBufferSet(1024, functional=True)
        fb.bind("x", 0, [Extent(0, 2), Extent(100, 2)])
        fb.write("x", 0, np.array([7, 8, 9, 10]))
        assert fb.read("x", 0).tolist() == [7, 8, 9, 10]

    def test_size_mismatch_rejected(self):
        fb = FrameBufferSet(1024, functional=True)
        fb.bind("x", 0, [Extent(0, 4)])
        with pytest.raises(AllocationError, match="words"):
            fb.write("x", 0, np.array([1, 2]))

    def test_non_functional_write_rejected(self):
        fb = FrameBufferSet(1024)
        fb.bind("x", 0, [Extent(0, 4)])
        with pytest.raises(AllocationError, match="functional"):
            fb.write("x", 0, np.array([1, 2, 3, 4]))


class TestFrameBuffer:
    def test_two_sets(self):
        fb = FrameBuffer(512)
        assert fb[0].set_index == 0
        assert fb[1].set_index == 1
        assert fb.set_words == 512

    def test_sets_are_independent(self):
        fb = FrameBuffer(512)
        fb[0].bind("x", 0, [Extent(0, 100)])
        fb[1].bind("x", 0, [Extent(0, 100)])  # same name, other set: fine
        assert fb[0].occupied_words == fb[1].occupied_words == 100

    def test_clear_clears_both(self):
        fb = FrameBuffer(512)
        fb[0].bind("x", 0, [Extent(0, 100)])
        fb.clear()
        assert fb[0].occupied_words == 0
