import pytest

from swig_toolkit import BoundingBox, GroundedFrame, NounVocabulary
from swig_toolkit.frame_model import FrameModelError


class TestBoundingBox:
    def test_valid(self):
        b = BoundingBox(1, 2, 4, 8)
        assert b.width == 3 and b.height == 6 and b.area == 18

    @pytest.mark.parametrize("coords", [
        (5, 0, 5, 10),   # zero width
        (0, 10, 10, 5),  # inverted y
        (-1, 0, 5, 5),   # negative
        (0, 0, float("nan"), 5),
        (0, 0, float("inf"), 5),
    ])
    def test_invalid(self, coords):
        with pytest.raises(FrameModelError):
            BoundingBox(*coords)

    def test_clamped(self):
        b = BoundingBox(10, 10, 150, 90)
        assert b.clamped(100, 100) == BoundingBox(10, 10, 100, 90)


class TestNounVocabulary:
    def test_null_not_a_member(self):
        with pytest.raises(FrameModelError):
            NounVocabulary(frozenset({"man", ""}))


class TestGroundedFrame:
    def test_parallel_lists_enforced(self):
        with pytest.raises(FrameModelError):
            GroundedFrame((("Agent", "man"),), (None, None))
