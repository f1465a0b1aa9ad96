import pytest

from swig_toolkit import BoundingBox, GroundedFrame, NounVocabulary, VerbLexicon
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


@pytest.mark.parametrize("coords", [
    (0, 0, 5e-324, 10),    # height / width overflows to infinity
    (0, 0, 10, 5e-324),    # height / width underflows to 0
    (0, 0, 5e-324, 0.4),   # the area underflows to 0
    (0, 0, 1e308, 1e308),  # the area overflows
    (0, 0, 1e154, 1e154),  # finite, but the sum of two such areas overflows
], ids=["aspect-infinite", "aspect-zero", "area-zero", "area-infinite", "area-over-half"])
def test_a_box_needs_a_finite_area_and_a_finite_non_zero_aspect_ratio(coords):
    with pytest.raises(FrameModelError, match="area must be positive and at most half the .* aspect ratio"):
        BoundingBox(*coords)


class TestNounVocabulary:
    def test_null_not_a_member(self):
        with pytest.raises(FrameModelError):
            NounVocabulary(frozenset({"man", ""}))


class TestGroundedFrame:
    def test_parallel_lists_enforced(self):
        with pytest.raises(FrameModelError):
            GroundedFrame((("Agent", "man"),), (None, None))


def test_an_empty_lexicon_is_an_error():
    with pytest.raises(FrameModelError, match="at least one verb"):
        VerbLexicon({})


def test_grounding_of_a_role_the_frame_lacks_is_a_key_error():
    with pytest.raises(KeyError, match="Tool"):
        GroundedFrame((("Agent", "man"),), (None,)).grounding_of("Tool")

