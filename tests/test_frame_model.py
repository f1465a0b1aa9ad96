import pytest

from swig_toolkit import (
    AnnotatedImage,
    BoundingBox,
    GroundedFrame,
    NounVocabulary,
    PredictionRecord,
    VerbLexicon,
)
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


def test_an_empty_lexicon_is_an_error():
    with pytest.raises(FrameModelError, match="at least one verb"):
        VerbLexicon({})


def test_grounding_of_a_role_the_frame_lacks_is_a_key_error():
    with pytest.raises(KeyError, match="Tool"):
        GroundedFrame((("Agent", "man"),), (None,)).grounding_of("Tool")


def test_an_image_needs_three_annotator_frames():
    frame = GroundedFrame((("Agent", "man"),), (None,))
    with pytest.raises(FrameModelError, match="2 frames, not 3"):
        AnnotatedImage("img", 10, 10, "jumping", (frame, frame), {"Agent": None})


def test_a_prediction_needs_a_verb_ranking():
    with pytest.raises(FrameModelError, match="verb_ranking"):
        PredictionRecord("img", (), {})
