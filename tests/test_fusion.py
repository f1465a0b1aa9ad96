import random

import numpy as np
import pytest

from swig_toolkit import BoundingBox, DetectionSet, GroundedFrame, assign_groundings
from swig_toolkit.fusion import FusionError
from conftest import make_box

NOUN_INDEX = {"man": 0, "dough": 1, "sofa": 2}


def detection_set(scores, n_boxes=None):
    scores = np.asarray(scores, dtype=float)
    n_boxes = n_boxes or scores.shape[0]
    boxes = tuple(BoundingBox(i * 10, 0, i * 10 + 5, 5) for i in range(n_boxes))
    return DetectionSet(boxes, scores, NOUN_INDEX)


def kneading_frame(agent="man", item="dough", place="kitchen"):
    return GroundedFrame(
        (("Agent", agent), ("Item", item), ("Place", place)),
        (None, None, None),
    )


class TestAssignGroundings:
    def test_single_box_above_threshold(self):
        det = detection_set([[0.0, 3.0, 0.0]])
        fused = assign_groundings(kneading_frame(), det)
        assert fused.grounding_of("Item") == det.boxes[0]

    def test_all_scores_below_threshold(self):
        det = detection_set([[-10.0, -10.0, -10.0]])
        fused = assign_groundings(kneading_frame(), det)
        assert fused.grounding_of("Agent") is None
        assert fused.grounding_of("Item") is None

    def test_place_always_ungrounded(self):
        det = detection_set([[50.0, 50.0, 50.0]])
        fused = assign_groundings(kneading_frame(place="man"), det)
        assert fused.grounding_of("Place") is None

    def test_null_noun_ungrounded(self):
        det = detection_set([[50.0, 50.0, 50.0]])
        fused = assign_groundings(kneading_frame(item=""), det)
        assert fused.grounding_of("Item") is None

    def test_two_roles_share_one_box(self):
        det = detection_set([[5.0, 1.0, 0.0], [2.0, 0.5, 0.0]])
        frame = GroundedFrame(
            (("Agent", "man"), ("Item", "man"), ("Place", "kitchen")),
            (None, None, None),
        )
        fused = assign_groundings(frame, det)
        assert fused.grounding_of("Agent") == det.boxes[0]
        assert fused.grounding_of("Item") == det.boxes[0]

    def test_argmax_tie_breaks_to_lowest_index(self):
        det = detection_set([[2.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        fused = assign_groundings(kneading_frame(item="man"), det)
        assert fused.grounding_of("Agent") == det.boxes[0]

    def test_unknown_noun_errors(self):
        det = detection_set([[1.0, 1.0, 1.0]])
        with pytest.raises(FusionError, match="absent from detection vocabulary"):
            assign_groundings(kneading_frame(agent="cat"), det)

    def test_threshold_boundary_inclusive(self):
        det = detection_set([[-4.0, -4.001, 0.0]])
        fused = assign_groundings(kneading_frame(), det, threshold=-4.0)
        assert fused.grounding_of("Agent") == det.boxes[0]
        assert fused.grounding_of("Item") is None

    def test_output_boxes_come_from_input(self):
        rng = random.Random(4)
        scores = np.array([[rng.uniform(-8, 8) for _ in range(3)] for _ in range(10)])
        det = DetectionSet(tuple(make_box(rng) for _ in range(10)), scores, NOUN_INDEX)
        fused = assign_groundings(kneading_frame(), det)
        for box in fused.groundings:
            assert box is None or box in det.boxes

    def test_threshold_monotone(self):
        rng = random.Random(9)
        for _ in range(50):
            scores = np.array([[rng.uniform(-8, 8) for _ in range(3)] for _ in range(5)])
            det = DetectionSet(tuple(make_box(rng) for _ in range(5)), scores, NOUN_INDEX)
            frame = kneading_frame()
            counts = []
            for threshold in (-6.0, -4.0, -2.0, 0.0, 4.0):
                fused = assign_groundings(frame, det, threshold)
                counts.append(sum(b is not None for b in fused.groundings))
            assert counts == sorted(counts, reverse=True)

    def test_empty_detections(self):
        det = DetectionSet((), np.zeros((0, 3)), NOUN_INDEX)
        fused = assign_groundings(kneading_frame(), det)
        assert all(b is None for b in fused.groundings)


def test_equals_the_per_role_first_maximum_reference():
    """Logits and thresholds on a five-value grid make ties and logits equal
    to the threshold common; the reference grounds each role with the first
    box of maximal logit for its noun, kept when that logit is >= threshold."""
    rng = random.Random(11)
    grid = (-6.0, -4.0, -2.0, 0.0, 2.0)
    nouns = ("man", "dough", "sofa", "")
    ties = 0
    for trial in range(300):
        n_boxes = trial % 5  # 0 and 1 boxes included
        scores = np.array([[rng.choice(grid) for _ in NOUN_INDEX] for _ in range(n_boxes)])
        det = detection_set(scores.reshape(n_boxes, len(NOUN_INDEX)), n_boxes)
        frame = GroundedFrame(
            tuple((role, rng.choice(nouns)) for role in ("Agent", "Item", "Tool", "Place")),
            (None,) * 4,
        )
        threshold = rng.choice(grid)
        expected = []
        for role, noun in frame.role_values:
            if noun == "" or role == "Place" or n_boxes == 0:
                expected.append(None)
                continue
            col = [row[NOUN_INDEX[noun]] for row in scores]
            first = col.index(max(col))
            ties += col.count(max(col)) > 1
            expected.append(det.boxes[first] if col[first] >= threshold else None)
        assert assign_groundings(frame, det, threshold).groundings == tuple(expected), trial
    assert ties > 100


def test_fewer_score_rows_than_boxes_is_an_error():
    with pytest.raises(FusionError, match="1 rows for 2 boxes"):
        detection_set([[0.0, 1.0, 2.0]], n_boxes=2)
