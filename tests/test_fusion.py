import contextlib
import io
import json
import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import fuse_naive
from swig_toolkit import BoundingBox, DetectionSet, GroundedFrame, assign_groundings
from swig_toolkit.cli import main
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


def test_noun_scores_must_be_two_dimensional():
    with pytest.raises(FusionError, match=r"noun_scores: must be 2-D .* got shape \(1,\)"):
        DetectionSet((BoundingBox(0, 0, 1, 1),), np.zeros(1), NOUN_INDEX)


@pytest.mark.parametrize("column", [1, -1])
def test_a_noun_column_outside_the_scores_is_an_error(column):
    with pytest.raises(FusionError, match=rf"noun_index\['man'\]: column {column} outside the 1"):
        DetectionSet((BoundingBox(0, 0, 1, 1),), np.zeros((1, 1)), {"man": column})


# ---- `swig fuse` against the late-fusion oracle -------------------------------

FUSE_LEXICON = {"kneading": ["Agent", "Item", "Place"], "jumping": ["Agent", "Place"],
                "carrying": ["Agent", "Item", "Tool"]}
DETECTED = ["man", "dough", "sofa", "dog"]  # "cat" and "kitchen" are never detected
GRID = [-6.0, -4.0, -2.0, -0.0, 0.0, 2, 2.0]  # ties are common, and 2 is a JSON int
BOXES = [[0, 0, 5, 5], [1, 1, 4, 4], [2.5, 0, 9, 3.5], [0, 1, 2, 8]]
NAN, INF = float("nan"), float("inf")


@st.composite
def fuse_files(draw):
    """(predictions, detections, threshold): well-formed files whose faults,
    if any, are fusion's own or a non-finite logit."""
    ids, preds = draw(st.lists(st.sampled_from("abc"), unique=True, min_size=1, max_size=3)), []
    for image_id in ids:
        framed = draw(st.lists(st.sampled_from(sorted(FUSE_LEXICON)), unique=True, max_size=3))
        extra = draw(st.lists(st.sampled_from(["zz", "kneading"]), max_size=2))  # may repeat a framed verb
        ranked = draw(st.permutations(framed + extra))
        frames = {verb: {"nouns": {role: draw(st.sampled_from(DETECTED * 2 + ["", "cat"]))
                                   for role in FUSE_LEXICON[verb]}}
                  for verb in draw(st.permutations(framed))}
        preds.append({"id": image_id, "verbs": ranked or ["zz"], "frames": frames})
    named = [i for i in ids if draw(st.sampled_from([True] * 7 + [False]))]  # most named images
    dets = []
    for image_id in draw(st.permutations(named + ["x"] * draw(st.booleans()))):  # "x": no prediction names it
        boxes = [draw(st.sampled_from(BOXES)) for _ in range(draw(st.sampled_from([0, 1, 2, 2, 3])))]
        nouns = draw(st.permutations(DETECTED))[:draw(st.sampled_from([2, 3, 4, 4, 4]))]
        dets.append({"id": image_id, "boxes": boxes, "nouns": nouns,
                     "noun_scores": [[draw(st.sampled_from(GRID)) for _ in nouns] for _ in boxes]})
    cells = [(det, r, c) for det in dets for r, row in enumerate(det["noun_scores"]) for c in range(len(row))]
    poison = draw(st.sampled_from([None] * 12 + [NAN, INF, -INF]))  # a non-finite logit, maybe
    if poison is not None and cells:
        det, r, c = draw(st.sampled_from(cells))
        det["noun_scores"][r][c] = poison
    return preds, dets, draw(st.sampled_from([-4.0, -2.0, 0.0, -0.0, 2.0]))

def pred(image_id="a", verbs=None, **frames):
    return {"id": image_id, "verbs": verbs or list(frames),
            "frames": {verb: {"nouns": nouns} for verb, nouns in frames.items()}}


def det(image_id="a", boxes=BOXES[:2], nouns=("man", "dough"), scores=((1.0, -9.0), (2.0, 3.0))):
    return {"id": image_id, "boxes": list(boxes), "nouns": list(nouns),
            "noun_scores": [list(row) for row in scores]}


KNEAD = {"Agent": "man", "Item": "dough", "Place": "kitchen"}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(files=fuse_files())
@example(files=([pred(kneading=KNEAD)], [det(boxes=BOXES[:3], scores=[[-0.0, 2.0], [0.0, 2.0], [0.0, 1.0]])],
                0.0))  # ties, -0.0 against 0.0 at the threshold: the first row wins
@example(files=([pred(kneading=KNEAD)], [det(scores=[[0.0, 2], [-0.0, 2.0]])], -0.0))
@example(files=([pred(kneading=KNEAD)], [det(boxes=BOXES[:1], scores=[[-4.0, -4.000001]])],
                -4.0))  # a logit exactly at the threshold grounds; one just below does not
@example(files=([pred(kneading={"Agent": "", "Item": "dough", "Place": "man"}),
                 pred("b", jumping={"Agent": "man", "Place": "kitchen"})],
                [det(), det("b")], -4.0))  # a null noun, and Place with a detected and an absent noun
@example(files=([pred(kneading={"Agent": "cat", "Item": "dough", "Place": ""})],
                [det(boxes=[], nouns=["sofa"], scores=[])], -4.0))  # no boxes: absent nouns pass
@example(files=([pred(kneading=KNEAD)], [det(nouns=["dough", "man"], scores=[[3.0, 1.0], [-9.0, 2.0]])],
                -4.0))  # the detection file lists the nouns in another order
@example(files=([pred(verbs=["zz", "jumping", "kneading"], kneading=KNEAD)], [det()],
                -4.0))  # ranked verbs with no frame, one not in the lexicon
@example(files=([pred("b", kneading=KNEAD)], [det("x"), det("b"), det("a")], -4.0))  # unnamed images
@example(files=([pred(kneading=dict(KNEAD, Item="cat")), pred("b", kneading=KNEAD)], [det()],
                -4.0))  # an absent noun before a record with no detections
def test_fuse_writes_the_oracles_fusion_or_its_first_fault(files):
    preds, dets, threshold = files
    fused, error = fuse_naive(preds, dets, FUSE_LEXICON, threshold)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        for name, value in (("preds.json", preds), ("dets.json", dets), ("lexicon.json", FUSE_LEXICON)):
            with open(os.path.join(d, name), "w", encoding="utf-8") as f:
                json.dump(value, f)  # a non-finite logit is written as NaN or Infinity
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(["fuse", "--frames", os.path.join(d, "preds.json"), "--detections",
                           os.path.join(d, "dets.json"), "--lexicon", os.path.join(d, "lexicon.json"),
                           "--fusion-threshold", repr(threshold), "--out", "-"])
    if error is None:
        assert (status, err.getvalue()) == (0, "")
        assert out.getvalue() == json.dumps(fused, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        assert (status, out.getvalue(), err.getvalue()) == (1, "", f"error: {error}\n")
