import copy
import gc
import io
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import compute_stats_naive, load_dataset_naive
from swig_toolkit import BoundingBox, compute_stats, dataset_io, load_dataset, merge_worker_boxes
from swig_toolkit.dataset_io import (
    DatasetError,
    frame_from_json,
    load_boxes,
    load_chain_nodes,
    load_detection_sets,
    load_object_detections,
    load_predictions,
    load_situations,
    parse_dataset,
    parse_lexicon,
    parse_vocabulary,
)
from swig_toolkit.frame_model import FrameModelError, GroundedFrame, frame_to_json

LEXICON_JSON = {
    "kneading": ["Agent", "Item", "Place"],
    "jumping": ["Agent", "Place"],
}
VOCAB_JSON = ["man", "woman", "dough", "kitchen", "street"]


def image_record(image_id="img1.jpg", verb="kneading", **overrides):
    rec = {
        "id": image_id,
        "width": 100,
        "height": 100,
        "verb": verb,
        "frames": [
            {"Agent": "man", "Item": "dough", "Place": "kitchen"},
            {"Agent": "man", "Item": "dough", "Place": ""},
            {"Agent": "woman", "Item": "dough", "Place": "kitchen"},
        ],
        "boxes": {"Agent": [0, 0, 50, 80], "Item": [20, 30, 40, 50], "Place": None},
    }
    rec.update(overrides)
    return rec


def boxes_of(rows) -> tuple:
    """A table's (n, 4) box rows as BoundingBoxes, None for a NaN row."""
    return tuple(None if b[0] != b[0] else BoundingBox(*b) for b in rows.tolist())


def gt_boxes(table, k) -> dict:
    """Image k's {role: merged gt box or None}, read from the DatasetTable's columns."""
    return dict(zip(table.lexicon.roles(table.verbs[k]),
                    boxes_of(table.boxes[table.starts[k]:table.starts[k + 1]])))


def frames_of(table, r) -> dict:
    """Record r's {verb: GroundedFrame}, read from the PredictionTable's columns."""
    return {verb: GroundedFrame(tuple(zip(table.roles[row], table.nouns[row])),
                                boxes_of(table.boxes[table.starts[row]:table.starts[row + 1]]))
            for verb, row in table.frames[r].items()}


class TestMergeWorkerBoxes:
    def test_identical(self):
        b = BoundingBox(10, 10, 20, 20)
        assert merge_worker_boxes([b, b, b]) == b

    def test_mean_per_coordinate(self):
        boxes = [BoundingBox(0, 0, 10, 10), BoundingBox(2, 2, 12, 12), BoundingBox(4, 4, 14, 14)]
        assert merge_worker_boxes(boxes) == BoundingBox(2, 2, 12, 12)

    def test_uneven_mean(self):
        boxes = [BoundingBox(0, 0, 2, 2), BoundingBox(0, 0, 2, 2), BoundingBox(3, 3, 9, 9)]
        merged = merge_worker_boxes(boxes)
        assert merged == BoundingBox(1, 1, 13 / 3, 13 / 3)

    def test_wrong_count(self):
        b = BoundingBox(0, 0, 1, 1)
        with pytest.raises(DatasetError):
            merge_worker_boxes([b, b])


class TestLoadDataset:
    def test_round_trip(self):
        ds = load_dataset([image_record()], LEXICON_JSON, VOCAB_JSON)
        assert ds.ids == ["img1.jpg"] and ds.verbs == ["kneading"]
        assert gt_boxes(ds, 0)["Agent"] == BoundingBox(0, 0, 50, 80)
        assert gt_boxes(ds, 0)["Place"] is None

    def test_empty_dataset(self):
        ds = load_dataset([], LEXICON_JSON, VOCAB_JSON)
        assert ds.ids == [] and ds.boxes.shape == (0, 4)

    def test_unknown_verb(self):
        with pytest.raises(DatasetError, match="unknown verb"):
            load_dataset([image_record(verb="flying")], LEXICON_JSON, VOCAB_JSON)

    def test_unknown_noun(self):
        rec = image_record()
        rec["frames"][0]["Agent"] = "astronaut"
        with pytest.raises(DatasetError, match="unknown noun"):
            load_dataset([rec], LEXICON_JSON, VOCAB_JSON)

    def test_missing_role_is_an_error(self):
        rec = image_record()
        del rec["frames"][1]["Place"]
        with pytest.raises(DatasetError, match="missing role 'Place'"):
            load_dataset([rec], LEXICON_JSON, VOCAB_JSON)

    def test_duplicate_id(self):
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset([image_record(), image_record()], LEXICON_JSON, VOCAB_JSON)

    def test_sentinel_box_means_ungrounded(self):
        rec = image_record()
        rec["boxes"]["Item"] = [-1, -1, -1, -1]
        ds = load_dataset([rec], LEXICON_JSON, VOCAB_JSON)
        assert gt_boxes(ds, 0)["Item"] is None

    def test_out_of_bounds_box_clamped_with_warning(self):
        rec = image_record()
        rec["boxes"]["Agent"] = [0, 0, 120, 80]
        warnings = []
        ds = load_dataset([rec], LEXICON_JSON, VOCAB_JSON, warnings=warnings)
        assert gt_boxes(ds, 0)["Agent"] == BoundingBox(0, 0, 100, 80)
        assert warnings and "clamped" in warnings[0]

    def test_worker_boxes_are_merged(self):
        rec = image_record()
        del rec["boxes"]
        rec["worker_boxes"] = {
            "Agent": [[0, 0, 10, 10], [2, 2, 12, 12], [4, 4, 14, 14]],
            "Item": None,
            "Place": None,
        }
        ds = load_dataset([rec], LEXICON_JSON, VOCAB_JSON)
        assert gt_boxes(ds, 0)["Agent"] == BoundingBox(2, 2, 12, 12)
        assert gt_boxes(ds, 0)["Item"] is None

    def test_deterministic(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([image_record(), image_record("img2.jpg", "jumping", frames=[
            {"Agent": "man", "Place": "street"}] * 3, boxes={"Agent": [1, 1, 9, 9], "Place": None})]))
        a = load_dataset(str(path), LEXICON_JSON, VOCAB_JSON)
        b = load_dataset(str(path), LEXICON_JSON, VOCAB_JSON)
        assert plain(a) == plain(b)


class TestComputeStats:
    def test_slot_counts(self):
        # 3 roles x 3 annotators = 9 slots; one Place null among them
        ds = load_dataset([image_record()], LEXICON_JSON, VOCAB_JSON)
        stats = compute_stats(ds)
        assert stats["total_noun_slots"] == 9
        assert stats["non_null_slots"] == 8
        # Agent and Item have boxes: annotators with non-null nouns there all count
        assert stats["grounded_slots"] == 6
        assert stats["mean_frame_length"] == 3.0

    def test_place_never_grounded(self, rng, lexicon, vocabulary):
        from conftest import load_split, random_dataset

        ds = random_dataset(rng, lexicon, vocabulary, n_verbs=4, images_per_verb=5)
        stats = compute_stats(load_split(ds))
        assert stats["role_grounding_rate"]["Place"] == 0.0
        assert stats["grounded_slots"] <= stats["non_null_slots"] <= stats["total_noun_slots"]

    def test_scale_and_aspect(self):
        rec = image_record(boxes={"Agent": [0, 0, 50, 50], "Item": None, "Place": None})
        ds = load_dataset([rec], LEXICON_JSON, VOCAB_JSON)
        stats = compute_stats(ds)
        sample = stats["scale_aspect_samples"][0]
        assert (sample["role"], sample["scale"], sample["aspect"]) == ("Agent", 0.5, 1.0)

    def test_grounded_fraction(self):
        ds = load_dataset([image_record()], LEXICON_JSON, VOCAB_JSON)
        stats = compute_stats(ds)
        assert stats["grounded_fraction"] == pytest.approx(6 / 8)


class TestLoadPredictions:
    def test_parses_frames_and_flags(self):
        lexicon = parse_lexicon(LEXICON_JSON)
        preds = load_predictions(
            [
                {
                    "id": "img1.jpg",
                    "verbs": ["kneading", "jumping"],
                    "frames": {
                        "kneading": {
                            "nouns": {"Agent": "man", "Item": "dough", "Place": "kitchen"},
                            "boxes": {"Agent": [0, 0, 10, 10], "Item": None, "Place": None},
                        }
                    },
                }
            ],
            lexicon,
        )
        assert preds.ids == ["img1.jpg"] and preds.rankings == [("kneading", "jumping")]
        frame = frames_of(preds, 0)["kneading"]
        assert frame.grounding_of("Agent") == BoundingBox(0, 0, 10, 10)
        assert frame.groundings[1:] == (None, None)

    def test_grounded_flag_overrides_box(self):
        lexicon = parse_lexicon(LEXICON_JSON)
        preds = load_predictions(
            [
                {
                    "id": "x",
                    "verbs": ["jumping"],
                    "frames": {
                        "jumping": {
                            "nouns": {"Agent": "man", "Place": "street"},
                            "boxes": {"Agent": [0, 0, 10, 10], "Place": None},
                            "grounded": {"Agent": False, "Place": False},
                        }
                    },
                }
            ],
            lexicon,
        )
        assert frames_of(preds, 0)["jumping"].grounding_of("Agent") is None

    @pytest.mark.parametrize("flag", ["no", [1], 0, 1, None])
    def test_grounded_flag_must_be_a_boolean(self, flag):
        frame = {"nouns": {"Agent": "man", "Place": "street"},
                 "boxes": {"Agent": [0, 0, 10, 10], "Place": None}, "grounded": {"Agent": flag}}
        with pytest.raises(DatasetError, match=r"^prediction 'x', frames\['jumping'\], "
                                               r"grounded\['Agent'\]: must be a JSON boolean"):
            load_predictions([{"id": "x", "verbs": ["jumping"], "frames": {"jumping": frame}}],
                             parse_lexicon(LEXICON_JSON))

    def test_chain_nodes_honour_the_grounded_flag(self):
        (node,) = load_chain_nodes([{"verb": "jumping", "nouns": {"Agent": "man", "Place": "street"},
                                     "boxes": {"Agent": [0, 0, 10, 10], "Place": None},
                                     "grounded": {"Agent": False}}])
        assert node.frame.groundings == (None, None)

    def test_frame_from_json_inverts_frame_to_json(self, rng, lexicon, vocabulary):
        from conftest import random_dataset, random_prediction

        box = BoundingBox(1.0, 2.0, 30.0, 40.5)
        frames = [GroundedFrame((("Agent", "man"), ("Item", ""), ("Place", "kitchen")),
                                (None, None, None)),
                  GroundedFrame((("Agent", "man"), ("Item", "dough"), ("Place", "")),
                                (box, box, None))]
        for img in random_dataset(rng, lexicon, vocabulary).images:
            frames.extend(random_prediction(rng, lexicon, img).frames.values())
        assert any(all(b is None for b in f.groundings) for f in frames)  # with no box
        assert any(b is not None for f in frames for b in f.groundings)  # with boxes
        for f in frames:
            assert frame_from_json(frame_to_json(f), f.roles, "frame") == f

    def test_frame_serialization_round_trip(self, rng, lexicon, vocabulary):
        from conftest import random_dataset, random_prediction
        from swig_toolkit.frame_model import frame_to_json

        ds = random_dataset(rng, lexicon, vocabulary)
        for img in ds.images:
            pred = random_prediction(rng, lexicon, img)
            payload = [{
                "id": pred.image_id,
                "verbs": list(pred.verb_ranking),
                "frames": {verb: frame_to_json(f) for verb, f in pred.frames.items()},
            }]
            reloaded = load_predictions(payload, lexicon)
            assert frames_of(reloaded, 0) == pred.frames
            assert reloaded.rankings == [pred.verb_ranking]

    def test_missing_noun_errors(self):
        lexicon = parse_lexicon(LEXICON_JSON)
        with pytest.raises(DatasetError, match="missing noun"):
            load_predictions(
                [{"id": "x", "verbs": ["jumping"],
                  "frames": {"jumping": {"nouns": {"Agent": "man"}}}}],
                lexicon,
            )

    def test_an_empty_ranking_is_an_error(self):
        with pytest.raises(DatasetError, match=r"^prediction 'img', verbs: must be a non-empty list$"):
            load_predictions([{"id": "img", "verbs": [], "frames": {}}], parse_lexicon(LEXICON_JSON))

    @pytest.mark.parametrize("records,error", [
        ([{"id": "a", "verbs": ["jumping"],
           "frames": {"jumping": {"nouns": {"Agent": "man", "Place": "street"},
                                  "boxes": {"Agent": [5, 0, 1, 10]}}}},
          {"id": "b", "verbs": ["jumping"],
           "frames": {"jumping": {"nouns": {"Agent": 7, "Place": "street"}}}}],
         "prediction 'a', frames['jumping'], boxes['Agent']: "
         "box must satisfy x1 < x2 and y1 < y2: (5.0, 0.0, 1.0, 10.0)"),
        ([{"id": "a", "verbs": ["kneading"],
           "frames": {"kneading": {"nouns": {"Agent": "man", "Item": "dough"},
                                   "boxes": {"Agent": [0, 0, True, 10]}}}}],
         "prediction 'a', frames['kneading'], boxes['Agent']: "
         "box coordinates must be JSON numbers, got [0, 0, True, 10]"),
        ([{"id": "a", "verbs": ["kneading"],
           "frames": {"jumping": {"nouns": {"Agent": "man", "Place": "street"}},
                      "kneading": {"nouns": {"Agent": "man", "Item": "dough", "Place": ""},
                                   "boxes": {"Item": [0, 0, 10, float("inf")]}}}}],
         "prediction 'a', frames['kneading'], boxes['Item']: "
         "box coordinates must be finite: (0.0, 0.0, 10.0, inf)"),
    ], ids=["bad-box-then-next-record-noun", "bad-box-then-later-role-missing-noun",
            "unranked-verb-then-later-frame-bad-box"])
    def test_the_first_fault_in_file_order_is_the_error(self, records, error):
        with pytest.raises(DatasetError) as e:
            load_predictions(records, parse_lexicon(LEXICON_JSON))
        assert str(e.value) == error


def test_vocabulary_length_is_the_number_of_distinct_non_null_ids():
    assert len(parse_vocabulary(["man", "dough", "man", ""])) == 2
    assert len(parse_vocabulary({"man": {}, "": {}})) == 1


# ---- the dataset table against a plain per-record reader --------------------

NAIVE_LEXICON = {"kneading": ["Agent", "Item", "Place"], "jumping": ["Agent", "Place"],
                 "resting": ["Agent"]}
SIZE = st.integers(60, 120) | st.floats(60, 120)
LOW = st.integers(0, 50) | st.floats(0, 50)  # below every image size, so only x2 and y2 clamp
BOX = st.builds(lambda x, y, w, h: [x, y, x + w, y + h], LOW, LOW,
                st.integers(1, 80) | st.floats(0.5, 80), st.integers(1, 80) | st.floats(0.5, 80))
CROSSING = st.builds(lambda x, y, w: [x, y, x + w, y + 10], LOW, LOW,
                     st.integers(70, 120) | st.floats(70, 120))  # often past the right edge
OUTSIDE = [130, 0, 140, 10]  # right of every image: empty once clamped
OPTIONAL_BOX = st.none() | st.just([-1, -1, -1, -1]) | st.just([-1.0, -1, -1, -1]) | BOX | CROSSING
WORKERS = (st.none() | st.lists(BOX, min_size=3, max_size=3) | st.just([None, None, None])
           | st.lists(OPTIONAL_BOX, max_size=4).filter(  # 0 or 3 boxes besides null and the sentinel
               lambda boxes: sum(b is not None and -1 not in b for b in boxes) in (0, 3)))


@st.composite
def dataset_record(draw, image_id, forms):
    verb = draw(st.sampled_from(sorted(NAIVE_LEXICON)))
    roles = NAIVE_LEXICON[verb]
    rec = {"id": image_id, "width": draw(SIZE), "height": draw(SIZE), "verb": verb,
           "frames": [{r: draw(st.sampled_from(VOCAB_JSON + [""])) for r in roles}
                      for _ in range(3)]}
    form = draw(st.sampled_from(forms))
    if form == "boxes":
        rec["boxes"] = {r: None if r == "Place" else draw(OPTIONAL_BOX) for r in roles}
    elif form == "worker_boxes":
        rec["worker_boxes"] = {r: None if r == "Place" else draw(WORKERS) for r in roles}
    elif form == "null":
        rec["boxes"] = None
    if draw(st.integers(0, 29)) == 29:
        rec["width"] = 2**60 + 1  # a valid size with no exact float
    return rec


def _first_role(rec):
    return NAIVE_LEXICON.get(rec["verb"], ["Agent"])[0]


def _set_box(rec, role, box):
    if "worker_boxes" in rec:
        rec["worker_boxes"] = dict(rec["worker_boxes"] or {}, **{role: [box] * 3})
    else:
        rec["boxes"] = dict(rec.get("boxes") or {}, **{role: box})


FAULTS = {
    "unknown-noun": lambda recs, rec: rec["frames"][0].update({_first_role(rec): "astronaut"}),
    "missing-role": lambda recs, rec: rec["frames"][2].pop(_first_role(rec)),
    "noun-number": lambda recs, rec: rec["frames"][1].update({_first_role(rec): 5}),
    "frames-null": lambda recs, rec: rec.update(frames=None),
    "frame-string": lambda recs, rec: rec["frames"].__setitem__(0, "man"),
    "two-frames": lambda recs, rec: rec["frames"].pop(),
    "width-zero": lambda recs, rec: rec.update(width=0),
    "width-nan": lambda recs, rec: rec.update(width=float("nan")),
    "width-past-the-largest-float": lambda recs, rec: rec.update(width=2**1024 - 2**971 + 1),
    "width-int-overflow": lambda recs, rec: rec.update(width=10**400),
    "height-string": lambda recs, rec: rec.update(height="80"),
    "unknown-verb": lambda recs, rec: rec.update(verb="flying"),
    "place-grounded": lambda recs, rec: _set_box(rec, "Place", [0, 0, 5, 5]),
    "corners-swapped": lambda recs, rec: _set_box(rec, "Agent", [50, 0, 10, 10]),
    "three-coordinates": lambda recs, rec: _set_box(rec, "Agent", [0, 0, 10]),
    "coordinate-true": lambda recs, rec: _set_box(rec, "Agent", [0, 0, True, 10]),
    "empty-once-clamped": lambda recs, rec: _set_box(rec, "Agent", OUTSIDE),
    "boxes-as-list": lambda recs, rec: (rec.pop("worker_boxes", None),
                                        rec.update(boxes=[[0, 0, 1, 1]])),
    "two-workers": lambda recs, rec: (rec.pop("boxes", None),
                                      rec.update(worker_boxes={"Agent": [[0, 0, 5, 5]] * 2})),
    "worker-mean-overflow": lambda recs, rec: (rec.pop("boxes", None), rec.update(worker_boxes={
        "Agent": [[0, 0, 8e307, 1], [0, 0, 1, 8e307], [0, 0, 1, 1]]})),
    "worker-list-string": lambda recs, rec: (rec.pop("boxes", None),
                                             rec.update(worker_boxes={"Agent": "box"})),
    "duplicate-id": lambda recs, rec: recs.append(copy.deepcopy(rec)),
    "id-number": lambda recs, rec: rec.update(id=7),
    "record-not-object": lambda recs, rec: recs.append("oops"),
}


@st.composite
def dataset_file(draw):
    """Up to four records with distinct ids and zero or one injected fault;
    half the files hold no worker boxes."""
    forms = ["boxes", "absent", "null"] + draw(st.sampled_from([[], ["worker_boxes"]]))
    ids = draw(st.lists(st.sampled_from(["a.jpg", "b.jpg", "c.jpg", "d.jpg"]), max_size=4,
                        unique=True))
    records = [draw(dataset_record(i, forms)) for i in ids]
    fault = draw(st.sampled_from(sorted(FAULTS))) if draw(st.booleans()) else None
    if fault is not None and records:
        FAULTS[fault](records, records[draw(st.integers(0, len(records) - 1))])
    elif fault is not None:
        records.append("oops")
    return records


def plain(table):
    """A DatasetTable's images in the naive reader's form, each coordinate by its bits."""
    return [(image_id, repr(width), repr(height), verb, annotated,
             {r: None if b is None else tuple(float(c).hex() for c in b.as_list())
              for r, b in gt_boxes(table, k).items()})
            for k, (image_id, verb, (width, height), annotated) in enumerate(
                zip(table.ids, table.verbs, table.sizes, table.annotations))]


def naive_plain(image):
    image_id, width, height, verb, nouns, gt = image
    return (image_id, repr(width), repr(height), verb, nouns,
            {r: None if b is None else tuple(float(c).hex() for c in b) for r, b in gt.items()})


def read(text, warnings):
    return parse_dataset(io.StringIO(text), parse_lexicon(NAIVE_LEXICON),
                         parse_vocabulary(VOCAB_JSON), warnings)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(records=dataset_file())
@example(records=[image_record("d.jpg", "jumping", width=60, frames=[{"Agent": "man", "Place": "man"}] * 3,
                               boxes={"Agent": [0, 0, 70, 10]})] * 2)  # a clamped box, then its repeat
def test_the_dataset_table_and_its_stats_equal_a_plain_per_record_reader(records):
    text = json.dumps(records)
    images, expected_warnings, faulty = load_dataset_naive(json.loads(text), NAIVE_LEXICON,
                                                           VOCAB_JSON)
    warnings = []
    table, violations = read(text, warnings)
    # the table holds exactly the records that break no rule, read as the plain reader reads them
    assert plain(table) == list(map(naive_plain, images))
    # a faulty record's clamp warnings come too, in file order with the others: each warning is
    # the plain reader's next one or names a faulty record, whose label a valid record can share
    expected = iter(expected_warnings)
    pending = next(expected, None)
    for w in warnings:
        if w == pending:
            pending = next(expected, None)
        else:
            assert w.startswith(tuple(f"{label}," for label in faulty)), w
    assert pending is None
    if not faulty:
        assert violations == [] and warnings == expected_warnings
        loaded = load_dataset(io.StringIO(text), NAIVE_LEXICON, VOCAB_JSON)
        assert plain(loaded) == list(map(naive_plain, images))
        assert compute_stats(loaded) == compute_stats_naive(images, NAIVE_LEXICON)
        return
    # each violation names its record first; together they name exactly the faulty records
    assert {re.match(r"image '[^']*'|record #\d+", v).group() for v in violations} == set(faulty)
    with pytest.raises(DatasetError) as error:
        load_dataset(io.StringIO(text), NAIVE_LEXICON, VOCAB_JSON)
    more = f" (and {len(violations) - 1} more)" if len(violations) > 1 else ""
    assert str(error.value) == violations[0] + more


def test_a_file_with_every_merged_box_form_is_read_by_columns():
    records = [
        image_record("a.jpg", width=100.5, boxes={"Agent": [0, 0, 120, 80], "Item": [-1] * 4}),
        image_record("b.jpg", boxes={"Agent": [0, 0, 10, 10], "Item": [-1.0, -1, -1, -1]}),
        image_record("c.jpg", "jumping", frames=[{"Agent": "man", "Place": ""}] * 3,
                     boxes={"Agent": [5, 90, 20, 130.5]}),
        image_record("d.jpg", boxes=None),
        dict(image_record("e.jpg"), worker_boxes={
            "Agent": [[0, 0, 10, 10], None, [2, 2, 12, 12.5], [-1] * 4, [4, 4, 400, 14]],
            "Item": [None, [-1.0, -1, -1, -1]], "Place": None}),
    ]
    warnings = []
    table, violations = parse_dataset(records, parse_lexicon(LEXICON_JSON),
                                      parse_vocabulary(VOCAB_JSON), warnings)
    images, expected_warnings, faulty = load_dataset_naive(records, LEXICON_JSON, VOCAB_JSON)
    assert violations == [] and faulty == []
    assert plain(table) == list(map(naive_plain, images))
    assert warnings == expected_warnings == [
        "image 'a.jpg', role 'Agent': box clamped to image bounds",
        "image 'c.jpg', role 'Agent': box clamped to image bounds",
        "image 'e.jpg', role 'Agent': box clamped to image bounds"]


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_each_fault_is_refused_by_the_columns_and_named_by_the_walk(fault):
    """The faulty record is left out of the table's columns, and the walk's
    lines name exactly the records the plain reader finds faulty."""
    records = [image_record("a.jpg"), image_record("b.jpg", "jumping", frames=[
        {"Agent": "man", "Place": "street"}] * 3, boxes={"Agent": [0, 0, 120, 50]})]
    FAULTS[fault](records, records[1])
    table, violations = parse_dataset(records, parse_lexicon(LEXICON_JSON),
                                      parse_vocabulary(VOCAB_JSON), [])
    images, _, faulty = load_dataset_naive(records, LEXICON_JSON, VOCAB_JSON)
    assert {re.match(r"image '[^']*'|record #\d+", v).group() for v in violations} == set(faulty)
    assert faulty and table.ids == [image[0] for image in images]

# ---- the exact lines of faulty files ----------------------------------------

def two_records(form):
    """Two valid records in one box form; b.jpg's Agent box clamps to its 100x100 image."""
    records = [image_record("a.jpg"), image_record("b.jpg", "jumping", frames=[
        {"Agent": "man", "Place": "street"}] * 3, boxes={"Agent": [0, 0, 120, 50]})]
    if form == "worker_boxes":
        for rec in records:
            rec["worker_boxes"] = {role: None if box is None else [box] * 3
                                   for role, box in rec.pop("boxes").items()}
    return records


PINNED_RECORDS = {
    "everything-at-once": [{
        "id": 7, "width": 0, "height": 100, "verb": "kneading",
        "frames": [{"Agent": "man", "Item": "dough", "Place": ""}] * 2,
        "boxes": {"Agent": [0, 0, 10], "Item": [20, 30, 40, 50], "Place": None}}],
    "worker-role-with-one-malformed-box": [{
        "id": "a.jpg", "width": 100, "height": 100, "verb": "kneading",
        "frames": [{"Agent": "man", "Item": "dough", "Place": ""}] * 3,
        "worker_boxes": {"Agent": [[0, 0, 10, 10], [0, 0, "10", 10], [2, 2, 12, 12]],
                         "Item": [[20, 30, 40, 50]] * 3}}],
    "worker-list-given-as-a-string": [{
        "id": "a.jpg", "width": 100, "height": 100, "verb": "kneading",
        "frames": [{"Agent": "man", "Item": "dough", "Place": ""}] * 3,
        "worker_boxes": {"Agent": [[0, 0, 10, 10], [5, 5, 1, 1], None], "Item": "box",
                         "Place": [[0, 0, 5, 5]] * 3}}],
    "four-worker-boxes-are-no-box": [{
        "id": "a.jpg", "width": 100, "height": 100, "verb": "kneading",
        "frames": [{"Agent": "man", "Item": "dough", "Place": ""}] * 3,
        "worker_boxes": {"Agent": [[0, 0, 500, 5]] * 4, "Place": [[0, 0, 5, 5]] * 4}}],
    "faulty-record-whose-other-box-clamps": [{
        "id": "a.jpg", "width": 100, "height": 100, "verb": "kneading",
        "frames": [{"Agent": "man", "Item": "astronaut", "Place": ""}] * 3,
        "boxes": {"Agent": [0, 0, 150, 80], "Item": [20, 30, 40, 50]}}],
}

PINNED = [  # (case, box form or None for a record of PINNED_RECORDS, violations, warnings)
    ("boxes-as-list", "boxes",
     ["image 'b.jpg', boxes: must be a JSON object, got [[0, 0, 1, 1]]"],
     []),
    ("coordinate-true", "boxes",
     ["image 'b.jpg', boxes['Agent']: box coordinates must be JSON numbers, got [0, 0, True, 10]"],
     []),
    ("coordinate-true", "worker_boxes",
     ["image 'b.jpg', worker_boxes['Agent'][0]: box coordinates must be JSON numbers, got [0, 0, True, 10]",
      "image 'b.jpg', worker_boxes['Agent'][1]: box coordinates must be JSON numbers, got [0, 0, True, 10]",
      "image 'b.jpg', worker_boxes['Agent'][2]: box coordinates must be JSON numbers, got [0, 0, True, 10]"],
     []),
    ("corners-swapped", "boxes",
     ["image 'b.jpg', boxes['Agent']: box must satisfy x1 < x2 and y1 < y2: (50.0, 0.0, 10.0, 10.0)"],
     []),
    ("corners-swapped", "worker_boxes",
     ["image 'b.jpg', worker_boxes['Agent'][0]: box must satisfy x1 < x2 and y1 < y2: (50.0, 0.0, 10.0, 10.0)",
      "image 'b.jpg', worker_boxes['Agent'][1]: box must satisfy x1 < x2 and y1 < y2: (50.0, 0.0, 10.0, 10.0)",
      "image 'b.jpg', worker_boxes['Agent'][2]: box must satisfy x1 < x2 and y1 < y2: (50.0, 0.0, 10.0, 10.0)"],
     []),
    ("duplicate-id", "boxes",
     ["image 'b.jpg': duplicate image id (record #2)"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds",
      "image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("duplicate-id", "worker_boxes",
     ["image 'b.jpg': duplicate image id (record #2)"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds",
      "image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("empty-once-clamped", "boxes",
     ["image 'b.jpg', boxes['Agent']: box [130.0, 0.0, 140.0, 10.0] clamped to the 100x100 image: box must satisfy x1 < x2 and y1 < y2: (100, 0.0, 100, 10.0)"],
     []),
    ("empty-once-clamped", "worker_boxes",
     ["image 'b.jpg', worker_boxes['Agent']: box [130.0, 0.0, 140.0, 10.0] clamped to the 100x100 image: box must satisfy x1 < x2 and y1 < y2: (100, 0.0, 100, 10.0)"],
     []),
    ("frame-string", "boxes",
     ["image 'b.jpg', frames[0]: must be a JSON object {role: noun}, got 'man'"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("frame-string", "worker_boxes",
     ["image 'b.jpg', frames[0]: must be a JSON object {role: noun}, got 'man'"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("frames-null", "boxes",
     ["image 'b.jpg', frames: must be a JSON array, got None"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("frames-null", "worker_boxes",
     ["image 'b.jpg', frames: must be a JSON array, got None"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("height-string", "boxes",
     ["image 'b.jpg', height: must be a positive number, got '80'"],
     []),
    ("height-string", "worker_boxes",
     ["image 'b.jpg', height: must be a positive number, got '80'"],
     []),
    ("id-number", "boxes",
     ["record #1, id: must be a string, got 7"],
     ["record #1, role 'Agent': box clamped to image bounds"]),
    ("id-number", "worker_boxes",
     ["record #1, id: must be a string, got 7"],
     ["record #1, role 'Agent': box clamped to image bounds"]),
    ("missing-role", "boxes",
     ["image 'b.jpg', frames[0]: missing role 'Agent'",
      "image 'b.jpg', frames[1]: missing role 'Agent'",
      "image 'b.jpg', frames[2]: missing role 'Agent'"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("missing-role", "worker_boxes",
     ["image 'b.jpg', frames[0]: missing role 'Agent'",
      "image 'b.jpg', frames[1]: missing role 'Agent'",
      "image 'b.jpg', frames[2]: missing role 'Agent'"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("noun-number", "boxes",
     ["image 'b.jpg', frames[0]['Agent']: noun must be a string, got 5",
      "image 'b.jpg', frames[1]['Agent']: noun must be a string, got 5",
      "image 'b.jpg', frames[2]['Agent']: noun must be a string, got 5"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("noun-number", "worker_boxes",
     ["image 'b.jpg', frames[0]['Agent']: noun must be a string, got 5",
      "image 'b.jpg', frames[1]['Agent']: noun must be a string, got 5",
      "image 'b.jpg', frames[2]['Agent']: noun must be a string, got 5"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("place-grounded", "boxes",
     ["image 'b.jpg', boxes['Place']: place-grounded: the Place role is never grounded"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("place-grounded", "worker_boxes",
     ["image 'b.jpg', worker_boxes['Place']: place-grounded: the Place role is never grounded"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("record-not-object", "boxes",
     ["record #2: must be a JSON object, got 'oops'"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("record-not-object", "worker_boxes",
     ["record #2: must be a JSON object, got 'oops'"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("three-coordinates", "boxes",
     ["image 'b.jpg', boxes['Agent']: box must be [x1,y1,x2,y2] or null, got [0, 0, 10]"],
     []),
    ("three-coordinates", "worker_boxes",
     ["image 'b.jpg', worker_boxes['Agent'][0]: box must be [x1,y1,x2,y2] or null, got [0, 0, 10]",
      "image 'b.jpg', worker_boxes['Agent'][1]: box must be [x1,y1,x2,y2] or null, got [0, 0, 10]",
      "image 'b.jpg', worker_boxes['Agent'][2]: box must be [x1,y1,x2,y2] or null, got [0, 0, 10]"],
     []),
    ("two-frames", "boxes",
     ["image 'b.jpg', frames: must list exactly 3 annotator frames, got 2"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("two-frames", "worker_boxes",
     ["image 'b.jpg', frames: must list exactly 3 annotator frames, got 2"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("two-workers", "boxes",
     ["image 'b.jpg', worker_boxes['Agent']: expected exactly 3 worker boxes, got 2"],
     []),
    ("unknown-noun", "boxes",
     ["image 'b.jpg', frames[0]['Agent']: unknown noun 'astronaut'",
      "image 'b.jpg', frames[1]['Agent']: unknown noun 'astronaut'",
      "image 'b.jpg', frames[2]['Agent']: unknown noun 'astronaut'"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("unknown-noun", "worker_boxes",
     ["image 'b.jpg', frames[0]['Agent']: unknown noun 'astronaut'",
      "image 'b.jpg', frames[1]['Agent']: unknown noun 'astronaut'",
      "image 'b.jpg', frames[2]['Agent']: unknown noun 'astronaut'"],
     ["image 'b.jpg', role 'Agent': box clamped to image bounds"]),
    ("unknown-verb", "boxes",
     ["image 'b.jpg', verb: unknown verb 'flying'"],
     []),
    ("unknown-verb", "worker_boxes",
     ["image 'b.jpg', verb: unknown verb 'flying'"],
     []),
    ("width-int-overflow", "boxes",
     ["image 'b.jpg', width: must be a positive number, got 100000000000000000...0000000000000000000"],
     []),
    ("width-int-overflow", "worker_boxes",
     ["image 'b.jpg', width: must be a positive number, got 100000000000000000...0000000000000000000"],
     []),
    ("width-nan", "boxes",
     ["image 'b.jpg', width: must be a positive number, got nan"],
     []),
    ("width-nan", "worker_boxes",
     ["image 'b.jpg', width: must be a positive number, got nan"],
     []),
    ("width-past-the-largest-float", "boxes",
     ["image 'b.jpg', width: must be a positive number, got 179769313486231570...0404026184124858369"],
     []),
    ("width-past-the-largest-float", "worker_boxes",
     ["image 'b.jpg', width: must be a positive number, got 179769313486231570...0404026184124858369"],
     []),
    ("width-zero", "boxes",
     ["image 'b.jpg', width: must be a positive number, got 0"],
     []),
    ("width-zero", "worker_boxes",
     ["image 'b.jpg', width: must be a positive number, got 0"],
     []),
    ("worker-list-string", "boxes",
     ["image 'b.jpg', worker_boxes['Agent']: must be a JSON array, got 'box'"],
     []),
    ("worker-mean-overflow", "boxes",
     ["image 'b.jpg', worker_boxes['Agent']: box area must be positive and at most half the largest float, and its aspect ratio finite and non-zero: (0.0, 0.0, 2.6666666666666665e+307, 2.6666666666666665e+307)"],
     []),
    ("everything-at-once", None,
     ["record #0, id: must be a string, got 7",
      "record #0, width: must be a positive number, got 0",
      "record #0, frames: must list exactly 3 annotator frames, got 2",
      "record #0, boxes['Agent']: box must be [x1,y1,x2,y2] or null, got [0, 0, 10]"],
     []),
    ("worker-role-with-one-malformed-box", None,
     ["image 'a.jpg', worker_boxes['Agent'][1]: box coordinates must be JSON numbers, got [0, 0, '10', 10]",
      "image 'a.jpg', worker_boxes['Agent']: expected exactly 3 worker boxes, got 2"],
     []),
    ("worker-list-given-as-a-string", None,
     ["image 'a.jpg', worker_boxes['Agent'][1]: box must satisfy x1 < x2 and y1 < y2: (5.0, 5.0, 1.0, 1.0)",
      "image 'a.jpg', worker_boxes['Agent']: expected exactly 3 worker boxes, got 1",
      "image 'a.jpg', worker_boxes['Item']: must be a JSON array, got 'box'",
      "image 'a.jpg', worker_boxes['Place']: place-grounded: the Place role is never grounded"],
     []),
    ("four-worker-boxes-are-no-box", None,
     ["image 'a.jpg', worker_boxes['Agent']: expected exactly 3 worker boxes, got 4",
      "image 'a.jpg', worker_boxes['Place']: expected exactly 3 worker boxes, got 4"],
     []),
    ("faulty-record-whose-other-box-clamps", None,
     ["image 'a.jpg', frames[0]['Item']: unknown noun 'astronaut'",
      "image 'a.jpg', frames[1]['Item']: unknown noun 'astronaut'",
      "image 'a.jpg', frames[2]['Item']: unknown noun 'astronaut'"],
     ["image 'a.jpg', role 'Agent': box clamped to image bounds"]),
]



@pytest.mark.parametrize("case,form,violations,warnings", PINNED,
                         ids=[case if form is None else f"{case}-{form}" for case, form, _, _ in PINNED])
def test_a_faulty_file_gives_its_pinned_lines(case, form, violations, warnings):
    if form is None:
        records = copy.deepcopy(PINNED_RECORDS[case])
    else:
        records = two_records(form)
        FAULTS[case](records, records[1])
    got = []
    _, lines = parse_dataset(records, parse_lexicon(LEXICON_JSON), parse_vocabulary(VOCAB_JSON), got)
    assert (lines, got) == (violations, warnings)


# ---- the bits of worker means and of sizes with no exact float ---------------

def table_of(records, warnings=None):
    table, violations = parse_dataset(records, parse_lexicon(LEXICON_JSON),
                                      parse_vocabulary(VOCAB_JSON), [] if warnings is None else warnings)
    assert violations == []
    return table


def test_a_worker_mean_of_negative_zeros_is_positive_zero_and_a_plain_negative_zero_stays():
    workers = dict(image_record("a.jpg"), worker_boxes={"Agent": [[-0.0, -0.0, 5, 5]] * 3})
    plain = image_record("b.jpg", boxes={"Agent": [-0.0, -0.0, 5, 5]})
    merged, kept = table_of([workers, plain]).boxes[[0, 3], :2].tolist()
    assert [math.copysign(1, c) for c in merged] == [1, 1]  # 0 + -0.0, as `sum` adds
    assert [math.copysign(1, c) for c in kept] == [-1, -1]
    assert merge_worker_boxes([BoundingBox(-0.0, -0.0, 5, 5)] * 3).as_list()[:2] == merged


def _is_box(raw):
    try:
        BoundingBox(*map(float, raw))
    except FrameModelError:
        return False
    return True


CORNER = st.floats(0, 1e3) | st.integers(0, 2**80) | st.just(-0.0) | st.floats(0, 1e-300)
SIDE = st.floats(1e-3, 1e3) | st.integers(1, 2**60) | st.floats(1e150, 1e200)  # a wide and a tall box
WORKER_BOX = st.builds(lambda x, y, w, h: [x, y, x + w, y + h],  # can average to an area past the bound
                       CORNER, CORNER, SIDE, SIDE).filter(_is_box)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(triple=st.lists(WORKER_BOX, min_size=3, max_size=3))
def test_the_readers_worker_mean_is_merge_worker_boxes_bit_for_bit(triple):
    rec = dict(image_record("a.jpg", width=2**1000, height=2**1000), worker_boxes={"Agent": triple})
    _, violations = parse_dataset([rec], parse_lexicon(LEXICON_JSON), parse_vocabulary(VOCAB_JSON), [])
    try:
        merged = merge_worker_boxes([BoundingBox(*map(float, box)) for box in triple])
    except FrameModelError as e:  # the mean breaks a box rule
        assert violations == [f"image 'a.jpg', worker_boxes['Agent']: {e}"]
        return
    assert violations == []
    row = table_of([rec]).boxes[0].tolist()
    assert [float(c).hex() for c in row] == [float(c).hex() for c in merged.as_list()]


def test_a_box_at_the_float_of_an_int_size_above_it_is_clamped_with_a_warning():
    # float(2**53 + 3) rounds up to 2**53 + 4, so a box ending there ends past the width
    rec = image_record("a.jpg", width=2**53 + 3, boxes={"Agent": [0, 0, 2.0**53 + 4, 10]})
    warnings = []
    table = table_of([rec], warnings)
    assert warnings == ["image 'a.jpg', role 'Agent': box clamped to image bounds"]
    assert table.boxes[0].tolist() == [0.0, 0.0, 2.0**53 + 4, 10.0]
    assert table_of([dict(rec, width=2**53 + 4)]).boxes[0].tolist() == [0.0, 0.0, 2.0**53 + 4, 10.0]


def test_parsing_builds_no_image_or_frame_and_a_valid_file_no_box(monkeypatch):
    built = []
    for cls in (BoundingBox, GroundedFrame):
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, check=cls.__post_init__: (built.append(self), check(self)))
    valid = [image_record("a.jpg", boxes={"Agent": [0, 0, 150, 80], "Item": [-1] * 4}),
             dict(image_record("b.jpg"), worker_boxes={
                 "Agent": [[0, 0, 10, 10], [2, 2, 12, 12], [4, 4, 400, 14]], "Item": [None] * 3})]
    warnings = []
    table = table_of(valid, warnings)
    assert len(table.ids) == 2 and len(warnings) == 2 and built == []
    faulty = valid + [image_record("c.jpg", boxes={"Agent": [0, 0, 10], "Item": [130, 0, 140, 10]}),
                      dict(image_record("d.jpg"), worker_boxes={"Agent": [[0, 0, 5, 5]] * 2}),
                      image_record("e.jpg", "flying")]
    _, violations = parse_dataset(faulty, parse_lexicon(LEXICON_JSON), parse_vocabulary(VOCAB_JSON), [])
    assert len(violations) == 4
    assert not [obj for obj in built if isinstance(obj, GroundedFrame)]


# ---- every loader pauses the cyclic collector and restores it ---------------

SITUATION = {"id": "a", "verbs": ["jumping"] * 5, "entities": [["man", "street"]] * 5,
             "boxes": [[[0, 0, 10, 10], None]] * 5}
LEXICON, VOCABULARY = parse_lexicon(LEXICON_JSON), parse_vocabulary(VOCAB_JSON)
LOADERS = {  # the only call in each entry is the loader's own
    "load_dataset": (lambda s: load_dataset(s, LEXICON_JSON, VOCAB_JSON), [image_record()]),
    "parse_dataset": (lambda s: parse_dataset(s, LEXICON, VOCABULARY, []), [image_record()]),
    "load_predictions": (lambda s: load_predictions(s, LEXICON), [
        {"id": "a", "verbs": ["jumping"], "frames": {"jumping": {
            "nouns": {"Agent": "man", "Place": "street"}, "boxes": {"Agent": [0, 0, 5, 5]}}}}]),
    "load_detection_sets": (load_detection_sets, [
        {"id": "a", "boxes": [[0, 0, 5, 5]], "nouns": ["man"], "noun_scores": [[1.0]]}]),
    "load_object_detections": (load_object_detections, [
        {"id": "a", "classes": ["man"], "boxes": [[0, 0, 5, 5]]}]),
    "load_situations": (load_situations, [SITUATION]),
    "load_chain_nodes": (load_chain_nodes, [
        {"verb": "jumping", "nouns": {"Agent": "man", "Place": "street"}}]),
    "load_boxes": (load_boxes, [[0, 0, 5, 5]]),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_loader_pauses_the_collector_and_restores_it(name, enabled, monkeypatch):
    load, valid = LOADERS[name]
    during = []
    read_json = dataset_io._read_json
    monkeypatch.setattr(dataset_io, "_read_json",
                        lambda source: (during.append(gc.isenabled()), read_json(source))[1])
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load(valid)
        assert gc.isenabled() is enabled
        with pytest.raises(DatasetError):
            load(io.StringIO("["))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during and not any(during)
