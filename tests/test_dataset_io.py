import contextlib
import copy
import gc
import io
import json
import math
import re
import tracemalloc
import types
from itertools import chain, groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import compute_stats_naive, load_dataset_naive
from swig_toolkit import BoundingBox, compute_stats, dataset_io, load_dataset
from swig_toolkit.dataset_io import (
    DatasetError,
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
from swig_toolkit.frame_model import FrameModelError, GroundedFrame
from swig_toolkit.fusion import FusionError
from swig_toolkit.retrieval import RetrievalError

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


def nouns_of(table, codes) -> tuple:
    """The nouns of a table's noun codes, read through its code table."""
    return tuple(table.nouns[c] for c in codes.tolist())


def frames_of(table, r) -> dict:
    """Record r's {verb: GroundedFrame}, read from the PredictionTable's columns."""
    frames = {}
    for verb, row in table.frames[r].items():
        slots = slice(table.starts[row], table.starts[row + 1])
        frames[verb] = GroundedFrame(tuple(zip(table.roles[row], nouns_of(table, table.codes[slots]))),
                                     boxes_of(table.boxes[slots]))
    return frames


def merged_box(*workers) -> list:
    """The reader's merged Agent box of one image with these Agent worker boxes."""
    return load_dataset([dict(image_record(), worker_boxes={"Agent": list(workers)})],
                        LEXICON_JSON, VOCAB_JSON).boxes[0].tolist()


class TestMergeWorkerBoxes:
    def test_identical(self):
        assert merged_box([10, 10, 20, 20], [10, 10, 20, 20], [10, 10, 20, 20]) == [10, 10, 20, 20]

    def test_mean_per_coordinate(self):
        assert merged_box([0, 0, 10, 10], [2, 2, 12, 12], [4, 4, 14, 14]) == [2, 2, 12, 12]

    def test_uneven_mean(self):
        assert merged_box([0, 0, 2, 2], [0, 0, 2, 2], [3, 3, 9, 9]) == [1, 1, 13 / 3, 13 / 3]

    def test_wrong_count(self):
        with pytest.raises(DatasetError, match=r"'Agent'\]: expected exactly 3 worker boxes, got 2"):
            merged_box([0, 0, 1, 1], [0, 0, 1, 1])


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
        table = load_chain_nodes([{"verb": "jumping", "nouns": {"Agent": "man", "Place": "street"},
                                   "boxes": {"Agent": [0, 0, 10, 10], "Place": None},
                                   "grounded": {"Agent": False}}])
        assert boxes_of(table.boxes) == (None, None)

    def test_chain_nodes_invert_frame_to_json(self, rng, lexicon, vocabulary):
        from conftest import frame_json, random_dataset, random_prediction

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
            table = load_chain_nodes([{"verb": "kneading", **frame_json(f)}])
            assert (table.roles, nouns_of(table, table.codes), boxes_of(table.boxes)) == (
                [f.roles], f.nouns, f.groundings)

    def test_frame_serialization_round_trip(self, rng, lexicon, vocabulary):
        from conftest import frame_json, random_dataset, random_prediction

        ds = random_dataset(rng, lexicon, vocabulary)
        for img in ds.images:
            pred = random_prediction(rng, lexicon, img)
            payload = [{
                "id": pred.image_id,
                "verbs": list(pred.verb_ranking),
                "frames": {verb: frame_json(f) for verb, f in pred.frames.items()},
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
        ([{"id": "a", "verbs": ["kneading"],
           "frames": {"kneading": {"nouns": {"Agent": "man", "Item": "dough", "Place": ""},
                                   "boxes": {"Agent": [0, 0, 10, float("nan")],
                                             "Item": [5, 0, 1, 10]}}}},
          {"id": "b", "verbs": ["jumping"],
           "frames": {"jumping": {"nouns": {"Agent": "man", "Place": "street"},
                                  "boxes": {"Agent": [0, 0, True, 10]}}}}],
         "prediction 'a', frames['kneading'], boxes['Agent']: "
         "box coordinates must be finite: (0.0, 0.0, 10.0, nan)"),
    ], ids=["bad-box-then-next-record-noun", "bad-box-then-later-role-missing-noun",
            "unranked-verb-then-later-frame-bad-box", "two-bad-boxes-in-a-frame-then-a-later-bad-box"])
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
    return [(image_id, repr(width), repr(height), verb,
             tuple(nouns_of(table, column) for column in table.annotations[start:end].T),
             {r: None if b is None else tuple(float(c).hex() for c in b.as_list())
              for r, b in gt_boxes(table, k).items()})
            for k, (image_id, verb, (width, height), start, end) in enumerate(
                zip(table.ids, table.verbs, table.sizes, table.starts, table.starts[1:]))]


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


def chain_situation(**overrides):
    return {"verb": "jumping", "nouns": {"Agent": "man", "Place": "street"},
            "boxes": {"Agent": [0, 0, 10, 10], "Place": None}, **overrides}


BAD_BOX, SWAPPED = [5, 5, 1, 1], "box must satisfy x1 < x2 and y1 < y2: (5.0, 5.0, 1.0, 1.0)"
PINNED_CHAINS = [  # (case, situations, the error: the first fault in file order)
    ("bad-role-box-then-non-string-verb",
     [chain_situation(boxes={"Agent": BAD_BOX}), chain_situation(verb=7)],
     f"situation #0, boxes['Agent']: {SWAPPED}"),
    ("bad-query-box-then-bad-role-box",
     [chain_situation(query_box=[0, 0, "1", 1]), chain_situation(boxes={"Agent": [0, 0, 10]})],
     "situation #0, query_box: box coordinates must be JSON numbers, got [0, 0, '1', 1]"),
    ("bad-role-box-and-bad-query-box-in-one-node",
     [chain_situation(boxes={"Agent": BAD_BOX}, query_box=[0, 0, 10])],
     f"situation #0, boxes['Agent']: {SWAPPED}"),
    ("bad-box-then-record-not-an-object",
     [chain_situation(), chain_situation(boxes={"Place": [0, 0, True, 1]}), ["jumping"]],
     "situation #1, boxes['Place']: box coordinates must be JSON numbers, got [0, 0, True, 1]"),
    ("non-string-noun-on-the-role-of-a-bad-box",
     [chain_situation(nouns={"Agent": 3, "Place": "street"}, boxes={"Agent": BAD_BOX})],
     "situation #0, nouns['Agent']: must be a JSON string, got 3"),
    ("bad-flag-on-the-role-of-a-bad-box",
     [chain_situation(boxes={"Agent": BAD_BOX}, grounded={"Agent": "no"})],
     f"situation #0, boxes['Agent']: {SWAPPED}"),
    ("bad-flag-on-a-role-before-a-bad-box",
     [chain_situation(boxes={"Agent": [0, 0, 10, 10], "Place": BAD_BOX}, grounded={"Agent": 0})],
     "situation #0, grounded['Agent']: must be a JSON boolean, got 0"),
    ("record-not-an-object", [chain_situation(), 3], "situation #1: must be a JSON object, got 3"),
    ("null-verb", [chain_situation(verb=None)], "situation #0, verb: must be a JSON string, got None"),
    ("null-noun", [chain_situation(nouns={"Agent": None, "Place": "street"})],
     "situation #0, nouns['Agent']: must be a JSON string, got None"),
    ("grounded-false-on-a-role-with-a-bad-box",
     [chain_situation(boxes={"Agent": BAD_BOX}, grounded={"Agent": False}), chain_situation(verb=None)],
     f"situation #0, boxes['Agent']: {SWAPPED}"),
]


@pytest.mark.parametrize("situations,error", [case[1:] for case in PINNED_CHAINS],
                         ids=[case[0] for case in PINNED_CHAINS])
def test_a_faulty_chain_file_gives_its_first_fault(situations, error):
    with pytest.raises(DatasetError) as e:
        load_chain_nodes(situations)
    assert str(e.value) == error


def fuse_rec(image_id="a", **overrides):
    return {"id": image_id, "boxes": [[0, 0, 5, 5]], "nouns": ["man"], "noun_scores": [[1.0]],
            **overrides}


def object_rec(image_id="a", **overrides):
    return {"id": image_id, "classes": ["man"], "boxes": [[0, 0, 5, 5]], **overrides}


def top5_rec(image_id="a", **overrides):
    return {"id": image_id, "verbs": ["jumping"] * 5, "entities": [["man", "street"]] * 5,
            "boxes": [[[0, 0, 10, 10], None]] * 5, **overrides}


MALFORMED = "box must be [x1,y1,x2,y2] or null, got 'x'"
NOT_NUMBERS = "box coordinates must be JSON numbers, got [0, 0, '1', 1]"
CHUNK, GOOD = dataset_io._CHUNK, [0, 0, 5, 5]
LONG_NULL = [GOOD] * (CHUNK - 1) + [None] + [GOOD] * 5  # a run across the first chunk edge
PINNED_LOADS = [  # (case, loader, file, the error: the first fault in file order, except that a
    # malformed box beats an earlier null of its run)
    ("fuse-null-then-malformed-box-in-one-record", load_detection_sets,
     [fuse_rec(boxes=[None, "x"], noun_scores=[[1.0], [1.0]])],
     f"detections 'a', boxes[1]: {MALFORMED}"),
    ("fuse-null-box-then-malformed-box-in-a-later-record", load_detection_sets,
     [fuse_rec(boxes=[None]), fuse_rec("b", boxes=[[0, 0, "1", 1]])],
     "detections 'a', boxes[0]: box may not be null"),
    ("fuse-sentinel-box", load_detection_sets, [fuse_rec(boxes=[[-1, -1, -1, -1]])],
     "detections 'a', boxes[0]: box may not be null"),
    ("fuse-bad-box-then-bad-nouns", load_detection_sets, [fuse_rec(boxes=[BAD_BOX], nouns=7)],
     f"detections 'a', boxes[0]: {SWAPPED}"),
    ("fuse-bad-nouns-then-bad-box-in-a-later-record", load_detection_sets,
     [fuse_rec(nouns=7), fuse_rec("b", boxes=[BAD_BOX])],
     "detections 'a', nouns: must be a JSON array of strings, got 7"),
    ("fuse-bad-box-then-record-not-an-object", load_detection_sets, [fuse_rec(boxes=[BAD_BOX]), 3],
     f"detections 'a', boxes[0]: {SWAPPED}"),
    ("fuse-bad-box-then-duplicate-id", load_detection_sets, [fuse_rec(boxes=[BAD_BOX]), fuse_rec()],
     f"detections 'a', boxes[0]: {SWAPPED}"),
    ("fuse-bad-box-then-non-finite-logit", load_detection_sets,
     [fuse_rec(boxes=[BAD_BOX]), fuse_rec("b", noun_scores=[[float("nan")]])],
     f"detections 'a', boxes[0]: {SWAPPED}"),
    ("fuse-non-finite-logit", load_detection_sets, [fuse_rec(noun_scores=[[1e400]])],
     "detections 'a', noun_scores: must be finite"),
    ("fuse-null-id-in-a-later-record", load_detection_sets, [fuse_rec(), fuse_rec(id=None)],
     "detections #1: missing or non-string 'id'"),
    ("fuse-boxes-not-an-array", load_detection_sets, [fuse_rec(boxes=None)],
     "detections 'a', boxes: must be a JSON array, got None"),
    ("fuse-null-sentinel-then-malformed-box", load_detection_sets,
     [fuse_rec(boxes=[None, [-1, -1, -1, -1], "x"], noun_scores=[[1.0]] * 3)],
     f"detections 'a', boxes[2]: {MALFORMED}"),
    ("fuse-null-box-then-bad-nouns", load_detection_sets, [fuse_rec(boxes=[None], nouns=7)],
     "detections 'a', boxes[0]: box may not be null"),
    ("fuse-null-before-a-chunk-edge-then-record-not-an-object", load_detection_sets,
     [fuse_rec(boxes=LONG_NULL, noun_scores=[[1.0]] * (CHUNK + 5)), 3],
     "detections 'a', boxes[4095]: box may not be null"),
    ("fuse-null-before-a-chunk-edge-then-malformed-boxes-after-it", load_detection_sets,
     [fuse_rec(boxes=LONG_NULL[:CHUNK] + ["x"] * 5, noun_scores=[[1.0]] * (CHUNK + 5)), 3],
     f"detections 'a', boxes[4096]: {MALFORMED}"),
    ("objects-null-then-malformed-box-in-one-record", load_object_detections,
     [object_rec(classes=["man", "dog"], boxes=[None, "x"])], f"detections 'a', boxes[1]: {MALFORMED}"),
    ("objects-null-box-then-malformed-box-in-a-later-record", load_object_detections,
     [object_rec(boxes=[None]), object_rec("b", boxes=[[0, 0, 10]])],
     "detections 'a', boxes[0]: box may not be null"),
    ("objects-null-box-then-null-and-malformed-box-in-a-later-record", load_object_detections,
     [object_rec(boxes=[None]), object_rec("b", classes=["man", "dog"], boxes=[None, "x"])],
     "detections 'a', boxes[0]: box may not be null"),
    ("objects-sentinel-box", load_object_detections, [object_rec(boxes=[[-1.0, -1, -1, -1]])],
     "detections 'a', boxes[0]: box may not be null"),
    ("objects-bad-classes-then-bad-box", load_object_detections, [object_rec(classes=7, boxes=[BAD_BOX])],
     "detections 'a', classes: must be a JSON array of strings, got 7"),
    ("objects-bad-box-then-bad-classes-in-a-later-record", load_object_detections,
     [object_rec(boxes=[BAD_BOX]), object_rec("b", classes=7)],
     f"detections 'a', boxes[0]: {SWAPPED}"),
    ("objects-more-boxes-than-classes", load_object_detections,
     [object_rec(boxes=[[0, 0, 1, 1], [0, 0, 2, 2]])], "detections 'a', boxes: 2 boxes for 1 classes"),
    ("objects-bad-box-then-miscounted-boxes", load_object_detections,
     [object_rec(boxes=[BAD_BOX]), object_rec("b", boxes=[])],
     f"detections 'a', boxes[0]: {SWAPPED}"),
    ("situations-four-verbs", load_situations, [top5_rec(verbs=["jumping"] * 4)],
     "situation 'a', verbs: expected exactly 5 verb hypotheses, got 4"),
    ("situations-four-verbs-and-a-bad-box", load_situations,
     [top5_rec(verbs=["jumping"] * 4, boxes=[[BAD_BOX, None]] * 5)],
     f"situation 'a', boxes[0][0]: {SWAPPED}"),
    ("situations-bad-box-then-bad-verbs-in-a-later-record", load_situations,
     [top5_rec(boxes=[[BAD_BOX, None]] * 5), top5_rec("b", verbs=7)],
     f"situation 'a', boxes[0][0]: {SWAPPED}"),
    ("situations-null-then-bad-box-in-a-later-rank", load_situations,
     [top5_rec(boxes=[[[0, 0, 1, 1], None]] * 4 + [[None, [0, 0, "1", 1]]])],
     f"situation 'a', boxes[4][1]: {NOT_NUMBERS}"),
    ("situations-rank-not-an-array-then-bad-box", load_situations,
     [top5_rec(boxes=[[[0, 0, 1, 1], None], 7] + [[[0, 0, "1", 1], None]] * 3)],
     "situation 'a', boxes[1]: must be a JSON array, got 7"),
    ("situations-four-ranks-of-boxes", load_situations, [top5_rec(boxes=[[[0, 0, 1, 1], None]] * 4)],
     "situation 'a', boxes: 4 lists for 5 verb hypotheses"),
    ("situations-four-ranks-with-a-bad-box", load_situations, [top5_rec(boxes=[[BAD_BOX, None]] * 4)],
     f"situation 'a', boxes[0][0]: {SWAPPED}"),
    ("situations-fewer-boxes-than-entities", load_situations, [top5_rec(boxes=[[[0, 0, 1, 1]]] * 5)],
     "situation 'a', boxes[0]: 1 boxes for 2 entities"),
    ("situations-more-boxes-than-entities-one-malformed", load_situations,
     [top5_rec(entities=[["man"]] * 5, boxes=[[[0, 0, 1, 1], "x"]] * 5)],
     f"situation 'a', boxes[0][1]: {MALFORMED}"),
    ("situations-good-record-then-duplicate-id", load_situations, [top5_rec(), top5_rec()],
     "situation 'a': duplicate id (record #1)"),
    ("anchors-null-then-malformed-box", load_boxes, [None, "x"], f"boxes[1]: {MALFORMED}"),
    ("anchors-sentinel-then-bad-box", load_boxes, [[-1, -1, -1, -1], BAD_BOX], f"boxes[1]: {SWAPPED}"),
    ("anchors-good-box-then-null", load_boxes, [[0, 0, 1, 1], None], "boxes[1]: box may not be null"),
    ("anchors-nulls-around-a-bad-box", load_boxes, [None, None, BAD_BOX, None], f"boxes[2]: {SWAPPED}"),
    ("anchors-not-an-array", load_boxes, {"boxes": []},
     "boxes: must be a JSON array, got {'boxes': []}"),
]


@pytest.mark.parametrize("load,records,error", [case[1:] for case in PINNED_LOADS],
                         ids=[case[0] for case in PINNED_LOADS])
def test_a_faulty_detection_situation_or_box_file_gives_its_first_fault(load, records, error):
    with pytest.raises(DatasetError) as e:
        load(records)
    assert str(e.value) == error


@pytest.mark.parametrize("load,records,cause", [
    (load_detection_sets, [fuse_rec(boxes=[[0, 0, 1, 1]] * CHUNK, noun_scores=[[1e400]] * CHUNK)],
     FusionError),
    (load_situations, [top5_rec(), top5_rec("b", verbs=["jumping"] * 4)], RetrievalError),
], ids=["fuse-non-finite-logit-after-a-chunk", "situations-four-verbs-in-a-later-record"])
def test_a_walk_fault_is_raised_as_the_walk_raised_it(load, records, cause):
    with pytest.raises(DatasetError) as e:
        load(records)
    assert type(e.value) is DatasetError and type(e.value.__cause__) is cause


def test_valid_detection_situation_and_box_files_build_no_box(monkeypatch):
    built = []
    monkeypatch.setattr(BoundingBox, "__post_init__",
                        lambda self, check=BoundingBox.__post_init__: (built.append(self), check(self)))
    sets = load_detection_sets([fuse_rec(boxes=[[0, 0, 5, 5], [1, 1, 4, 4]], noun_scores=[[1.0], [2.0]])])
    assert sets.boxes.tolist() == [[0, 0, 5, 5], [1, 1, 4, 4]] and sets.index == {"a": 0}
    columns = (sets.nouns, sets.codes.tolist(), sets.rows.tolist(), sets.logits.tolist())
    assert columns == (["man", ""], [0], [1], [2.0])
    assert load_object_detections([object_rec()]).boxes.tolist() == [[0, 0, 5, 5]]
    assert load_situations([top5_rec()]).boxes.shape == (10, 4)
    assert load_boxes([[0, 0, 5, 5], [0, 0, 1, 2]]).tolist() == [[0, 0, 5, 5], [0, 0, 1, 2]]
    assert built == []


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
    images, _, _ = load_dataset_naive([workers], LEXICON_JSON, VOCAB_JSON)
    assert [math.copysign(1, c) for c in images[0][5]["Agent"][:2]] == [1, 1]


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
@example(triple=[[0, 0, 1, 1]] * 3)
@example(triple=[[-0.0, -0.0, 1, 1]] * 3)
@example(triple=[[0, 0, 1e200, 1e-100], [0, 0, 1e-100, 1e200],
                 [0, 0, 1e200, 1e-100]])  # valid boxes whose mean's area overflows
def test_the_readers_worker_mean_is_the_naive_readers_bit_for_bit(triple):
    rec = dict(image_record("a.jpg", width=2**1000, height=2**1000), worker_boxes={"Agent": triple})
    _, violations = parse_dataset([rec], parse_lexicon(LEXICON_JSON), parse_vocabulary(VOCAB_JSON), [])
    images, _, faulty = load_dataset_naive([rec], LEXICON_JSON, VOCAB_JSON)
    mean = tuple(sum(c) / 3 for c in zip(*(map(float, box) for box in triple)))
    try:
        BoundingBox(*mean)
    except FrameModelError as e:  # the mean breaks a box rule
        assert faulty == ["image 'a.jpg'"]
        assert violations == [f"image 'a.jpg', worker_boxes['Agent']: {e}"]
        return
    assert violations == [] and faulty == []
    row = table_of([rec]).boxes[0].tolist()
    assert [float(c).hex() for c in row] == [float(c).hex() for c in images[0][5]["Agent"]]


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

PREDICTION = {"id": "a", "verbs": ["jumping"], "frames": {"jumping": {
    "nouns": {"Agent": "man", "Place": "street"}, "boxes": {"Agent": [0, 0, 5, 5]}}}}
LEXICON, VOCABULARY = parse_lexicon(LEXICON_JSON), parse_vocabulary(VOCAB_JSON)
LOADERS = {  # (load, a valid file, a file whose walk passes and whose one bad box is queued)
    "load_dataset": (lambda s: load_dataset(s, io.StringIO(json.dumps(LEXICON_JSON)),
                                            io.StringIO(json.dumps(VOCAB_JSON))),
                     [image_record()], [image_record(boxes={"Agent": BAD_BOX})]),
    "parse_dataset": (lambda s: parse_dataset(s, LEXICON, VOCABULARY, []),
                      [image_record()], [image_record(boxes={"Agent": BAD_BOX})]),
    "load_predictions": (lambda s: load_predictions(s, LEXICON), [PREDICTION], [
        {**PREDICTION, "frames": {"jumping": {"nouns": {"Agent": "man", "Place": "street"},
                                              "boxes": {"Agent": BAD_BOX}}}}]),
    "load_detection_sets": (load_detection_sets, [fuse_rec()], [fuse_rec(boxes=[BAD_BOX])]),
    "load_object_detections": (load_object_detections, [object_rec()], [object_rec(boxes=[BAD_BOX])]),
    "load_situations": (load_situations, [top5_rec()], [top5_rec(boxes=[[BAD_BOX, None]] * 5)]),
    "load_chain_nodes": (load_chain_nodes, [chain_situation()], [chain_situation(boxes={"Agent": BAD_BOX})]),
    "load_boxes": (load_boxes, [[0, 0, 5, 5]], [BAD_BOX]),
}


def noting(call, states: list):
    """`call`, appending whether the cyclic collector is on to `states` at each call."""
    return lambda *args: (states.append(gc.isenabled()), call(*args))[1]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_loader_pauses_the_collector_and_restores_it(name, enabled, monkeypatch):
    """The collector is off at every JSON decode, and each call leaves it as it
    was: for a valid file, a decode error, and a bad box the queue judges
    after a clean walk (`parse_dataset` reports that box, the rest raise)."""
    load, valid, bad_box = LOADERS[name]
    during, decoder = [], dataset_io._DECODER
    monkeypatch.setattr(dataset_io, "_DECODER", types.SimpleNamespace(
        decode=noting(decoder.decode, during), raw_decode=noting(decoder.raw_decode, during)))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for text, raises in ((json.dumps(valid), False), ("[", True),
                             (json.dumps(bad_box), name != "parse_dataset")):
            decodes = len(during)
            with pytest.raises(DatasetError) if raises else contextlib.nullcontext():
                load(io.StringIO(text))
            assert gc.isenabled() is enabled and len(during) > decodes
    finally:
        (gc.enable if was else gc.disable)()
    assert not any(during)


def test_valid_files_load_without_building_a_box(monkeypatch):
    built = []
    monkeypatch.setattr(BoundingBox, "__post_init__",
                        lambda self, check=BoundingBox.__post_init__: (built.append(self), check(self)))
    for load, valid, _ in LOADERS.values():  # the dataset's boxes lie inside its image: no clamp
        load(valid)
    nodes = load_chain_nodes([chain_situation(query_box=[1, 2, 30, 40]), chain_situation(query_box=None),
                              chain_situation(query_box=[-1, -1, -1, -1])])
    assert built == []
    assert nodes.query_boxes == [[1.0, 2.0, 30.0, 40.0], None, None]
    assert nodes.starts == [0, 2, 4, 6] and nodes.boxes.shape == (6, 4)


# ---- a record walk judges its queued boxes in chunks ------------------------


def runs(raws: list, size: int, pad: bool = False) -> list:
    """`raws` in runs of `size`, the last one filled up with nulls when `pad`."""
    raws = raws + [None] * (-len(raws) % size if pad else 0)
    return [raws[at:at + size] for at in range(0, len(raws), size)]


def dataset_file(raws):  # Agent, Item and Place boxes; a good box is never the Place's, so it reads null
    return [image_record(f"{r}.jpg", boxes={"Agent": a, "Item": b, "Place": None if c == GOOD else c})
            for r, (a, b, c) in enumerate(runs(raws, 3, pad=True))]


def worker_file(raws):  # Agent worker boxes, three to a record
    return [image_record(f"{r}.jpg", worker_boxes={"Agent": run}) for r, run in enumerate(runs(raws, 3))]


QUEUED = {  # per LOADERS entry or "<entry>/<layout>": a file whose boxes, in queue order, are `raws`
    "load_dataset": dataset_file,
    "parse_dataset": dataset_file,
    "parse_dataset/worker_boxes": worker_file,
    "load_predictions": lambda raws: [
        {"id": str(r), "verbs": ["jumping"], "frames": {"jumping": {
            "nouns": {"Agent": "man", "Place": "street"}, "boxes": {"Agent": a, "Place": b}}}}
        for r, (a, b) in enumerate(runs(raws, 2, pad=True))],
    "load_detection_sets": lambda raws: [fuse_rec(str(r), boxes=run, noun_scores=[[1.0]] * len(run))
                                         for r, run in enumerate(runs(raws, 3))],
    "load_object_detections": lambda raws: [object_rec(str(r), classes=["man"] * len(run), boxes=run)
                                            for r, run in enumerate(runs(raws, 3))],
    "load_situations": lambda raws: [top5_rec(str(r), boxes=runs(run, 2))
                                     for r, run in enumerate(runs(raws, 10, pad=True))],
    "load_chain_nodes": lambda raws: [chain_situation(boxes={"Agent": a, "Place": b}, query_box=q)
                                      for a, b, q in runs(raws, 3, pad=True)],
    "load_boxes": list,
}
NOT_NULLABLE = ["load_boxes", "load_detection_sets", "load_object_detections"]


def load(name: str):
    """The loader of the `QUEUED` entry `name`."""
    return LOADERS[name.partition("/")[0]][0]


def first_fault(name: str, records: list, whole: bool = False):
    """The error `load(name)` raises for `records` (`parse_dataset`: its
    lines), with the queues judged in chunks, or whole when `whole`."""
    with pytest.MonkeyPatch.context() as patch:
        if whole:
            patch.setattr(dataset_io, "_CHUNK", 2**62)
        try:
            got = load(name)(records)
        except DatasetError as e:
            return str(e)
    return got[1] if name.startswith("parse_dataset") else None


def placed(n: int, at: dict) -> list:
    """n good boxes, with the raw box `at[i]` at each position i of `at`."""
    raws = [GOOD] * n
    for i, raw in at.items():
        raws[i] = raw
    return raws


def assert_chunked_as_whole(name: str, records: list) -> str:
    fault = first_fault(name, records)
    assert fault and fault == first_fault(name, records, whole=True)
    return fault


@pytest.mark.parametrize("name", sorted(QUEUED))
@settings(max_examples=4, deadline=None, derandomize=True)
@given(position=st.integers(0, CHUNK + 8))
@example(position=CHUNK - 1)
@example(position=CHUNK)
@example(position=CHUNK + 1)
def test_a_bad_box_by_a_chunk_edge_is_the_fault_judging_the_whole_file_gives(name, position):
    fault = assert_chunked_as_whole(name, QUEUED[name](placed(CHUNK + 9, {position: BAD_BOX})))
    assert SWAPPED in str(fault)


@pytest.mark.parametrize("name", NOT_NULLABLE)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(position=st.integers(0, CHUNK + 8), bad=st.none() | st.integers(1, 3))
@example(position=CHUNK - 1, bad=None)
@example(position=CHUNK, bad=None)
@example(position=CHUNK + 1, bad=None)
@example(position=CHUNK - 1, bad=2)  # a detections record's run goes on into the next chunk
@example(position=CHUNK - 2, bad=3)  # the bad box is in the next record's run
def test_a_null_box_by_a_chunk_edge_is_the_fault_judging_the_whole_file_gives(name, position, bad):
    """A null box in a queue that refuses one, and maybe a bad box `bad` boxes after it."""
    at = {position: None} if bad is None else {position: None, position + bad: BAD_BOX}
    fault = assert_chunked_as_whole(name, QUEUED[name](placed(CHUNK + 12, at)))
    assert fault.endswith("box may not be null") or SWAPPED in fault


@pytest.mark.parametrize("name", sorted(set(QUEUED) - {"load_boxes"}))  # its walk raises nothing
@settings(max_examples=4, deadline=None, derandomize=True)
@given(position=st.integers(0, CHUNK - 1))
@example(position=0)
@example(position=CHUNK - 1)
def test_a_walk_fault_after_a_bad_box_in_an_earlier_chunk_comes_second(name, position):
    records = QUEUED[name](placed(2 * CHUNK + 5, {position: BAD_BOX})) + [3]
    fault = assert_chunked_as_whole(name, records)
    assert SWAPPED in str(fault[0] if name.startswith("parse_dataset") else fault)


ROLES = LEXICON_JSON["kneading"]
DATASETS = ["parse_dataset", "parse_dataset/worker_boxes"]


def bad_box_lines(name: str, positions: set) -> list:
    """The lines `parse_dataset` gives for a `QUEUED[name]` file of whole
    records whose boxes at `positions` are bad, the rest good."""
    if name == "parse_dataset":
        return [f"image '{p // 3}.jpg', boxes[{ROLES[p % 3]!r}]: {SWAPPED}" for p in sorted(positions)]
    lines = []
    for r, bad in groupby(sorted(positions), lambda p: p // 3):
        bad = list(bad)
        lines += [f"image '{r}.jpg', worker_boxes['Agent'][{p % 3}]: {SWAPPED}" for p in bad]
        lines.append(f"image '{r}.jpg', worker_boxes['Agent']: expected exactly 3 worker boxes, "
                     f"got {3 - len(bad)}")
    return lines


@pytest.mark.parametrize("name", DATASETS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(positions=st.sets(st.integers(0, 2 * CHUNK + 9), min_size=1, max_size=4))
@example(positions={0, CHUNK - 1, CHUNK, 2 * CHUNK + 3})
def test_the_dataset_reader_names_every_bad_box_in_file_order_chunked_as_whole(name, positions):
    records = QUEUED[name](placed(2 * CHUNK + 10, dict.fromkeys(positions, BAD_BOX)))
    assert assert_chunked_as_whole(name, records) == bad_box_lines(name, positions)


@pytest.mark.parametrize("name", sorted(set(QUEUED) - {"load_dataset", *DATASETS}))
@settings(max_examples=4, deadline=None, derandomize=True)
@given(first=st.integers(0, CHUNK - 1), second=st.integers(CHUNK, 2 * CHUNK + 9))
@example(first=0, second=2 * CHUNK + 3)
@example(first=CHUNK - 1, second=CHUNK)
def test_every_other_loader_raises_only_the_first_of_two_bad_boxes_in_two_chunks(name, first, second):
    records = QUEUED[name](placed(2 * CHUNK + 10, {first: BAD_BOX, second: BAD_BOX}))
    assert assert_chunked_as_whole(name, records) == first_fault(
        name, QUEUED[name](placed(2 * CHUNK + 10, {first: BAD_BOX})))


def test_no_walk_judges_more_than_a_chunk_of_boxes_at_once(monkeypatch):
    """Every `_BoxQueue._judge` pass of a record walk's queue gets at most
    `_CHUNK` raw boxes; a dataset's worker means are rows, judged apart from
    the queue."""
    sizes, judge = [], dataset_io._BoxQueue._judge
    monkeypatch.setattr(dataset_io._BoxQueue, "_judge",
                        lambda queue: (sizes.append(len(queue.raws)), judge(queue))[1])
    for name in sorted(QUEUED):
        sizes.clear()
        load(name)(QUEUED[name](placed(2 * CHUNK + 15, {})))
        assert sizes and max(sizes) <= CHUNK and sum(sizes) >= 2 * CHUNK + 15, name


# ---- record files are decoded one record at a time ----------------------------

def streamed(source):
    """What the record walk reads of `source`: a list of its items, or None."""
    items = dataset_io._items(source)
    return items if items is None else list(items)


JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
ARRAY_TEXT = st.builds(json.dumps, st.lists(JSON_VALUE, max_size=4),
                       indent=st.sampled_from([None, 1, "\t", "\r\n"]))
EDIT = st.sampled_from([" ", "\t", "\n", "\r", "\x0c", "\xa0", "\ufeff", "[", "]", "{", "}", ",", ":",
                        '"', "x", "0", "-", ".", "e", "NaN", "\ud800"])
EDITED_TEXT = st.builds(  # one character inserted or replaced
    lambda text, at, span, edit: text[:at % (len(text) + 1)] + edit + text[at % (len(text) + 1) + span:],
    ARRAY_TEXT, st.integers(0, 200), st.integers(0, 1), EDIT)
JSON_TEXT = (ARRAY_TEXT | EDITED_TEXT | st.builds(json.dumps, JSON_VALUE)
             | st.text(alphabet='[]{},:" \t\n\r\x0c1a', max_size=12))


@pytest.mark.parametrize("read", [streamed, dataset_io._read_json], ids=["_items", "_read_json"])
@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=JSON_TEXT, form=st.sampled_from(["text", "bytes", "parsed"]))
@example(text="", form="text")
@example(text="[]", form="text")
@example(text=" [ ] ", form="text")
@example(text="\ufeff[]", form="text")
@example(text="\ufeff[]", form="bytes")
@example(text="\ufeff\ufeff[]", form="bytes")  # bytes lose one BOM; json refuses the next as no value
@example(text="[1,]", form="text")
@example(text="[1]x", form="text")
@example(text="[1]\x0c", form="text")
@example(text="[\xa01]", form="text")
@example(text="[1 2]", form="text")
@example(text="{}", form="text")
@example(text="[NaN,-Infinity]", form="text")
@example(text='[{"a":1,"a":2}]', form="text")
@example(text="[" * 10**5 + "]" * 10**5, form="text")
@example(text='[{"id": "a"}, [1, 2.5], "b"]', form="bytes")
@example(text='[{"id": "a"}, [1, 2.5], "b"]', form="parsed")
@example(text='"a"', form="parsed")
def test_the_streamed_records_are_json_loads_of_the_text(read, text, form):
    """Both readers of a source: the record walk's `_items` and the whole-value
    `_read_json` give what `json.loads` gives, or raise its error."""
    data = text.encode("utf-8", "surrogatepass") if form == "bytes" else text
    try:
        value = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        if form == "parsed":  # nothing parsed to hand in
            return
        with pytest.raises(DatasetError) as error:
            read(io.BytesIO(data) if form == "bytes" else io.StringIO(data))
        assert str(error.value) == f"<stream>: {e}"
        return
    if form == "parsed" and isinstance(value, str):  # a string source is a path
        return
    source = {"text": io.StringIO, "bytes": io.BytesIO, "parsed": lambda data: value}[form](data)
    got = read(source)
    if read is streamed and not isinstance(value, list):
        assert got is None
    else:  # repr tells 1 from 1.0 and shows NaN, which equals nothing
        assert repr(got) == repr(value)


def traced_peak(call) -> int:
    """The peak of memory that `tracemalloc` traces while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loading_a_record_file_peaks_below_its_decoded_tree(tmp_path, rng, lexicon, vocabulary):
    from conftest import dataset_json, prediction_json, random_dataset, random_prediction

    split = random_dataset(rng, lexicon, vocabulary, n_verbs=5, images_per_verb=400)
    files = {"dataset.json": [dataset_json(image) for image in split.images],
             "preds.json": [prediction_json(random_prediction(rng, lexicon, image)) for image in split.images]}
    for name, records in files.items():
        (tmp_path / name).write_text(json.dumps(records))
    assert len(files["preds.json"]) == 2000
    lexicon_json = {verb: list(roles) for verb, roles in lexicon.entries.items()}
    loads = {
        "preds.json": lambda path: load_predictions(path, lexicon),
        "dataset.json": lambda path: parse_dataset(path, parse_lexicon(lexicon_json),
                                                   parse_vocabulary(sorted(vocabulary.ids)), []),
    }
    for name, load in loads.items():
        text = (tmp_path / name).read_text()
        tree = traced_peak(lambda: json.loads(text))
        assert traced_peak(lambda: load(str(tmp_path / name))) < tree, name


# ---- every coded loader: an int32 code per noun slot, and one code table -----

NOUN = st.sampled_from(["", "man", "dough", "\u00e9", "e\u0301", "Agent", "kneading"]) | st.text(max_size=2)
CODED_RECORDS = st.lists(st.tuples(st.sampled_from(sorted(LEXICON_JSON)),
                                   st.lists(st.lists(NOUN, min_size=3, max_size=3), min_size=3, max_size=3)),
                         max_size=5)
CODED = ("load_chain_nodes", "load_dataset", "load_predictions", "load_situations")


def coded_file(name: str, records: list) -> tuple:
    """(file, its nouns in slot order) for loader `name`, from (verb, three annotators'
    nouns) records: the first nouns of each, one per role of the verb."""
    files, read = [], []
    for k, (verb, annotated) in enumerate(records):
        frames = [dict(zip(LEXICON_JSON[verb], nouns)) for nouns in annotated]
        if name == "load_dataset":  # a dataset's slot holds the three annotators' nouns
            files.append(image_record(f"i{k}", verb, frames=frames, boxes={}))
            read += [frame[role] for role in LEXICON_JSON[verb] for frame in frames]
        elif name == "load_predictions":
            files.append({"id": f"i{k}", "verbs": [verb], "frames": {verb: {"nouns": frames[0]}}})
            read += frames[0].values()
        elif name == "load_situations":
            entities = [list(frames[rank % 3].values()) for rank in range(5)]
            files.append({"id": f"i{k}", "verbs": [verb] * 5, "entities": entities,
                          "boxes": [[None] * len(nouns) for nouns in entities]})
            read += chain.from_iterable(entities)
        else:
            files += [{"verb": verb, "nouns": frame} for frame in frames]
            read += chain.from_iterable(frame.values() for frame in frames)
    return files, read


@pytest.mark.parametrize("name", CODED)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(records=CODED_RECORDS)
@example(records=[("kneading", [[""] * 3] * 3), ("jumping", [[""] * 3] * 3)])  # an all-null file
@example(records=[("kneading", [["man", "dough", ""]] * 3),
                  ("jumping", [["dough", "man", "man"]] * 3)])  # nouns repeated across records
@example(records=[("kneading", [["\u00e9", "e\u0301", ""], ["e\u0301", "\u00e9", "\u00e9"],
                                ["", "", "e\u0301"]])])  # the same letter, composed and decomposed
@example(records=[("kneading", [["Agent", "kneading", "Place"], ["jumping", "", "Item"],
                                ["man", "Agent", ""]])])  # nouns spelled like roles and verbs
def test_every_loaded_table_codes_its_nouns_in_first_read_order(name, records):
    """The codes read back as the file's nouns, in slot order ("\u00e9" and its
    decomposed form "e\u0301" are two nouns; a noun spelled like a role or a
    verb is a noun); the null noun is -1, exactly, and the others are 0, 1, ...
    in the order they are first read, every code of the table used."""
    files, read = coded_file(name, records)
    if name == "load_dataset":  # every noun read is in the vocabulary
        table = load_dataset(files, LEXICON_JSON, sorted(set(read) - {""}))
        codes = table.annotations
    else:
        table = LOADERS[name][0](files)
        codes = table.codes
    assert codes.dtype == np.int32
    codes, nouns = codes.ravel().tolist(), table.nouns
    assert [nouns[c] for c in codes] == read
    assert [c == -1 for c in codes] == [noun == "" for noun in read]
    assert nouns[-1] == "" and list(dict.fromkeys(c for c in codes if c >= 0)) == list(range(len(nouns) - 1))


# ---- every loader that keeps verbs: one str per distinct verb -----------------

VERB_RECORDS = st.lists(st.tuples(st.sampled_from(sorted(LEXICON_JSON)),
                                  st.lists(st.sampled_from([*sorted(LEXICON_JSON), "zz"]), max_size=4)),
                        max_size=5)


def verb_file(name: str, records: list) -> list:
    """A file for loader `name` from (verb, ranked verbs) records: the verb is framed,
    and ranked after it (a situation's five ranks cycle through them); "zz" has no frame."""
    files = []
    for k, (verb, ranked) in enumerate(records):
        nouns = {role: "man" for role in LEXICON_JSON[verb]}
        ranking = [verb, *ranked]
        if name == "load_dataset":
            files.append(image_record(f"i{k}", verb, frames=[nouns] * 3, boxes={}))
        elif name == "load_predictions":
            files.append({"id": f"i{k}", "verbs": ranking, "frames": {verb: {"nouns": nouns}}})
        elif name == "load_situations":
            top5 = [ranking[rank % len(ranking)] for rank in range(5)]
            files.append({"id": f"i{k}", "verbs": top5, "entities": [["man"]] * 5, "boxes": [[None]] * 5})
        else:
            files.append({"verb": verb, "nouns": nouns})
    return files


def held_verbs(name: str, table) -> list:
    """Every verb string `table` holds."""
    if name == "load_predictions":
        return [*chain.from_iterable(table.rankings), *chain.from_iterable(table.frames)]
    return list(chain.from_iterable(table.verbs)) if name == "load_situations" else table.verbs


@pytest.mark.parametrize("name", CODED)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(records=VERB_RECORDS)
@example(records=[("kneading", ["jumping"]), ("kneading", []), ("jumping", ["kneading", "kneading"])])
@example(records=[("jumping", ["zz", "kneading"]), ("kneading", ["zz"])])  # ranked, never framed
def test_every_table_holds_one_str_per_verb(name, records):
    """Decoded from JSON text, where every occurrence of a verb is a str of its own."""
    text = io.StringIO(json.dumps(verb_file(name, records)))
    if name == "load_dataset":
        table = load_dataset(text, LEXICON_JSON, VOCAB_JSON)
    else:
        table = LOADERS[name][0](text)
    verbs = held_verbs(name, table)
    assert len(verbs) >= len(records)
    assert len({id(verb) for verb in verbs}) == len(set(verbs))
