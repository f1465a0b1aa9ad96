import json

import pytest

from swig_toolkit import BoundingBox, compute_stats, load_dataset, merge_worker_boxes
from swig_toolkit.dataset_io import DatasetError, load_predictions, parse_lexicon

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
        assert len(ds.images) == 1
        img = ds.images[0]
        assert img.verb == "kneading"
        assert img.gt_groundings["Agent"] == BoundingBox(0, 0, 50, 80)
        assert img.gt_groundings["Place"] is None

    def test_empty_dataset(self):
        ds = load_dataset([], LEXICON_JSON, VOCAB_JSON)
        assert ds.images == ()

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
        assert ds.images[0].gt_groundings["Item"] is None

    def test_out_of_bounds_box_clamped_with_warning(self):
        rec = image_record()
        rec["boxes"]["Agent"] = [0, 0, 120, 80]
        warnings = []
        ds = load_dataset([rec], LEXICON_JSON, VOCAB_JSON, warnings=warnings)
        assert ds.images[0].gt_groundings["Agent"] == BoundingBox(0, 0, 100, 80)
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
        assert ds.images[0].gt_groundings["Agent"] == BoundingBox(2, 2, 12, 12)
        assert ds.images[0].gt_groundings["Item"] is None

    def test_deterministic(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([image_record(), image_record("img2.jpg", "jumping", frames=[
            {"Agent": "man", "Place": "street"}] * 3, boxes={"Agent": [1, 1, 9, 9], "Place": None})]))
        a = load_dataset(str(path), LEXICON_JSON, VOCAB_JSON)
        b = load_dataset(str(path), LEXICON_JSON, VOCAB_JSON)
        assert a.images == b.images


class TestComputeStats:
    def test_slot_counts(self):
        # 3 roles x 3 annotators = 9 slots; one Place null among them
        ds = load_dataset([image_record()], LEXICON_JSON, VOCAB_JSON)
        stats = compute_stats(ds)
        assert stats.total_noun_slots == 9
        assert stats.non_null_slots == 8
        # Agent and Item have boxes: annotators with non-null nouns there all count
        assert stats.grounded_slots == 6
        assert stats.mean_frame_length == 3.0

    def test_place_never_grounded(self, rng, lexicon, vocabulary):
        from conftest import random_dataset

        ds = random_dataset(rng, lexicon, vocabulary, n_verbs=4, images_per_verb=5)
        stats = compute_stats(ds)
        assert stats.role_grounding_rate["Place"] == 0.0
        assert stats.grounded_slots <= stats.non_null_slots <= stats.total_noun_slots

    def test_scale_and_aspect(self):
        rec = image_record(boxes={"Agent": [0, 0, 50, 50], "Item": None, "Place": None})
        ds = load_dataset([rec], LEXICON_JSON, VOCAB_JSON)
        stats = compute_stats(ds)
        (noun, verb, role, scale, aspect) = stats.scale_aspect_samples[0]
        assert (role, scale, aspect) == ("Agent", 0.5, 1.0)

    def test_grounded_fraction(self):
        ds = load_dataset([image_record()], LEXICON_JSON, VOCAB_JSON)
        stats = compute_stats(ds)
        assert stats.grounded_fraction == pytest.approx(6 / 8)


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
        (p,) = preds
        assert p.verb_ranking == ("kneading", "jumping")
        frame = p.frames["kneading"]
        assert frame.grounding_of("Agent") == BoundingBox(0, 0, 10, 10)
        assert frame.groundings[1:] == (None, None)

    def test_grounded_flag_overrides_box(self):
        lexicon = parse_lexicon(LEXICON_JSON)
        (p,) = load_predictions(
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
        assert p.frames["jumping"].grounding_of("Agent") is None

    def test_frame_serialization_round_trip(self, rng, lexicon, vocabulary):
        from conftest import random_dataset, random_prediction
        from swig_toolkit.frame_model import frame_to_json

        ds = random_dataset(rng, lexicon, vocabulary)
        for img in ds.images:
            pred = random_prediction(rng, lexicon, img)
            payload = [{
                "id": pred.image_id,
                "verbs": list(pred.verb_ranking),
                "frames": {
                    verb: {k: v for k, v in frame_to_json(f).items() if k != "verb"}
                    for verb, f in pred.frames.items()
                },
            }]
            (reloaded,) = load_predictions(payload, lexicon)
            assert reloaded.frames == pred.frames
            assert reloaded.verb_ranking == pred.verb_ranking

    def test_missing_noun_errors(self):
        lexicon = parse_lexicon(LEXICON_JSON)
        with pytest.raises(DatasetError, match="missing noun"):
            load_predictions(
                [{"id": "x", "verbs": ["jumping"],
                  "frames": {"jumping": {"nouns": {"Agent": "man"}}}}],
                lexicon,
            )
