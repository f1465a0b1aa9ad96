import random

import pytest

from swig_toolkit import (
    AnnotatedImage,
    BoundingBox,
    Dataset,
    GroundedFrame,
    NounVocabulary,
    PredictionRecord,
    ValueAllMode,
    VerbSetting,
    evaluate,
    macro_average,
    score_grounding,
    score_noun,
)
from swig_toolkit.metrics import EvaluationError
from conftest import NOUNS, perfect_prediction, random_dataset, random_prediction
from oracles import evaluate_naive


class TestScoreNoun:
    def test_matches_any_annotator(self):
        assert score_noun("dough", ["dough", "dough", "bread"])

    def test_null_matches_null(self):
        assert score_noun("", ["", "sky", ""])

    def test_no_match(self):
        assert not score_noun("cat", ["dog", "dog", "puppy"])


class TestScoreGrounding:
    def test_both_absent(self):
        assert score_grounding(None, None)

    def test_identical_boxes(self):
        b = BoundingBox(0, 0, 10, 10)
        assert score_grounding(b, b)

    def test_low_iou(self):
        assert not score_grounding(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 3, 3))

    def test_mixed_absent(self):
        b = BoundingBox(0, 0, 10, 10)
        assert not score_grounding(b, None)
        assert not score_grounding(None, b)


def two_image_fixture(lexicon, vocabulary):
    """One verb, two images, hand-constructed pass/fail pattern."""
    verb = "kneading"
    box = BoundingBox(10, 10, 40, 40)
    off_box = BoundingBox(60, 60, 90, 90)

    def image(image_id):
        values = (("Agent", "man"), ("Item", "dough"), ("Place", "kitchen"))
        frames = tuple(GroundedFrame(verb, values, (None, None, None)) for _ in range(3))
        return AnnotatedImage(image_id, 100, 100, verb, frames,
                              {"Agent": box, "Item": box, "Place": None})

    img_a, img_b = image("a.jpg"), image("b.jpg")
    # A: all 3 roles correct and grounded
    frame_a = GroundedFrame(
        verb,
        (("Agent", "man"), ("Item", "dough"), ("Place", "kitchen")),
        (box, box, None),
    )
    # B: Agent correct + grounding wrong; Item correct + grounded; Place noun wrong
    frame_b = GroundedFrame(
        verb,
        (("Agent", "man"), ("Item", "dough"), ("Place", "street")),
        (off_box, box, None),
    )
    preds = [
        PredictionRecord("a.jpg", (verb,), {verb: frame_a}),
        PredictionRecord("b.jpg", (verb,), {verb: frame_b}),
    ]
    return Dataset(lexicon, vocabulary, (img_a, img_b)), preds


class TestEvaluate:
    def test_hand_computed_slot_accounting(self, lexicon, vocabulary):
        dataset, preds = two_image_fixture(lexicon, vocabulary)
        report = evaluate(dataset, preds, VerbSetting.GROUND_TRUTH_VERB)
        row = report.per_verb["kneading"]
        assert row["value"] == pytest.approx(5 / 6)
        assert row["grounded_value"] == pytest.approx(4 / 6)
        assert row["value_all"] == pytest.approx(1 / 2)
        assert row["grounded_value_all"] == pytest.approx(1 / 2)
        assert row["verb_acc"] == 1.0

    def test_perfect_predictions_are_all_ones(self, rng, lexicon, vocabulary):
        dataset = random_dataset(rng, lexicon, vocabulary)
        preds = [perfect_prediction(img) for img in dataset.images]
        for setting in VerbSetting:
            report = evaluate(dataset, preds, setting)
            for metric, value in report.macro.items():
                assert value == 1.0, (setting, metric)

    def test_wrong_top_verb_zeroes_everything(self, lexicon, vocabulary):
        dataset, preds = two_image_fixture(lexicon, vocabulary)
        wrong = [
            PredictionRecord(p.image_id, ("jumping", "kneading"), p.frames)
            for p in preds
        ]
        report = evaluate(dataset, wrong, VerbSetting.TOP1)
        assert all(v == 0.0 for v in report.per_verb["kneading"].values())
        # under top-5 the gt verb is in the ranking, so credit returns
        report5 = evaluate(dataset, wrong, VerbSetting.TOP5)
        assert report5.per_verb["kneading"]["verb_acc"] == 1.0
        assert report5.per_verb["kneading"]["value"] > 0

    def test_missing_prediction_errors(self, lexicon, vocabulary):
        dataset, preds = two_image_fixture(lexicon, vocabulary)
        with pytest.raises(EvaluationError, match="b.jpg"):
            evaluate(dataset, preds[:1], VerbSetting.TOP1)

    def test_dominance_chain(self, rng, lexicon, vocabulary):
        for _ in range(20):
            dataset = random_dataset(rng, lexicon, vocabulary)
            preds = [random_prediction(rng, lexicon, img) for img in dataset.images]
            for setting in VerbSetting:
                report = evaluate(dataset, preds, setting)
                for row in report.per_verb.values():
                    assert row["grounded_value"] <= row["value"] + 1e-12
                    assert row["grounded_value_all"] <= row["value_all"] + 1e-12
                    assert row["value_all"] <= row["value"] + 1e-12

    def test_image_order_invariance(self, rng, lexicon, vocabulary):
        dataset = random_dataset(rng, lexicon, vocabulary)
        preds = [random_prediction(rng, lexicon, img) for img in dataset.images]
        shuffled_images = list(dataset.images)
        rng.shuffle(shuffled_images)
        shuffled = Dataset(lexicon, vocabulary, tuple(shuffled_images))
        for setting in VerbSetting:
            a = evaluate(dataset, preds, setting)
            b = evaluate(shuffled, preds, setting)
            assert a.per_verb == b.per_verb and a.macro == b.macro

    def test_matches_brute_force_oracle(self, rng, lexicon, vocabulary):
        for trial in range(25):
            dataset = random_dataset(
                rng, lexicon, vocabulary,
                n_verbs=rng.randint(1, 5), images_per_verb=rng.randint(1, 4),
            )
            preds = [random_prediction(rng, lexicon, img) for img in dataset.images]
            for setting in VerbSetting:
                report = evaluate(dataset, preds, setting)
                expected = evaluate_naive(dataset, preds, setting.value)
                macro = expected.pop("_macro")
                assert report.per_verb == expected
                assert report.macro == macro

    def test_single_annotator_value_all_mode(self, lexicon, vocabulary):
        dataset, preds = two_image_fixture(lexicon, vocabulary)
        # image A's frame matches annotator frames exactly, so both modes agree here
        report = evaluate(dataset, preds, VerbSetting.GROUND_TRUTH_VERB,
                          ValueAllMode.SINGLE_ANNOTATOR)
        assert report.per_verb["kneading"]["value_all"] == pytest.approx(1 / 2)


class TestMacroAverage:
    def test_singleton(self):
        row = {"verb_acc": 0.5, "value": 0.2, "value_all": 0.1,
               "grounded_value": 0.2, "grounded_value_all": 0.1}
        assert macro_average({"kneading": row}) == row

    def test_two_verbs(self):
        rows = {
            "a": {"verb_acc": 1.0, "value": 0.2, "value_all": 0.0,
                  "grounded_value": 0.1, "grounded_value_all": 0.0},
            "b": {"verb_acc": 0.0, "value": 0.4, "value_all": 1.0,
                  "grounded_value": 0.3, "grounded_value_all": 0.5},
        }
        macro = macro_average(rows)
        assert macro["value"] == pytest.approx(0.3)
        assert macro["verb_acc"] == pytest.approx(0.5)

    def test_empty_errors(self):
        with pytest.raises(EvaluationError):
            macro_average({})

    def test_large_random_map_matches_independent_summation(self):
        rng = random.Random(13)
        rows = {
            f"verb{i}": {
                m: rng.random()
                for m in ("verb_acc", "value", "value_all", "grounded_value", "grounded_value_all")
            }
            for i in range(504)
        }
        macro = macro_average(rows)
        for m in macro:
            total = 0.0
            for row in rows.values():
                total += row[m]
            assert macro[m] == pytest.approx(total / 504, abs=1e-12)
