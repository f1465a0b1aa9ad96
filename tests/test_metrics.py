import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swig_toolkit import (
    BoundingBox,
    GroundedFrame,
    NounVocabulary,
    ValueAllMode,
    VerbLexicon,
    VerbSetting,
    evaluate,
    macro_average,
    score_grounding,
)
from swig_toolkit.dataset_io import DatasetError, compute_stats, load_dataset, load_predictions
from swig_toolkit.geometry import box_array
from swig_toolkit.metrics import METRIC_NAMES, EvaluationError
from conftest import (
    LEXICON_ROLES,
    NOUNS,
    Image,
    Prediction,
    Split,
    dataset_json,
    load_preds,
    load_split,
    perfect_prediction,
    prediction_json,
    random_dataset,
    random_prediction,
)
from oracles import compute_stats_naive, evaluate_naive, iou_exact, load_dataset_naive


# One image of "jumping" (Agent, Place): its three annotator frames, the predicted frame of
# each verb in file order ("jumping" first in the ranking), and the share of the image's role
# slots whose predicted noun is correct.
NOUN_RULE = {
    "any-annotator": ([("dough", "kitchen"), ("dough", "kitchen"), ("bread", "kitchen")],
                      {"jumping": ("dough", "kitchen")}, 1.0),
    "null-matches-null": ([("", "street"), ("sofa", ""), ("", "")], {"jumping": ("", "")}, 1.0),
    "no-match": ([("dog", "kitchen"), ("dog", "kitchen"), ("bag", "kitchen")],
                 {"jumping": ("cat", "kitchen")}, 0.5),
    # "puppy" is in no annotator frame, nor in the vocabulary
    "named-by-no-annotator": ([("man", ""), ("", ""), ("man", "")],
                              {"jumping": ("puppy", "")}, 0.5),
    # the prediction file reads "street", "woman", "kitchen" first; the dataset "man", "kitchen"
    "another-first-read-order": ([("man", "kitchen"), ("woman", "street"), ("man", "")],
                                 {"kneading": ("street", "woman", "kitchen"),
                                  "jumping": ("woman", "street")}, 1.0),
}


@pytest.mark.parametrize("annotated, predicted, value", NOUN_RULE.values(), ids=NOUN_RULE)
def test_a_predicted_noun_is_correct_when_it_equals_an_annotators(lexicon, vocabulary, annotated,
                                                                 predicted, value):
    roles, gt = lexicon.roles("jumping"), VerbSetting.GROUND_TRUTH_VERB
    image = Image("a.jpg", 100, 100, "jumping",
                  tuple(GroundedFrame(tuple(zip(roles, nouns)), (None, None)) for nouns in annotated),
                  dict.fromkeys(roles))
    frames = {verb: GroundedFrame(tuple(zip(lexicon.roles(verb), nouns)), (None,) * len(nouns))
              for verb, nouns in predicted.items()}
    split, preds = Split(lexicon, vocabulary, (image,)), [Prediction("a.jpg", ("jumping", "kneading"), frames)]
    for mode in ValueAllMode:
        report = evaluate(load_split(split), load_preds(preds, lexicon), gt, mode)
        assert report["per_verb"]["jumping"]["value"] == value
        assert (report["macro"], report["per_verb"]) == evaluate_report(split, preds, gt, mode)


class TestScoreGrounding:
    def test_both_absent(self):
        assert score_grounding(box_array([None]), box_array([None])).tolist() == [True]

    def test_identical_boxes(self):
        b = box_array([BoundingBox(0, 0, 10, 10)])
        assert score_grounding(b, b).tolist() == [True]

    def test_low_iou(self):
        pred, gt = box_array([BoundingBox(0, 0, 2, 2)]), box_array([BoundingBox(1, 1, 3, 3)])
        assert score_grounding(pred, gt).tolist() == [False]

    def test_mixed_absent(self):
        b = box_array([BoundingBox(0, 0, 10, 10)])
        assert score_grounding(b, box_array([None])).tolist() == [False]
        assert score_grounding(box_array([None]), b).tolist() == [False]


# boxes on a small grid, so some pairs overlap; the example pins an IoU of exactly 0.5
SIDE = st.integers(1, 2) | st.sampled_from([0.5, 1.5]) | st.floats(0.5, 4)
GROUNDING = st.none() | st.builds(lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
                                  st.integers(0, 2), st.integers(0, 2), SIDE, SIDE)


def grounded_exactly(pred, gt) -> bool:
    return pred is gt is None if pred is None or gt is None else iou_exact(pred, gt) >= 0.5


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(GROUNDING, GROUNDING), max_size=12))
@example(pairs=[(BoundingBox(0, 0, 2, 1), BoundingBox(0, 0, 1, 1)), (None, None),
                (BoundingBox(0, 0, 1, 1), None)])  # IoU exactly 0.5 is a hit
def test_score_grounding_over_arrays_equals_it_on_each_pair(pairs):
    preds, gts = [p for p, _ in pairs], [g for _, g in pairs]
    rows = score_grounding(box_array(preds), box_array(gts))
    assert rows.dtype == bool and rows.tolist() == [grounded_exactly(p, g) for p, g in pairs]
    every_pair = score_grounding(box_array(preds)[:, None], box_array(gts)[None, :])
    assert every_pair.tolist() == [[grounded_exactly(p, g) for g in gts] for p in preds]


def two_image_fixture(lexicon, vocabulary):
    """One verb, two images, hand-constructed pass/fail pattern."""
    verb = "kneading"
    box = BoundingBox(10, 10, 40, 40)
    off_box = BoundingBox(60, 60, 90, 90)

    def image(image_id):
        values = (("Agent", "man"), ("Item", "dough"), ("Place", "kitchen"))
        frames = tuple(GroundedFrame(values, (None, None, None)) for _ in range(3))
        return Image(image_id, 100, 100, verb, frames, {"Agent": box, "Item": box, "Place": None})

    img_a, img_b = image("a.jpg"), image("b.jpg")
    # A: all 3 roles correct and grounded
    frame_a = GroundedFrame(
        (("Agent", "man"), ("Item", "dough"), ("Place", "kitchen")),
        (box, box, None),
    )
    # B: Agent correct + grounding wrong; Item correct + grounded; Place noun wrong
    frame_b = GroundedFrame(
        (("Agent", "man"), ("Item", "dough"), ("Place", "street")),
        (off_box, box, None),
    )
    preds = [
        Prediction("a.jpg", (verb,), {verb: frame_a}),
        Prediction("b.jpg", (verb,), {verb: frame_b}),
    ]
    return Split(lexicon, vocabulary, (img_a, img_b)), preds


class TestEvaluate:
    def test_hand_computed_slot_accounting(self, lexicon, vocabulary):
        dataset, preds = two_image_fixture(lexicon, vocabulary)
        report = evaluate(load_split(dataset), load_preds(preds, lexicon), VerbSetting.GROUND_TRUTH_VERB)
        row = report["per_verb"]["kneading"]
        assert row["value"] == pytest.approx(5 / 6)
        assert row["grounded_value"] == pytest.approx(4 / 6)
        assert row["value_all"] == pytest.approx(1 / 2)
        assert row["grounded_value_all"] == pytest.approx(1 / 2)
        assert row["verb_acc"] == 1.0

    def test_perfect_predictions_are_all_ones(self, rng, lexicon, vocabulary):
        dataset = random_dataset(rng, lexicon, vocabulary)
        preds = load_preds([perfect_prediction(img) for img in dataset.images], lexicon)
        for setting in VerbSetting:
            report = evaluate(load_split(dataset), preds, setting)
            for metric, value in report["macro"].items():
                assert value == 1.0, (setting, metric)

    def test_wrong_top_verb_zeroes_everything(self, lexicon, vocabulary):
        dataset, preds = two_image_fixture(lexicon, vocabulary)
        wrong = load_preds([Prediction(p.image_id, ("jumping", "kneading"), p.frames)
                            for p in preds], lexicon)
        report = evaluate(load_split(dataset), wrong, VerbSetting.TOP1)
        assert all(v == 0.0 for v in report["per_verb"]["kneading"].values())
        # under top-5 the gt verb is in the ranking, so credit returns
        report5 = evaluate(load_split(dataset), wrong, VerbSetting.TOP5)
        assert report5["per_verb"]["kneading"]["verb_acc"] == 1.0
        assert report5["per_verb"]["kneading"]["value"] > 0

    def test_missing_prediction_errors(self, lexicon, vocabulary):
        dataset, preds = two_image_fixture(lexicon, vocabulary)
        with pytest.raises(EvaluationError, match="b.jpg"):
            evaluate(load_split(dataset), load_preds(preds[:1], lexicon), VerbSetting.TOP1)

    @pytest.mark.parametrize("setting", list(VerbSetting))
    def test_role_list_mismatch_errors(self, lexicon, vocabulary, setting):
        dataset, preds = two_image_fixture(lexicon, vocabulary)
        frame = preds[1].frames["kneading"]
        reordered = GroundedFrame(frame.role_values[::-1], frame.groundings[::-1])
        preds[0] = Prediction("a.jpg", ("kneading",), {})
        preds[1] = Prediction("b.jpg", ("jumping", "kneading"), {"kneading": reordered})
        # the oracle looks roles up by name; the evaluator refuses rather than zeroing
        assert evaluate_naive(dataset, preds, setting.value)
        # a lexicon with kneading's roles reversed reads b.jpg's frame in that order
        reversed_roles = VerbLexicon(dict(lexicon.entries, kneading=reordered.roles))
        with pytest.raises(EvaluationError) as e:
            evaluate(load_split(dataset), load_preds(preds, reversed_roles), setting)
        assert str(e.value) == (
            "prediction 'b.jpg', frames['kneading']: roles ('Place', 'Item', 'Agent') "
            "differ from the verb's ('Agent', 'Item', 'Place')")

    def test_dominance_chain(self, rng, lexicon, vocabulary):
        for _ in range(20):
            dataset = random_dataset(rng, lexicon, vocabulary)
            preds = load_preds([random_prediction(rng, lexicon, img) for img in dataset.images],
                               lexicon)
            for setting in VerbSetting:
                report = evaluate(load_split(dataset), preds, setting)
                for row in report["per_verb"].values():
                    assert row["grounded_value"] <= row["value"] + 1e-12
                    assert row["grounded_value_all"] <= row["value_all"] + 1e-12
                    assert row["value_all"] <= row["value"] + 1e-12

    def test_image_order_invariance(self, rng, lexicon, vocabulary):
        dataset = random_dataset(rng, lexicon, vocabulary)
        preds = load_preds([random_prediction(rng, lexicon, img) for img in dataset.images], lexicon)
        shuffled_images = list(dataset.images)
        rng.shuffle(shuffled_images)
        shuffled = Split(lexicon, vocabulary, tuple(shuffled_images))
        for setting in VerbSetting:
            a = evaluate(load_split(dataset), preds, setting)
            b = evaluate(load_split(shuffled), preds, setting)
            assert a["per_verb"] == b["per_verb"] and a["macro"] == b["macro"]

    def test_matches_brute_force_oracle(self, rng, lexicon, vocabulary):
        for trial in range(25):
            dataset = random_dataset(
                rng, lexicon, vocabulary,
                n_verbs=rng.randint(1, 5), images_per_verb=rng.randint(1, 4),
            )
            preds = [random_prediction(rng, lexicon, img) for img in dataset.images]
            for setting in VerbSetting:
                report = evaluate(load_split(dataset), load_preds(preds, lexicon), setting)
                expected = evaluate_naive(dataset, preds, setting.value)
                macro = expected.pop("_macro")
                assert report["per_verb"] == expected
                assert report["macro"] == macro

    def test_single_annotator_value_all_mode(self, lexicon, vocabulary):
        dataset, preds = two_image_fixture(lexicon, vocabulary)
        # image A's frame matches annotator frames exactly, so both modes agree here
        report = evaluate(load_split(dataset), load_preds(preds, lexicon),
                          VerbSetting.GROUND_TRUTH_VERB, ValueAllMode.SINGLE_ANNOTATOR)
        assert report["per_verb"]["kneading"]["value_all"] == pytest.approx(1 / 2)

    def test_single_annotator_matches_brute_force_oracle(self, lexicon, vocabulary):
        rng = random.Random(202)  # the random splits of acceptance criterion 3
        credited = differs = False
        for _ in range(50):
            dataset = random_dataset(
                rng, lexicon, vocabulary,
                n_verbs=rng.randint(1, 5), images_per_verb=rng.randint(1, 2),
            )
            preds = [random_prediction(rng, lexicon, img) for img in dataset.images]
            table, predictions = load_split(dataset), load_preds(preds, lexicon)
            for setting in VerbSetting:
                report = evaluate(table, predictions, setting, ValueAllMode.SINGLE_ANNOTATOR)
                expected = evaluate_naive(dataset, preds, setting.value,
                                          value_all_mode="single-annotator")
                macro = expected.pop("_macro")
                assert report["per_verb"] == expected
                assert report["macro"] == macro
                credited |= macro["value_all"] > 0
                differs |= macro != evaluate(table, predictions, setting)["macro"]
        assert credited and differs  # the splits tell the two modes apart

    def test_a_setting_or_mode_given_by_value_is_scored_as_that_member(self, lexicon, vocabulary):
        rng = random.Random(202)
        dataset = random_dataset(rng, lexicon, vocabulary, n_verbs=5, images_per_verb=2)
        preds = [random_prediction(rng, lexicon, img) for img in dataset.images]
        table, predictions = load_split(dataset), load_preds(preds, lexicon)
        reports = {(setting, mode): evaluate(table, predictions, setting, mode)
                   for setting in VerbSetting for mode in ValueAllMode}
        gt = reports[VerbSetting.GROUND_TRUTH_VERB, ValueAllMode.ANY_PER_ROLE]
        assert reports[VerbSetting.TOP1, ValueAllMode.ANY_PER_ROLE] != gt  # the split tells them apart
        assert reports[VerbSetting.GROUND_TRUTH_VERB, ValueAllMode.SINGLE_ANNOTATOR] != gt
        for (setting, mode), report in reports.items():
            assert evaluate(table, predictions, setting.value, mode.value) == report
        for setting, mode in (("bogus", ValueAllMode.ANY_PER_ROLE), ("TOP1", ValueAllMode.ANY_PER_ROLE),
                              (VerbSetting.TOP1, "bogus"), (VerbSetting.TOP1, None)):
            with pytest.raises(ValueError, match="is not a valid"):
                evaluate(table, predictions, setting, mode)


# A ranking as tokens: 0 is the image's own verb, 1..4 the lexicon's other verbs in
# sorted order. `random_prediction` ranks all five verbs and frames the gt verb; these
# draws also miss the gt verb, stop short of five, repeat a verb and drop frames.
RANKED = st.lists(st.integers(0, 4), min_size=1, max_size=7)
UNFRAMED = st.sets(st.integers(0, 4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rankings=st.lists(st.tuples(RANKED, UNFRAMED), min_size=1,
                                                          max_size=6))
@example(seed=1, rankings=[([1, 2, 3], set())])  # the gt verb outside a ranking shorter than five
@example(seed=2, rankings=[([1, 2, 0], set())])  # the gt verb third of three
@example(seed=3, rankings=[([1, 1, 0, 0, 2], set()), ([0, 2, 0], set())])  # repeated verbs
@example(seed=4, rankings=[([0, 1], {0}), ([1, 0, 2], {1})])  # a ranked verb with no frame
@example(seed=5, rankings=[([1, 2, 3, 4, 1, 0], set())])  # the gt verb sixth, after a repeat
def test_any_ranking_and_any_dropped_frame_score_as_the_oracle(seed, rankings):
    rng = random.Random(seed)
    lexicon, vocabulary = VerbLexicon(dict(LEXICON_ROLES)), NounVocabulary(frozenset(NOUNS))
    dataset = random_dataset(rng, lexicon, vocabulary, n_verbs=rng.randint(1, 5),
                             images_per_verb=rng.randint(1, 3))
    # only the gt verb's frame is scored; another ranked verb gets an empty frame
    empty = {verb: GroundedFrame(tuple((role, "") for role in roles), (None,) * len(roles))
             for verb, roles in LEXICON_ROLES.items()}
    preds = []
    for k, image in enumerate(dataset.images):
        ranked, unframed = rankings[k % len(rankings)]
        verbs = [image.verb, *(v for v in sorted(LEXICON_ROLES) if v != image.verb)]
        own = random_prediction(rng, lexicon, image).frames[image.verb]
        frames = {verbs[t]: own if t == 0 else empty[verbs[t]] for t in set(ranked) - unframed}
        preds.append(Prediction(image.image_id, tuple(verbs[t] for t in ranked), frames))
    table, predictions = load_split(dataset), load_preds(preds, lexicon)
    for setting in VerbSetting:
        for mode in ValueAllMode:
            report = evaluate(table, predictions, setting, mode)
            assert (report["macro"], report["per_verb"]) == evaluate_report(dataset, preds, setting, mode)


def test_a_setting_only_picks_which_images_earn_credit(rng, lexicon, vocabulary):
    for _ in range(20):
        dataset = random_dataset(rng, lexicon, vocabulary, n_verbs=rng.randint(1, 5),
                                 images_per_verb=rng.randint(1, 4))
        preds = [random_prediction(rng, lexicon, img) for img in dataset.images]
        table, predictions = load_split(dataset), load_preds(preds, lexicon)
        for mode in ValueAllMode:
            reports = [evaluate(table, predictions, setting, mode) for setting in VerbSetting]
            assert reports[0]["counts"] == reports[1]["counts"] == reports[2]["counts"]
            for verb, n in reports[0]["counts"].items():
                for metric in METRIC_NAMES:
                    whole = n["role_slots" if metric in ("value", "grounded_value") else "images"]
                    fractions = [r["per_verb"][verb][metric] for r in reports]
                    top1, top5, gt = (round(x * whole) for x in fractions)
                    assert fractions == [top1 / whole, top5 / whole, gt / whole], (verb, metric)
                    assert top1 <= top5 <= gt, (verb, metric)


def test_a_frame_out_of_role_order_is_an_error_under_top1_for_a_verb_miss(rng, lexicon, vocabulary):
    for _ in range(10):
        dataset = random_dataset(rng, lexicon, vocabulary, n_verbs=rng.randint(1, 5),
                                 images_per_verb=rng.randint(1, 4))
        preds = [random_prediction(rng, lexicon, img) for img in dataset.images]
        missed = rng.choice(dataset.images)
        verb, roles = missed.verb, lexicon.roles(missed.verb)
        for k, (image, p) in enumerate(zip(dataset.images, preds)):  # only `missed` frames `verb`
            frames = {v: f for v, f in p.frames.items() if v != verb or image is missed}
            ranking = tuple(v for v in p.verb_ranking if v != verb) + (verb,)
            preds[k] = Prediction(p.image_id, ranking if image is missed else p.verb_ranking, frames)
        reversed_roles = VerbLexicon(dict(lexicon.entries, **{verb: roles[::-1]}))
        with pytest.raises(EvaluationError) as e:
            evaluate(load_split(dataset), load_preds(preds, reversed_roles), VerbSetting.TOP1)
        assert str(e.value) == (f"prediction {missed.image_id!r}, frames[{verb!r}]: "
                                f"roles {roles[::-1]} differ from the verb's {roles}")


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


def test_loading_and_scoring_predictions_builds_no_box_or_frame(rng, lexicon, vocabulary,
                                                                 monkeypatch):
    dataset = random_dataset(rng, lexicon, vocabulary, n_verbs=5)
    records = [random_prediction(rng, lexicon, img) for img in dataset.images]
    payload = [prediction_json(p) for p in records]
    table = load_split(dataset)
    built = []
    for cls in (BoundingBox, GroundedFrame):
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, check=cls.__post_init__: (built.append(self), check(self)))
    predictions = load_predictions(payload, lexicon)
    reports = [evaluate(table, predictions, setting, mode)
               for setting in VerbSetting for mode in ValueAllMode]
    assert built == []
    monkeypatch.undo()
    assert [(r["macro"], r["per_verb"]) for r in reports] == [
        evaluate_report(dataset, records, setting, mode)
        for setting in VerbSetting for mode in ValueAllMode]


def evaluate_report(dataset, predictions, setting, mode):
    """`evaluate_naive`'s (macro, per_verb) result."""
    expected = evaluate_naive(dataset, predictions, setting.value, value_all_mode=mode.value)
    return expected.pop("_macro"), expected


def test_loading_and_scoring_the_dataset_builds_no_image_frame_or_box(rng, lexicon, vocabulary,
                                                                     monkeypatch):
    dataset = random_dataset(rng, lexicon, vocabulary, n_verbs=5)
    records = [random_prediction(rng, lexicon, img) for img in dataset.images]
    preds = [prediction_json(p) for p in records]
    files = ([dataset_json(img) for img in dataset.images],
             {verb: list(roles) for verb, roles in lexicon.entries.items()}, sorted(vocabulary.ids))
    built = []
    for cls in (BoundingBox, GroundedFrame):
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, check=cls.__post_init__: (built.append(self), check(self)))
    table = load_dataset(*files)
    reports = [evaluate(table, load_predictions(preds, table.lexicon), setting, mode)
               for setting in VerbSetting for mode in ValueAllMode]
    stats = compute_stats(table)
    assert built == []
    monkeypatch.undo()
    assert [(r["macro"], r["per_verb"]) for r in reports] == [
        evaluate_report(dataset, records, setting, mode)
        for setting in VerbSetting for mode in ValueAllMode]
    assert stats == compute_stats_naive(load_dataset_naive(*files)[0], files[1])


def test_a_repeated_image_id_in_a_library_dataset_is_an_error(lexicon, vocabulary):
    dataset, _ = two_image_fixture(lexicon, vocabulary)
    repeated = Split(lexicon, vocabulary, dataset.images + dataset.images[:1])
    with pytest.raises(DatasetError, match=r"^image 'a.jpg': duplicate image id \(record #2\)$"):
        load_split(repeated)


def test_a_repeated_prediction_id_is_an_error(lexicon, vocabulary):
    _, preds = two_image_fixture(lexicon, vocabulary)
    with pytest.raises(DatasetError, match=r"^prediction 'a.jpg': duplicate id \(record #2\)$"):
        load_preds(preds + preds[:1], lexicon)


def test_an_image_without_its_verbs_lexicon_roles_is_an_error(lexicon, vocabulary):
    dataset, _ = two_image_fixture(lexicon, vocabulary)
    image = dataset.images[1]
    frames = tuple(GroundedFrame(f.role_values[:2], f.groundings[:2])
                   for f in image.annotator_frames)
    short = image._replace(annotator_frames=frames)
    with pytest.raises(DatasetError, match=r"^image 'b.jpg', frames\[0\]: missing role 'Place' "
                                           r"\(and 2 more\)$"):
        load_split(Split(lexicon, vocabulary, (dataset.images[0], short)))
