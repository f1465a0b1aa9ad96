"""The five-metric evaluation suite in the three verb settings.

Metrics per verb: verb accuracy, value, value-all, grounded-value,
grounded-value-all; the summary row is the unweighted mean over verbs
(macro-averaging), so verbs with many images or long frames carry no
extra weight.
"""

from __future__ import annotations

import enum

import numpy as np

from .dataset_io import DatasetTable, EvaluationError, PredictionTable
from .frame_model import BoundingBox
from .geometry import box_array, iou

GROUNDING_IOU = 0.5

METRIC_NAMES = ("verb_acc", "value", "value_all", "grounded_value", "grounded_value_all")


class VerbSetting(enum.Enum):
    TOP1 = "top1"
    TOP5 = "top5"
    GROUND_TRUTH_VERB = "gt"


class ValueAllMode(enum.Enum):
    """Interpretation of the all-roles metric.

    ANY_PER_ROLE: every role must match at least one annotator, roles
    independently. SINGLE_ANNOTATOR: some single annotator frame must be
    matched on every role.
    """

    ANY_PER_ROLE = "any-per-role"
    SINGLE_ANNOTATOR = "single-annotator"


def score_noun(predicted: str, annotators) -> bool:
    """Noun is correct when it equals at least one annotator's value."""
    return predicted in annotators


def score_grounding(pred_box, gt_box):
    """Grounding is correct at IoU >= 0.5, or when both sides are ungrounded.

    Each side is a BoundingBox, None (ungrounded) or a (..., 4) float64 array
    whose NaN rows are ungrounded slots; arrays broadcast as in `geometry.iou`
    and give a bool array, two single boxes give a bool.
    """
    pred, gt = _rows(pred_box), _rows(gt_box)
    pred_absent, gt_absent = np.isnan(pred[..., 0]), np.isnan(gt[..., 0])
    with np.errstate(invalid="ignore"):  # an absent box gives NaN; np.where decides those slots
        hit = iou(pred, gt) >= GROUNDING_IOU
    ok = np.where(pred_absent | gt_absent, pred_absent & gt_absent, hit)
    return ok if ok.ndim else bool(ok)


def _rows(boxes) -> np.ndarray:
    if boxes is None or isinstance(boxes, BoundingBox):
        return box_array([boxes])[0]
    return np.asarray(boxes, dtype=np.float64)


def evaluate(dataset: DatasetTable, predictions: PredictionTable, setting: VerbSetting,
             value_all_mode: ValueAllMode = ValueAllMode.ANY_PER_ROLE) -> dict:
    """Score predictions against the dataset under one verb setting.

    `dataset` and `predictions` are what `load_dataset` and `load_predictions`
    return. Per-verb value = passed role slots / total role slots over that verb's
    images; the *_all metrics count whole images. Every dataset image must
    have a prediction, and every prediction must name a dataset image. A
    predicted frame for the image's verb must list the verb's roles in the
    lexicon's order.

    Returns the report as it is written: {"macro": {metric: fraction},
    "per_verb": {verb: {metric: fraction}}, "counts": {verb: {"images": n,
    "role_slots": n}}}.
    """
    if not dataset.ids:
        raise EvaluationError("the dataset holds no images: there is nothing to evaluate")
    record_of = {image_id: r for r, image_id in enumerate(predictions.ids)}
    missing = [image_id for image_id in dataset.ids if image_id not in record_of]
    if missing:
        more = f" (and {len(missing) - 1} more)" if len(missing) > 1 else ""
        raise EvaluationError(f"image {missing[0]!r}: no prediction{more}")
    known = set(dataset.ids)
    stray = [image_id for image_id in predictions.ids if image_id not in known]
    if stray:
        more = f" (and {len(stray) - 1} more)" if len(stray) > 1 else ""
        raise EvaluationError(f"prediction {stray[0]!r}: no such image in the dataset{more}")

    ranks = {VerbSetting.TOP1: 1, VerbSetting.TOP5: 5}.get(setting)  # None: the verb is given
    single = value_all_mode is ValueAllMode.SINGLE_ANNOTATOR
    code = {}  # verb -> its column in the per-verb counts
    verbs, verb_ok, n_roles, value_all = [], [], [], []  # per image
    owner, slots, gt_slots, noun_ok = [], [], [], []  # per role slot that can earn credit
    for k, (image_id, verb, annotated) in enumerate(
            zip(dataset.ids, dataset.verbs, dataset.annotations)):
        r, roles = record_of[image_id], dataset.lexicon.roles(verb)
        row = predictions.frames[r].get(verb)
        if row is not None and predictions.roles[row] != roles:
            raise EvaluationError(f"prediction {image_id!r}, frames[{verb!r}]: "
                                  f"roles {predictions.roles[row]} differ from the verb's {roles}")
        correct = ranks is None or verb in predictions.rankings[r][:ranks]
        verbs.append(code.setdefault(verb, len(code)))
        verb_ok.append(correct)
        n_roles.append(len(roles))
        # only a correct verb earns noun and grounding credit, through the gt verb's frame
        if not correct or row is None:
            value_all.append(False)
            continue
        predicted = predictions.nouns[row]
        hits = list(map(score_noun, predicted, zip(*annotated)))
        value_all.append(predicted in annotated if single else all(hits))
        noun_ok += hits
        owner += [k] * len(roles)
        slots += range(predictions.starts[row], predictions.starts[row + 1])
        gt_slots += range(dataset.starts[k], dataset.starts[k + 1])

    noun_ok = np.array(noun_ok, dtype=bool)
    grounded = noun_ok & score_grounding(predictions.boxes[np.array(slots, dtype=np.intp)],
                                         dataset.boxes[np.array(gt_slots, dtype=np.intp)])
    owner, verbs = np.array(owner, dtype=np.intp), np.array(verbs, dtype=np.intp)
    n_roles, value_all = np.array(n_roles, dtype=np.intp), np.array(value_all, dtype=bool)
    all_grounded = value_all & (np.bincount(owner[grounded], minlength=len(verbs)) == n_roles)
    # integer counts per verb column, each from the verb of every image or slot it counts
    n = {name: np.bincount(of_verbs, minlength=len(code)).tolist() for name, of_verbs in (
        ("images", verbs), ("verb_correct", verbs[np.array(verb_ok, dtype=bool)]),
        ("role_slots", np.repeat(verbs, n_roles)), ("value", verbs[owner[noun_ok]]),
        ("grounded_value", verbs[owner[grounded]]), ("value_all", verbs[value_all]),
        ("grounded_value_all", verbs[all_grounded]))}

    per_verb, counts = {}, {}
    for verb in sorted(code):
        c = code[verb]
        images, role_slots = n["images"][c], n["role_slots"][c]
        per_verb[verb] = {
            "verb_acc": n["verb_correct"][c] / images,
            "value": n["value"][c] / role_slots,
            "value_all": n["value_all"][c] / images,
            "grounded_value": n["grounded_value"][c] / role_slots,
            "grounded_value_all": n["grounded_value_all"][c] / images,
        }
        counts[verb] = {"images": images, "role_slots": role_slots}
    return {"macro": macro_average(per_verb), "per_verb": per_verb, "counts": counts}


def macro_average(per_verb: dict) -> dict:
    """Unweighted mean of each metric over verbs."""
    if not per_verb:
        raise EvaluationError("macro average of an empty per-verb map")
    return {
        m: sum(row[m] for row in per_verb.values()) / len(per_verb)
        for m in METRIC_NAMES
    }


def format_table(report: dict, setting: VerbSetting) -> str:
    """Fixed-width summary table for standard output."""
    header = f"{'setting':<8}" + "".join(f"{m:>20}" for m in METRIC_NAMES)
    row = f"{setting.value:<8}" + "".join(f"{report['macro'][m]:>20.4f}" for m in METRIC_NAMES)
    return header + "\n" + row
