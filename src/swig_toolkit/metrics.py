"""The five-metric evaluation suite in the three verb settings.

Metrics per verb: verb accuracy, value, value-all, grounded-value,
grounded-value-all; the summary row is the unweighted mean over verbs
(macro-averaging), so verbs with many images or long frames carry no
extra weight.
"""

from __future__ import annotations

import enum
from typing import Optional

from .dataset_io import Dataset
from .frame_model import BoundingBox, GroundedFrame
from .geometry import iou

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


class EvaluationError(ValueError):
    pass


def score_noun(predicted: str, annotators) -> bool:
    """Noun is correct when it equals at least one annotator's value."""
    return any(predicted == a for a in annotators)


def score_grounding(pred_box: Optional[BoundingBox], gt_box: Optional[BoundingBox]) -> bool:
    """Grounding is correct at IoU >= 0.5, or when both sides are ungrounded."""
    if pred_box is None or gt_box is None:
        return pred_box is None and gt_box is None
    return bool(iou(pred_box, gt_box) >= GROUNDING_IOU)


def _score_image(image, frame: Optional[GroundedFrame], value_all_mode: ValueAllMode):
    """Per-role pass vectors for one image; a None frame fails everything.

    A frame has the image's roles in the image's order (`evaluate` checks).
    """
    roles = image.roles
    n = len(roles)
    if frame is None:
        return [False] * n, [False] * n, False
    predicted = frame.nouns
    annotated = [f.nouns for f in image.annotator_frames]
    noun_ok, both_ok = [], []
    for i, role in enumerate(roles):
        ok = score_noun(predicted[i], [nouns[i] for nouns in annotated])
        grounded_ok = ok and score_grounding(frame.groundings[i], image.gt_groundings.get(role))
        noun_ok.append(ok)
        both_ok.append(grounded_ok)
    if value_all_mode is ValueAllMode.SINGLE_ANNOTATOR:
        value_all = predicted in annotated
    else:
        value_all = all(noun_ok)
    return noun_ok, both_ok, value_all


def evaluate(dataset: Dataset, predictions: list, setting: VerbSetting,
             value_all_mode: ValueAllMode = ValueAllMode.ANY_PER_ROLE) -> dict:
    """Score predictions against the dataset under one verb setting.

    Per-verb value = passed role slots / total role slots over that verb's
    images; the *_all metrics count whole images. Every dataset image must
    have a prediction, and every prediction must name a dataset image. A
    predicted frame for the image's verb must list the verb's roles in the
    lexicon's order.

    Returns the report as it is written: {"macro": {metric: fraction},
    "per_verb": {verb: {metric: fraction}}, "counts": {verb: {"images": n,
    "role_slots": n}}}.
    """
    if not dataset.images:
        raise EvaluationError("the dataset holds no images: there is nothing to evaluate")
    by_id = {p.image_id: p for p in predictions}
    missing = [img.image_id for img in dataset.images if img.image_id not in by_id]
    if missing:
        more = f" (and {len(missing) - 1} more)" if len(missing) > 1 else ""
        raise EvaluationError(f"image {missing[0]!r}: no prediction{more}")
    known = {img.image_id for img in dataset.images}
    stray = [p.image_id for p in predictions if p.image_id not in known]
    if stray:
        more = f" (and {len(stray) - 1} more)" if len(stray) > 1 else ""
        raise EvaluationError(f"prediction {stray[0]!r}: no such image in the dataset{more}")

    ranks = {VerbSetting.TOP1: 1, VerbSetting.TOP5: 5}.get(setting)  # None: the verb is given
    acc = {}  # verb -> accumulator dict
    for image in dataset.images:
        record = by_id[image.image_id]
        verb_correct = ranks is None or image.verb in record.verb_ranking[:ranks]
        frame = record.frames.get(image.verb)
        if frame is not None and frame.roles != image.roles:
            raise EvaluationError(f"prediction {record.image_id!r}, frames[{image.verb!r}]: "
                                  f"roles {frame.roles} differ from the verb's {image.roles}")
        # only a correct verb earns noun and grounding credit, through the gt verb's frame
        noun_ok, both_ok, value_all = _score_image(image, frame if verb_correct else None,
                                                   value_all_mode)
        a = acc.setdefault(
            image.verb,
            {"images": 0, "verb_correct": 0, "role_slots": 0, "value": 0,
             "grounded_value": 0, "value_all": 0, "grounded_value_all": 0},
        )
        a["images"] += 1
        a["verb_correct"] += verb_correct
        a["role_slots"] += len(noun_ok)
        a["value"] += sum(noun_ok)
        a["grounded_value"] += sum(both_ok)
        a["value_all"] += value_all
        a["grounded_value_all"] += value_all and all(both_ok)

    per_verb, counts = {}, {}
    for verb in sorted(acc):
        a = acc[verb]
        per_verb[verb] = {
            "verb_acc": a["verb_correct"] / a["images"],
            "value": a["value"] / a["role_slots"],
            "value_all": a["value_all"] / a["images"],
            "grounded_value": a["grounded_value"] / a["role_slots"],
            "grounded_value_all": a["grounded_value_all"] / a["images"],
        }
        counts[verb] = {"images": a["images"], "role_slots": a["role_slots"]}
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
