"""The five-metric evaluation suite in the three verb settings.

Metrics per verb: verb accuracy, value, value-all, grounded-value,
grounded-value-all; the summary row is the unweighted mean over verbs
(macro-averaging), so verbs with many images or long frames carry no
extra weight.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .dataset_io import Dataset
from .frame_model import NULL_NOUN, BoundingBox, GroundedFrame, PredictionRecord
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


@dataclass
class MetricReport:
    per_verb: dict  # verb -> {metric: fraction}
    macro: dict  # metric -> fraction
    counts: dict  # verb -> {"images": n, "role_slots": n}

    def to_dict(self) -> dict:
        return {"macro": self.macro, "per_verb": self.per_verb, "counts": self.counts}


def score_noun(predicted: str, annotators) -> bool:
    """Noun is correct when it equals at least one annotator's value."""
    return any(predicted == a for a in annotators)


def score_grounding(pred_box: Optional[BoundingBox], gt_box: Optional[BoundingBox]) -> bool:
    """Grounding is correct at IoU >= 0.5, or when both sides are ungrounded."""
    if pred_box is None or gt_box is None:
        return pred_box is None and gt_box is None
    return iou(pred_box, gt_box) >= GROUNDING_IOU


def _select_frame(record: PredictionRecord, gt_verb: str, setting: VerbSetting):
    """Returns (verb_correct, frame used for noun/grounding credit or None)."""
    if setting is VerbSetting.TOP1:
        verb_correct = record.verb_ranking[0] == gt_verb
        frame = record.frames.get(record.verb_ranking[0]) if verb_correct else None
        return verb_correct, frame
    if setting is VerbSetting.TOP5:
        verb_correct = gt_verb in record.verb_ranking[:5]
        frame = record.frames.get(gt_verb) if verb_correct else None
        return verb_correct, frame
    return True, record.frames.get(gt_verb)


def _score_image(image, frame: Optional[GroundedFrame], value_all_mode: ValueAllMode):
    """Per-role pass vectors for one image; a None frame fails everything."""
    roles = image.roles
    n = len(roles)
    if frame is None or frame.roles != roles:
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
             value_all_mode: ValueAllMode = ValueAllMode.ANY_PER_ROLE) -> MetricReport:
    """Score predictions against the dataset under one verb setting.

    Per-verb value = passed role slots / total role slots over that verb's
    images; the *_all metrics count whole images. Every dataset image must
    have a prediction, and every prediction must name a dataset image.
    """
    by_id = {p.image_id: p for p in predictions}
    missing = [img.image_id for img in dataset.images if img.image_id not in by_id]
    if missing:
        raise EvaluationError(f"missing predictions for images: {missing}")
    known = {img.image_id for img in dataset.images}
    stray = [p.image_id for p in predictions if p.image_id not in known]
    if stray:
        more = f" (and {len(stray) - 1} more)" if len(stray) > 1 else ""
        raise EvaluationError(f"prediction {stray[0]!r}: no such image in the dataset{more}")

    acc = {}  # verb -> accumulator dict
    for image in dataset.images:
        record = by_id[image.image_id]
        verb_correct, frame = _select_frame(record, image.verb, setting)
        noun_ok, both_ok, value_all = _score_image(image, frame, value_all_mode)
        if setting is not VerbSetting.GROUND_TRUTH_VERB and not verb_correct:
            noun_ok = [False] * len(noun_ok)
            both_ok = [False] * len(both_ok)
            value_all = False
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
    return MetricReport(per_verb, macro_average(per_verb), counts)


def macro_average(per_verb: dict) -> dict:
    """Unweighted mean of each metric over verbs."""
    if not per_verb:
        raise EvaluationError("macro average of an empty per-verb map")
    return {
        m: sum(row[m] for row in per_verb.values()) / len(per_verb)
        for m in METRIC_NAMES
    }


def format_table(report: MetricReport, setting: VerbSetting) -> str:
    """Fixed-width summary table for standard output."""
    header = f"{'setting':<8}" + "".join(f"{m:>20}" for m in METRIC_NAMES)
    row = f"{setting.value:<8}" + "".join(f"{report.macro[m]:>20.4f}" for m in METRIC_NAMES)
    return header + "\n" + row
