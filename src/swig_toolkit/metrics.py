"""The five-metric evaluation suite in the three verb settings.

Metrics per verb: verb accuracy, value, value-all, grounded-value,
grounded-value-all; the summary row is the unweighted mean over verbs
(macro-averaging), so verbs with many images or long frames carry no
extra weight.
"""

from __future__ import annotations

import enum

import numpy as np

from .dataset_io import DatasetTable, PredictionTable
from .geometry import iou

GROUNDING_IOU = 0.5

METRIC_NAMES = ("verb_acc", "value", "value_all", "grounded_value", "grounded_value_all")


class EvaluationError(ValueError):
    """Raised when predictions cannot be scored against a dataset."""


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


def score_grounding(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Grounding is correct at IoU >= 0.5, or when both sides are ungrounded.

    Each side is a (..., 4) float64 array whose NaN rows are ungrounded
    slots; the two broadcast as in `geometry.iou` and give a bool array.
    """
    pred_absent, gt_absent = np.isnan(pred[..., 0]), np.isnan(gt[..., 0])
    with np.errstate(invalid="ignore"):  # an absent box gives NaN; np.where decides those slots
        hit = iou(pred, gt) >= GROUNDING_IOU
    return np.where(pred_absent | gt_absent, pred_absent & gt_absent, hit)


def evaluate(dataset: DatasetTable, predictions: PredictionTable, setting: VerbSetting,
             value_all_mode: ValueAllMode = ValueAllMode.ANY_PER_ROLE) -> dict:
    """Score predictions against the dataset under one verb setting.

    `dataset` and `predictions` are what `load_dataset` and `load_predictions`
    return. Per-verb value = passed role slots / total role slots over that verb's
    images; the *_all metrics count whole images. Every dataset image must
    have a prediction, and every prediction must name a dataset image. A
    predicted frame for the image's verb must list the verb's roles in the
    lexicon's order. A predicted noun is correct when it equals at least one
    annotator's, the null noun included.

    Every image with a frame for its verb is scored in every setting; the setting only
    picks which earn credit: the verb first (top1), in the first five (top5), or all (gt).

    Returns the report as it is written: {"macro": {metric: fraction},
    "per_verb": {verb: {metric: fraction}}, "counts": {verb: {"images": n,
    "role_slots": n}}}. An unknown setting or mode is a ValueError.
    """
    setting, value_all_mode = VerbSetting(setting), ValueAllMode(value_all_mode)
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

    code = {}  # verb -> its column in the per-verb counts
    verbs, rank = [], []  # per image
    framed, starts = [], []  # per image with a frame: it and its first slot
    for k, (image_id, verb) in enumerate(zip(dataset.ids, dataset.verbs)):
        r, roles = record_of[image_id], dataset.lexicon.roles(verb)
        row, ranking = predictions.frames[r].get(verb), predictions.rankings[r]
        if row is not None and predictions.roles[row] != roles:
            raise EvaluationError(f"prediction {image_id!r}, frames[{verb!r}]: "
                                  f"roles {predictions.roles[row]} differ from the verb's {roles}")
        verbs.append(code.setdefault(verb, len(code)))
        rank.append(ranking.index(verb) if verb in ranking else np.inf)  # its first position
        if row is not None:
            framed.append(k)
            starts.append(predictions.starts[row])

    gt_starts, framed = np.array(dataset.starts, dtype=np.intp), np.array(framed, dtype=np.intp)
    n_roles = np.diff(gt_starts)[framed]  # the frame's slots are the image's, in the same order
    owner = np.repeat(framed, n_roles)  # per slot: its image
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(n_roles) - n_roles, n_roles)  # in the image
    pred_slots = np.repeat(np.array(starts, dtype=np.intp), n_roles) + offset
    gt_slots = gt_starts[owner] + offset
    # each predicted noun's code in the dataset's table, once per noun: -2 when no annotator named it
    gt_code = dict(zip(dataset.nouns, range(len(dataset.nouns) - 1)))  # the null noun, last, is -1 in both
    as_gt = np.array([gt_code.get(noun, -2) for noun in predictions.nouns[:-1]] + [-1], dtype=np.int32)
    same = dataset.annotations[gt_slots] == as_gt[predictions.codes[pred_slots]][:, None]  # (slots, 3)
    noun_ok = same.any(axis=1)
    grounded_ok = noun_ok & score_grounding(predictions.boxes[pred_slots], dataset.boxes[gt_slots])
    nouns = np.bincount(owner[noun_ok], minlength=len(verbs))  # per image: its noun hits
    grounded = np.bincount(owner[grounded_ok], minlength=len(verbs))  # and its grounded hits
    # a value-all hit: every slot a noun hit, or (single annotator) every slot one annotator's;
    # an image with no frame has no hit, and every verb has a role
    matched = ([np.bincount(owner[column], minlength=len(verbs)) for column in same.T]
               if value_all_mode is ValueAllMode.SINGLE_ANNOTATOR else [nouns])
    verbs, value_all = np.array(verbs), (np.array(matched) == np.diff(gt_starts)).any(axis=0)
    credited = np.array(rank) <= {VerbSetting.TOP1: 0, VerbSetting.TOP5: 4}.get(setting, np.inf)
    # a value-all hit is a noun hit in every slot, so it is grounded-all when every hit is grounded
    columns = {"verb_acc": credited, "value": nouns, "value_all": value_all,
               "grounded_value": grounded, "grounded_value_all": value_all & (grounded == nouns)}
    # float64 sums of integer weights are exact, and divide by an int as the int would below 2**53
    n = {m: np.bincount(verbs[credited], weights=column[credited], minlength=len(code)).tolist()
         for m, column in columns.items()}
    images = np.bincount(verbs, minlength=len(code)).tolist()

    per_verb, counts = {}, {}
    for verb in sorted(code):
        c = code[verb]
        counts[verb] = {"images": images[c], "role_slots": images[c] * len(dataset.lexicon.roles(verb))}
        # value and grounded_value are shares of role slots, the other three of images
        per_verb[verb] = {m: n[m][c] / counts[verb]["role_slots" if m.endswith("value") else "images"]
                          for m in METRIC_NAMES}
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
