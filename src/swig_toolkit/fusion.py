"""Late fusion: assign detector boxes to the nouns of a predicted frame.

For each non-null, non-Place role, the box with the highest detector
logit for that role's noun is assigned, unless even the best logit falls
below the threshold (default -4), in which case the role stays
ungrounded. The same box may serve multiple roles.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .frame_model import NULL_NOUN, PLACE_ROLE, GroundedFrame

DEFAULT_FUSION_THRESHOLD = -4.0


class FusionError(ValueError):
    pass


class DetectionSet:
    """Post-NMS detector output, reduced once to what fusion reads.

    noun_scores has one row per box and one column per noun; noun_index
    maps noun id to its column. Neither is kept: `best` maps each noun to
    its first box of highest logit and that logit, as `best_rows` reduces
    them, and is None when there are no boxes.
    """

    __slots__ = ("boxes", "best")

    def __init__(self, boxes: tuple, noun_scores: np.ndarray, noun_index: dict):
        if noun_scores.ndim != 2:
            raise FusionError(f"noun_scores: must be 2-D (boxes x nouns), got shape {noun_scores.shape}")
        if noun_scores.shape[0] != len(boxes):
            raise FusionError(f"noun_scores: {noun_scores.shape[0]} rows for {len(boxes)} boxes")
        for noun, col in noun_index.items():
            if not 0 <= col < noun_scores.shape[1]:
                raise FusionError(f"noun_index[{noun!r}]: column {col} outside the "
                                  f"{noun_scores.shape[1]} noun_scores columns")
        self.boxes = boxes  # of BoundingBox
        best = best_rows(noun_scores, noun_index)
        self.best = best and {noun: (boxes[row], logit) for noun, (row, logit) in best.items()}


def best_rows(noun_scores: np.ndarray, noun_index: dict, first: int = 0) -> Optional[dict]:
    """{noun: (its first row of highest logit, that logit)} over (boxes x
    nouns) logits, rows counted from `first`; None when there are no boxes,
    which ground nothing."""
    if not np.all(np.isfinite(noun_scores)):
        raise FusionError("noun_scores: must be finite")
    if not len(noun_scores):  # argmax of an empty column raises
        return None
    rows, logits = (noun_scores.argmax(axis=0) + first).tolist(), noun_scores.max(axis=0).tolist()
    return {noun: (rows[col], logits[col]) for noun, col in noun_index.items()}


def ground_roles(role_values, best: Optional[dict], threshold: float) -> list:
    """The fusion rule: per (role, noun), the box or box row that `best`
    (`best_rows`, its rows read as boxes or not) holds for the noun if its
    logit >= threshold, else None. Null nouns and the Place role are never
    grounded."""
    groundings = []
    for role, noun in role_values:
        if noun == NULL_NOUN or role == PLACE_ROLE or best is None:
            groundings.append(None)
        elif noun not in best:
            raise FusionError(f"role {role!r}: noun {noun!r} absent from detection vocabulary")
        else:
            box, logit = best[noun]
            groundings.append(box if logit >= threshold else None)
    return groundings


def assign_groundings(frame: GroundedFrame, detections: DetectionSet,
                      threshold: float = DEFAULT_FUSION_THRESHOLD) -> GroundedFrame:
    """A copy of `frame` grounded from `detections` by `ground_roles`."""
    groundings = ground_roles(frame.role_values, detections.best, threshold)
    return GroundedFrame(frame.role_values, tuple(groundings))
