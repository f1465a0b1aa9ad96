"""Late fusion: assign detector boxes to the nouns of a predicted frame.

For each non-null, non-Place role, the box with the highest detector
logit for that role's noun is assigned, unless even the best logit falls
below the threshold (default -4), in which case the role stays
ungrounded. The same box may serve multiple roles.
"""

from __future__ import annotations

import numpy as np

from .frame_model import NULL_NOUN, PLACE_ROLE, GroundedFrame

DEFAULT_FUSION_THRESHOLD = -4.0


class FusionError(ValueError):
    pass


class DetectionSet:
    """Post-NMS detector output, reduced once to what fusion reads.

    noun_scores has one row per box and one column per noun; noun_index
    maps noun id to its column. Neither is kept: `best` maps each noun to
    its first box of highest logit and that logit.
    """

    __slots__ = ("boxes", "best")

    def __init__(self, boxes: tuple, noun_scores: np.ndarray, noun_index: dict):
        if noun_scores.ndim != 2:
            raise FusionError(f"noun_scores: must be 2-D (boxes x nouns), got shape {noun_scores.shape}")
        if noun_scores.shape[0] != len(boxes):
            raise FusionError(f"noun_scores: {noun_scores.shape[0]} rows for {len(boxes)} boxes")
        if not np.all(np.isfinite(noun_scores)):
            raise FusionError("noun_scores: must be finite")
        for noun, col in noun_index.items():
            if not 0 <= col < noun_scores.shape[1]:
                raise FusionError(f"noun_index[{noun!r}]: column {col} outside the "
                                  f"{noun_scores.shape[1]} noun_scores columns")
        self.boxes = boxes  # of BoundingBox
        self.best = {}  # noun id -> (its first box of highest logit, that logit)
        if boxes:  # argmax of an empty column raises; no boxes ground nothing
            rows, logits = noun_scores.argmax(axis=0).tolist(), noun_scores.max(axis=0).tolist()
            self.best = {noun: (boxes[rows[col]], logits[col]) for noun, col in noun_index.items()}


def assign_groundings(frame: GroundedFrame, detections: DetectionSet,
                      threshold: float = DEFAULT_FUSION_THRESHOLD) -> GroundedFrame:
    """Return a copy of `frame` with groundings filled from `detections`.

    Null-noun roles and the Place role are always left ungrounded. Argmax
    ties break to the lowest box index.
    """
    groundings = []
    for role, noun in frame.role_values:
        if noun == NULL_NOUN or role == PLACE_ROLE or not detections.boxes:
            groundings.append(None)
            continue
        best = detections.best.get(noun)
        if best is None:
            raise FusionError(f"role {role!r}: noun {noun!r} absent from detection vocabulary")
        box, logit = best
        groundings.append(box if logit >= threshold else None)
    return GroundedFrame(frame.role_values, tuple(groundings))
