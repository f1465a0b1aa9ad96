"""Late fusion: assign detector boxes to the nouns of a predicted frame.

For each non-null, non-Place role, the box with the highest detector
logit for that role's noun is assigned, unless even the best logit falls
below the threshold (default -4), in which case the role stays
ungrounded. The same box may serve multiple roles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frame_model import NULL_NOUN, PLACE_ROLE, GroundedFrame

DEFAULT_FUSION_THRESHOLD = -4.0


class FusionError(ValueError):
    pass


@dataclass(frozen=True)
class DetectionSet:
    """Post-NMS detector output: boxes and per-box noun logits.

    noun_scores has one row per box and one column per vocabulary noun;
    noun_index maps noun id to its column. Construction reduces each
    column once to its best row and that row's logit.
    """

    boxes: tuple  # of BoundingBox
    noun_scores: np.ndarray  # shape (len(boxes), |vocabulary|)
    noun_index: dict  # noun id -> column
    best_row: list = field(init=False, repr=False, compare=False)  # column -> row
    best_logit: list = field(init=False, repr=False, compare=False)  # column -> logit

    def __post_init__(self):
        if self.noun_scores.shape[0] != len(self.boxes):
            raise FusionError(f"noun_scores: {self.noun_scores.shape[0]} rows for "
                              f"{len(self.boxes)} boxes")
        if not np.all(np.isfinite(self.noun_scores)):
            raise FusionError("noun_scores: must be finite")
        rows = np.zeros(0, dtype=np.intp)
        if self.boxes:  # argmax of an empty column raises; no boxes ground nothing
            rows = self.noun_scores.argmax(axis=0)  # the first maximum, per column
        logits = self.noun_scores[rows, np.arange(len(rows))]
        object.__setattr__(self, "best_row", rows.tolist())
        object.__setattr__(self, "best_logit", logits.tolist())


def assign_groundings(frame: GroundedFrame, detections: DetectionSet,
                      threshold: float = DEFAULT_FUSION_THRESHOLD) -> GroundedFrame:
    """Return a copy of `frame` with groundings filled from `detections`.

    Null-noun roles and the Place role are always left ungrounded. Argmax
    ties break to the lowest box index.
    """
    boxes, index = detections.boxes, detections.noun_index
    rows, logits = detections.best_row, detections.best_logit
    groundings = []
    for role, noun in frame.role_values:
        if noun == NULL_NOUN or role == PLACE_ROLE or not boxes:
            groundings.append(None)
            continue
        col = index.get(noun)
        if col is None:
            raise FusionError(f"role {role!r}: noun {noun!r} absent from detection vocabulary")
        groundings.append(boxes[rows[col]] if logits[col] >= threshold else None)
    return GroundedFrame(frame.role_values, tuple(groundings))
