"""Late fusion: assign detector boxes to the nouns of a predicted frame.

For each non-null, non-Place role, the box with the highest detector
logit for that role's noun is assigned, unless even the best logit falls
below the threshold (default -4), in which case the role stays
ungrounded. The same box may serve multiple roles.

Both steps run in columns, over any number of images and role slots at
once: `best_boxes` reduces each (image, noun) column of logits to its
first row of highest logit, and `ground` applies the rule to role slots.
`swig fuse` runs them over a whole file (a `FusionTable`); `DetectionSet`
and `assign_groundings` are the same two steps on one image and one frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame_model import NULL_NOUN, PLACE_ROLE, GroundedFrame

DEFAULT_FUSION_THRESHOLD = -4.0


class FusionError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class FusionTable:
    """Late-fusion detector output as `dataset_io.load_detection_sets` reads it, in columns.

    Image `k` has box rows `starts[k]:starts[k + 1]` and one column per
    noun it lists, `columns[k]:columns[k + 1]`.
    """

    index: dict  # image id -> its image
    starts: list  # per image: its first box row; one more entry closes the last image
    boxes: np.ndarray  # (n, 4) float64 box rows
    columns: list  # per image: its first column; one more entry closes the last image
    codes: np.ndarray  # (n_columns,) int32: per column its noun's code
    nouns: list  # per code: its noun; code -1, the null noun, reads the last entry, ""
    rows: np.ndarray  # (n_columns,) intp: per column its first box row of highest logit, -1 without boxes
    logits: np.ndarray  # (n_columns,) float64: that logit, -inf without boxes


def best_boxes(logits: np.ndarray, boxes, nouns) -> tuple:
    """(rows, maxima): per column of each image's (boxes x nouns) logits, its
    first row of highest logit, counted within the image, and that logit;
    -1 and -inf in an image with no boxes. `logits` holds the images' arrays
    flat, row by row and one image after another; `boxes` and `nouns` give
    each image's shape. The logits must be finite."""
    n, m = np.asarray(boxes, dtype=np.intp), np.asarray(nouns, dtype=np.intp)
    size = n * m
    image = np.repeat(np.arange(len(n)), size)  # per logit: its image
    row, col = np.divmod(np.arange(len(logits)) - (np.cumsum(size) - size)[image], m[image])
    column = (np.cumsum(m) - m)[image] + col  # per logit: its column among every image's
    maxima = np.full(int(m.sum()), -np.inf)
    np.maximum.at(maxima, column, logits)
    hit = logits == maxima[column]  # -0.0 == 0.0, so those tie too
    rows = np.full(len(maxima), np.iinfo(np.intp).max)
    np.minimum.at(rows, column[hit], row[hit])
    rows[np.repeat(n == 0, m)] = -1
    return rows, maxima


def ground(eligible: np.ndarray, columns: np.ndarray, rows: np.ndarray, logits: np.ndarray,
           threshold: float) -> tuple:
    """The fusion rule over role slots: (per slot its box row or -1, the
    slots whose noun is absent). A slot is eligible when its noun is not
    null, its role is not Place and its image has boxes; no other slot is
    grounded or checked. An eligible slot reads detection column
    `columns[s]` (-1: its noun is not among its image's nouns) and gets the
    column's row in `rows` when its logit in `logits` is >= threshold."""
    absent = eligible & (columns < 0)
    read = eligible & ~absent
    grounded = np.full(len(columns), -1, dtype=np.intp)
    grounded[read] = np.where(logits[columns[read]] >= threshold, rows[columns[read]], -1)
    return grounded, absent


def absent_noun(role: str, noun: str) -> FusionError:
    return FusionError(f"role {role!r}: noun {noun!r} absent from detection vocabulary")


class DetectionSet:
    """Post-NMS detector output of one image, reduced once by `best_boxes`.

    noun_scores has one row per box and one column per noun; noun_index
    maps noun id to its column. The scores are not kept: `rows` and
    `logits` hold each column's first box of highest logit and that logit.
    """

    __slots__ = ("boxes", "noun_index", "rows", "logits")

    def __init__(self, boxes: tuple, noun_scores: np.ndarray, noun_index: dict):
        if noun_scores.ndim != 2:
            raise FusionError(f"noun_scores: must be 2-D (boxes x nouns), got shape {noun_scores.shape}")
        if noun_scores.shape[0] != len(boxes):
            raise FusionError(f"noun_scores: {noun_scores.shape[0]} rows for {len(boxes)} boxes")
        for noun, col in noun_index.items():
            if not 0 <= col < noun_scores.shape[1]:
                raise FusionError(f"noun_index[{noun!r}]: column {col} outside the "
                                  f"{noun_scores.shape[1]} noun_scores columns")
        if not np.all(np.isfinite(noun_scores)):
            raise FusionError("noun_scores: must be finite")
        self.boxes, self.noun_index = boxes, noun_index  # boxes: of BoundingBox
        self.rows, self.logits = best_boxes(noun_scores.ravel(), [len(boxes)], [noun_scores.shape[1]])


def assign_groundings(frame: GroundedFrame, detections: DetectionSet,
                      threshold: float = DEFAULT_FUSION_THRESHOLD) -> GroundedFrame:
    """A copy of `frame` grounded from `detections` by `ground`, a batch of one frame."""
    eligible = np.array([noun != NULL_NOUN and role != PLACE_ROLE and len(detections.boxes) > 0
                         for role, noun in frame.role_values], dtype=bool)
    columns = np.array([detections.noun_index.get(noun, -1) for noun in frame.nouns], dtype=np.intp)
    grounded, absent = ground(eligible, columns, detections.rows, detections.logits, threshold)
    if absent.any():
        raise absent_noun(*frame.role_values[absent.argmax()])
    return GroundedFrame(frame.role_values, tuple(None if r < 0 else detections.boxes[r]
                                                  for r in grounded.tolist()))
