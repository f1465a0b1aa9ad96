"""Late fusion: assign detector boxes to the nouns of a predicted frame.

For each non-null, non-Place role, the box with the highest detector
logit for that role's noun is assigned, unless even the best logit falls
below the threshold (default -4), in which case the role stays
ungrounded. The same box may serve multiple roles.

Both steps run in columns, over any number of images and role slots at
once: `best_boxes` reduces each (image, noun) column of logits to its
first row of highest logit, and `fuse`, the one implementation of the
rule, grounds role slots from a `FusionTable`'s columns. `swig fuse` runs
it over a whole file; `assign_groundings` runs it on one frame, over a
`DetectionSet`'s one-image table.
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


def fuse(detections: FusionTable, image: np.ndarray, roles, codes: np.ndarray, nouns: list,
         threshold: float) -> tuple:
    """The fusion rule over role slots: (per slot its box row or -1, the slots
    whose noun is absent). Slot s has role `roles[s]` and noun `nouns[codes[s]]`
    (code -1: null) in image `image[s]` (-1: no detection record). A slot is
    eligible when its noun is not null, its role is not Place and its image has
    boxes; its noun is absent when its image has no column for it, else it gets
    the column's row when the column's logit is >= threshold."""
    code = {noun: c for c, noun in enumerate(detections.nouns[:-1])}
    # per slot its noun's detection code: -1 the null noun, -2 a noun no image lists
    mapped = np.array([code.get(noun, -2) for noun in nouns[:-1]] + [-1], dtype=np.intp)[codes]
    place = np.fromiter(map(PLACE_ROLE.__eq__, roles), dtype=bool, count=len(image))
    eligible = (codes >= 0) & ~place & np.append(np.diff(detections.starts) > 0, False)[image]
    # one gather: each eligible slot's column, by its (image, code) key among the columns' sorted keys
    width, find = len(detections.nouns), np.flatnonzero(eligible & (mapped >= 0))
    keys = np.repeat(np.arange(len(detections.columns) - 1) * width, np.diff(detections.columns)) + detections.codes
    wanted, order = image[find] * width + mapped[find], np.argsort(keys)
    at = order[np.searchsorted(keys, wanted, sorter=order).clip(max=len(keys) - 1)]
    hit = keys[at] == wanted
    absent = eligible & (mapped == -2)
    absent[find[~hit]] = True
    rows, at = np.full(len(image), -1, dtype=np.intp), at[hit]
    rows[find[hit]] = np.where(detections.logits[at] >= threshold, detections.rows[at], -1)
    return rows, absent


def absent_noun(role: str, noun: str) -> FusionError:
    return FusionError(f"role {role!r}: noun {noun!r} absent from detection vocabulary")


class DetectionSet:
    """Post-NMS detector output of one image: its `boxes` and `table`, a one-image
    `FusionTable` with one column per `noun_index` entry (noun id -> its column of
    noun_scores, one row per box), reduced once by `best_boxes`."""

    __slots__ = ("boxes", "table")

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
        rows, logits = best_boxes(noun_scores.ravel(), [len(boxes)], [noun_scores.shape[1]])
        cols = np.fromiter(noun_index.values(), dtype=np.intp, count=len(noun_index))
        self.boxes, self.table = boxes, FusionTable(  # boxes: of BoundingBox; the image has no id
            {None: 0}, [0, len(boxes)], np.array([b.as_list() for b in boxes], dtype=np.float64).reshape(-1, 4),
            [0, len(cols)], np.arange(len(cols), dtype=np.int32), [*noun_index, NULL_NOUN], rows[cols], logits[cols])


def assign_groundings(frame: GroundedFrame, detections: DetectionSet,
                      threshold: float = DEFAULT_FUSION_THRESHOLD) -> GroundedFrame:
    """A copy of `frame` grounded from `detections` by `fuse`, on one image."""
    codes = np.array([-1 if noun == NULL_NOUN else k for k, noun in enumerate(frame.nouns)], dtype=np.intp)
    rows, absent = fuse(detections.table, np.zeros(len(codes), dtype=np.intp), frame.roles, codes,
                        [*frame.nouns, NULL_NOUN], threshold)
    if absent.any():
        raise absent_noun(*frame.role_values[absent.argmax()])
    return GroundedFrame(frame.role_values, tuple(None if r < 0 else detections.boxes[r]
                                                  for r in rows.tolist()))
