"""Parsing of every input file format, worker-box merging, corpus statistics.

This module is the only code that reads JSON input; every reader takes a
path (str, bytes or os.PathLike), a file object or an already-parsed JSON
value, which is how a library caller hands in data it holds: ground truth
and predictions have no other input form. Every box is judged by
`parse_box`'s rules: a prediction or dataset file's boxes in one array
pass, `_box_rows`, which hands `parse_box` only the boxes it refuses.
Every frame is read by `_frame_row`, and every error names the record and
the field it comes from: "<record>, <field>: <rule>".

Canonical file formats (UTF-8 JSON):

  lexicon:     {verb: [role, ...], ...}
  vocabulary:  {noun_id: gloss_or_null, ...} (values are not read) or [noun_id, ...]
  dataset:     [{"id", "width", "height", "verb",
                 "frames": [{role: noun_or_""} x3],
                 "boxes": {role: [x1,y1,x2,y2] or null}}, ...]
               A record may carry "worker_boxes": {role: [box x3]} instead of
               "boxes"; the three worker boxes are merged by coordinate mean.
               Read into a `DatasetTable` by one walk of the records.
  frame:       {"nouns": {role: noun}, "boxes": {role: box_or_null},
                "grounded": {role: true|false}}  ("grounded" optional)
               The verb sits outside the frame; read by `_frame_row`,
               written by `frame_model.frame_to_json`.
  predictions: [{"id", "verbs": [verb, ...], "frames": {verb: frame}}, ...]
               (also the `fuse` output); read into a `PredictionTable`
  detections:  [{"id", "boxes": [box, ...], "nouns": [noun, ...],
                 "noun_scores": [[logit per noun] per box]}, ...]  (fusion)
               [{"id", "classes": [noun, ...], "boxes": [box, ...]}, ...]
               (object retrieval)
  situations:  [{"id", "verbs": [verb x5], "entities": [[noun per role] x5],
                 "boxes": [[box_or_null per role] x5]}, ...]  (retrieval)
               [{"verb", **frame, "query_box": box_or_null}, ...]  (chaining;
               the node's roles are the keys of its "nouns")
  boxes:       [[x1,y1,x2,y2], ...]  (anchor clustering)

The adapter sentinel box [-1,-1,-1,-1] is read as "no grounding". An
optional object or array field given as null counts as absent.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import reprlib
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from operator import and_, is_not, itemgetter
from typing import Optional

import numpy as np

from .chaining import SituationNode
from .frame_model import (
    NULL_NOUN,
    PLACE_ROLE,
    BoundingBox,
    FrameModelError,
    GroundedFrame,
    NounVocabulary,
    VerbLexicon,
)
from .fusion import DetectionSet, FusionError
from .retrieval import DetectionList, RetrievalError, SituationPrediction

SENTINEL_BOX = [-1, -1, -1, -1]
_JSON_NUMBER_TYPES = frozenset((int, float))  # what `json` decodes a number to; never bool


class DatasetError(ValueError):
    """Raised when a dataset, lexicon, or prediction file is malformed."""


class EvaluationError(ValueError):
    """Raised when predictions cannot be scored against a dataset."""


def _gc_paused(loader):
    """Run `loader` with the cyclic garbage collector paused, restoring its
    prior state after. A loader builds no reference cycles, so a collection
    during the parse would only walk the growing heap and free nothing."""
    @functools.wraps(loader)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return loader(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@dataclass(frozen=True, eq=False)
class DatasetTable:
    """Ground truth as columns: one entry per image, one gt box row per role slot.

    Image `k` has the lexicon's roles for `verbs[k]`, in that order, and
    slots `starts[k]:starts[k + 1]` of `boxes`.
    """

    lexicon: VerbLexicon
    vocabulary: NounVocabulary
    ids: list  # per image: its id
    verbs: list  # per image: its verb
    sizes: list  # per image: (width, height) as the file gives them
    annotations: list  # per image: the three annotators' noun tuples, parallel to its roles
    starts: list  # per image: its first slot; one more entry closes the last image
    boxes: np.ndarray  # (n_slots, 4) float64 merged gt boxes, a NaN row for an ungrounded role


@dataclass(frozen=True, eq=False)
class PredictionTable:
    """Model outputs as columns: one entry per record, one row per frame.

    Row `row` holds role slots `starts[row]:starts[row + 1]` of `boxes`.
    """

    ids: list  # per record: its image id
    rankings: list  # per record: a tuple of verbs, best first
    frames: list  # per record: {verb: row}
    roles: list  # per row: the frame's roles, a tuple
    nouns: list  # per row: a tuple of nouns, parallel to its roles
    starts: list  # per row: its first slot; one more entry closes the last row
    boxes: np.ndarray  # (n_slots, 4) float64, a NaN row for an ungrounded slot

    def frame(self, row: int) -> GroundedFrame:
        """Row `row`'s roles and nouns as a GroundedFrame with no grounding: what
        `assign_groundings` grounds."""
        role_values = tuple(zip(self.roles[row], self.nouns[row]))
        return GroundedFrame(role_values, (None,) * len(role_values))


def parse_lexicon(source) -> VerbLexicon:
    obj = _read_json(source)
    if not isinstance(obj, dict) or not obj:
        raise DatasetError("lexicon must be a non-empty JSON object {verb: [roles]}")
    for verb, roles in obj.items():
        if not isinstance(roles, list) or not all(isinstance(r, str) for r in roles):
            raise DatasetError(f"lexicon entry {verb!r}: roles must be a list of strings")
    try:
        return VerbLexicon({verb: tuple(roles) for verb, roles in obj.items()})
    except FrameModelError as e:
        raise DatasetError(str(e)) from e


def parse_vocabulary(source) -> NounVocabulary:
    obj = _read_json(source)
    if isinstance(obj, dict):
        return NounVocabulary(frozenset(obj.keys()) - {NULL_NOUN})
    if isinstance(obj, list):
        if not all(isinstance(n, str) for n in obj):
            raise DatasetError("vocabulary array must hold only noun id strings")
        return NounVocabulary(frozenset(obj) - {NULL_NOUN})
    raise DatasetError("vocabulary must be a JSON object or array of noun ids")


_JSON_TYPE = {dict: "object", list: "array", str: "string", bool: "boolean"}
_REQUIRED = object()


def _type_error(value, kind: type, where: str) -> DatasetError:
    return DatasetError(f"{where}: must be a JSON {_JSON_TYPE[kind]}, got {reprlib.repr(value)}")


def _check(value, kind: type, where: str):
    if not isinstance(value, kind):
        raise _type_error(value, kind, where)
    return value


def _get(rec: dict, key: str, kind: type, where: str, default=_REQUIRED):
    """rec[key], which must be of type `kind`; `default`, if given, when absent or null."""
    value = rec.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if not isinstance(value, kind):
        raise _type_error(value, kind, f"{where}, {key}")
    return value


def _strings(value, where: str) -> tuple:
    if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
        raise DatasetError(f"{where}: must be a JSON array of strings, got {reprlib.repr(value)}")
    return tuple(value)


def _positive_number(value) -> bool:
    # the upper bound also rejects ints too large to divide by as floats
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


def parse_box(raw, where: str) -> Optional[BoundingBox]:
    """Parse [x1, y1, x2, y2]; null and the sentinel box mean "no grounding".

    The one box parser for every input format; a malformed box raises a
    DatasetError that starts with `where`, the record and field it is in.
    """
    if raw is None or raw == SENTINEL_BOX:
        return None
    if not (isinstance(raw, list) and len(raw) == 4):
        raise DatasetError(f"{where}: box must be [x1,y1,x2,y2] or null, got {reprlib.repr(raw)}")
    if not _JSON_NUMBER_TYPES.issuperset(map(type, raw)):
        raise DatasetError(f"{where}: box coordinates must be JSON numbers, got {reprlib.repr(raw)}")
    try:
        return BoundingBox(*map(float, raw))
    except (FrameModelError, OverflowError) as e:  # OverflowError: an int too big for a float
        raise DatasetError(f"{where}: {e}") from e


def _valid_box_rows(rows: np.ndarray) -> np.ndarray:
    """Which (n, 4) float64 rows `BoundingBox` accepts: its rules, in the same
    float64 arithmetic, over every row at once."""
    x1, y1, x2, y2 = rows.T
    with np.errstate(all="ignore"):  # inf - inf, and an area or aspect out of range, only fail a rule
        w, h = x2 - x1, y2 - y1
        area, aspect = w * h, h / w
        return (np.isfinite(rows).all(axis=1) & (rows.min(axis=1) >= 0) & (x1 < x2) & (y1 < y2)
                & (0 < area) & (area <= sys.float_info.max / 2) & (0 < aspect) & (aspect < np.inf))


def _box_rows(raws: list, where_of, faults: Optional[list] = None) -> np.ndarray:
    """(len(raws), 4) float64 rows of raw boxes, a NaN row for null and the sentinel.

    Lists of four JSON numbers are judged all at once by `_valid_box_rows`;
    only a box refused there is read by `parse_box`, in order, whose error
    names box i by `where_of(i)`. Given `faults`, a bad box appends (i, its
    error's message) there and gets a NaN row; else the first one raises.
    """
    given = np.fromiter(map(is_not, raws, repeat(None)), dtype=bool, count=len(raws))
    present = list(compress(raws, given))
    block = None
    if ({list}.issuperset(map(type, present)) and {4}.issuperset(map(len, present))
            and _JSON_NUMBER_TYPES.issuperset(map(type, chain.from_iterable(present)))):
        try:
            block = np.array(present, dtype=np.float64).reshape(-1, 4)
        except OverflowError:  # an int too big for a float
            pass
    if block is None:  # only the lists of four numbers that fit a float go into the array
        formed = [type(raw) is list and len(raw) == 4 and _JSON_NUMBER_TYPES.issuperset(map(type, raw))
                  and max(map(abs, raw)) <= sys.float_info.max for raw in present]
        block = np.full((len(present), 4), np.nan)
        block[formed] = np.array(list(compress(present, formed)), dtype=np.float64).reshape(-1, 4)
    sentinel = (block == -1).all(axis=1)
    bad = ~(sentinel | _valid_box_rows(block))
    block[sentinel | bad] = np.nan
    for j, i in zip(np.flatnonzero(bad).tolist(), np.flatnonzero(given)[bad].tolist()):
        try:
            box = parse_box(present[j], where_of(i))
        except DatasetError as e:
            if faults is None:
                raise
            faults.append((i, str(e)))
            continue
        block[j] = np.nan if box is None else box.as_list()
    rows = np.full((len(raws), 4), np.nan)
    rows[given] = block
    return rows


def _box_list(raw, where: str) -> tuple:
    """A JSON array of boxes, none of them null."""
    boxes = tuple(parse_box(b, f"{where}[{i}]") for i, b in enumerate(_check(raw, list, where)))
    for i, box in enumerate(boxes):
        if box is None:
            raise DatasetError(f"{where}[{i}]: box may not be null")
    return boxes


def merge_worker_boxes(boxes: list) -> BoundingBox:
    """Merge exactly 3 worker annotations by coordinate-wise arithmetic mean."""
    if len(boxes) != 3:
        raise DatasetError(f"expected exactly 3 worker boxes, got {len(boxes)}")
    return BoundingBox(
        sum(b.x1 for b in boxes) / 3,
        sum(b.y1 for b in boxes) / 3,
        sum(b.x2 for b in boxes) / 3,
        sum(b.y2 for b in boxes) / 3,
    )


@_gc_paused
def parse_dataset(source, lexicon: VerbLexicon, vocabulary: NounVocabulary,
                  warnings: list) -> tuple:
    """Read dataset records; returns (table, violations).

    The one reading of the dataset format: `load_dataset` raises when
    `violations` is non-empty and `swig validate` prints it, so the two
    agree on every file. One walk puts each record's fields into columns;
    a field's lines are written only when its C-level check fails. Then one
    `_box_rows` pass reads every box, worker boxes included, and the worker
    mean, the Place rule and clamping run once over the box array. A line
    names the record and the field; a record's lines come in field order,
    its box lines in role order, then its Place and clamp lines. The table
    holds the records with no line. Every clamped box is a warning.
    """
    records = _read_json(source)
    violations = []
    if not isinstance(records, list):
        records, violations = [], ["dataset file must be a JSON array of image records"]
    entries, nouns, largest = lexicon.entries, vocabulary.ids, sys.float_info.max
    walked = []  # per record with a known verb: its columns
    raws, worker_raws, worker_slots = [], [], []  # raws: one per role slot, None for a worker role
    lines, seen = [], set()  # lines: (key, line); key (record index[, phase, slot, order]) orders them
    for index, rec in enumerate(records):
        if not isinstance(rec, dict):
            lines.append(((index,), f"record #{index}: must be a JSON object, got {reprlib.repr(rec)}"))
            continue
        image_id, verb, width, height, frames = map(rec.get, ("id", "verb", "width", "height", "frames"))
        label = f"image {image_id!r}" if isinstance(image_id, str) else f"record #{index}"
        if not isinstance(image_id, str):
            lines.append(((index,), f"{label}, id: must be a string, got {reprlib.repr(image_id)}"))
        elif image_id in seen:
            lines.append(((index,), f"{label}: duplicate image id (record #{index})"))
        else:
            seen.add(image_id)
        if not (type(width) in _JSON_NUMBER_TYPES and type(height) in _JSON_NUMBER_TYPES
                and 0 < width <= largest and 0 < height <= largest):
            for fld, value in (("width", width), ("height", height)):
                if not _positive_number(value):
                    lines.append(((index,), f"{label}, {fld}: must be a positive number, "
                                            f"got {reprlib.repr(value)}"))
            if not (_positive_number(width) and _positive_number(height)):
                width = height = np.inf  # nothing clamps to a size that breaks a rule
        verb_roles = entries.get(verb) if isinstance(verb, str) else None
        if verb_roles is None:
            lines.append(((index,), f"{label}, verb: unknown verb {reprlib.repr(verb)}"))
            continue
        annotated = None
        if type(frames) is list and len(frames) == 3 and {dict}.issuperset(map(type, frames)):
            first, second, third = frames
            annotated = (tuple(map(first.get, verb_roles)), tuple(map(second.get, verb_roles)),
                         tuple(map(third.get, verb_roles)))
            named = annotated[0] + annotated[1] + annotated[2]  # a missing role reads None, no string
            if not ({str}.issuperset(map(type, named)) and nouns.issuperset(filter(None, named))):
                annotated = None
        if annotated is None:  # a frame broke a rule, or holds a subclass of a JSON type
            annotated = _frame_lines(label, frames, verb_roles, nouns, (index,), lines)
        field = "worker_boxes" if "worker_boxes" in rec else "boxes"
        given = rec.get(field)
        if given is not None and not isinstance(given, dict):
            lines.append(((index,), str(_type_error(given, dict, f"{label}, {field}"))))
        given = given if isinstance(given, dict) else {}
        walked.append((index, label, image_id, verb, verb_roles, width, height, annotated, field))
        if field == "worker_boxes":
            for slot, role in enumerate(verb_roles, len(raws)):
                listed = given.get(role)
                if isinstance(listed, list):
                    worker_raws.extend(listed)
                    worker_slots.extend(repeat(slot, len(listed)))
                elif listed is not None:
                    lines.append(((index, 1, slot, 0), str(_type_error(
                        listed, list, f"{label}, worker_boxes[{role!r}]"))))
            given = {}
        raws.extend(map(given.get, verb_roles))
    indices, labels, ids, verbs, roles, widths, heights, annotations, fields = (
        zip(*walked) if walked else [()] * 9)
    n_roles = list(map(len, roles))
    starts = [0, *accumulate(n_roles)]

    def locate(i):
        """(record k, slot, name) of box i of `_box_rows`."""
        slot = i if i < n_slots else worker_slots[i - n_slots]
        k = bisect_right(starts, slot) - 1
        where = f"{labels[k]}, {fields[k]}[{roles[k][slot - starts[k]]!r}]"
        if i >= n_slots:  # a worker box: its place in the role's list
            where += f"[{i - n_slots - bisect_left(worker_slots, slot)}]"
        return k, slot, where

    n_slots, faults = len(raws), []
    boxes, workers = np.split(_box_rows(raws + worker_raws, lambda i: locate(i)[2], faults), [n_slots])
    for i, message in faults:
        k, slot, _ = locate(i)
        lines.append(((indices[k], 1, slot, 0), message))
    read = ~np.isnan(workers[:, 0])  # a role's worker boxes that were read: merged when 3
    owners = np.array(worker_slots, dtype=np.intp)[read]
    counts = np.bincount(owners, minlength=n_slots)
    sums = np.zeros((n_slots, 4))
    np.add.at(sums, owners, workers[read])  # in order from +0.0, as `sum` adds
    merged, faults = np.flatnonzero(counts == 3).tolist(), []
    boxes[merged] = _box_rows((sums[merged] / 3).tolist(), lambda i: locate(merged[i])[2], faults)
    lines.extend(((indices[locate(merged[i])[0]], 1, merged[i], 1), message) for i, message in faults)
    miscounted = np.flatnonzero((counts != 0) & (counts != 3)).tolist()
    lines.extend(((indices[k], 1, slot, 1), f"{where}: expected exactly 3 worker boxes, "
                  f"got {counts[slot]}") for k, slot, where in map(locate, miscounted))

    slot_roles = list(chain.from_iterable(roles))
    boxed = ~np.isnan(boxes[:, 0])
    placed = boxed & np.fromiter(map(PLACE_ROLE.__eq__, slot_roles), dtype=bool, count=n_slots)
    lines.extend(((indices[k], 2, slot), f"{where}: place-grounded: the Place role is never grounded")
                 for k, slot, where in map(locate, np.flatnonzero(placed).tolist()))
    bounds = np.array([widths, heights], dtype=np.float64).reshape(2, -1)
    # a coordinate is past an int size whose float rounds up exactly when it is past the float below
    above = [list(map(float.__gt__, *pair)) for pair in zip(bounds.tolist(), (widths, heights))]
    width, height = np.repeat(np.where(above, np.nextafter(bounds, 0), bounds), n_roles, axis=1)
    outside = np.flatnonzero(boxed & ~placed & ((boxes[:, 2] > width) | (boxes[:, 3] > height)))
    clamped = np.minimum(boxes[outside], np.repeat(bounds, n_roles, axis=1)[[0, 1, 0, 1]].T[outside])
    kept = _valid_box_rows(clamped)
    for slot, box, keep in zip(outside.tolist(), boxes[outside].tolist(), kept.tolist()):
        k, _, where = locate(slot)
        try:  # a clamped box the array check refuses is judged by the box's own rules
            if not keep:
                boxes[slot] = BoundingBox(*box).clamped(widths[k], heights[k]).as_list()
            warnings.append(f"{labels[k]}, role {slot_roles[slot]!r}: box clamped to image bounds")
        except FrameModelError as e:
            lines.append(((indices[k], 2, slot), f"{where}: box {box} clamped to the "
                          f"{widths[k]}x{heights[k]} image: {e}"))
    boxes[outside[kept]] = clamped[kept]

    lines.sort(key=itemgetter(0))  # stable, so a record's head lines keep their order
    faulty = {key[0] for key, _ in lines}
    keep = [index not in faulty for index in indices]
    table = DatasetTable(
        lexicon, vocabulary, list(compress(ids, keep)), list(compress(verbs, keep)),
        list(zip(compress(widths, keep), compress(heights, keep))), list(compress(annotations, keep)),
        [0, *accumulate(compress(n_roles, keep))], boxes[np.repeat(np.array(keep, dtype=bool), n_roles)])
    return table, violations + [line for _, line in lines]


def _frame_lines(label: str, frames, roles: tuple, nouns: frozenset, key: tuple, lines: list) -> tuple:
    """Append (key, line) to `lines` per rule "frames" breaks; returns the noun tuples."""
    if not isinstance(frames, list):
        lines.append((key, str(_type_error(frames, list, f"{label}, frames"))))
        frames = []
    elif len(frames) != 3:
        lines.append((key, f"{label}, frames: must list exactly 3 annotator frames, got {len(frames)}"))
    annotated = []
    for ann, frame in enumerate(frames):
        if not isinstance(frame, dict):
            lines.append((key, f"{label}, frames[{ann}]: must be a JSON object {{role: noun}}, "
                               f"got {reprlib.repr(frame)}"))
            continue
        annotated.append(tuple(map(frame.get, roles)))
        for role, noun in zip(roles, annotated[-1]):
            if role not in frame:
                lines.append((key, f"{label}, frames[{ann}]: missing role {role!r}"))
            elif not isinstance(noun, str):
                lines.append((key, f"{label}, frames[{ann}][{role!r}]: noun must be a string, "
                                   f"got {reprlib.repr(noun)}"))
            elif noun != NULL_NOUN and noun not in nouns:
                lines.append((key, f"{label}, frames[{ann}][{role!r}]: unknown noun {noun!r}"))
    return tuple(annotated)


@_gc_paused
def load_dataset(annotation_source, lexicon_source, vocabulary_source,
                 warnings: Optional[list] = None) -> DatasetTable:
    """Parse and validate a dataset from its three JSON sources into a DatasetTable.

    Raises DatasetError with the first violation `parse_dataset` finds,
    which names the record and field, and the number of others.
    """
    lexicon = parse_lexicon(lexicon_source)
    vocabulary = parse_vocabulary(vocabulary_source)
    table, violations = parse_dataset(annotation_source, lexicon, vocabulary,
                                      [] if warnings is None else warnings)
    if violations:
        more = f" (and {len(violations) - 1} more)" if len(violations) > 1 else ""
        raise DatasetError(violations[0] + more)
    return table


def _records(source, kind: str):
    """Yield (index, record) over a JSON array of objects."""
    records = _read_json(source)
    if not isinstance(records, list):
        raise DatasetError(f"{kind} file must be a JSON array")
    for index, rec in enumerate(records):
        yield index, _check(rec, dict, f"{kind} record #{index}")


def _by_id(source, kind: str, parse) -> dict:
    """{id: parse(rec, where)} over records whose "id" is a string, unique in
    the file; `where` names the record, and so does every error."""
    out = {}
    for index, rec in _records(source, kind):
        image_id = rec.get("id")
        if not isinstance(image_id, str):
            raise DatasetError(f"{kind} record #{index}: missing or non-string 'id'")
        where = f"{kind} {image_id!r}"
        if image_id in out:
            raise DatasetError(f"{where}: duplicate id (record #{index})")
        try:
            out[image_id] = parse(rec, where)
        except (FusionError, RetrievalError) as e:
            raise DatasetError(f"{where}, {e}") from e  # the type's message names the field
    return out


def _frame_row(raw, roles, where: str, boxes_out: list) -> tuple:
    """Read the file form of a frame for `roles`: the one frame reader.

    Returns the frame's nouns and "grounded" flags, parallel to `roles`, and
    appends each role's raw box (None when it has none) to `boxes_out` for
    `_box_rows` to judge. A role's faults come in file order: its noun, its
    box, its flag. So a fault raised here comes first in the file only when
    every box appended before it is good; callers check that before re-raising.
    """
    raw = _check(raw, dict, where)
    nouns = _get(raw, "nouns", dict, where, {})
    boxes = _get(raw, "boxes", dict, where, {})
    grounded = _get(raw, "grounded", dict, where, {})
    values = tuple(map(nouns.get, roles))
    flags = tuple(map(grounded.get, roles, repeat(True)))
    if {str}.issuperset(map(type, values)) and {bool}.issuperset(map(type, flags)):
        boxes_out.extend(map(boxes.get, roles))
        return values, flags
    for role, noun, flag in zip(roles, values, flags):  # find the first fault, role by role
        if role not in nouns:
            raise DatasetError(f"{where}, nouns: missing noun for role {role!r}")
        if not isinstance(noun, str):
            raise _type_error(noun, str, f"{where}, nouns[{role!r}]")
        boxes_out.append(boxes.get(role))
        if not isinstance(flag, bool):
            raise _type_error(flag, bool, f"{where}, grounded[{role!r}]")
    return values, flags  # nouns of a str subclass, which only a parsed value can hold


def frame_from_json(raw, roles, where: str) -> GroundedFrame:
    """Read the file form of a frame, the inverse of `frame_to_json`. Each role
    needs a string noun; a role with a box is grounded unless "grounded" gives it false."""
    raws = []

    def where_of(i):
        return f"{where}, boxes[{roles[i]!r}]"

    try:
        nouns, flags = _frame_row(raw, roles, where, raws)
    except DatasetError:
        _box_rows(raws, where_of)  # a bad box read before the fault is the first fault
        raise
    rows = _box_rows(raws, where_of).tolist()
    return GroundedFrame(tuple(zip(roles, nouns)), tuple(
        BoundingBox(*b) if flag and b[0] == b[0] else None for b, flag in zip(rows, flags)))


@_gc_paused
def load_predictions(source, lexicon: VerbLexicon) -> PredictionTable:
    """Parse a prediction file into a PredictionTable; every frame is checked,
    and an error names the first fault in file order."""
    ids, rankings, frames, roles, nouns, starts, wheres, raws, unflagged = (
        [], [], [], [], [], [0], [], [], [])

    def parse(rec, where):
        verbs = _strings(rec.get("verbs"), f"{where}, verbs")
        if not verbs:
            raise DatasetError(f"{where}, verbs: must be a non-empty list")
        rows = {}
        for verb, raw in _get(rec, "frames", dict, where, {}).items():
            if verb not in lexicon:
                raise DatasetError(f"{where}, frames[{verb!r}]: unknown verb")
            rows[verb], start = len(roles), len(raws)
            roles.append(lexicon.roles(verb))
            wheres.append(f"{where}, frames[{verb!r}]")
            row_nouns, flags = _frame_row(raw, roles[-1], wheres[-1], raws)
            nouns.append(row_nouns)
            starts.append(len(raws))
            if False in flags:
                unflagged.extend(i for i, flag in enumerate(flags, start) if not flag)
        for verb in rows:
            if verb not in verbs:
                raise DatasetError(f"{where}, frames[{verb!r}]: verb not in the ranking")
        ids.append(rec["id"])
        rankings.append(verbs)
        frames.append(rows)

    def where_of(i):
        row = bisect_right(starts, i) - 1
        return f"{wheres[row]}, boxes[{roles[row][i - starts[row]]!r}]"

    try:
        _by_id(source, "prediction", parse)
    except DatasetError:
        _box_rows(raws, where_of)  # a bad box read before the fault is the first fault
        raise
    boxes = _box_rows(raws, where_of)
    boxes[unflagged] = np.nan
    return PredictionTable(ids, rankings, frames, roles, nouns, starts, boxes)


def _detection_set(rec: dict, where: str) -> DetectionSet:
    boxes = _box_list(rec.get("boxes"), f"{where}, boxes")
    nouns = _strings(rec.get("nouns"), f"{where}, nouns")
    if len(set(nouns)) != len(nouns):
        raise DatasetError(f"{where}, nouns: must be distinct, got {reprlib.repr(list(nouns))}")
    rows, shape = _get(rec, "noun_scores", list, where), (len(boxes), len(nouns))
    if not (len(rows) == shape[0] and {list}.issuperset(map(type, rows))
            and {shape[1]}.issuperset(map(len, rows))):
        raise DatasetError(f"{where}, noun_scores: must be a {shape[0]}x{shape[1]} array "
                           "of numbers, one row per box and one column per noun")
    if not _JSON_NUMBER_TYPES.issuperset(map(type, chain.from_iterable(rows))):
        raise DatasetError(f"{where}, noun_scores: logits must be JSON numbers, got {reprlib.repr(rows)}")
    try:
        scores = np.array(rows, dtype=np.float64).reshape(shape)
    except OverflowError as e:  # an int too big for a float
        raise DatasetError(f"{where}, noun_scores: {e}") from e
    return DetectionSet(boxes, scores, {n: i for i, n in enumerate(nouns)})


@_gc_paused
def load_detection_sets(source) -> dict:
    """Parse late-fusion detector output into {image id: DetectionSet}."""
    return _by_id(source, "detections", _detection_set)


@_gc_paused
def load_object_detections(source) -> dict:
    """Parse labelled detections (object retrieval) into {image id: DetectionList}."""
    return _by_id(source, "detections", lambda rec, where: DetectionList(
        _strings(rec.get("classes"), f"{where}, classes"),
        _box_list(rec.get("boxes"), f"{where}, boxes")))


def _situation(rec: dict, where: str) -> SituationPrediction:
    verbs = _strings(rec.get("verbs"), f"{where}, verbs")
    entities = tuple(_strings(row, f"{where}, entities[{a}]")
                     for a, row in enumerate(_get(rec, "entities", list, where)))
    boxes = []
    for a, row in enumerate(_get(rec, "boxes", list, where)):
        row = _check(row, list, f"{where}, boxes[{a}]")
        boxes.append(tuple(parse_box(b, f"{where}, boxes[{a}][{k}]") for k, b in enumerate(row)))
    return SituationPrediction(verbs, entities, tuple(boxes))


@_gc_paused
def load_situations(source) -> dict:
    """Parse top-5 situation predictions (retrieval) into {image id: SituationPrediction}."""
    return _by_id(source, "situation", _situation)


@_gc_paused
def load_chain_nodes(source) -> list:
    """Parse the situations of one image (chaining) into SituationNodes.

    A node's roles are the keys of its "nouns" object, in file order.
    """
    nodes = []
    for index, rec in _records(source, "situation"):
        where = f"situation #{index}"
        verb = _get(rec, "verb", str, where)
        roles = tuple(_get(rec, "nouns", dict, where))
        nodes.append(SituationNode(verb, frame_from_json(rec, roles, where),
                                   parse_box(rec.get("query_box"), f"{where}, query_box")))
    return nodes


@_gc_paused
def load_boxes(source) -> list:
    """Parse a JSON array of boxes (anchor clustering input)."""
    return list(_box_list(_read_json(source), "boxes"))


def compute_stats(table: DatasetTable) -> dict:
    """Corpus statistics: noun-slot counts, grounding rates, scale/aspect samples.

    A noun slot is one (image, annotator, role) triple; a slot is grounded
    when its noun is non-null and the merged gt box for its role exists.
    grounded_fraction = grounded / non-null slots, rounded to 4 places;
    scale = max(box_w/img_w, box_h/img_h); aspect = box_h/box_w. Returns
    the report as it is written.
    """
    roles = list(map(table.lexicon.roles, table.verbs))  # per image
    n_roles = list(map(len, roles))
    boxed = (~np.isnan(table.boxes[:, 0])).tolist()  # per role slot
    # per noun slot, in (image, annotator, role) order
    slot_roles = list(chain.from_iterable(r * 3 for r in roles))
    slot_nouns = list(chain.from_iterable(chain.from_iterable(table.annotations)))
    named = list(map(bool, slot_nouns))  # the null noun "" is falsy
    grounded = list(map(and_, named, chain.from_iterable(
        boxed[s:e] * 3 for s, e in zip(table.starts, table.starts[1:]))))
    role_total, role_grounded = Counter(slot_roles), Counter(compress(slot_roles, grounded))
    non_null_slots, grounded_slots = sum(named), sum(grounded)

    # per grounded role slot: the first annotator noun that is not null, and the box's shape
    first_nouns = [a or b or c for annotated in table.annotations for a, b, c in zip(*annotated)]
    verbs = chain.from_iterable(map(repeat, table.verbs, n_roles))
    box = table.boxes[boxed]
    size = np.repeat(np.array(table.sizes, dtype=np.float64).reshape(-1, 2), n_roles, axis=0)[boxed]
    w, h = box[:, 2] - box[:, 0], box[:, 3] - box[:, 1]
    samples = [{"noun": noun, "verb": verb, "role": role, "scale": scale, "aspect": aspect}
               for noun, verb, role, scale, aspect in zip(
                   compress(first_nouns, boxed), compress(verbs, boxed),
                   compress(chain.from_iterable(roles), boxed),
                   np.maximum(w / size[:, 0], h / size[:, 1]).tolist(), (h / w).tolist())]
    n_images = len(table.ids)
    return {
        "total_images": n_images,
        "total_verbs": len(set(table.verbs)),
        "total_noun_slots": len(slot_nouns),
        "non_null_slots": non_null_slots,
        "grounded_slots": grounded_slots,
        "grounded_fraction": round(grounded_slots / non_null_slots, 4) if non_null_slots else 0.0,
        "mean_frame_length": len(table.boxes) / n_images if n_images else 0.0,
        "groundings_per_noun": dict(Counter(compress(slot_nouns, grounded))),
        "role_grounding_rate": {
            role: role_grounded[role] / total for role, total in sorted(role_total.items())
        },
        "scale_aspect_samples": samples,
    }


def _read_json(source):
    """Decode a file object or a path (str, bytes or os.PathLike); any other
    value is already parsed, for the format's own type check to judge."""
    try:
        if hasattr(source, "read"):
            return json.load(source)
        if not isinstance(source, (str, bytes, os.PathLike)):
            return source
        with open(source, "r", encoding="utf-8") as f:
            return json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        name = getattr(source, "name", "<stream>") if hasattr(source, "read") else source
        raise DatasetError(f"{name}: {e}") from e
