"""Parsing of every input file format, worker-box merging, corpus statistics.

This module is the only code that reads JSON input; every reader takes a path
(str, bytes or os.PathLike), a file object or an already-parsed JSON value,
which is how a library caller hands in data it holds: ground truth and
predictions have no other input form. One reader, `_text`, reads every path
and file object; `_items` decodes a file of records (a top-level array) one
record at a time. Every record walk queues its raw boxes on a `_BoxQueue`,
the one judge of raw boxes: it judges them by `parse_box`'s rules in array
passes of `_CHUNK` boxes as they are queued, hands `parse_box` only the boxes
refused there, and keeps (n, 4) float64 rows, not the decoded lists (a worker
mean or a clamped box is judged on its row). The walk's faults, its boxes'
and its own, are one list keyed (run, kind, box); a loader raises the least,
and every error names the record and the field: "<record>, <field>: <rule>".
The walk also codes the nouns it reads, in first-read order, the null noun -1:
a loaded table holds an int32 code per noun slot and a `nouns` list, code to noun,
and one str per distinct verb, however often the file names it.

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
               The verb sits outside the frame; read by `_BoxQueue.read`,
               written by `frame_model.frame_to_json`.
  predictions: [{"id", "verbs": [verb, ...], "frames": {verb: frame}}, ...]
               (also the `fuse` output); read into a `PredictionTable`
  detections:  [{"id", "boxes": [box, ...], "nouns": [noun, ...],
                 "noun_scores": [[logit per noun] per box]}, ...]  (fusion;
               read into a `fusion.FusionTable`)
               [{"id", "classes": [noun, ...], "boxes": [box, ...]}, ...]
               (object retrieval; read into a `retrieval.DetectionTable`)
  situations:  [{"id", "verbs": [verb x5], "entities": [[noun per role] x5],
                 "boxes": [[box_or_null per role] x5]}, ...]  (retrieval;
               read into a `retrieval.SituationTable`)
               [{"verb", **frame, "query_box": box_or_null}, ...]  (chaining;
               the node's roles are the keys of its "nouns"; read into a
               `chaining.NodeTable`)
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
from bisect import bisect_right
from collections import Counter, deque
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from operator import is_not, itemgetter
from typing import Optional

import numpy as np

from .chaining import NodeTable
from .frame_model import (
    NULL_NOUN,
    PLACE_ROLE,
    BoundingBox,
    FrameModelError,
    NounVocabulary,
    VerbLexicon,
)
from .fusion import FusionError, FusionTable, best_boxes
from .retrieval import DetectionList, DetectionTable, RetrievalError, SituationPrediction, SituationTable

SENTINEL_BOX = [-1, -1, -1, -1]
_JSON_NUMBER_TYPES = frozenset((int, float))  # what `json` decodes a number to; never bool
_DECODER, _WHITESPACE = json.JSONDecoder(), json.decoder.WHITESPACE.match  # json's own, between items


class DatasetError(ValueError):
    """Raised when a dataset, lexicon, or prediction file is malformed."""


def _gc_paused(read):
    """Run `read` with the cyclic garbage collector paused, restoring its
    prior state after. A reader builds no reference cycles, so a collection
    during the parse would only walk the growing heap and free nothing."""
    @functools.wraps(read)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return read(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@dataclass(frozen=True, eq=False)
class DatasetTable:
    """Ground truth as columns: one entry per image, one gt box row per role slot.

    Image `k` has the lexicon's roles for `verbs[k]`, in that order, and
    slots `starts[k]:starts[k + 1]` of `annotations` and `boxes`.
    """

    lexicon: VerbLexicon
    vocabulary: NounVocabulary
    ids: list  # per image: its id
    verbs: list  # per image: its verb
    sizes: list  # per image: (width, height) as the file gives them
    annotations: np.ndarray  # (n_slots, 3) int32: per role slot, each annotator's noun code
    nouns: list  # per code: its noun; code -1, the null noun, reads the last entry, ""
    starts: list  # per image: its first slot; one more entry closes the last image
    boxes: np.ndarray  # (n_slots, 4) float64 merged gt boxes, a NaN row for an ungrounded role


@dataclass(frozen=True, eq=False)
class PredictionTable:
    """Model outputs as columns: one entry per record, one row per frame.

    Row `row` holds role slots `starts[row]:starts[row + 1]` of `codes` and `boxes`.
    """

    ids: list  # per record: its image id
    rankings: list  # per record: a tuple of verbs, best first
    frames: list  # per record: {verb: row}
    roles: list  # per row: the frame's roles, a tuple
    starts: list  # per row: its first slot; one more entry closes the last row
    codes: np.ndarray  # (n_slots,) int32: per slot its noun's code
    nouns: list  # per code: its noun; code -1, the null noun, reads the last entry, ""
    boxes: np.ndarray  # (n_slots, 4) float64, a NaN row for an ungrounded slot


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


@_gc_paused
def parse_dataset(source, lexicon: VerbLexicon, vocabulary: NounVocabulary,
                  warnings: list) -> tuple:
    """Read dataset records; returns (table, violations).

    The one reading of the dataset format: `load_dataset` raises when
    `violations` is non-empty and `swig validate` prints it, so the two
    agree on every file. One walk puts each record's fields into columns;
    a field's lines are written only when its C-level check fails. It codes
    a record's nouns and queues its role slots as one run on a `_BoxQueue`,
    and each role's worker boxes as a run on a second; then the worker mean,
    the Place rule and clamping run once over the box rows. A line names the
    record and the field; a record's lines come in field order, its box
    lines in role order, then its Place and clamp lines. The table holds the
    records with no line (`nouns` may name a noun only they read). Every
    clamped box is a warning.
    """
    records, violations = _items(source), []
    if records is None:
        records, violations = [], ["dataset file must be a JSON array of image records"]
    entries, nouns, largest = lexicon.entries, vocabulary.ids, sys.float_info.max
    walked, spelled = [], {}  # per record with a known verb: its columns; verb -> its one str
    slots, workers, worker_slots = _BoxQueue(), _BoxQueue(), []  # slots: a null box for a worker role
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
        # nouns in (role, annotator) order; a record whose frames broke a rule is dropped, its slots null
        slots.encode(chain.from_iterable(zip(*(annotated or [(NULL_NOUN,) * len(verb_roles)] * 3))))
        field = "worker_boxes" if "worker_boxes" in rec else "boxes"
        given = rec.get(field)
        if given is not None and not isinstance(given, dict):
            lines.append(((index,), str(_type_error(given, dict, f"{label}, {field}"))))
        given = given if isinstance(given, dict) else {}
        walked.append((index, label, image_id, spelled.setdefault(verb, verb), verb_roles, width, height,
                       field))
        if field == "worker_boxes":
            for slot, role in enumerate(verb_roles, slots.starts[-1]):
                listed = given.get(role)
                if isinstance(listed, list):
                    workers.queue(listed, f"{label}, worker_boxes[{role!r}]", "[{}]")
                    worker_slots.extend(repeat(slot, len(listed)))
                elif listed is not None:
                    lines.append(((index, 1, slot, 0), str(_type_error(
                        listed, list, f"{label}, worker_boxes[{role!r}]"))))
            given = {}
        slots.queue(list(map(given.get, verb_roles)), label, verb_roles)
    indices, labels, ids, verbs, roles, widths, heights, fields = zip(*walked) if walked else [()] * 8
    del walked  # the walk's tuples are read
    n_roles, starts, n_slots = list(map(len, roles)), slots.starts, slots.starts[-1]
    boxes, worker_rows = slots.rows(), workers.rows()

    def locate(slot):
        """(record k, slot, name) of role slot `slot`."""
        k = bisect_right(starts, slot) - 1
        return k, slot, f"{labels[k]}, {fields[k]}[{roles[k][slot - starts[k]]!r}]"

    for (*_, slot), line in slots.faults + [((worker_slots[i],), line) for (*_, i), line in workers.faults]:
        lines.append(((indices[locate(slot)[0]], 1, slot, 0), line))  # a worker box's line is its slot's
    read = ~np.isnan(worker_rows[:, 0])  # a role's worker boxes that were read: merged when 3
    owners = np.array(worker_slots, dtype=np.intp)[read]
    counts = np.bincount(owners, minlength=n_slots)
    sums = np.zeros((n_slots, 4))
    np.add.at(sums, owners, worker_rows[read])  # in order from +0.0, as `sum` adds
    merged = np.flatnonzero(counts == 3)
    means = sums[merged] / 3
    valid = _valid_box_rows(means)  # only a refused mean goes to `parse_box`, to be named
    boxes[merged[valid]] = means[valid]
    for slot, mean in zip(merged[~valid].tolist(), means[~valid]):
        k, _, where = locate(slot)
        try:
            parse_box(mean.tolist(), where)
        except DatasetError as e:
            lines.append(((indices[k], 1, slot, 1), str(e)))
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
        try:  # a clamped box the array check refuses is named by the box's own rules
            if not keep:
                BoundingBox(*box).clamped(widths[k], heights[k])
            warnings.append(f"{labels[k]}, role {slot_roles[slot]!r}: box clamped to image bounds")
        except FrameModelError as e:
            lines.append(((indices[k], 2, slot), f"{where}: box {box} clamped to the "
                          f"{widths[k]}x{heights[k]} image: {e}"))
    boxes[outside[kept]] = clamped[kept]

    lines.sort(key=itemgetter(0))  # stable, so a record's head lines keep their order
    faulty = {key[0] for key, _ in lines}
    keep = [index not in faulty for index in indices]
    kept, (codes, table_nouns) = np.repeat(np.array(keep, dtype=bool), n_roles), slots.coded()
    table = DatasetTable(
        lexicon, vocabulary, list(compress(ids, keep)), list(compress(verbs, keep)),
        list(zip(compress(widths, keep), compress(heights, keep))), codes.reshape(-1, 3)[kept], table_nouns,
        [0, *accumulate(compress(n_roles, keep))], boxes[kept])
    return table, violations + [line for _, line in lines]


def _frame_lines(label: str, frames, roles: tuple, nouns: frozenset, key: tuple, lines: list) -> tuple:
    """Append (key, line) to `lines` per rule "frames" breaks; returns the noun tuples if it breaks none."""
    broken = len(lines)
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
    return tuple(annotated) if len(lines) == broken else None


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


@_gc_paused
def _records(source, kind: str, queue: _BoxQueue, visit, close=None) -> np.ndarray:
    """visit(index, record) over a JSON array of objects, read by `_items`,
    then close(), if given, which keys the faults the walk deferred;
    returns `queue.boxes()`. A fault `visit` raises ends the visits and is
    keyed after every box queued before it; the rest of the file still
    decodes, so a decode error anywhere comes first, as in a whole decode."""
    items = _items(source)
    if items is None:
        raise DatasetError(f"{kind} file must be a JSON array")
    for index, rec in enumerate(items):
        try:
            visit(index, _check(rec, dict, f"{kind} #{index}"))
        except DatasetError as e:
            queue.faults.append(((len(queue.starts) - 1, 2, queue.judged + len(queue.raws)), e))
            break
    deque(items, maxlen=0)  # decodes the rest, which may raise first
    if close is not None:
        close()
    return queue.boxes()


def _by_id(source, kind: str, parse, queue: _BoxQueue, close=None) -> tuple:
    """({id: parse(rec, where)}, `queue.boxes()`) over records whose "id" is a
    string, unique in the file, by `_records` with `close`; `where` names the
    record, and so does every error. `parse` queues the record's boxes on `queue`."""
    out = {}

    def visit(index, rec):
        image_id = rec.get("id")
        if not isinstance(image_id, str):
            raise DatasetError(f"{kind} #{index}: missing or non-string 'id'")
        where = f"{kind} {image_id!r}"
        if image_id in out:
            raise DatasetError(f"{where}: duplicate id (record #{index})")
        try:
            out[image_id] = parse(rec, where)
        except RetrievalError as e:
            raise DatasetError(f"{where}, {e}") from e  # the type's message names the field

    return out, _records(source, kind, queue, visit, close)


_CHUNK = 4096  # raw boxes a record walk queues per `_BoxQueue._judge` pass; least logits per reduction


class _BoxQueue:
    """The raw boxes a record walk queues, judged by `_judge` in chunks of
    `_CHUNK` as the walk queues them: the queue keeps float64 rows, not the
    decoded lists, and every bad box with its line, in `faults`; and the
    walk's noun codes, given by `encode`.

    Boxes come in runs: `queue` adds a JSON array of boxes, box j named
    `<where><field>` with j in the field's "{}", and `read`, the one frame
    reader, a frame, the box of role r named `<where>, boxes[r]`; so is a
    run `queue` is given roles for, in place of a field. A run's `where` and
    roles or field, which the walk holds anyway, are kept only until its
    boxes are judged, and a box is named only when it is a fault. Each
    fault is keyed (run, kind, box), and `boxes()` raises the least: kind 0
    is a bad box, 1 a null or sentinel box when not `nullable`, 2 the walk's
    own fault, which `_records` keys at the open run's next box, and 3 a
    fault the walk found after its run, keyed (run, 3, 0). So a malformed
    box beats an earlier null of its run, and a walk fault comes after every
    box queued before it.
    """

    def __init__(self, nullable: bool = True):
        self.nullable = nullable
        self.roles, self.codes, self.code = [], [], {NULL_NOUN: -1}  # per `read`; per noun; noun -> code
        self.starts, self.unflagged = [0], []  # per run its first box, and one more start; boxes flagged false
        self.raws, self.blocks, self.judged = [], [], 0  # the boxes not yet judged; rows of the judged ones
        self.names, self.dropped = [], 0  # (where, roles or field) per run from the last judged; runs before
        self.faults = []  # ((run, kind, box), line or exception) per fault

    def queue(self, raws: list, where: str, field=", boxes[{}]") -> int:
        """Queue the JSON array `raws` as a run, named by `field` or, when it
        is a tuple, by those roles; returns its first box."""
        self.names.append((where, field))
        at = _CHUNK - len(self.raws)  # where the run fills the chunk
        self.raws.extend(raws[:at])
        while len(self.raws) == _CHUNK:
            self._judge()
            self.raws.extend(raws[at:at + _CHUNK])
            at += _CHUNK
        self.starts.append(self.judged + len(self.raws))
        return self.starts[-2]

    def read(self, raw, roles: tuple, where: str) -> int:
        """Read the frame `raw` for `roles` as the next row; returns the row. Each
        role, in file order, needs a string noun, and its box is queued; it is
        grounded when it has a box and its "grounded" flag is not false."""
        raw = _check(raw, dict, where)
        nouns = _get(raw, "nouns", dict, where, {})
        boxes = _get(raw, "boxes", dict, where, {})
        grounded = _get(raw, "grounded", dict, where, {})
        self.names.append((where, roles))
        for role in roles:
            if role not in nouns:
                raise DatasetError(f"{where}, nouns: missing noun for role {role!r}")
            if not isinstance(nouns[role], str):
                raise _type_error(nouns[role], str, f"{where}, nouns[{role!r}]")
            box = self.judged + len(self.raws)
            self.raws.append(boxes.get(role))
            if len(self.raws) == _CHUNK:
                self._judge()
            if grounded.get(role, True) is not True:  # flagged false, or a fault
                _check(grounded[role], bool, f"{where}, grounded[{role!r}]")
                self.unflagged.append(box)
        self.roles.append(roles)
        self.encode(map(nouns.get, roles))
        self.starts.append(self.judged + len(self.raws))
        return len(self.roles) - 1

    def encode(self, nouns):
        """Append each noun's code to `codes`: a noun not read before gets the next code."""
        self.codes.extend([self.code.setdefault(noun, len(self.code) - 1) for noun in nouns])

    def coded(self) -> tuple:
        """(`codes` as int32, the code table: code c's noun at c, the null noun last)."""
        return np.array(self.codes, dtype=np.int32), [*self.code][1:] + [NULL_NOUN]

    def _judge(self):
        """Judge the queued boxes into a block of float64 rows, a NaN row for
        null and the sentinel. Lists of four JSON numbers are judged all at
        once by `_valid_box_rows`; only a box refused there is read by
        `parse_box`, in order, to name it: it goes to `faults` with its line
        and gets a NaN row. When not `nullable`, the first null box is kept."""
        raws, base = self.raws, self.judged
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
        for j, i in zip(np.flatnonzero(bad).tolist(), (np.flatnonzero(given)[bad] + base).tolist()):
            run, where = self.where_of(i)
            try:
                parse_box(present[j], where)
            except DatasetError as e:
                self.faults.append(((run, 0, i), str(e)))
        rows = np.full((len(raws), 4), np.nan)
        rows[given] = block
        given[given] = ~sentinel  # now false for null and the sentinel
        if not (self.nullable or given.all()):  # a chunk's first null: only the file's first is raised
            null = base + int(given.argmin())
            run, where = self.where_of(null)
            self.faults.append(((run, 1, null), f"{where}: box may not be null"))
        self.blocks.append(rows)
        self.judged += len(self.raws)
        self.raws = []
        self.dropped += len(self.names) - 1  # only the last run can go on into the next chunk
        del self.names[:-1]

    def rows(self) -> np.ndarray:
        """(n, 4) float64 rows of every queued box, a NaN row where it is null,
        bad or flagged false. Judges the last chunk, so `faults` is whole after."""
        if self.raws:
            self._judge()
        rows = np.concatenate(self.blocks) if self.blocks else np.empty((0, 4))
        self.blocks = [rows]  # the judged blocks die here, not with the queue
        rows[self.unflagged] = np.nan
        return rows

    def boxes(self) -> np.ndarray:
        """`rows()`, or the least fault raised."""
        rows = self.rows()
        if self.faults:
            (_, kind, _), fault = min(self.faults, key=itemgetter(0))
            raise fault if kind >= 2 else DatasetError(fault)
        return rows

    def where_of(self, i: int) -> tuple:
        """(run, name) of box i, which is not yet judged or is being judged."""
        run = bisect_right(self.starts, i) - 1
        (where, key), j = self.names[run - self.dropped], i - self.starts[run]
        return run, (where + key.format(j) if type(key) is str else f"{where}, boxes[{key[j]!r}]")


def load_predictions(source, lexicon: VerbLexicon) -> PredictionTable:
    """Parse a prediction file into a PredictionTable; every frame is checked,
    and an error names the first fault in file order."""
    rankings, frames, rows, spelled = [], [], _BoxQueue(), {}  # spelled: verb -> its one str

    def parse(rec, where):
        verbs = _strings(rec.get("verbs"), f"{where}, verbs")
        if not verbs:
            raise DatasetError(f"{where}, verbs: must be a non-empty list")
        verbs, verb_rows = tuple(map(spelled.setdefault, verbs, verbs)), {}
        for verb, raw in _get(rec, "frames", dict, where, {}).items():
            if verb not in lexicon:
                raise DatasetError(f"{where}, frames[{verb!r}]: unknown verb")
            verb_rows[spelled.setdefault(verb, verb)] = rows.read(raw, lexicon.roles(verb),
                                                                  f"{where}, frames[{verb!r}]")
        for verb in verb_rows:
            if verb not in verbs:
                raise DatasetError(f"{where}, frames[{verb!r}]: verb not in the ranking")
        rankings.append(verbs)
        frames.append(verb_rows)

    ids, boxes = _by_id(source, "prediction", parse, rows)
    return PredictionTable(list(ids), rankings, frames, rows.roles, rows.starts, *rows.coded(), boxes)


def load_detection_sets(source) -> FusionTable:
    """Parse late-fusion detector output into a FusionTable. `fusion.best_boxes`
    reduces the logits of whole records in passes of at least `_CHUNK`; a
    record's int too big for a float, else its non-finite logit, is a fault
    keyed after the record's boxes and before the next record's."""
    queue, columns = _BoxQueue(nullable=False), [0]
    pending, wheres, rows, logits = [], [], [], []  # logits and names of the records not reduced

    def parse(rec, where):
        raws = _check(rec.get("boxes"), list, f"{where}, boxes")
        queue.queue(raws, where)
        nouns = _strings(rec.get("nouns"), f"{where}, nouns")
        if len(set(nouns)) != len(nouns):
            raise DatasetError(f"{where}, nouns: must be distinct, got {reprlib.repr(list(nouns))}")
        scores, shape = _get(rec, "noun_scores", list, where), (len(raws), len(nouns))
        if not (len(scores) == shape[0] and {list}.issuperset(map(type, scores))
                and {shape[1]}.issuperset(map(len, scores))):
            raise DatasetError(f"{where}, noun_scores: must be a {shape[0]}x{shape[1]} array "
                               "of numbers, one row per box and one column per noun")
        if not _JSON_NUMBER_TYPES.issuperset(map(type, chain.from_iterable(scores))):
            raise DatasetError(f"{where}, noun_scores: logits must be JSON numbers, "
                               f"got {reprlib.repr(scores)}")
        queue.encode(nouns)
        columns.append(columns[-1] + len(nouns))
        wheres.append(where)
        pending.extend(chain.from_iterable(scores))
        if len(pending) >= _CHUNK:
            reduce()
        return len(columns) - 2  # the record's image

    def reduce():
        """Reduce the records not yet reduced, or key the first one's fault."""
        first, end = len(columns) - 1 - len(wheres), len(columns) - 1  # their images
        n, m = np.diff(queue.starts[first:end + 1]), np.diff(columns[first:end + 1])
        try:
            block = np.array(pending, dtype=np.float64)
        except OverflowError:  # an int too big for a float
            block = None
        if block is None or not np.isfinite(block).all():
            ends = np.cumsum(n * m).tolist()
            faults = map(_logit_fault, map(pending.__getitem__, map(slice, [0] + ends, ends)), wheres)
            queue.faults.append(next(((k, 3, 0), f) for k, f in enumerate(faults, first) if f is not None))
        else:
            best, top = best_boxes(block, n, m)
            rows.append(np.where(best < 0, -1, best + np.repeat(queue.starts[first:end], m)))
            logits.append(top)
        pending.clear()
        wheres.clear()

    index, boxes = _by_id(source, "detections", parse, queue, reduce)
    return FusionTable(index, queue.starts, boxes, columns, *queue.coded(),
                       np.concatenate(rows), np.concatenate(logits))


def _logit_fault(values: list, where: str) -> Optional[DatasetError]:
    """The fault in one record's logits that its walk raises, or None: an
    int too big for a float, else a non-finite logit."""
    try:
        if np.isfinite(np.array(values, dtype=np.float64)).all():
            return None
        cause = FusionError("must be finite")
    except OverflowError as e:
        cause = e
    fault = DatasetError(f"{where}, noun_scores: {cause}")
    fault.__cause__ = cause  # as `raise ... from cause` sets it
    return fault


def load_object_detections(source) -> DetectionTable:
    """Parse labelled detections (object retrieval) into a DetectionTable."""
    classes, queue = [], _BoxQueue(nullable=False)

    def parse(rec, where):
        classes.append(_strings(rec.get("classes"), f"{where}, classes"))
        raws = _check(rec.get("boxes"), list, f"{where}, boxes")
        queue.queue(raws, where)
        DetectionList.check(classes[-1], raws)

    ids, boxes = _by_id(source, "detections", parse, queue)
    return DetectionTable({image_id: r for r, image_id in enumerate(ids)}, classes, queue.starts, boxes)


def load_situations(source) -> SituationTable:
    """Parse top-5 situation predictions (retrieval) into a SituationTable."""
    verbs, starts, queue, spelled = [], [], _BoxQueue(), {}  # spelled: verb -> its one str

    def parse(rec, where):
        top5 = _strings(rec.get("verbs"), f"{where}, verbs")
        nouns = tuple(_strings(row, f"{where}, entities[{a}]")
                      for a, row in enumerate(_get(rec, "entities", list, where)))
        ranks = _get(rec, "boxes", list, where)
        firsts = tuple(queue.queue(_check(row, list, f"{where}, boxes[{a}]"), where, f", boxes[{a}][{{}}]")
                       for a, row in enumerate(ranks))
        SituationPrediction.check(top5, nouns, ranks)
        queue.encode(chain.from_iterable(nouns))
        verbs.append(tuple(map(spelled.setdefault, top5, top5)))
        starts.append((*firsts, queue.starts[-1]))

    ids, boxes = _by_id(source, "situation", parse, queue)
    return SituationTable(dict(zip(ids, range(len(verbs)))), verbs, starts, *queue.coded(), boxes)


def load_chain_nodes(source) -> NodeTable:
    """Parse the situations of one image (chaining) into a NodeTable.

    A node's roles are the keys of its "nouns" object, in file order. Its
    query box is queued as a run of its own, after the node's role boxes.
    """
    verbs, rows, spelled = [], _BoxQueue(), {}  # spelled: verb -> its one str

    def visit(index, rec):
        where = f"situation #{index}"
        verb = _get(rec, "verb", str, where)
        verbs.append(spelled.setdefault(verb, verb))
        rows.read(rec, tuple(_get(rec, "nouns", dict, where)), where)
        rows.queue([rec.get("query_box")], where, ", query_box")

    boxes = _records(source, "situation", rows, visit)
    queried = np.array(rows.starts[1::2], dtype=np.intp)  # each node's query box: the run after its frame
    query_boxes = [None if box[0] != box[0] else box for box in boxes[queried].tolist()]  # a NaN row: None
    starts = [start - k for k, start in enumerate(rows.starts[::2])]  # node k comes after k query boxes
    return NodeTable(verbs, rows.roles, starts, *rows.coded(), np.delete(boxes, queried, axis=0), query_boxes)


def load_boxes(source) -> np.ndarray:
    """Parse a JSON array of boxes (anchor clustering input) into (n, 4) float64 rows."""
    queue = _BoxQueue(nullable=False)
    queue.queue(_check(_read_json(source), list, "boxes"), "", "boxes[{}]")
    return queue.boxes()


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
    slot_roles = list(chain.from_iterable(roles))  # per role slot
    boxed = ~np.isnan(table.boxes[:, 0])  # per role slot
    # per noun slot, one row per role slot and one column per annotator
    named = table.annotations >= 0  # the null noun's code is -1
    grounded = named & boxed[:, None]
    role_total = Counter(slot_roles)  # role slots, each three noun slots
    role_grounded = Counter(chain.from_iterable(map(repeat, slot_roles, grounded.sum(axis=1).tolist())))
    non_null_slots, grounded_slots = int(named.sum()), int(grounded.sum())
    groundings = np.bincount(table.annotations[grounded], minlength=len(table.nouns) - 1).tolist()

    # per grounded role slot: the first annotator noun that is not null, and the box's shape
    first = table.annotations[np.arange(len(named)), named.argmax(axis=1)]  # all null: -1, ""
    verbs = chain.from_iterable(map(repeat, table.verbs, n_roles))
    box = table.boxes[boxed]
    size = np.repeat(np.array(table.sizes, dtype=np.float64).reshape(-1, 2), n_roles, axis=0)[boxed]
    w, h = box[:, 2] - box[:, 0], box[:, 3] - box[:, 1]
    samples = [{"noun": noun, "verb": verb, "role": role, "scale": scale, "aspect": aspect}
               for noun, verb, role, scale, aspect in zip(
                   map(table.nouns.__getitem__, first[boxed].tolist()), compress(verbs, boxed),
                   compress(slot_roles, boxed),
                   np.maximum(w / size[:, 0], h / size[:, 1]).tolist(), (h / w).tolist())]
    n_images = len(table.ids)
    return {
        "total_images": n_images,
        "total_verbs": len(set(table.verbs)),
        "total_noun_slots": table.annotations.size,
        "non_null_slots": non_null_slots,
        "grounded_slots": grounded_slots,
        "grounded_fraction": round(grounded_slots / non_null_slots, 4) if non_null_slots else 0.0,
        "mean_frame_length": len(table.boxes) / n_images if n_images else 0.0,
        "groundings_per_noun": {noun: n for noun, n in zip(table.nouns, groundings) if n},
        "role_grounding_rate": {
            role: role_grounded[role] / (3 * total) for role, total in sorted(role_total.items())
        },
        "scale_aspect_samples": samples,
    }


def _text(source) -> Optional[str]:
    """The text of a file object or a path (str, bytes or os.PathLike); None for
    any other value, which is already parsed. As in `json.loads`, bytes decode
    by their detected encoding, and a text starting with a BOM is refused."""
    if not (hasattr(source, "read") or isinstance(source, (str, bytes, os.PathLike))):
        return None
    try:  # a caller's file object stays open
        with nullcontext(source) if hasattr(source, "read") else open(source, "r", encoding="utf-8") as f:
            text = f.read()
        if isinstance(text, str) and text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return text if isinstance(text, str) else text.decode(json.detect_encoding(text), "surrogatepass")
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise _decode_error(source, e) from e


@_gc_paused
def _read_json(source):
    """Decode a source whole; an already-parsed value is returned for the format's type check."""
    text = _text(source)
    return source if text is None else _loads(text, source)


def _items(source):
    """An iterator over the items of the JSON array `_read_json` would return,
    or None when that value is not an array. A source's text is decoded one
    item at a time, so an item's objects die once the walk has taken what it
    keeps; a malformed file raises json's own error."""
    text = _text(source)
    if text is None:
        return iter(source) if isinstance(source, list) else None
    start = _WHITESPACE(text).end()
    if not text.startswith("[", start):  # json decodes a value that is not an array, or raises
        _loads(text, source)
        return None
    return _stream(text, start + 1, source)


def _stream(text: str, index: int, source):
    """Yield the items of the JSON array whose "[" is text[index - 1], with
    json's whitespace and separators between them. From the first text this
    walk does not accept, the text goes whole to `_loads`, which raises
    (or else gives the items not yet yielded)."""
    count, tail = 0, ","
    index = _WHITESPACE(text, index).end()
    if text.startswith("]", index):
        tail, index = "]", index + 1
    try:
        while tail == ",":
            item, index = _DECODER.raw_decode(text, _WHITESPACE(text, index).end())
            yield item
            count += 1
            index = _WHITESPACE(text, index).end() + 1
            tail = text[index - 1:index]
    except (json.JSONDecodeError, RecursionError):
        tail = None
    if tail != "]" or _WHITESPACE(text, index).end() != len(text):
        yield from _loads(text, source)[count:]


def _loads(text: str, source):
    try:
        return _DECODER.decode(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise _decode_error(source, e) from e


def _decode_error(source, error: Exception) -> DatasetError:
    name = getattr(source, "name", "<stream>") if hasattr(source, "read") else source
    return DatasetError(f"{name}: {error}")
