"""Parsing of every input file format, worker-box merging, corpus statistics.

This module is the only code that turns JSON records into model objects.
Every box of every format goes through `parse_box`, and every error names
the record and the field it comes from.

Canonical file formats (UTF-8 JSON):

  lexicon:     {verb: [role, ...], ...}
  vocabulary:  {noun_id: gloss_or_null, ...} (values are not read) or [noun_id, ...]
  dataset:     [{"id", "width", "height", "verb",
                 "frames": [{role: noun_or_""} x3],
                 "boxes": {role: [x1,y1,x2,y2] or null}}, ...]
               A record may carry "worker_boxes": {role: [box x3]} instead of
               "boxes"; the three worker boxes are merged by coordinate mean.
  predictions: [{"id", "verbs": [verb, ...],
                 "frames": {verb: {"nouns": {role: noun},
                                   "boxes": {role: box_or_null},
                                   "grounded": {role: bool}  # optional
                                  }}}, ...]
  detections:  [{"id", "boxes": [box, ...], "nouns": [noun, ...],
                 "noun_scores": [[logit per noun] per box]}, ...]  (fusion)
               [{"id", "classes": [noun, ...], "boxes": [box, ...]}, ...]
               (object retrieval)
  situations:  [{"id", "verbs": [verb x5], "entities": [[noun per role] x5],
                 "boxes": [[box_or_null per role] x5]}, ...]  (retrieval)
               [{"verb", "nouns": {role: noun}, "boxes": {role: box_or_null},
                 "query_box": box_or_null}, ...]  (chaining)
  boxes:       [[x1,y1,x2,y2], ...]  (anchor clustering)

The adapter sentinel box [-1,-1,-1,-1] is read as "no grounding". An
optional object or array field given as null counts as absent.
"""

from __future__ import annotations

import json
import reprlib
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .chaining import SituationNode
from .frame_model import (
    NULL_NOUN,
    PLACE_ROLE,
    AnnotatedImage,
    BoundingBox,
    FrameModelError,
    GroundedFrame,
    NounVocabulary,
    PredictionRecord,
    VerbEntry,
    VerbLexicon,
)
from .fusion import DetectionSet, FusionError
from .retrieval import DetectionList, RetrievalError, SituationPrediction

SENTINEL_BOX = [-1, -1, -1, -1]


class DatasetError(ValueError):
    """Raised when a dataset, lexicon, or prediction file is malformed."""


@dataclass(frozen=True)
class Dataset:
    lexicon: VerbLexicon
    vocabulary: NounVocabulary
    images: tuple  # of AnnotatedImage


@dataclass
class StatsReport:
    """Corpus statistics over all annotator frames of a dataset."""

    total_images: int = 0
    total_verbs: int = 0
    total_noun_slots: int = 0
    non_null_slots: int = 0
    grounded_slots: int = 0
    mean_frame_length: float = 0.0
    groundings_per_noun: dict = field(default_factory=dict)
    role_grounding_rate: dict = field(default_factory=dict)
    scale_aspect_samples: list = field(default_factory=list)

    @property
    def grounded_fraction(self) -> float:
        return self.grounded_slots / self.non_null_slots if self.non_null_slots else 0.0

    def to_dict(self) -> dict:
        return {
            "total_images": self.total_images,
            "total_verbs": self.total_verbs,
            "total_noun_slots": self.total_noun_slots,
            "non_null_slots": self.non_null_slots,
            "grounded_slots": self.grounded_slots,
            "grounded_fraction": round(self.grounded_fraction, 4),
            "mean_frame_length": self.mean_frame_length,
            "groundings_per_noun": self.groundings_per_noun,
            "role_grounding_rate": self.role_grounding_rate,
            "scale_aspect_samples": [
                {"noun": n, "verb": v, "role": r, "scale": s, "aspect": a}
                for n, v, r, s, a in self.scale_aspect_samples
            ],
        }


def parse_lexicon(obj: dict) -> VerbLexicon:
    if not isinstance(obj, dict) or not obj:
        raise DatasetError("lexicon must be a non-empty JSON object {verb: [roles]}")
    entries = {}
    for verb, roles in obj.items():
        if not isinstance(roles, list) or not all(isinstance(r, str) for r in roles):
            raise DatasetError(f"lexicon entry {verb!r}: roles must be a list of strings")
        try:
            entries[verb] = VerbEntry(verb, tuple(roles))
        except FrameModelError as e:
            raise DatasetError(str(e)) from e
    return VerbLexicon(entries)


def parse_vocabulary(obj) -> NounVocabulary:
    if isinstance(obj, dict):
        return NounVocabulary(frozenset(obj.keys()) - {NULL_NOUN})
    if isinstance(obj, list):
        if not all(isinstance(n, str) for n in obj):
            raise DatasetError("vocabulary array must hold only noun id strings")
        return NounVocabulary(frozenset(obj) - {NULL_NOUN})
    raise DatasetError("vocabulary must be a JSON object or array of noun ids")


_JSON_TYPE = {dict: "object", list: "array", str: "string"}
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
    try:
        return BoundingBox(*map(float, raw))
    except (FrameModelError, TypeError, ValueError, OverflowError) as e:
        raise DatasetError(f"{where}: {e}") from e


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


def parse_dataset(records, lexicon: VerbLexicon, vocabulary: NounVocabulary,
                  warnings: list) -> tuple:
    """Walk dataset records; returns (images, violations).

    The one reading of the dataset format: `load_dataset` raises when
    `violations` is non-empty and `swig validate` prints it, so the two
    agree on every file. Each violation is one line naming the record and
    the field; a record with any violation yields no image. Boxes clamped
    to the image bounds are reported in `warnings`.
    """
    if not isinstance(records, list):
        return [], ["dataset file must be a JSON array of image records"]
    images, violations, seen = [], [], set()
    for index, rec in enumerate(records):
        if not isinstance(rec, dict):
            violations.append(f"record #{index}: must be a JSON object, got {reprlib.repr(rec)}")
            continue
        start = len(violations)
        image_id = rec.get("id")
        if not isinstance(image_id, str):
            label = f"record #{index}"
            violations.append(f"{label}, id: must be a string, got {reprlib.repr(image_id)}")
        else:
            label = f"image {image_id!r}"
            if image_id in seen:
                violations.append(f"{label}: duplicate image id (record #{index})")
            seen.add(image_id)
        image = _parse_image(rec, image_id, label, lexicon, vocabulary, warnings, violations)
        if len(violations) == start:
            images.append(image)
    return images, violations


def _parse_image(rec: dict, image_id, label: str, lexicon: VerbLexicon,
                 vocabulary: NounVocabulary, warnings: list, violations: list):
    """One dataset record: appends a line to `violations` for each broken
    rule and returns the image, or None when the record broke a rule."""
    start = len(violations)

    def bad(fld, message):
        violations.append(f"{label}, {fld}: {message}")

    def collect(fn, *args, fallback=None):
        try:
            return fn(*args)
        except DatasetError as e:
            violations.append(str(e))
            return fallback

    width, height = rec.get("width"), rec.get("height")
    for fld, value in (("width", width), ("height", height)):
        if not _positive_number(value):
            bad(fld, f"must be a positive number, got {reprlib.repr(value)}")
    verb = rec.get("verb")
    if not (isinstance(verb, str) and verb in lexicon):
        bad("verb", f"unknown verb {reprlib.repr(verb)}")
        return None
    roles = lexicon.roles(verb)

    frames = []
    raw_frames = collect(_get, rec, "frames", list, label)
    if raw_frames is not None and len(raw_frames) != 3:
        bad("frames", f"must list exactly 3 annotator frames, got {len(raw_frames)}")
    for ann, raw in enumerate(raw_frames or ()):
        if not isinstance(raw, dict):
            bad(f"frames[{ann}]", f"must be a JSON object {{role: noun}}, got {reprlib.repr(raw)}")
            continue
        values = []
        for role in roles:
            noun = raw.get(role)
            if role not in raw:
                bad(f"frames[{ann}]", f"missing role {role!r}")
            elif not isinstance(noun, str):
                bad(f"frames[{ann}][{role!r}]", f"noun must be a string, got {reprlib.repr(noun)}")
            elif noun != NULL_NOUN and noun not in vocabulary:
                bad(f"frames[{ann}][{role!r}]", f"unknown noun {noun!r}")
            values.append((role, noun))
        frames.append(GroundedFrame(verb, tuple(values), (None,) * len(roles)))

    source = "worker_boxes" if "worker_boxes" in rec else "boxes"
    raw_boxes = collect(_get, rec, source, dict, label, {}, fallback={})
    gt = {}
    if source == "boxes":
        for role in roles:
            raw = raw_boxes.get(role)
            gt[role] = None if raw is None else collect(parse_box, raw, f"{label}, boxes[{role!r}]")
    else:
        for role in roles:
            where = f"{label}, worker_boxes[{role!r}]"
            raw_list = raw_boxes.get(role)
            raw_list = [] if raw_list is None else collect(_check, raw_list, list, where, fallback=[])
            workers = [collect(parse_box, b, f"{where}[{k}]") for k, b in enumerate(raw_list)]
            workers = [b for b in workers if b is not None]
            try:
                gt[role] = merge_worker_boxes(workers) if workers else None
            except DatasetError as e:
                violations.append(f"{where}: {e}")

    sized = _positive_number(width) and _positive_number(height)
    for role, box in gt.items():
        if box is None:
            continue
        if role == PLACE_ROLE:
            bad(f"{source}[{role!r}]", "place-grounded: the Place role is never grounded")
        elif sized and (box.x2 > width or box.y2 > height):  # coordinates are >= 0
            try:
                gt[role] = box.clamped(width, height)
            except FrameModelError:
                bad(f"{source}[{role!r}]",
                    f"box {box.as_list()} has no area inside the {width}x{height} image")
                continue
            warnings.append(f"{label}, role {role!r}: box clamped to image bounds")

    if len(violations) > start:
        return None
    return AnnotatedImage(image_id, width, height, verb, tuple(frames), gt)


def load_dataset(annotation_source, lexicon_source, vocabulary_source,
                 warnings: Optional[list] = None) -> Dataset:
    """Parse and validate a dataset from JSON sources (paths or parsed objects).

    Raises DatasetError with the first violation `parse_dataset` finds,
    which names the record and field, and the number of others.
    """
    lexicon = parse_lexicon(_read_json(lexicon_source))
    vocabulary = parse_vocabulary(_read_json(vocabulary_source))
    images, violations = parse_dataset(_read_json(annotation_source), lexicon, vocabulary,
                                       [] if warnings is None else warnings)
    if violations:
        more = f" (and {len(violations) - 1} more)" if len(violations) > 1 else ""
        raise DatasetError(violations[0] + more)
    return Dataset(lexicon, vocabulary, tuple(images))


def _records(source, kind: str):
    """Yield (index, record) over a JSON array of objects."""
    records = _read_json(source)
    if not isinstance(records, list):
        raise DatasetError(f"{kind} file must be a JSON array")
    for index, rec in enumerate(records):
        yield index, _check(rec, dict, f"{kind} record #{index}")


def _record_id(rec: dict, index: int, kind: str, seen) -> str:
    """The record's "id", which must be a string not already in `seen`."""
    image_id = rec.get("id")
    if not isinstance(image_id, str):
        raise DatasetError(f"{kind} record #{index}: missing or non-string 'id'")
    if image_id in seen:
        raise DatasetError(f"{kind} {image_id!r}: duplicate id (record #{index})")
    return image_id


def load_predictions(source, lexicon: VerbLexicon) -> list:
    """Parse a prediction file into PredictionRecords."""
    out = {}
    for index, rec in _records(source, "prediction"):
        image_id = _record_id(rec, index, "prediction", out)
        where = f"prediction {image_id!r}"
        verbs = _strings(rec.get("verbs"), f"{where}, verbs")
        if not verbs:
            raise DatasetError(f"{where}, verbs: must be a non-empty list")
        frames = {}
        for verb, raw in _get(rec, "frames", dict, where, {}).items():
            if verb not in lexicon:
                raise DatasetError(f"{where}: unknown verb {verb!r}")
            at = f"{where}, frames[{verb!r}]"
            raw = _check(raw, dict, at)
            nouns = _get(raw, "nouns", dict, at, {})
            boxes = _get(raw, "boxes", dict, at, {})
            grounded = _get(raw, "grounded", dict, at, {})
            values, groundings = [], []
            for role in lexicon.roles(verb):
                if role not in nouns:
                    raise DatasetError(f"{at}, nouns: missing noun for role {role!r}")
                noun = nouns[role]
                if not isinstance(noun, str):
                    raise _type_error(noun, str, f"{at}, nouns[{role!r}]")
                values.append((role, noun))
                box = boxes.get(role)
                if box is not None:  # a null box needs no location string
                    box = parse_box(box, f"{at}, boxes[{role!r}]")
                flag = grounded[role] if role in grounded else box is not None
                groundings.append(box if flag else None)
            frames[verb] = GroundedFrame(verb, tuple(values), tuple(groundings))
        try:
            out[image_id] = PredictionRecord(image_id, verbs, frames)
        except FrameModelError as e:
            raise DatasetError(str(e)) from e
    return list(out.values())


def load_detection_sets(source) -> dict:
    """Parse late-fusion detector output into {image id: DetectionSet}."""
    out = {}
    for index, rec in _records(source, "detections"):
        image_id = _record_id(rec, index, "detections", out)
        where = f"detections {image_id!r}"
        boxes = _box_list(rec.get("boxes"), f"{where}, boxes")
        nouns = _strings(rec.get("nouns"), f"{where}, nouns")
        raw_scores = _get(rec, "noun_scores", list, where)
        shape = (len(boxes), len(nouns))
        try:
            scores = np.asarray(raw_scores, dtype=np.float64)
            if scores.size == 0:
                scores = scores.reshape(shape)
        except (TypeError, ValueError, OverflowError):
            scores = None
        if scores is None or scores.shape != shape:
            raise DatasetError(f"{where}, noun_scores: must be a {shape[0]}x{shape[1]} array "
                               "of numbers, one row per box and one column per noun")
        try:
            out[image_id] = DetectionSet(boxes, scores, {n: i for i, n in enumerate(nouns)})
        except FusionError as e:
            raise DatasetError(f"{where}: {e}") from e
    return out


def load_object_detections(source) -> dict:
    """Parse labelled detections (object retrieval) into {image id: DetectionList}."""
    out = {}
    for index, rec in _records(source, "detections"):
        image_id = _record_id(rec, index, "detections", out)
        where = f"detections {image_id!r}"
        classes = _strings(rec.get("classes"), f"{where}, classes")
        boxes = _box_list(rec.get("boxes"), f"{where}, boxes")
        try:
            out[image_id] = DetectionList(classes, boxes)
        except RetrievalError as e:
            raise DatasetError(f"{where}: {e}") from e
    return out


def load_situations(source) -> dict:
    """Parse top-5 situation predictions (retrieval) into {image id: SituationPrediction}."""
    out = {}
    for index, rec in _records(source, "situation"):
        image_id = _record_id(rec, index, "situation", out)
        where = f"situation {image_id!r}"
        verbs = _strings(rec.get("verbs"), f"{where}, verbs")
        entities = tuple(_strings(row, f"{where}, entities[{a}]")
                         for a, row in enumerate(_get(rec, "entities", list, where)))
        boxes = []
        for a, row in enumerate(_get(rec, "boxes", list, where)):
            row = _check(row, list, f"{where}, boxes[{a}]")
            boxes.append(tuple(parse_box(b, f"{where}, boxes[{a}][{k}]") for k, b in enumerate(row)))
        try:
            out[image_id] = SituationPrediction(verbs, entities, tuple(boxes))
        except RetrievalError as e:
            raise DatasetError(f"{where}: {e}") from e
    return out


def load_chain_nodes(source) -> list:
    """Parse the situations of one image (chaining) into SituationNodes.

    A node's roles are the keys of its "nouns" object, in file order.
    """
    nodes = []
    for index, rec in _records(source, "situation"):
        where = f"situation #{index}"
        verb = _get(rec, "verb", str, where)
        nouns = _get(rec, "nouns", dict, where)
        boxes = _get(rec, "boxes", dict, where, {})
        values = tuple((role, _check(noun, str, f"{where}, nouns[{role!r}]"))
                       for role, noun in nouns.items())
        groundings = tuple(parse_box(boxes.get(role), f"{where}, boxes[{role!r}]")
                           for role in nouns)
        nodes.append(SituationNode(GroundedFrame(verb, values, groundings),
                                   parse_box(rec.get("query_box"), f"{where}, query_box")))
    return nodes


def load_boxes(source) -> list:
    """Parse a JSON array of boxes (anchor clustering input)."""
    return list(_box_list(_read_json(source), "boxes"))


def compute_stats(dataset: Dataset) -> StatsReport:
    """Corpus statistics: noun-slot counts, grounding rates, scale/aspect samples.

    A noun slot is one (image, annotator, role) triple; a slot is grounded
    when its noun is non-null and the merged gt box for its role exists.
    scale = max(box_w/img_w, box_h/img_h); aspect = box_h/box_w.
    """
    report = StatsReport()
    report.total_images = len(dataset.images)
    report.total_verbs = len({img.verb for img in dataset.images})
    role_total = {}
    role_grounded = {}
    frame_length_sum = 0
    for img in dataset.images:
        roles = dataset.lexicon.roles(img.verb)
        frame_length_sum += len(roles)
        for frame in img.annotator_frames:
            for role, noun in frame.role_values:
                report.total_noun_slots += 1
                role_total[role] = role_total.get(role, 0) + 1
                if noun == NULL_NOUN:
                    continue
                report.non_null_slots += 1
                box = img.gt_groundings.get(role)
                if box is not None:
                    report.grounded_slots += 1
                    role_grounded[role] = role_grounded.get(role, 0) + 1
                    report.groundings_per_noun[noun] = (
                        report.groundings_per_noun.get(noun, 0) + 1
                    )
        for role, box in img.gt_groundings.items():
            if box is None:
                continue
            noun = next(
                (f.noun_of(role) for f in img.annotator_frames if f.noun_of(role) != NULL_NOUN),
                NULL_NOUN,
            )
            scale = max(box.width / img.width, box.height / img.height)
            aspect = box.height / box.width
            report.scale_aspect_samples.append((noun, img.verb, role, scale, aspect))
    report.role_grounding_rate = {
        role: role_grounded.get(role, 0) / total for role, total in sorted(role_total.items())
    }
    if dataset.images:
        report.mean_frame_length = frame_length_sum / len(dataset.images)
    return report


def _read_json(source):
    """Accept a path, a file object, or an already-parsed JSON value."""
    if isinstance(source, (dict, list)):
        return source
    if hasattr(source, "read"):
        return json.load(source)
    with open(source, "r", encoding="utf-8") as f:
        return json.load(f)
