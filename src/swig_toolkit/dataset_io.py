"""Parsing of every input file format, worker-box merging, corpus statistics.

This module is the only code that reads JSON input; every reader takes a
path (str, bytes or os.PathLike), a file object or an already-parsed JSON
value. Every box goes through `parse_box`, every frame through
`frame_from_json`, and every error names the record and the field it
comes from: "<record>, <field>: <rule>".

Canonical file formats (UTF-8 JSON):

  lexicon:     {verb: [role, ...], ...}
  vocabulary:  {noun_id: gloss_or_null, ...} (values are not read) or [noun_id, ...]
  dataset:     [{"id", "width", "height", "verb",
                 "frames": [{role: noun_or_""} x3],
                 "boxes": {role: [x1,y1,x2,y2] or null}}, ...]
               A record may carry "worker_boxes": {role: [box x3]} instead of
               "boxes"; the three worker boxes are merged by coordinate mean.
  frame:       {"nouns": {role: noun}, "boxes": {role: box_or_null},
                "grounded": {role: true|false}}  ("grounded" optional)
               The verb sits outside the frame; read by `frame_from_json`,
               written by `frame_model.frame_to_json`.
  predictions: [{"id", "verbs": [verb, ...], "frames": {verb: frame}}, ...]
               (also the `fuse` output)
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

import json
import os
import reprlib
import sys
from dataclasses import dataclass
from itertools import chain
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
    VerbLexicon,
)
from .fusion import DetectionSet, FusionError
from .retrieval import DetectionList, RetrievalError, SituationPrediction

SENTINEL_BOX = [-1, -1, -1, -1]
_JSON_NUMBER_TYPES = frozenset((int, float))  # what `json` decodes a number to; never bool


class DatasetError(ValueError):
    """Raised when a dataset, lexicon, or prediction file is malformed."""


@dataclass(frozen=True)
class Dataset:
    lexicon: VerbLexicon
    vocabulary: NounVocabulary
    images: tuple  # of AnnotatedImage


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


def parse_dataset(source, lexicon: VerbLexicon, vocabulary: NounVocabulary,
                  warnings: list) -> tuple:
    """Walk dataset records; returns (images, violations).

    The one reading of the dataset format: `load_dataset` raises when
    `violations` is non-empty and `swig validate` prints it, so the two
    agree on every file. Each violation is one line naming the record and
    the field; a record with any violation yields no image. Boxes clamped
    to the image bounds are reported in `warnings`.
    """
    records = _read_json(source)
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
        frames.append(GroundedFrame(tuple(values), (None,) * len(roles)))

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
    """Parse and validate a dataset from its three JSON sources.

    Raises DatasetError with the first violation `parse_dataset` finds,
    which names the record and field, and the number of others.
    """
    lexicon = parse_lexicon(lexicon_source)
    vocabulary = parse_vocabulary(vocabulary_source)
    images, violations = parse_dataset(annotation_source, lexicon, vocabulary,
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
        except (FrameModelError, FusionError, RetrievalError) as e:
            raise DatasetError(f"{where}, {e}") from e  # the type's message names the field
    return out


def frame_from_json(raw, roles, where: str) -> GroundedFrame:
    """Read the file form of a frame, the inverse of `frame_to_json`. Each role
    needs a string noun; a role with a box is grounded unless "grounded" gives it false."""
    raw = _check(raw, dict, where)
    nouns = _get(raw, "nouns", dict, where, {})
    boxes = _get(raw, "boxes", dict, where, {})
    grounded = _get(raw, "grounded", dict, where, {})
    values, groundings = [], []
    for role in roles:  # one location string per box, for parse_box; the rest only on error
        if role not in nouns:
            raise DatasetError(f"{where}, nouns: missing noun for role {role!r}")
        noun, box, flag = nouns[role], boxes.get(role), grounded.get(role, True)
        if not isinstance(noun, str):
            raise _type_error(noun, str, f"{where}, nouns[{role!r}]")
        if box is not None:
            box = parse_box(box, f"{where}, boxes[{role!r}]")
        if not isinstance(flag, bool):
            raise _type_error(flag, bool, f"{where}, grounded[{role!r}]")
        values.append((role, noun))
        groundings.append(box if flag else None)
    return GroundedFrame(tuple(values), tuple(groundings))


def load_predictions(source, lexicon: VerbLexicon) -> list:
    """Parse a prediction file into PredictionRecords."""
    def parse(rec, where):
        verbs = _strings(rec.get("verbs"), f"{where}, verbs")
        if not verbs:
            raise DatasetError(f"{where}, verbs: must be a non-empty list")
        frames = {}
        for verb, raw in _get(rec, "frames", dict, where, {}).items():
            if verb not in lexicon:
                raise DatasetError(f"{where}, frames[{verb!r}]: unknown verb")
            frames[verb] = frame_from_json(raw, lexicon.roles(verb), f"{where}, frames[{verb!r}]")
        return PredictionRecord(rec["id"], verbs, frames)
    return list(_by_id(source, "prediction", parse).values())


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


def load_detection_sets(source) -> dict:
    """Parse late-fusion detector output into {image id: DetectionSet}."""
    return _by_id(source, "detections", _detection_set)


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


def load_situations(source) -> dict:
    """Parse top-5 situation predictions (retrieval) into {image id: SituationPrediction}."""
    return _by_id(source, "situation", _situation)


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


def load_boxes(source) -> list:
    """Parse a JSON array of boxes (anchor clustering input)."""
    return list(_box_list(_read_json(source), "boxes"))


def compute_stats(dataset: Dataset) -> dict:
    """Corpus statistics: noun-slot counts, grounding rates, scale/aspect samples.

    A noun slot is one (image, annotator, role) triple; a slot is grounded
    when its noun is non-null and the merged gt box for its role exists.
    grounded_fraction = grounded / non-null slots, rounded to 4 places;
    scale = max(box_w/img_w, box_h/img_h); aspect = box_h/box_w. Returns
    the report as it is written.
    """
    noun_slots = non_null_slots = grounded_slots = frame_length_sum = 0
    role_total, role_grounded, groundings_per_noun, samples = {}, {}, {}, []
    for img in dataset.images:
        frame_length_sum += len(dataset.lexicon.roles(img.verb))
        first_noun = {}  # role -> its noun in the first annotator frame that names one
        for frame in img.annotator_frames:
            for role, noun in frame.role_values:
                noun_slots += 1
                role_total[role] = role_total.get(role, 0) + 1
                if noun == NULL_NOUN:
                    continue
                first_noun.setdefault(role, noun)
                non_null_slots += 1
                if img.gt_groundings.get(role) is not None:
                    grounded_slots += 1
                    role_grounded[role] = role_grounded.get(role, 0) + 1
                    groundings_per_noun[noun] = groundings_per_noun.get(noun, 0) + 1
        for role, box in img.gt_groundings.items():
            if box is not None:
                samples.append({"noun": first_noun.get(role, NULL_NOUN), "verb": img.verb,
                                "role": role,
                                "scale": max(box.width / img.width, box.height / img.height),
                                "aspect": box.height / box.width})
    n_images = len(dataset.images)
    return {
        "total_images": n_images,
        "total_verbs": len({img.verb for img in dataset.images}),
        "total_noun_slots": noun_slots,
        "non_null_slots": non_null_slots,
        "grounded_slots": grounded_slots,
        "grounded_fraction": round(grounded_slots / non_null_slots, 4) if non_null_slots else 0.0,
        "mean_frame_length": frame_length_sum / n_images if n_images else 0.0,
        "groundings_per_noun": groundings_per_noun,
        "role_grounding_rate": {
            role: role_grounded.get(role, 0) / total for role, total in sorted(role_total.items())
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
