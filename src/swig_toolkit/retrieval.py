"""Grounded-semantic image retrieval: four similarity functions, their
batched scorers, the query/search split and exact top-k search.

Embedding files are binary: magic "SWGE", u32 count, u32 dim, then
count*dim little-endian float32 values row-major. Row ids come from a
separate newline-separated manifest file.
"""

from __future__ import annotations

import heapq
import os
import random
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry
from .frame_model import BoundingBox
from .geometry import ScoredBox, iou

EMBEDDING_MAGIC = b"SWGE"
DETECTION_LOGIT_THRESHOLD = -1.0  # minimum max-class logit for a valid detection


class RetrievalError(ValueError):
    pass


@dataclass(frozen=True)
class DetectionList:
    """Parallel lists of predicted class labels and boxes for one image."""

    classes: tuple  # noun ids
    boxes: tuple  # BoundingBoxes

    def __post_init__(self):
        self.check(self.classes, self.boxes)

    @staticmethod
    def check(classes, boxes):  # also the loader's rule, over the JSON lists
        if len(classes) != len(boxes):
            raise RetrievalError(f"boxes: {len(boxes)} boxes for {len(classes)} classes")


@dataclass(frozen=True)
class SituationPrediction:
    """Top-5 verb hypotheses with per-verb entity and box lists.

    entities[i] lists the nouns for verbs[i]'s roles in order; boxes[i] is
    the parallel list of optional groundings.
    """

    verbs: tuple  # exactly 5 verb ids, best first
    entities: tuple  # of tuples of noun ids
    boxes: tuple  # of tuples of Optional[BoundingBox]

    def __post_init__(self):
        self.check(self.verbs, self.entities, self.boxes)

    @staticmethod
    def check(verbs, entities, boxes):  # also the loader's rules, over the JSON lists
        if len(verbs) != 5:
            raise RetrievalError(f"verbs: expected exactly 5 verb hypotheses, got {len(verbs)}")
        for name, lists in (("entities", entities), ("boxes", boxes)):
            if len(lists) != 5:
                raise RetrievalError(f"{name}: {len(lists)} lists for 5 verb hypotheses")
        for a, (ent, box) in enumerate(zip(entities, boxes)):
            if len(ent) != len(box):
                raise RetrievalError(f"boxes[{a}]: {len(box)} boxes for {len(ent)} entities")


@dataclass(frozen=True, eq=False)
class DetectionTable:
    """Labelled detections as `load_object_detections` reads them, in columns."""

    index: dict  # image id -> its record
    classes: list  # per record: its noun ids, one per box
    starts: list  # per record: its first box row; one more entry closes the last record
    boxes: np.ndarray  # (n, 4) float64


@dataclass(frozen=True, eq=False)
class SituationTable:
    """Top-5 situations as `load_situations` reads them, in columns."""

    index: dict  # image id -> its record
    verbs: list  # per record: its 5 verbs, best first
    entities: list  # per record: 5 tuples of nouns, one per role
    starts: list  # per record: the first box row of each rank, one row per role
    boxes: np.ndarray  # (n, 4) float64, a NaN row for "no box"


def l2_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Negative L2 distance between two embeddings (0 is maximal)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise RetrievalError(f"embedding dims differ: {a.shape} vs {b.shape}")
    return float(-np.linalg.norm(a - b))


def obj_sim(i: DetectionList, j: DetectionList) -> float:
    """Mean over I's detections of the best class-matched (1 + IoU) in J.

    Normalized by I's detection count; the max over an empty J is 0, and
    the similarity of an empty I is 0. Not symmetric in general.
    """
    n = len(i.classes)
    if n == 0:
        return 0.0
    total = 0.0
    for ci, bi in zip(i.classes, i.boxes):
        best = 0.0
        for cj, bj in zip(j.classes, j.boxes):
            if ci == cj:
                best = max(best, 1.0 + float(iou(bi, bj)))
        total += best
    return total / n


def sit_sim(i: SituationPrediction, j: SituationPrediction) -> float:
    """Best shared-verb entity agreement, discounted by the verb ranks.

    For every pair of positions (a, b) with the same verb, the score is
    (matching entities) / (a * b * role_count), ranks 1-based; the result
    is the max over pairs, 0 when no verb is shared.
    """
    return _sit_max(i, j, grounded=False)


def gr_sit_sim(i: SituationPrediction, j: SituationPrediction) -> float:
    """sit_sim with each matched entity weighted by (1 + IoU) of its boxes.

    When both boxes are absent the IoU term is 1 (agreeing on
    ungroundedness is maximal); when only one is absent it is 0.
    """
    return _sit_max(i, j, grounded=True)


def _box_term(a: Optional[BoundingBox], b: Optional[BoundingBox]) -> float:
    if a is None or b is None:
        return 1.0 if a is None and b is None else 0.0
    return float(iou(a, b))


def _sit_max(i: SituationPrediction, j: SituationPrediction, grounded: bool) -> float:
    best = 0.0
    for a in range(5):
        for b in range(5):
            if i.verbs[a] != j.verbs[b]:
                continue
            ents_i, ents_j = i.entities[a], j.entities[b]
            n_v = len(ents_i)
            if n_v == 0 or len(ents_j) != n_v:
                continue
            total = 0.0
            for k in range(n_v):
                if ents_i[k] != ents_j[k]:
                    continue
                if grounded:
                    total += 1.0 + _box_term(i.boxes[a][k], j.boxes[b][k])
                else:
                    total += 1.0
            best = max(best, total / ((a + 1) * (b + 1) * n_v))
    return best


def extract_detections(boxes, class_logits, noun_ids, nms_iou: float = 0.5) -> DetectionList:
    """Build a DetectionList: max-class labeling, logit cutoff, per-class NMS."""
    logits = np.asarray(class_logits, dtype=np.float64)
    groups = {}  # class -> [ScoredBox], in input order
    for row, box in zip(logits, boxes):
        c = int(np.argmax(row))
        if row[c] > DETECTION_LOGIT_THRESHOLD:
            groups.setdefault(noun_ids[c], []).append(ScoredBox(box, float(row[c])))
    classes, kept = [], []
    for cls in sorted(groups):
        group = groups[cls]
        # called through the module, so perfbench/tracer.py's wrapper of geometry.nms times it
        for idx in geometry.nms(group, nms_iou, keep=len(group)):
            classes.append(cls)
            kept.append(group[idx].box)
    return DetectionList(tuple(classes), tuple(kept))


def split_query_search(ids_by_verb: dict, per_verb_query: int = 2,
                       per_verb_search: int = 48, seed: int = 0):
    """Seeded disjoint query/search split with fixed per-verb counts."""
    rng = random.Random(seed)
    query, search = [], []
    for verb in sorted(ids_by_verb):
        ids = sorted(ids_by_verb[verb])
        need = per_verb_query + per_verb_search
        if len(ids) < need:
            raise RetrievalError(
                f"verb {verb!r} has {len(ids)} images, needs {need} for the split"
            )
        rng.shuffle(ids)
        query.extend(ids[:per_verb_query])
        search.extend(ids[per_verb_query:need])
    return query, search


def _lookup(features: dict, image_id: str):
    try:
        return features[image_id]
    except KeyError:
        raise RetrievalError(f"missing features for image {image_id!r}") from None


class L2Scorer:
    """Batched `l2_similarity` over the embedding rows of the search ids.

    The search rows are gathered once, as float32, and each query turns
    them into float64 differences a chunk at a time, so no float64 copy of
    the search set is made. Each distance is the square root of one row's
    `dot(d, d)`, as `np.linalg.norm` takes it for a 1-D vector, over the
    same differences, so scores equal `l2_similarity` bit for bit.
    """

    CHUNK = 256  # rows per float64 block

    def __init__(self, ids: list, matrix: np.ndarray, search_ids: list):
        self._index = {image_id: row for row, image_id in enumerate(ids)}
        self._matrix = matrix
        self._search = matrix[[_lookup(self._index, s) for s in search_ids]]

    def __call__(self, query_id: str) -> np.ndarray:
        query = self._matrix[_lookup(self._index, query_id)].astype(np.float64)
        dist = np.empty(len(self._search))
        block = np.empty((min(self.CHUNK, len(self._search)), self._search.shape[1]))
        for start in range(0, len(self._search), self.CHUNK):
            chunk = self._search[start:start + self.CHUNK]
            diff = np.subtract(query, chunk, out=block[:len(chunk)])  # float64, as in l2_similarity
            dist[start:start + len(chunk)] = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
        return -np.sqrt(dist)


class SitScorer:
    """Batched `sit_sim` (or `gr_sit_sim` when `grounded`) over the search ids.

    A rank pair can only score when both ranks have the same verb and role
    count, so the ranks of the search situations are grouped once by that
    key, as `ObjScorer` groups detections by class. Each group holds its
    owner rows, 1-based ranks, an (m, n) array of nouns and an (m, n, 4)
    array of boxes, NaN for "no box"; each query rank looks up its key, and
    a group's arrays are built at its first lookup.
    The float operations per (row, rank pair) are those of `_sit_max` in
    the same order, so scores equal the scalar ones bit for bit.
    """

    def __init__(self, situations: SituationTable, search_ids: list, grounded: bool):
        self._situations = situations
        self._grounded = grounded
        self._n = len(search_ids)
        members = {}  # (verb, role count) -> [(owner row, rank, nouns, first box row)]
        for row, sid in enumerate(search_ids):
            r = _lookup(situations.index, sid)
            for rank, (verb, ents, start) in enumerate(
                    zip(situations.verbs[r], situations.entities[r], situations.starts[r]), 1):
                if ents:  # a rank without roles never scores, as in `_sit_max`
                    members.setdefault((verb, len(ents)), []).append((row, rank, ents, start))
        self._members, self._groups = members, {}

    def _group(self, key):
        """The arrays of the search ranks with this (verb, role count), built
        the first time a query looks the key up; None when there are none."""
        ranked = self._members.pop(key, None)
        if ranked is not None:
            rows, ranks, nouns, starts = zip(*ranked)
            boxes = self._situations.boxes[np.add.outer(starts, range(key[1]))] if self._grounded else None
            self._groups[key] = (np.array(rows, dtype=np.intp), np.array(ranks, dtype=np.intp),
                                 np.array(nouns, dtype=object), boxes)
        return self._groups.get(key)

    def __call__(self, query_id: str) -> np.ndarray:
        sits = self._situations
        r = _lookup(sits.index, query_id)
        best = np.zeros(self._n)
        for a, (verb, ents, start) in enumerate(zip(sits.verbs[r], sits.entities[r], sits.starts[r])):
            group = self._group((verb, len(ents)))
            if group is None:
                continue
            rows, ranks, nouns, search_boxes = group
            boxes = sits.boxes[start:start + len(ents)].tolist()
            total = np.zeros(rows.size)
            for k, (noun, box) in enumerate(zip(ents, boxes)):
                match = nouns[:, k] == noun
                if self._grounded:  # `_box_term`: an absent box is a NaN row, fmax makes its IoU 0
                    column = search_boxes[:, k]
                    term = (np.isnan(column[:, 0]) if box[0] != box[0]
                            else np.fmax(geometry.iou(box, column), 0.0))
                    total += np.where(match, 1.0 + term, 0.0)
                else:
                    total += match
            np.maximum.at(best, rows, total / ((a + 1) * ranks * len(ents)))
        return best


class ObjScorer:
    """Batched `obj_sim` over the search ids.

    The search detections are flattened into owner-row and box arrays and
    grouped by class. Per query detection, one `iou` over its class
    group and a per-owner maximum give the best (1 + IoU) of every search
    row; the sums over query detections run in their order, so scores
    equal `obj_sim` bit for bit.
    """

    def __init__(self, detections: DetectionTable, search_ids: list):
        self._detections = detections
        self._n = len(search_ids)
        members = {}  # class -> [(owner row, box row)]
        for row, sid in enumerate(search_ids):
            r = _lookup(detections.index, sid)
            for box, cls in enumerate(detections.classes[r], detections.starts[r]):
                members.setdefault(cls, []).append((row, box))
        self._groups = {}
        for cls, pairs in members.items():
            owners, boxes = zip(*pairs)
            self._groups[cls] = np.array(owners, dtype=np.intp), detections.boxes[list(boxes)]

    def __call__(self, query_id: str) -> np.ndarray:
        dets = self._detections
        r = _lookup(dets.index, query_id)
        total = np.zeros(self._n)
        if not dets.classes[r]:
            return total
        for cls, box in zip(dets.classes[r], dets.boxes[dets.starts[r]:dets.starts[r + 1]]):
            best = np.zeros(self._n)
            if cls in self._groups:
                owners, boxes = self._groups[cls]
                np.maximum.at(best, owners, 1.0 + geometry.iou(box, boxes))
            total += best
        return total / len(dets.classes[r])


def retrieve_topk(query_id: str, search_ids: list, similarity, k: int = 5) -> list:
    """Exact top k of `search_ids` for one query.

    `similarity(query_id)` gives one float64 score per search id, in order,
    as the scorers above do. Returns up to k (id, score) pairs, descending
    score, ties broken by ascending id; k must be at least 1.
    """
    if k < 1:
        raise RetrievalError(f"k must be >= 1, got {k}")
    scores = similarity(query_id)
    if len(scores) != len(search_ids):
        raise RetrievalError(f"{len(scores)} scores for {len(search_ids)} search ids")
    if not len(scores):
        return []
    kth = _kth_best(scores, k)
    above, tied = np.flatnonzero(scores > kth), np.flatnonzero(scores == kth)
    ranked = [(search_ids[r], s) for r, s in zip(above.tolist(), scores[above].tolist())]
    # Without a shared verb most of a search set ties at 0: keep only the
    # smallest ids of that tie that reach the top k, without sorting it.
    tie = zip(map(search_ids.__getitem__, tied.tolist()), scores[tied].tolist())
    ranked += heapq.nsmallest(k - len(ranked), tie)
    ranked.sort(key=lambda pair: (-pair[1], pair[0]))
    return ranked


def _kth_best(scores: np.ndarray, k: int):
    """The k-th highest of `scores`, or the lowest when there are fewer than k."""
    cut = max(len(scores) - k, 0)
    return np.partition(scores, cut)[cut]


def write_embeddings(path, ids: list, matrix: np.ndarray):
    """Write the binary embedding file and its id manifest (path + '.ids'),
    one id a line; an id that `read_ids` would not read back is an error."""
    m = np.asarray(matrix, dtype="<f4")
    if m.ndim != 2 or m.shape[0] != len(ids):
        raise RetrievalError("matrix must be 2-D with one row per id")
    for image_id in ids:
        if not image_id or "\n" in image_id or "\r" in image_id or image_id.startswith("\ufeff"):
            raise RetrievalError(f"image id {image_id!r}: a manifest id must be non-empty, "
                                 "with no line break and no leading UTF-8 BOM")
    text = "\n".join(ids) + "\n"
    try:  # before either file is opened, so a refused id leaves no half-written pair
        manifest = text.encode("utf-8")
    except UnicodeEncodeError as e:  # a lone surrogate
        image_id = ids[text.count("\n", 0, e.start)]
        raise RetrievalError(f"image id {image_id!r}: a manifest id must be encodable as UTF-8") from e
    with open(path, "wb") as f:
        f.write(EMBEDDING_MAGIC)
        f.write(struct.pack("<II", m.shape[0], m.shape[1]))
        f.write(m.tobytes(order="C"))
    with open(str(path) + ".ids", "wb") as f:
        f.write(manifest)


def read_ids(path) -> list:
    """Read an id list, one id a line, skipping blank lines. A line ends at a
    line feed only, and one carriage return before it is dropped; a repeated
    id, or a UTF-8 BOM that would start the first id, is an error."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise RetrievalError(f"{path}: {e}") from e
    if text.startswith("\ufeff"):
        raise RetrievalError(f"{path}: unexpected UTF-8 BOM")
    ids = [line for line in text.replace("\r\n", "\n").split("\n") if line]
    repeated = [image_id for image_id, n in Counter(ids).items() if n > 1]
    if repeated:
        raise RetrievalError(f"{path}: image id {repeated[0]!r} is listed twice")
    return ids


def read_embeddings(path):
    """Read the binary embedding file; returns (ids, float32 matrix)."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != EMBEDDING_MAGIC:
            raise RetrievalError(f"{path}: bad embedding file magic: {magic!r}")
        header = f.read(8)
        if len(header) != 8:
            raise RetrievalError(f"{path}: embedding file header truncated "
                                 f"({4 + len(header)} of 12 bytes)")
        count, dim = struct.unpack("<II", header)
        size = os.fstat(f.fileno()).st_size - 12  # a corrupt header may declare exabytes
        if size < count * dim * 4:
            raise RetrievalError(f"{path}: embedding file truncated: the header declares "
                                 f"{count}x{dim} float32 values, {size} bytes follow")
        matrix = np.fromfile(f, dtype="<f4", count=count * dim).reshape(count, dim)
    ids = read_ids(str(path) + ".ids")
    if len(ids) != count:
        raise RetrievalError(f"{path}.ids: {len(ids)} ids for {count} rows")
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        # a NaN distance would rank by the order of the search file, and is not JSON
        raise RetrievalError(f"{path}: embedding of image {ids[bad[0]]!r} (row {bad[0]}) "
                             f"holds a non-finite value")
    return ids, matrix
