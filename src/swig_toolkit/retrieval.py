"""Grounded-semantic image retrieval: four similarity functions plus split
and exhaustive top-k search.

Embedding files are binary: magic "SWGE", u32 count, u32 dim, then
count*dim little-endian float32 values row-major. Row ids come from a
separate newline-separated manifest file.
"""

from __future__ import annotations

import random
import struct
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
        if len(self.classes) != len(self.boxes):
            raise RetrievalError("classes and boxes must be parallel lists")


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
        if len(self.verbs) != 5:
            raise RetrievalError(f"expected exactly 5 verb hypotheses, got {len(self.verbs)}")
        if len(self.entities) != 5 or len(self.boxes) != 5:
            raise RetrievalError("entities and boxes must have one entry per verb hypothesis")
        for ent, box in zip(self.entities, self.boxes):
            if len(ent) != len(box):
                raise RetrievalError("entity and box lists must be parallel per verb")


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
                best = max(best, 1.0 + iou(bi, bj))
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
    return iou(a, b)


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


def extract_detections(boxes, class_logits, noun_ids,
                       logit_threshold: float = DETECTION_LOGIT_THRESHOLD,
                       nms_iou: float = 0.5) -> DetectionList:
    """Build a DetectionList: max-class labeling, logit cutoff, per-class NMS."""
    logits = np.asarray(class_logits, dtype=np.float64)
    picked = []  # (class, box, score)
    for row, box in zip(logits, boxes):
        c = int(np.argmax(row))
        if row[c] > logit_threshold:
            picked.append((noun_ids[c], box, float(row[c])))
    kept = []
    for cls in sorted({c for c, _, _ in picked}):
        group = [(b, s) for c, b, s in picked if c == cls]
        scored = [ScoredBox(b, s) for b, s in group]
        # called through the module, so perfbench/tracer.py's wrapper of geometry.nms times it
        for idx in geometry.nms(scored, nms_iou, keep=len(scored)):
            kept.append((cls, group[idx][0]))
    return DetectionList(tuple(c for c, _ in kept), tuple(b for _, b in kept))


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


def retrieve_topk(query_id: str, search_ids: list, similarity, k: int = 5) -> list:
    """Exhaustive ranking of `search_ids` by similarity(query_id, id).

    Returns up to k (id, score) pairs, descending score, ties broken by
    ascending id; k must be at least 1.
    """
    if k < 1:
        raise RetrievalError(f"k must be >= 1, got {k}")
    scored = []
    for sid in search_ids:
        scored.append((sid, float(similarity(query_id, sid))))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[: min(k, len(scored))]


def write_embeddings(path, ids: list, matrix: np.ndarray):
    """Write the binary embedding file and its id manifest (path + '.ids')."""
    m = np.asarray(matrix, dtype="<f4")
    if m.ndim != 2 or m.shape[0] != len(ids):
        raise RetrievalError("matrix must be 2-D with one row per id")
    with open(path, "wb") as f:
        f.write(EMBEDDING_MAGIC)
        f.write(struct.pack("<II", m.shape[0], m.shape[1]))
        f.write(m.tobytes(order="C"))
    with open(str(path) + ".ids", "w", encoding="utf-8") as f:
        f.write("\n".join(ids) + "\n")


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
        payload = f.read()  # not f.read(count * dim * 4): a corrupt header may declare exabytes
    if len(payload) < count * dim * 4:
        raise RetrievalError(f"{path}: embedding file truncated: the header declares "
                             f"{count}x{dim} float32 values, {len(payload)} bytes follow")
    data = np.frombuffer(payload, dtype="<f4", count=count * dim)
    with open(str(path) + ".ids", "r", encoding="utf-8") as f:
        ids = [line for line in f.read().splitlines() if line]
    if len(ids) != count:
        raise RetrievalError(f"manifest has {len(ids)} ids for {count} rows")
    return ids, data.reshape(count, dim)
