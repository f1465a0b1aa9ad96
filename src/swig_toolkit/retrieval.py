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
    starts: list  # per record: the first row of each rank, one row per role, and the row after rank 5
    codes: np.ndarray  # (n,) int32: per row its noun's code
    nouns: list  # per code: its noun; code -1, the null noun, reads the last entry, ""
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
    """Batched `l2_similarity` over the embedding rows of the search ids,
    exact on a band of rows that holds every query's top k.

    The queries are taken in blocks of `BLOCK`, in `query_ids` order, and a
    block's bands are built when one of its queries is first scored: one
    float32 product of the block's rows with the whole loaded matrix bounds
    every squared distance (see `__init__`), and a band keeps each search row
    whose lower bound could reach the k-th smallest upper bound. Band rows
    are scored as `l2_similarity` scores them, as the square root of one
    row's `dot(d, d)` over the float64 differences, the way `np.linalg.norm`
    takes it for a 1-D vector, so every finite score equals it bit for bit;
    a row outside the band scores -inf, below the top k and its ties. With
    k at least the number of search ids, every row is in the band. Only the
    ids of `query_ids` can be scored.
    """

    BLOCK = 64  # queries per float32 product
    CHUNK = 256  # band rows per float64 block

    def __init__(self, ids: list, matrix: np.ndarray, search_ids: list, query_ids: list, k: int):
        index = {image_id: row for row, image_id in enumerate(ids)}
        self._matrix = matrix
        self._rows = np.array([_lookup(index, s) for s in search_ids], dtype=np.intp)
        self._queries = {q: _lookup(index, q) for q in query_ids}  # query id -> its row
        blocks = [query_ids[i:i + self.BLOCK] for i in range(0, len(query_ids), self.BLOCK)]
        self._blocks = {q: block for block in blocks for q in block}
        self._bands = {}  # query id -> the search positions of its band
        self._kth = min(k, len(matrix)) - 1  # the k-th bound is over rows: a search id listed twice is one
        dim = matrix.shape[1]
        if k >= len(search_ids) or matrix.dtype != np.float32 or dim > 2**20:
            self._norms = None  # every row is scored: the bound below is derived for float32 only
            return
        # The band. For a query row q and a row s, let A = |q|² + |s|², p = q·s
        # and D = |q - s|² = A - 2p, exact over the float32 values. With u =
        # 2**-24 and v = 2**-53 the unit roundoffs of float32 and float64, let
        # g_n = n·u / (1 - n·u) and h_n = n·v / (1 - n·v). Each bound holds for
        # any summation order, with or without fused multiply-adds (Higham,
        # "Accuracy and Stability of Numerical Algorithms", 2nd ed., 3.1), in
        # IEEE arithmetic with gradual underflow.
        # - The reported square S = dot(d, d), d_i = fl64(q_i - s_i): each
        #   difference rounds once, and its square neither underflows
        #   (>= 2**-298) nor overflows, so |S - D| <= h_(dim+2)·D <= 2·h_(dim+2)·A.
        # - The norms: a float32's square is exact in float64, so their sum
        #   N = N_q + N_s is within h_dim·A of A.
        # - The product P = fl32(q·s), if finite, so that nothing overflowed:
        #   each term meets at most dim roundings, so |P - p| <= g_dim·sum|q_i·s_i|,
        #   plus half float32's least subnormal, 2**-150, times 1 + g_dim < 2,
        #   for each rounding that underflows (an addition that underflows is
        #   exact); and sum|q_i·s_i| <= |q||s| <= A/2. 2P is exact in float32,
        #   or not finite. A row whose 2P is not finite is kept.
        # So |S - (N - 2P)| <= (g_dim + 3·h_(dim+2))·A + dim·2**-148. The bounds
        # are lo = N(1 - c) - 2P - e and hi = N(1 + c) - 2P + e, with c =
        # g_(dim+1) and e = dim·2**-147. For dim <= 2**20, (c - g_dim)·N >=
        # u·(1 - h_dim)·A covers 3·h_(dim+2)·A, c·h_dim·A (the error of N in
        # c·N) and the at most 7 float64 roundings of each bound (c, 1 ± c, each
        # norm's scaling, adding e, their sum and subtracting 2P), each at most
        # 4v·(A + e): together under 2**-31·A + 2**-48·e; and e is twice
        # dim·2**-148. So lo <= S <= hi.
        n = dim + 1
        c = n * 2.0**-24 / (1 - n * 2.0**-24)
        e = dim * 2.0**-147
        norms = np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64)
        unlisted = np.full(len(matrix), np.inf)  # a row that is no search row never sets the k-th bound
        unlisted[self._rows] = 0.0
        low, high = norms * (1 - c), norms * (1 + c)
        self._norms = (low, low - e, high, high + e + unlisted)  # query's and row's lo, then hi

    def _bands_of(self, block: list) -> dict:
        """The band of each query of `block`, from one float32 product."""
        q_lo, s_lo, q_hi, s_hi = self._norms
        rows = [self._queries[q] for q in block]
        bands = {}
        with np.errstate(over="ignore", invalid="ignore"):  # a product that overflows is kept
            product = np.matmul(self._matrix[rows], self._matrix.T)  # (B, every row): one level-3 call
            product *= 2
            finite = np.isfinite(product.sum(dtype=np.float64))  # a float64 sum of float32s cannot overflow
            for q, row, twice in zip(block, rows, product):
                lost = None if finite else ~np.isfinite(twice)
                bound = q_hi[row] + s_hi
                bound -= twice
                if lost is not None:
                    bound[lost] = np.inf
                bound.partition(self._kth)
                # The k-th smallest hi, T, bounds the k-th smallest S, so fl(sqrt(T)) = R
                # bounds the k-th reported distance, as a correctly rounded sqrt is
                # monotone. A row of the top k or its ties has fl(sqrt(S)) <= R, so
                # sqrt(S) < R+, the next float above R, and S, a float, is at most
                # fl(R+ · R+): ties after the square root are kept too.
                top = np.nextafter(np.sqrt(bound[self._kth]), np.inf)
                np.add(q_lo[row], s_lo, out=bound)
                bound -= twice
                if lost is not None:
                    bound[lost] = -np.inf
                bands[q] = np.flatnonzero(bound[self._rows] <= top * top)
        return bands

    def __call__(self, query_id: str) -> np.ndarray:
        if query_id not in self._queries:
            raise RetrievalError(f"image {query_id!r} is not a query of this scorer")
        query = self._matrix[self._queries[query_id]].astype(np.float64)
        if self._norms is None:
            band = np.arange(len(self._rows))
        else:
            if query_id not in self._bands:
                self._bands.update(self._bands_of(self._blocks[query_id]))
            band = self._bands[query_id]
        dist = np.full(len(self._rows), np.inf)
        for start in range(0, len(band), self.CHUNK):
            at = band[start:start + self.CHUNK]
            diff = query - self._matrix[self._rows[at]]  # float64, as in l2_similarity
            dist[at] = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
        return -np.sqrt(dist)


class SitScorer:
    """Batched `sit_sim` (or `gr_sit_sim` when `grounded`) over the search ids.

    A rank pair can only score when both ranks have the same verb and role
    count, so the ranks of the search situations are grouped once by that
    key, as `ObjScorer` groups detections by class. Each group holds its
    owner rows, 1-based ranks, and the (m, n) noun codes and (m, n, 4) boxes
    (NaN for "no box") that one index gathers; each query rank looks up its
    key, and a group's arrays are built at its first lookup.
    The float operations per (row, rank pair) are those of `_sit_max` in
    the same order, so scores equal the scalar ones bit for bit.
    """

    def __init__(self, situations: SituationTable, search_ids: list, grounded: bool):
        self._situations = situations
        self._grounded = grounded
        self._n = len(search_ids)
        members = {}  # (verb, role count) -> [(owner row, rank, first row)]
        for row, sid in enumerate(search_ids):
            r = _lookup(situations.index, sid)
            starts = situations.starts[r]
            for rank, (verb, start, end) in enumerate(zip(situations.verbs[r], starts, starts[1:]), 1):
                if end > start:  # a rank without roles never scores, as in `_sit_max`
                    members.setdefault((verb, end - start), []).append((row, rank, start))
        self._members, self._groups = members, {}

    def _group(self, key):
        """The arrays of the search ranks with this (verb, role count), built
        the first time a query looks the key up; None when there are none."""
        ranked = self._members.pop(key, None)
        if ranked is not None:
            rows, ranks, starts = zip(*ranked)
            at = np.add.outer(starts, range(key[1]))  # (m, n) rows of the group's roles
            boxes = self._situations.boxes[at] if self._grounded else None
            self._groups[key] = (np.array(rows, dtype=np.intp), np.array(ranks, dtype=np.intp),
                                 self._situations.codes[at], boxes)
        return self._groups.get(key)

    def __call__(self, query_id: str) -> np.ndarray:
        sits = self._situations
        r = _lookup(sits.index, query_id)
        best, starts = np.zeros(self._n), sits.starts[r]
        for a, (verb, start, end) in enumerate(zip(sits.verbs[r], starts, starts[1:])):
            group = self._group((verb, end - start))
            if group is None:
                continue
            rows, ranks, codes, search_boxes = group
            match = codes == sits.codes[start:end]  # (m, n): each search rank's nouns against the query's
            total = np.zeros(rows.size) if self._grounded else match.sum(axis=1)  # a count is exact
            for k, box in enumerate(sits.boxes[start:end].tolist() if self._grounded else ()):
                column = search_boxes[:, k]  # `_box_term`: an absent box is a NaN row, fmax makes its IoU 0
                term = np.isnan(column[:, 0]) if box[0] != box[0] else np.fmax(geometry.iou(box, column), 0.0)
                total += np.where(match[:, k], 1.0 + term, 0.0)
            np.maximum.at(best, rows, total / ((a + 1) * ranks * (end - start)))
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
    with np.errstate(invalid="ignore"):  # inf + -inf is NaN, as wanted
        # a float64 sum of finite float32s cannot overflow, and NaN and ±inf carry through
        bad = np.flatnonzero(~np.isfinite(matrix.sum(axis=1, dtype=np.float64)))
    if bad.size:
        # a NaN distance would rank by the order of the search file, and is not JSON
        raise RetrievalError(f"{path}: embedding of image {ids[bad[0]]!r} (row {bad[0]}) "
                             f"holds a non-finite value")
    return ids, matrix
