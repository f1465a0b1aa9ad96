"""Detection-geometry kernels: IoU, NMS, aspect-ratio clustering.

Boxes are closed real rectangles with continuous areas, not pixel sets.
All functions are pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame_model import BoundingBox


@dataclass(frozen=True)
class ScoredBox:
    box: BoundingBox
    score: float

    def __post_init__(self):
        if not isinstance(self.box, BoundingBox):
            raise ValueError(f"box must be a BoundingBox, got {self.box!r}")
        if not np.isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score}")


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when disjoint."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def box_array(boxes) -> np.ndarray:
    """(M, 4) float64 array of [x1, y1, x2, y2] rows, one per BoundingBox; None gives a NaN row."""
    rows = [[np.nan] * 4 if b is None else b.as_list() for b in boxes]
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def iou_row(box, boxes: np.ndarray) -> np.ndarray:
    """IoU of one box [x1, y1, x2, y2] against each row of an (M, 4) float64 array.

    Uses the float operations of `iou` in the same order, so entry k equals
    iou(box, boxes[k]) bit for bit: clamping a non-positive overlap side to
    +0.0 makes a disjoint pair's IoU 0.0 / union = 0.0. A NaN row gives NaN.
    """
    x1, y1, x2, y2 = map(float, box)
    bx1, by1, bx2, by2 = boxes.T
    ix = np.minimum(x2, bx2) - np.maximum(x1, bx1)
    iy = np.minimum(y2, by2) - np.maximum(y1, by1)
    inter = np.maximum(0.0, ix) * np.maximum(0.0, iy)
    return inter / ((x2 - x1) * (y2 - y1) + (bx2 - bx1) * (by2 - by1) - inter)


def nms(candidates: list, iou_threshold: float, keep: int) -> list:
    """Greedy score-descending non-maximum suppression.

    Returns the kept indices into `candidates`, highest score first, at
    most `keep` of them. Ties in score are broken by lower original index.
    A candidate is suppressed when its IoU with an already-kept box
    exceeds iou_threshold.
    """
    if not 0 <= iou_threshold <= 1:
        raise ValueError(f"iou_threshold must be in [0,1], got {iou_threshold}")
    order = sorted(range(len(candidates)), key=lambda i: (-candidates[i].score, i))
    boxes = box_array([candidates[i].box for i in order])
    alive = np.ones(len(order), dtype=bool)
    kept = []
    for pos, i in enumerate(order):
        if len(kept) >= keep:
            break
        if alive[pos]:
            kept.append(i)
            alive[pos + 1:] &= iou_row(boxes[pos], boxes[pos + 1:]) <= iou_threshold
    return kept


def cluster_aspect_ratios(boxes: list, k: int, seed: int = 0) -> list:
    """1-D k-means over log(h/w), k-means++ seeded; returns k ratios ascending.

    Input is sorted before seeding so the result is invariant to the
    ordering of `boxes` for a fixed seed. Runs Lloyd's iterations to an
    assignment fixpoint (at most 100), with several seeded restarts,
    keeping the lowest within-cluster variance.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(boxes):
        raise ValueError(f"k={k} exceeds the number of boxes ({len(boxes)})")
    values = np.sort(np.log([b.height / b.width for b in boxes]))
    if k == len(values):
        return list(np.exp(values))

    rng = np.random.default_rng(seed)
    best_centroids, best_cost = None, np.inf
    for _ in range(10):
        centroids = _kmeans_pp_seed(values, k, rng)
        centroids, cost = _lloyd(values, centroids)
        if cost < best_cost - 1e-15:
            best_cost, best_centroids = cost, centroids
    return list(np.exp(np.sort(best_centroids)))


def _kmeans_pp_seed(values: np.ndarray, k: int, rng) -> np.ndarray:
    centroids = [values[rng.integers(len(values))]]
    for _ in range(1, k):
        d2 = np.min((values[:, None] - np.array(centroids)[None, :]) ** 2, axis=1)
        total = d2.sum()
        if total <= 0:
            centroids.append(values[rng.integers(len(values))])
            continue
        centroids.append(values[rng.choice(len(values), p=d2 / total)])
    return np.array(centroids)


def _lloyd(values: np.ndarray, centroids: np.ndarray, max_iter: int = 100):
    assign = None
    for _ in range(max_iter):
        new_assign = np.argmin(np.abs(values[:, None] - centroids[None, :]), axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(len(centroids)):
            members = values[assign == c]
            if len(members):
                centroids[c] = members.mean()
    cost = float(np.sum((values - centroids[assign]) ** 2))
    return centroids, cost
