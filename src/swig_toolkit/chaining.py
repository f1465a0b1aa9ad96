"""Link grounded situations of one image into a relation graph.

Roles in distinct situation nodes are connected by a spatial edge when
their groundings overlap enough, and by a semantic edge when they name
the same non-null noun. Place roles are never grounded so they only form
semantic edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .frame_model import NULL_NOUN, BoundingBox, GroundedFrame, frame_to_json
from .geometry import iou_row

DEFAULT_SPATIAL_IOU = 0.4  # below the 0.5 metric threshold: boxes for the
# same entity can come from different conditional passes


@dataclass(frozen=True)
class SituationNode:
    frame: GroundedFrame
    query_box: Optional[BoundingBox] = None


@dataclass(frozen=True)
class ChainEdge:
    node_i: int
    role_a: str
    node_j: int
    role_b: str
    link_type: str  # "spatial" or "semantic"
    strength: float  # 1 + IoU for spatial, 1 for semantic


@dataclass(frozen=True)
class ChainGraph:
    nodes: tuple  # of SituationNode
    edges: tuple  # of ChainEdge, deterministic order

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {**frame_to_json(n.frame),
                 "query_box": n.query_box.as_list() if n.query_box else None}
                for n in self.nodes
            ],
            "edges": [
                {
                    "node_i": e.node_i, "role_a": e.role_a,
                    "node_j": e.node_j, "role_b": e.role_b,
                    "type": e.link_type, "strength": e.strength,
                }
                for e in self.edges
            ],
        }


def chain(nodes: list, spatial_iou: float = DEFAULT_SPATIAL_IOU,
          require_noun_match: bool = False) -> ChainGraph:
    """Build the undirected relation graph over a list of SituationNodes.

    For every role pair across distinct nodes: a spatial edge when both
    are grounded with IoU >= spatial_iou (strength 1 + IoU), a semantic
    edge when the nouns are equal and non-null (strength 1). Each
    unordered pair appears once, ordered by (node_i, role position).
    require_noun_match additionally gates spatial edges on noun equality.
    """
    if not nodes:
        raise ValueError("chain requires at least one node")
    # one row per role slot, nodes in order: owner node, role, noun code, box
    slots = [
        (i, role, noun, box)
        for i, node in enumerate(nodes)
        for (role, noun), box in zip(node.frame.role_values, node.frame.groundings)
    ]
    owner = np.array([s[0] for s in slots], dtype=np.int64)
    codes = {}
    noun = np.array([-1 if s[2] == NULL_NOUN else codes.setdefault(s[2], len(codes))
                     for s in slots], dtype=np.int64)
    boxes = np.array([s[3].as_list() if s[3] is not None else [np.nan] * 4 for s in slots],
                     dtype=np.float64).reshape(-1, 4)
    grounded = ~np.isnan(boxes[:, 0])
    bounds = np.searchsorted(owner, np.arange(len(nodes) + 1))

    edges = []
    for i in range(len(nodes)):
        lo, hi = bounds[i], bounds[i + 1]
        # slots of node i (rows) against the slots of every later node (columns)
        same = (noun[lo:hi, None] == noun[None, hi:]) & (noun[lo:hi, None] >= 0)
        overlap = np.full((hi - lo, len(slots) - hi), np.nan)  # NaN where either is ungrounded
        for a in np.flatnonzero(grounded[lo:hi]):
            overlap[a] = iou_row(boxes[lo + a], boxes[hi:])
        spatial = overlap >= spatial_iou
        if require_noun_match:
            spatial &= same
        rows, cols = np.nonzero(spatial | same)
        order = np.lexsort((cols, rows, owner[hi + cols]))  # (node_j, role_a, role_b)
        for a, b in zip(rows[order].tolist(), cols[order].tolist()):
            role_a, j, role_b = slots[lo + a][1], slots[hi + b][0], slots[hi + b][1]
            if spatial[a, b]:
                edges.append(ChainEdge(i, role_a, j, role_b, "spatial", 1.0 + overlap.item(a, b)))
            if same[a, b]:
                edges.append(ChainEdge(i, role_a, j, role_b, "semantic", 1.0))
    return ChainGraph(tuple(nodes), tuple(edges))
