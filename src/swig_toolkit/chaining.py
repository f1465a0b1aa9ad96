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
from .geometry import box_array, iou

DEFAULT_SPATIAL_IOU = 0.4  # below the 0.5 metric threshold: boxes for the
# same entity can come from different conditional passes


@dataclass(frozen=True)
class SituationNode:
    verb: str
    frame: GroundedFrame
    query_box: Optional[BoundingBox] = None

    def __post_init__(self):  # what a chain file can hold: a string verb and nouns, distinct roles
        if not isinstance(self.verb, str):
            raise ValueError(f"verb: must be a string, got {self.verb!r}")
        for role, noun in self.frame.role_values:
            if not isinstance(noun, str):
                raise ValueError(f"frame, nouns[{role!r}]: must be a string, got {noun!r}")
        if len(set(self.frame.roles)) != len(self.frame.roles):
            raise ValueError(f"frame, roles: a role is listed twice in {self.frame.roles}")


def chain(nodes: list, spatial_iou: float = DEFAULT_SPATIAL_IOU) -> dict:
    """Build the undirected relation graph over a list of SituationNodes.

    For every role pair across distinct nodes: a spatial edge when both
    are grounded with IoU >= spatial_iou (strength 1 + IoU), a semantic
    edge when the nouns are equal and non-null (strength 1). Each
    unordered pair appears once, ordered by (node_i, role position).

    Returns the graph as it is written: {"nodes": [each node's frame JSON
    plus "verb" and "query_box"], "edges": [{"node_i", "role_a", "node_j",
    "role_b", "type": "spatial" | "semantic", "strength"}]}.
    """
    if not nodes:
        raise ValueError("chain requires at least one node")
    if not 0 <= spatial_iou <= 1:
        raise ValueError(f"spatial_iou must be in [0,1], got {spatial_iou}")
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
    boxes = box_array([s[3] for s in slots])
    bounds = np.searchsorted(owner, np.arange(len(nodes) + 1))

    edges = []
    for i in range(len(nodes)):
        lo, hi = bounds[i], bounds[i + 1]
        # slots of node i (rows) against the slots of every later node (columns)
        same = (noun[lo:hi, None] == noun[None, hi:]) & (noun[lo:hi, None] >= 0)
        overlap = iou(boxes[lo:hi, None], boxes[None, hi:])  # NaN where either is ungrounded
        spatial = overlap >= spatial_iou
        rows, cols = np.nonzero(spatial | same)
        order = np.lexsort((cols, rows, owner[hi + cols]))  # (node_j, role_a, role_b)
        for a, b in zip(rows[order].tolist(), cols[order].tolist()):
            pair = {"node_i": i, "role_a": slots[lo + a][1],
                    "node_j": slots[hi + b][0], "role_b": slots[hi + b][1]}
            if spatial[a, b]:
                edges.append({**pair, "type": "spatial", "strength": 1.0 + overlap.item(a, b)})
            if same[a, b]:
                edges.append({**pair, "type": "semantic", "strength": 1.0})
    return {
        "nodes": [{"verb": n.verb, **frame_to_json(n.frame.role_values,
                                                   [b and b.as_list() for b in n.frame.groundings]),
                   "query_box": n.query_box.as_list() if n.query_box else None}
                  for n in nodes],
        "edges": edges,
    }
