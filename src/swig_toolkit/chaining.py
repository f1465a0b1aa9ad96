"""Link grounded situations of one image into a relation graph.

Roles in distinct situation nodes are connected by a spatial edge when
their groundings overlap enough, and by a semantic edge when they name
the same non-null noun. Place roles are never grounded so they only form
semantic edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame_model import frame_to_json
from .geometry import iou

DEFAULT_SPATIAL_IOU = 0.4  # below the 0.5 metric threshold: boxes for the
# same entity can come from different conditional passes


@dataclass(frozen=True, eq=False)
class NodeTable:
    """The situation nodes of one image as `load_chain_nodes` reads them, in columns."""

    verbs: list  # per node: its verb
    roles: list  # per node: the keys of its "nouns", in file order
    starts: list  # per node: its first row, one row per role; one more start
    codes: np.ndarray  # (n,) int32: per row its noun's code
    nouns: list  # per code: its noun; code -1, the null noun, reads the last entry, ""
    boxes: np.ndarray  # (n, 4) float64, a NaN row for "no box"
    query_boxes: list  # per node: [x1, y1, x2, y2] floats, or None


def chain(nodes: NodeTable, spatial_iou: float = DEFAULT_SPATIAL_IOU) -> dict:
    """Build the undirected relation graph over the nodes of a NodeTable.

    For every role pair across distinct nodes: a spatial edge when both
    are grounded with IoU >= spatial_iou (strength 1 + IoU), a semantic
    edge when the nouns are equal and non-null (strength 1). Each
    unordered pair appears once, ordered by (node_i, role position).

    Returns the graph as it is written: {"nodes": [each node's frame JSON
    plus "verb" and "query_box"], "edges": [{"node_i", "role_a", "node_j",
    "role_b", "type": "spatial" | "semantic", "strength"}]}.
    """
    if not nodes.verbs:
        raise ValueError("chain requires at least one node")
    if not 0 <= spatial_iou <= 1:
        raise ValueError(f"spatial_iou must be in [0,1], got {spatial_iou}")
    # one entry per role slot, nodes in order: owner node, role; slot k's noun code and box are row k
    starts, noun, boxes = nodes.starts, nodes.codes, nodes.boxes
    owner = np.repeat(np.arange(len(nodes.verbs)), np.diff(starts))
    roles = [role for node_roles in nodes.roles for role in node_roles]

    edges = []
    for i in range(len(nodes.verbs)):
        lo, hi = starts[i], starts[i + 1]
        # slots of node i (rows) against the slots of every later node (columns)
        same = (noun[lo:hi, None] == noun[None, hi:]) & (noun[lo:hi, None] >= 0)
        overlap = iou(boxes[lo:hi, None], boxes[None, hi:])  # NaN where either is ungrounded
        spatial = overlap >= spatial_iou
        rows, cols = np.nonzero(spatial | same)
        order = np.lexsort((cols, rows, owner[hi + cols]))  # (node_j, role_a, role_b)
        cols = cols[order]
        for a, b, j in zip(rows[order].tolist(), cols.tolist(), owner[hi + cols].tolist()):
            pair = {"node_i": i, "role_a": roles[lo + a], "node_j": j, "role_b": roles[hi + b]}
            if spatial[a, b]:
                edges.append({**pair, "type": "spatial", "strength": 1.0 + overlap.item(a, b)})
            if same[a, b]:
                edges.append({**pair, "type": "semantic", "strength": 1.0})
    written = [None if row[0] != row[0] else row for row in boxes.tolist()]
    nouns = list(map(nodes.nouns.__getitem__, noun.tolist()))
    return {
        "nodes": [{"verb": verb, **frame_to_json(tuple(zip(node_roles, nouns[s:e])), written[s:e]),
                   "query_box": query_box}
                  for verb, node_roles, s, e, query_box in zip(
                      nodes.verbs, nodes.roles, starts, starts[1:], nodes.query_boxes)],
        "edges": edges,
    }
