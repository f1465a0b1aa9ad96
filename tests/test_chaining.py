import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swig_toolkit import BoundingBox, GroundedFrame, chain
from swig_toolkit.dataset_io import load_chain_nodes
from swig_toolkit.geometry import iou
from conftest import frame_json, make_box
from oracles import chain_naive


def node(verb, role_nouns, role_boxes):
    """A chain file's node record."""
    return {"verb": verb, **frame_json(GroundedFrame(tuple(role_nouns), tuple(role_boxes)))}


def simple_node(noun="man", box=None, role="Agent", verb="jumping"):
    return node(verb, [(role, noun), ("Place", "street")], [box, None])


def graph_of(records, *args, **kwargs):
    return chain(load_chain_nodes(records), *args, **kwargs)


class TestChain:
    def test_single_node_has_no_edges(self):
        graph = graph_of([simple_node()])
        assert graph["edges"] == []

    def test_empty_input_errors(self):
        with pytest.raises(ValueError):
            graph_of([])

    def test_identical_boxes_make_spatial_edge(self):
        b = BoundingBox(0, 0, 10, 10)
        graph = graph_of([simple_node("man", b), simple_node("dog", b)])
        spatial = [e for e in graph["edges"] if e["type"] == "spatial"]
        assert len(spatial) == 1
        assert spatial[0]["strength"] == 2.0
        assert (spatial[0]["node_i"], spatial[0]["node_j"]) == (0, 1)

    def test_shared_noun_makes_semantic_edge(self):
        graph = graph_of([simple_node("man"), simple_node("man")])
        semantic = [e for e in graph["edges"] if e["type"] == "semantic"]
        # Agent-Agent "man" and Place-Place "street"
        assert ({(e["role_a"], e["role_b"]) for e in semantic}
                == {("Agent", "Agent"), ("Place", "Place")})
        assert all(e["strength"] == 1.0 for e in semantic)

    def test_overlapping_groundings_of_shared_noun_make_both_edges(self):
        # one situation's Item and another's Food both name "meat" with IoU 0.6 boxes
        box_x = BoundingBox(0, 0, 10, 10)
        box_y = BoundingBox(0, 2.5, 10, 12.5)
        assert iou(box_x, box_y) == pytest.approx(0.6)
        a = node("carrying", [("Agent", "man"), ("Item", "meat")], [None, box_x])
        b = node("kneading", [("Food", "meat"), ("Place", "kitchen")], [box_y, None])
        graph = graph_of([a, b], spatial_iou=0.4)
        kinds = {(e["role_a"], e["role_b"], e["type"]) for e in graph["edges"]}
        assert ("Item", "Food", "spatial") in kinds
        assert ("Item", "Food", "semantic") in kinds
        spatial = next(e for e in graph["edges"] if e["type"] == "spatial")
        assert spatial["strength"] == pytest.approx(1.6)

    def test_null_nouns_never_link_semantically(self):
        graph = graph_of([simple_node(""), simple_node("")])
        semantic = [e for e in graph["edges"] if e["type"] == "semantic"]
        assert {(e["role_a"], e["role_b"]) for e in semantic} == {("Place", "Place")}

    def test_below_iou_threshold_no_spatial_edge(self):
        a = simple_node("man", BoundingBox(0, 0, 2, 2))
        b = simple_node("dog", BoundingBox(1, 1, 3, 3))  # IoU 1/7
        graph = graph_of([a, b], spatial_iou=0.4)
        assert not [e for e in graph["edges"] if e["type"] == "spatial"]

    def test_raising_threshold_only_prunes(self):
        boxes = [BoundingBox(0, 0, 10, 10), BoundingBox(0, 3, 10, 13), BoundingBox(0, 6, 10, 16)]
        nodes = [simple_node(f"noun{i}", b) for i, b in enumerate(boxes)]
        low = {(e["node_i"], e["role_a"], e["node_j"], e["role_b"])
               for e in graph_of(nodes, 0.2)["edges"] if e["type"] == "spatial"}
        high = {(e["node_i"], e["role_a"], e["node_j"], e["role_b"])
                for e in graph_of(nodes, 0.6)["edges"] if e["type"] == "spatial"}
        assert high <= low

    def test_node_order_invariance_up_to_relabeling(self):
        b = BoundingBox(0, 0, 10, 10)
        nodes = [simple_node("man", b), simple_node("dog", b), simple_node("man")]
        fwd = graph_of(nodes)
        rev = graph_of(nodes[::-1])
        relabel = {0: 2, 1: 1, 2: 0}

        def canonical(edges, mapping=None):
            out = set()
            for e in edges:
                i = mapping[e["node_i"]] if mapping else e["node_i"]
                j = mapping[e["node_j"]] if mapping else e["node_j"]
                key = (tuple(sorted([(i, e["role_a"]), (j, e["role_b"])]))
                       + (e["type"], e["strength"]))
                out.add(key)
            return out

        assert canonical(fwd["edges"]) == canonical(rev["edges"], relabel)

    def test_strengths_in_range(self):
        b = BoundingBox(0, 0, 10, 10)
        graph = graph_of([simple_node("man", b), simple_node("man", b)], spatial_iou=0.0)
        assert all(0 < e["strength"] <= 2 for e in graph["edges"])


def random_frames(rng, count):
    """Frames of 1-6 roles over few nouns and a small canvas, so shared nouns,
    null nouns, ungrounded roles and overlapping boxes are all common."""
    frames = []
    for _ in range(count):
        roles = [(f"R{k}", rng.choice(["man", "dog", "bread", ""])) for k in range(rng.randint(1, 6))]
        boxes = [rng.choice([make_box(rng, 40.0), make_box(rng, 40.0), None]) for _ in roles]
        if boxes[0] is not None and rng.random() < 0.3:
            boxes[-1] = boxes[0]  # identical groundings: IoU exactly 1
        frames.append(GroundedFrame(tuple(roles), tuple(boxes)))
    return frames


def test_edges_equal_the_brute_force_scan_in_order():
    rng = random.Random(31)
    for trial in range(40):
        frames = random_frames(rng, rng.randint(1, 12))
        spatial_iou = rng.choice([0.0, 0.4, 1.0, rng.random()])
        graph = graph_of([{"verb": "v", **frame_json(f)} for f in frames], spatial_iou)
        got = [(e["node_i"], e["role_a"], e["node_j"], e["role_b"], e["type"], e["strength"])
               for e in graph["edges"]]
        assert got == chain_naive(frames, spatial_iou), trial
        assert all(type(e["node_j"]) is int and type(e["strength"]) is float for e in graph["edges"])


COORD = st.integers(0, 110) | st.floats(0, 110)
SIDE = st.integers(1, 40) | st.floats(0.5, 40)
OPTIONAL_BOX = (st.none() | st.just([-1, -1, -1, -1])
                | st.builds(lambda x, y, w, h: [x, y, x + w, y + h], COORD, COORD, SIDE, SIDE))


@st.composite
def chain_record(draw):
    """A valid chain file node; a role's box and flag, and the query box, may be absent."""
    roles = draw(st.lists(st.sampled_from(["Agent", "Item", "Tool", "Place"]), unique=True, max_size=4))
    rec = {"verb": draw(st.sampled_from(["jumping", "kneading"])),
           "nouns": {r: draw(st.sampled_from(["man", "dog", ""])) for r in roles},
           "boxes": {r: draw(OPTIONAL_BOX) for r in roles if draw(st.booleans())}}
    if draw(st.booleans()):
        rec["grounded"] = {r: draw(st.booleans()) for r in roles}
    if draw(st.booleans()):
        rec["query_box"] = draw(OPTIONAL_BOX)
    return rec


AGENT = {"verb": "jumping", "nouns": {"Agent": "man", "Place": ""}}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(records=st.lists(chain_record(), min_size=1, max_size=5),
       spatial_iou=st.sampled_from([0.0, 0.4, 1.0]))
@example(records=[{"verb": "jumping", "nouns": {}}, AGENT], spatial_iou=0.4)  # a node with no roles
@example(records=[dict(AGENT, boxes={"Agent": [-1, -1, -1, -1]}), dict(AGENT, boxes={"Agent": [0, 0, 9, 9]})],
         spatial_iou=0.0)
@example(records=[dict(AGENT, boxes={"Agent": [0, 0, 9, 9]}, grounded={"Agent": False}),
                  dict(AGENT, boxes={"Agent": [0, 0, 9, 9]})], spatial_iou=0.4)
@example(records=[dict(AGENT, query_box=None), dict(AGENT, query_box=[1, 2.5, 30, 40])], spatial_iou=0.4)
def test_the_written_nodes_read_back_as_the_same_table(records, spatial_iou):
    table = load_chain_nodes(records)
    graph = chain(table, spatial_iou)
    again = load_chain_nodes(json.loads(json.dumps(graph["nodes"])))
    for column in ("verbs", "roles", "nouns", "starts", "query_boxes"):
        assert getattr(again, column) == getattr(table, column), column
    assert np.array_equal(again.boxes, table.boxes, equal_nan=True)
    assert chain(again, spatial_iou)["edges"] == graph["edges"]
