import random

import pytest

from swig_toolkit import BoundingBox, GroundedFrame, SituationNode, chain
from swig_toolkit.geometry import iou
from conftest import make_box
from oracles import chain_naive


def node(verb, role_nouns, role_boxes):
    values = tuple(role_nouns)
    return SituationNode(verb, GroundedFrame(values, tuple(role_boxes)))


def simple_node(noun="man", box=None, role="Agent", verb="jumping"):
    return node(verb, [(role, noun), ("Place", "street")], [box, None])


class TestChain:
    def test_single_node_has_no_edges(self):
        graph = chain([simple_node()])
        assert graph["edges"] == []

    def test_empty_input_errors(self):
        with pytest.raises(ValueError):
            chain([])

    def test_identical_boxes_make_spatial_edge(self):
        b = BoundingBox(0, 0, 10, 10)
        graph = chain([simple_node("man", b), simple_node("dog", b)])
        spatial = [e for e in graph["edges"] if e["type"] == "spatial"]
        assert len(spatial) == 1
        assert spatial[0]["strength"] == 2.0
        assert (spatial[0]["node_i"], spatial[0]["node_j"]) == (0, 1)

    def test_shared_noun_makes_semantic_edge(self):
        graph = chain([simple_node("man"), simple_node("man")])
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
        graph = chain([a, b], spatial_iou=0.4)
        kinds = {(e["role_a"], e["role_b"], e["type"]) for e in graph["edges"]}
        assert ("Item", "Food", "spatial") in kinds
        assert ("Item", "Food", "semantic") in kinds
        spatial = next(e for e in graph["edges"] if e["type"] == "spatial")
        assert spatial["strength"] == pytest.approx(1.6)

    def test_null_nouns_never_link_semantically(self):
        graph = chain([simple_node(""), simple_node("")])
        semantic = [e for e in graph["edges"] if e["type"] == "semantic"]
        assert {(e["role_a"], e["role_b"]) for e in semantic} == {("Place", "Place")}

    def test_below_iou_threshold_no_spatial_edge(self):
        a = simple_node("man", BoundingBox(0, 0, 2, 2))
        b = simple_node("dog", BoundingBox(1, 1, 3, 3))  # IoU 1/7
        graph = chain([a, b], spatial_iou=0.4)
        assert not [e for e in graph["edges"] if e["type"] == "spatial"]

    def test_raising_threshold_only_prunes(self):
        boxes = [BoundingBox(0, 0, 10, 10), BoundingBox(0, 3, 10, 13), BoundingBox(0, 6, 10, 16)]
        nodes = [simple_node(f"noun{i}", b) for i, b in enumerate(boxes)]
        low = {(e["node_i"], e["role_a"], e["node_j"], e["role_b"])
               for e in chain(nodes, 0.2)["edges"] if e["type"] == "spatial"}
        high = {(e["node_i"], e["role_a"], e["node_j"], e["role_b"])
                for e in chain(nodes, 0.6)["edges"] if e["type"] == "spatial"}
        assert high <= low

    def test_node_order_invariance_up_to_relabeling(self):
        b = BoundingBox(0, 0, 10, 10)
        nodes = [simple_node("man", b), simple_node("dog", b), simple_node("man")]
        fwd = chain(nodes)
        rev = chain(nodes[::-1])
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
        graph = chain([simple_node("man", b), simple_node("man", b)], spatial_iou=0.0)
        assert all(0 < e["strength"] <= 2 for e in graph["edges"])


def random_nodes(rng, count):
    """Nodes of 1-6 roles over few nouns and a small canvas, so shared nouns,
    null nouns, ungrounded roles and overlapping boxes are all common."""
    nodes = []
    for _ in range(count):
        roles = [(f"R{k}", rng.choice(["man", "dog", "bread", ""])) for k in range(rng.randint(1, 6))]
        boxes = [rng.choice([make_box(rng, 40.0), make_box(rng, 40.0), None]) for _ in roles]
        if boxes[0] is not None and rng.random() < 0.3:
            boxes[-1] = boxes[0]  # identical groundings: IoU exactly 1
        nodes.append(node("v", roles, boxes))
    return nodes


def test_edges_equal_the_brute_force_scan_in_order():
    rng = random.Random(31)
    for trial in range(40):
        nodes = random_nodes(rng, rng.randint(1, 12))
        spatial_iou = rng.choice([0.0, 0.4, 1.0, rng.random()])
        graph = chain(nodes, spatial_iou)
        got = [(e["node_i"], e["role_a"], e["node_j"], e["role_b"], e["type"], e["strength"])
               for e in graph["edges"]]
        assert got == chain_naive(nodes, spatial_iou), trial
        assert all(type(e["node_j"]) is int and type(e["strength"]) is float for e in graph["edges"])


@pytest.mark.parametrize("verb,role_nouns,error", [
    (None, [("Agent", "man")], "verb: must be a string, got None"),
    ("jumping", [("Agent", None), ("Place", "street")], "frame, nouns['Agent']: must be a string, got None"),
    ("jumping", [("Agent", 3)], "frame, nouns['Agent']: must be a string, got 3"),
    ("jumping", [("Agent", "man"), ("Agent", "dog")],
     "frame, roles: a role is listed twice in ('Agent', 'Agent')"),
], ids=["verb-null", "noun-null", "noun-number", "role-twice"])
def test_a_node_holds_only_what_a_chain_file_can(verb, role_nouns, error):
    with pytest.raises(ValueError) as e:
        node(verb, role_nouns, [None] * len(role_nouns))
    assert str(e.value) == error
