import random

import numpy as np
import pytest

from swig_toolkit import (
    BoundingBox,
    DetectionList,
    SituationPrediction,
    gr_sit_sim,
    l2_similarity,
    obj_sim,
    retrieve_topk,
    sit_sim,
    split_query_search,
)
from swig_toolkit.retrieval import (
    RetrievalError,
    extract_detections,
    read_embeddings,
    write_embeddings,
)
from conftest import make_box
from oracles import topk_naive

VERBS = ("kneading", "jumping", "carrying", "teaching", "sitting")


def random_situation(rng, n_roles_by_verb=None, grounded=True):
    n_roles_by_verb = n_roles_by_verb or {v: rng.randint(1, 6) for v in VERBS}
    verbs = tuple(rng.sample(VERBS, 5))
    entities, boxes = [], []
    for v in verbs:
        n = n_roles_by_verb[v]
        entities.append(tuple(rng.choice(("man", "dog", "dough", "sofa")) for _ in range(n)))
        boxes.append(tuple(make_box(rng) if grounded else None for _ in range(n)))
    return SituationPrediction(verbs, tuple(entities), tuple(boxes))


class TestL2Similarity:
    def test_self_is_zero(self):
        a = np.array([1.0, 2.0, 3.0])
        assert l2_similarity(a, a) == 0.0

    def test_3_4_5(self):
        assert l2_similarity(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == -5.0

    def test_high_dim_matches_reference(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=2048), rng.normal(size=2048)
        reference = -float(np.sqrt(sum((x - y) ** 2 for x, y in zip(a, b))))
        assert l2_similarity(a, b) == pytest.approx(reference, rel=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(RetrievalError):
            l2_similarity(np.zeros(3), np.zeros(4))


class TestObjSim:
    def test_self_single_detection(self):
        d = DetectionList(("cat",), (BoundingBox(0, 0, 10, 10),))
        assert obj_sim(d, d) == 2.0

    def test_disjoint_classes(self):
        i = DetectionList(("cat",), (BoundingBox(0, 0, 10, 10),))
        j = DetectionList(("dog",), (BoundingBox(0, 0, 10, 10),))
        assert obj_sim(i, j) == 0.0

    def test_direct_formula(self):
        i = DetectionList(
            ("cat", "dog"),
            (BoundingBox(0, 0, 2, 2), BoundingBox(0, 0, 1, 1)),
        )
        j = DetectionList(("cat",), (BoundingBox(1, 1, 3, 3),))
        # cat term: 1 + 1/7; dog term: no match -> 0; normalized by 2
        assert obj_sim(i, j) == pytest.approx((1 + 1 / 7) / 2)

    def test_empty_cases(self):
        empty = DetectionList((), ())
        d = DetectionList(("cat",), (BoundingBox(0, 0, 1, 1),))
        assert obj_sim(empty, d) == 0.0
        assert obj_sim(d, empty) == 0.0


class TestSitSim:
    def test_self_is_one(self, rng):
        for _ in range(20):
            s = random_situation(rng)
            assert sit_sim(s, s) == 1.0

    def test_no_shared_verbs(self, rng):
        i = SituationPrediction(
            ("a1", "a2", "a3", "a4", "a5"),
            (("x",),) * 5, ((None,),) * 5,
        )
        j = SituationPrediction(
            ("b1", "b2", "b3", "b4", "b5"),
            (("x",),) * 5, ((None,),) * 5,
        )
        assert sit_sim(i, j) == 0.0

    def test_rank_discounted_match(self):
        # shared verb at i=1 (rank 1) and j=2 (rank 2), 2 of 4 entities equal
        i = SituationPrediction(
            ("v", "x1", "x2", "x3", "x4"),
            (("a", "b", "c", "d"), ("z",), ("z",), ("z",), ("z",)),
            ((None,) * 4, (None,), (None,), (None,), (None,)),
        )
        j = SituationPrediction(
            ("y1", "v", "y2", "y3", "y4"),
            (("z",), ("a", "b", "q", "r"), ("z",), ("z",), ("z",)),
            ((None,), (None,) * 4, (None,), (None,), (None,)),
        )
        assert sit_sim(i, j) == pytest.approx(1 / (1 * 2 * 4) * 2)

    def test_symmetry_and_bounds(self, rng):
        shared = {v: rng.randint(1, 6) for v in VERBS}
        for _ in range(50):
            i = random_situation(rng, shared)
            j = random_situation(rng, shared)
            assert sit_sim(i, j) == pytest.approx(sit_sim(j, i))
            assert 0 <= sit_sim(i, j) <= 1


class TestGrSitSim:
    def test_self_fully_grounded_is_two(self, rng):
        for _ in range(20):
            s = random_situation(rng, grounded=True)
            assert gr_sit_sim(s, s) == 2.0

    def test_zero_overlap_equals_sit_sim(self):
        i = SituationPrediction(
            ("v", "x1", "x2", "x3", "x4"),
            (("a", "b"), ("z",), ("z",), ("z",), ("z",)),
            ((BoundingBox(0, 0, 1, 1), BoundingBox(0, 0, 1, 1)),
             (None,), (None,), (None,), (None,)),
        )
        j = SituationPrediction(
            ("v", "y1", "y2", "y3", "y4"),
            (("a", "b"), ("z",), ("z",), ("z",), ("z",)),
            ((BoundingBox(5, 5, 6, 6), BoundingBox(7, 7, 8, 8)),
             (None,), (None,), (None,), (None,)),
        )
        assert gr_sit_sim(i, j) == pytest.approx(sit_sim(i, j))

    def test_direct_formula(self):
        box = BoundingBox(0, 0, 2, 2)
        shifted = BoundingBox(1, 1, 3, 3)  # IoU 1/7 with box
        i = SituationPrediction(
            ("v", "x1", "x2", "x3", "x4"),
            (("a", "b"), ("z",), ("z",), ("z",), ("z",)),
            ((box, box), (None,), (None,), (None,), (None,)),
        )
        j = SituationPrediction(
            ("v", "y1", "y2", "y3", "y4"),
            (("a", "b"), ("z",), ("z",), ("z",), ("z",)),
            ((box, shifted), (None,), (None,), (None,), (None,)),
        )
        assert gr_sit_sim(i, j) == pytest.approx(((1 + 1) + (1 + 1 / 7)) / 2)

    def test_both_ungrounded_entities_count_fully(self, rng):
        s = random_situation(rng, grounded=False)
        assert gr_sit_sim(s, s) == 2.0

    def test_symmetry(self, rng):
        shared = {v: rng.randint(1, 6) for v in VERBS}
        for _ in range(50):
            i = random_situation(rng, shared, grounded=rng.random() < 0.5)
            j = random_situation(rng, shared, grounded=rng.random() < 0.5)
            assert gr_sit_sim(i, j) == pytest.approx(gr_sit_sim(j, i))
            assert 0 <= gr_sit_sim(i, j) <= 2


class TestSplitQuerySearch:
    def test_counts(self, rng):
        ids_by_verb = {v: [f"{v}_{i}" for i in range(60)] for v in ("a", "b", "c")}
        query, search = split_query_search(ids_by_verb, seed=5)
        assert len(query) == 6 and len(search) == 144
        assert not set(query) & set(search)

    def test_deterministic(self):
        ids_by_verb = {v: [f"{v}_{i}" for i in range(60)] for v in ("a", "b")}
        assert split_query_search(ids_by_verb, seed=9) == split_query_search(ids_by_verb, seed=9)

    def test_undersized_verb(self):
        with pytest.raises(RetrievalError, match="'tiny'"):
            split_query_search({"tiny": ["only_one"]})


class TestRetrieveTopk:
    def test_self_query_ranks_first(self, rng):
        sits = {f"img{i}": random_situation(rng) for i in range(10)}
        sim = lambda q, s: gr_sit_sim(sits[q], sits[s])
        results = retrieve_topk("img3", sorted(sits), sim, k=5)
        assert results[0] == ("img3", 2.0)

    def test_k_clamped(self):
        sim = lambda q, s: 1.0
        assert len(retrieve_topk("q", ["a", "b"], sim, k=10)) == 2

    def test_tie_break_by_id(self):
        sim = lambda q, s: 1.0
        results = retrieve_topk("q", ["b", "a", "c"], sim, k=3)
        assert [r[0] for r in results] == ["a", "b", "c"]

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(20):
            sits = {f"img{i:02d}": random_situation(rng) for i in range(20)}
            query = rng.choice(sorted(sits))
            sim = lambda q, s: sit_sim(sits[q], sits[s])
            assert retrieve_topk(query, sorted(sits), sim, 5) == topk_naive(query, sorted(sits), sim, 5)


class TestEmbeddingFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        ids = [f"img{i}" for i in range(7)]
        matrix = rng.normal(size=(7, 16)).astype(np.float32)
        path = tmp_path / "feats.swge"
        write_embeddings(path, ids, matrix)
        got_ids, got = read_embeddings(path)
        assert got_ids == ids
        assert np.array_equal(got, matrix)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.swge"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(RetrievalError, match="magic"):
            read_embeddings(path)


class TestExtractDetections:
    def test_threshold_and_labeling(self, rng):
        boxes = [make_box(rng) for _ in range(3)]
        logits = np.array([
            [2.0, 0.0],    # cat, above -1
            [-3.0, -2.0],  # best -2, below -1: dropped
            [0.0, 1.0],    # dog, above -1
        ])
        det = extract_detections(boxes, logits, ["cat", "dog"])
        assert set(det.classes) == {"cat", "dog"}
        assert len(det.boxes) == 2

    def test_per_class_nms(self):
        b = BoundingBox(0, 0, 10, 10)
        logits = np.array([[3.0], [2.0]])
        det = extract_detections([b, b], logits, ["cat"])
        assert det.classes == ("cat",)
