import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swig_toolkit import (
    BoundingBox,
    DetectionList,
    L2Scorer,
    ObjScorer,
    ScoredBox,
    SitScorer,
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
from oracles import nms_naive, topk_naive

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


class PairwiseScorer:
    """A query's scores, in search-list order, from a pairwise similarity function."""

    def __init__(self, sim, search_ids):
        self.sim, self.search_ids = sim, search_ids

    def __call__(self, query_id):
        return np.array([self.sim(query_id, s) for s in self.search_ids], dtype=np.float64)


class TestRetrieveTopk:
    def test_self_query_ranks_first(self, rng):
        sits = {f"img{i}": random_situation(rng) for i in range(10)}
        sim = lambda q, s: gr_sit_sim(sits[q], sits[s])
        results = retrieve_topk("img3", sorted(sits), PairwiseScorer(sim, sorted(sits)), k=5)
        assert results[0] == ("img3", 2.0)

    def test_k_clamped(self):
        sim = lambda q, s: 1.0
        assert len(retrieve_topk("q", ["a", "b"], PairwiseScorer(sim, ["a", "b"]), k=10)) == 2

    def test_tie_break_by_id(self):
        sim = lambda q, s: 1.0
        results = retrieve_topk("q", ["b", "a", "c"], PairwiseScorer(sim, ["b", "a", "c"]), k=3)
        assert [r[0] for r in results] == ["a", "b", "c"]

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(20):
            sits = {f"img{i:02d}": random_situation(rng) for i in range(20)}
            query = rng.choice(sorted(sits))
            sim = lambda q, s: sit_sim(sits[q], sits[s])
            assert (retrieve_topk(query, sorted(sits), PairwiseScorer(sim, sorted(sits)), 5)
                    == topk_naive(query, sorted(sits), sim, 5))


# ---- batched scorers against the scalar similarities ----------------------

# identical, touching (shares an edge with the first), overlapping and disjoint boxes
BOX_PALETTE = (BoundingBox(0, 0, 10, 10), BoundingBox(10, 0, 20, 10),
               BoundingBox(5, 5, 15, 15), BoundingBox(30, 30, 40, 40))
some_box = st.one_of(
    st.sampled_from(BOX_PALETTE),
    st.tuples(st.floats(0, 50), st.floats(0, 50), st.floats(0.5, 30), st.floats(0.5, 30))
    .map(lambda t: BoundingBox(t[0], t[1], t[0] + t[2], t[1] + t[3])))


NOUN = st.sampled_from(("", "man", "dog"))


@st.composite
def situations(draw, template=None):
    """Verbs may repeat within a top 5 and have 0 roles; entities may be ''.

    A rank of a variant of `template` keeps its verb and role count half
    the time, so many pairs share a verb, and their sums have several terms.
    """
    verbs, entities, boxes = [], [], []
    for a in range(5):
        if template is not None and draw(st.booleans()):
            verbs.append(template.verbs[a])
            entities.append(tuple(e if draw(st.booleans()) else draw(NOUN)
                                  for e in template.entities[a]))
        else:
            verbs.append(draw(st.sampled_from(("v0", "v1", "v2"))))
            entities.append(tuple(draw(NOUN) for _ in range(draw(st.integers(0, 6)))))
        if draw(st.integers(0, 3)) == 0:
            boxes.append((None,) * len(entities[-1]))
        else:
            boxes.append(tuple(draw(st.none() | some_box | some_box) for _ in entities[-1]))
    return SituationPrediction(tuple(verbs), tuple(entities), tuple(boxes))


@st.composite
def situation_sets(draw):
    template = draw(situations())
    return [template] + draw(st.lists(situations(template), max_size=7))


detections = st.lists(st.tuples(st.sampled_from(("man", "dog")), some_box), max_size=8).map(
    lambda d: DetectionList(tuple(c for c, _ in d), tuple(b for _, b in d)))


class TestBatchedScorers:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(situation_sets())
    def test_sit_scorers_equal_the_scalar_functions(self, sits):
        features = {f"img{i}": sit for i, sit in enumerate(sits)}
        ids = sorted(features)
        for grounded, fn in ((False, sit_sim), (True, gr_sit_sim)):
            scorer = SitScorer(features, ids, grounded=grounded)
            for q in ids:
                assert scorer(q).tolist() == [fn(features[q], features[s]) for s in ids]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(detections, min_size=1, max_size=8))
    def test_obj_scorer_equals_obj_sim(self, dets):
        features = {f"img{i}": d for i, d in enumerate(dets)}
        ids = sorted(features)
        scorer = ObjScorer(features, ids)
        for q in ids:
            assert scorer(q).tolist() == [obj_sim(features[q], features[s]) for s in ids]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from((1, 2, 3, 17, 255, 511, 512, 513, 699)),
           st.sampled_from((1, 2, 7, 255, 256, 257, 513, 600)), st.integers(0, 2**32 - 1))
    @example(1, 600, 0)
    @example(513, 2 * L2Scorer.CHUNK + 1, 1)
    @example(699, L2Scorer.CHUNK + 1, 2)
    def test_l2_scorer_equals_l2_similarity(self, dim, n, seed):
        # Row scales from 1e-30 to 1e30 put the squares at both ends of the range
        # a float32 difference reaches; more than CHUNK rows cross block edges.
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-30, 30, size=(n, 1))
        matrix = (rng.normal(size=(n, dim)) * scale).astype(np.float32)
        ids = [f"img{i}" for i in range(n)]
        scorer = L2Scorer(ids, matrix, ids)
        for q in sorted({0, n - 1, int(rng.integers(n))}):
            assert scorer(ids[q]).tolist() == [l2_similarity(matrix[q], matrix[s]) for s in range(n)]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 64), st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1,
                                        max_size=24), st.integers(0, 2**32 - 1))
    def test_l2_topk_equals_topk_naive(self, dim, layout, seed):
        # Rows copy one of 4 base vectors, some permuted: copies tie exactly, and a
        # permuted copy ties with its base in exact arithmetic from the zero query,
        # while the float sums may round apart in either scoring path.
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(4, dim)).astype(np.float32)
        rows = [rng.permutation(base[b]) if permuted else base[b] for b, permuted in layout]
        ids = ["zero"] + [f"img{i:02d}" for i in range(len(rows))]
        matrix = np.vstack([np.zeros((1, dim), np.float32)] + rows)
        search = ids[1:]
        scorer = L2Scorer(ids, matrix, search)
        features = dict(zip(ids, matrix))
        sim = lambda q, s: l2_similarity(features[q], features[s])
        for q in ("zero", search[0]):
            for k in (1, 5, len(search)):
                assert retrieve_topk(q, search, scorer, k) == topk_naive(q, search, sim, k)


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

    def test_equals_per_class_reference_in_sorted_class_order(self):
        rng = random.Random(7)
        nouns = ["sofa", "dog", "man", "cat"]  # given out of sorted order
        for _ in range(20):
            n = rng.randint(0, 40)
            boxes = [make_box(rng, min_side=20.0) for _ in range(n)]  # large boxes overlap often
            # scores on a coarse grid, so ties are common; some rows fall below the cutoff
            logits = np.array([[rng.choice((-3.0, -2.0, -0.5, 0.0, 1.0)) for _ in nouns]
                               for _ in range(n)]).reshape(n, len(nouns))
            threshold = rng.choice((0.2, 0.5))
            det = extract_detections(boxes, logits, nouns, nms_iou=threshold)

            groups = {}  # class -> [ScoredBox], in input order
            for box, row in zip(boxes, logits):
                c = int(np.argmax(row))
                if row[c] > -1.0:
                    groups.setdefault(nouns[c], []).append(ScoredBox(box, float(row[c])))
            classes, kept = [], []
            for cls in sorted(groups):
                for i in nms_naive(groups[cls], threshold, len(groups[cls])):
                    classes.append(cls)
                    kept.append(groups[cls][i].box)
            assert det == DetectionList(tuple(classes), tuple(kept))

    def test_per_class_nms(self):
        b = BoundingBox(0, 0, 10, 10)
        logits = np.array([[3.0], [2.0]])
        det = extract_detections([b, b], logits, ["cat"])
        assert det.classes == ("cat",)


def test_retrieve_topk_needs_k_of_one_or_more():
    with pytest.raises(RetrievalError, match="k must be >= 1, got 0"):
        retrieve_topk("q", ["a"], lambda q: np.zeros(1), k=0)


def test_retrieve_topk_needs_one_score_per_search_id():
    with pytest.raises(RetrievalError, match="1 scores for 2 search ids"):
        retrieve_topk("q", ["a", "b"], lambda q: np.zeros(1))


def test_retrieve_topk_over_an_empty_search_set_is_empty():
    assert retrieve_topk("q", [], lambda q: np.zeros(0)) == []


def test_write_embeddings_needs_a_matrix(tmp_path):
    with pytest.raises(RetrievalError, match="2-D"):
        write_embeddings(tmp_path / "emb.swge", ["a", "b"], np.zeros(2))
    assert list(tmp_path.iterdir()) == []
