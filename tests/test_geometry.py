import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swig_toolkit import BoundingBox, ScoredBox, cluster_aspect_ratios, iou, nms
from swig_toolkit.geometry import box_array
from conftest import make_box
from oracles import clustering_cost, iou_exact, iou_raster, kmeans_1d_optimal_cost, nms_naive
import numpy as np


class TestIou:
    def test_identical(self):
        b = BoundingBox(3, 4, 10, 12)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0

    def test_touching_edges_are_disjoint(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(1, 0, 2, 1)) == 0.0

    def test_known_overlap(self):
        # 1x1 intersection, union 4 + 4 - 1 = 7
        value = iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 3, 3))
        assert value == pytest.approx(1 / 7)
        assert abs(value - iou_raster(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 3, 3))) <= 1e-3

    def test_symmetry_and_raster_agreement(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = make_box(rng), make_box(rng)
            assert iou(a, b) == iou(b, a)
            assert abs(iou(a, b) - iou_raster(a, b)) <= 1e-3

    def test_one_iff_equal(self):
        rng = random.Random(8)
        for _ in range(50):
            a, b = make_box(rng), make_box(rng)
            if a != b:
                assert iou(a, b) < 1.0


COORD = st.integers(0, 50) | st.floats(0, 50)
SIDE = st.integers(1, 30) | st.floats(1e-3, 30)


@st.composite
def box_and_relatives(draw):
    """A box and a list mixing arbitrary boxes with ones identical to it,
    contained in it, touching it along an edge and disjoint from it."""
    x, y, w, h = draw(COORD), draw(COORD), draw(SIDE), draw(SIDE)
    a = BoundingBox(x, y, x + w, y + h)
    relatives = [
        a,
        BoundingBox(x + w / 4, y + h / 4, x + w / 2, y + h / 2),
        BoundingBox(x + w, y, x + 2 * w, y + h),
        BoundingBox(x, y + h, x + w, y + 2 * h),
        BoundingBox(x + 2 * w, y + 2 * h, x + 3 * w, y + 3 * h),
    ]
    others = draw(st.lists(st.builds(lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
                                     COORD, COORD, SIDE, SIDE), max_size=6))
    return a, draw(st.permutations(relatives + others))


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected, dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestIouBroadcast:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(box_and_relatives())
    @example((BoundingBox(0, 0, 2, 2), [BoundingBox(0, 0, 2, 2), BoundingBox(2, 0, 4, 2),  # same; one edge
                                        BoundingBox(5, 5, 6, 6), BoundingBox(0.5, 0.5, 1.5, 1.5)]))
    def test_equals_the_oracle_bit_for_bit(self, case):
        a, boxes = case
        rows = box_array(boxes)
        row = [iou_exact(a, b) for b in boxes]
        for b, expected in zip(boxes, row):  # two BoundingBoxes give a 0-d float64
            assert_same_bits(iou(a, b), expected)
        assert_same_bits(iou(a, rows), row)
        assert_same_bits(iou(a.as_list(), rows), row)
        table = [[iou_exact(b, c) for c in boxes] for b in boxes[:3]]
        assert_same_bits(iou(rows[:3, None], rows[None, :]), table)  # (3, 1, 4) x (1, m, 4)
        with_absent = iou(a, box_array([*boxes, None]))
        assert_same_bits(with_absent[:-1], row)
        assert np.isnan(with_absent[-1])

    def test_empty_array(self):
        assert iou([0, 0, 1, 1], box_array([])).shape == (0,)


class TestBoxArray:
    def test_none_is_a_nan_row(self):
        rows = box_array([BoundingBox(1, 2, 3, 4), None])
        assert rows.shape == (2, 4)
        assert rows[0].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert np.isnan(rows[1]).all()


def scored_boxes(rng, n, canvas, side, clusters):
    """n boxes with two-decimal scores (so many ties), spread uniformly over
    the canvas or jittered around `clusters` centres."""
    centres = [(rng.uniform(0, canvas), rng.uniform(0, canvas)) for _ in range(clusters)]
    out = []
    for _ in range(n):
        w, h = rng.uniform(*side), rng.uniform(*side)
        if centres:
            cx, cy = rng.choice(centres)
            x, y = max(0.0, cx + rng.gauss(0, side[0] / 4)), max(0.0, cy + rng.gauss(0, side[0] / 4))
        else:
            x, y = rng.uniform(0, canvas), rng.uniform(0, canvas)
        out.append(ScoredBox(BoundingBox(x, y, x + w, y + h), round(rng.random(), 2)))
    return out


class TestNms:
    @pytest.mark.parametrize("canvas,side,clusters,keep", [
        (4000, (10, 60), 0, 150),      # sparse: nearly every box survives, so the limit binds
        (1000, (40, 120), 60, 2000),   # clustered: suppression ends the walk
    ], ids=["sparse", "clustered"])
    def test_matches_naive_reference_on_2000_boxes(self, canvas, side, clusters, keep):
        rng = random.Random(clusters)
        candidates = scored_boxes(rng, 2000, canvas, side, clusters)
        kept = nms(candidates, 0.5, keep)
        assert kept == nms_naive(candidates, 0.5, keep)
        assert len(kept) == keep if not clusters else len(kept) < 2000

    @pytest.mark.parametrize("box", [None, [0, 0, 1, 1]], ids=["None", "list"])
    def test_scored_box_requires_a_bounding_box(self, box):
        # a None box would become a NaN row in nms and suppress every later candidate
        with pytest.raises(ValueError, match="BoundingBox"):
            ScoredBox(box, 1.0)

    def test_single_box(self):
        assert nms([ScoredBox(BoundingBox(0, 0, 1, 1), 0.5)], 0.5, 100) == [0]

    def test_duplicate_suppressed(self):
        b = BoundingBox(0, 0, 10, 10)
        assert nms([ScoredBox(b, 0.9), ScoredBox(b, 0.8)], 0.5, 100) == [0]

    def test_keep_limit(self):
        boxes = [ScoredBox(BoundingBox(i * 10, 0, i * 10 + 5, 5), 1.0 - i * 0.1) for i in range(5)]
        assert nms(boxes, 0.5, 3) == [0, 1, 2]

    def test_tie_breaks_to_lower_index(self):
        b1 = BoundingBox(0, 0, 5, 5)
        b2 = BoundingBox(50, 50, 55, 55)
        kept = nms([ScoredBox(b1, 0.7), ScoredBox(b2, 0.7)], 0.5, 100)
        assert kept == [0, 1]

    def test_matches_naive_reference(self, rng):
        for trial in range(50):
            candidates = [ScoredBox(make_box(rng), round(rng.uniform(0, 1), 2)) for _ in range(50)]
            threshold = rng.choice([0.1, 0.3, 0.5, 0.7])
            keep = rng.choice([5, 20, 100])
            assert nms(candidates, threshold, keep) == nms_naive(candidates, threshold, keep)

    def test_survivors_pairwise_below_threshold(self, rng):
        candidates = [ScoredBox(make_box(rng), rng.random()) for _ in range(40)]
        kept = nms(candidates, 0.4, 100)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert iou(candidates[a].box, candidates[b].box) <= 0.4

    def test_antitone_in_threshold(self, rng):
        candidates = [ScoredBox(make_box(rng), rng.random()) for _ in range(30)]
        counts = [len(nms(candidates, t, 100)) for t in (0.2, 0.5, 0.8)]
        assert counts == sorted(counts)


class TestClusterAspectRatios:
    def test_zero_variance(self):
        boxes = [BoundingBox(0, 0, 10, 10)] * 5
        assert cluster_aspect_ratios(box_array(boxes), 3, seed=1) == pytest.approx([1.0, 1.0, 1.0])

    def test_two_well_separated_groups(self):
        wide = [BoundingBox(0, 0, 20, 10)] * 10   # aspect 0.5
        tall = [BoundingBox(0, 0, 10, 20)] * 10   # aspect 2.0
        assert cluster_aspect_ratios(box_array(wide + tall), 2, seed=3) == pytest.approx([0.5, 2.0])

    def test_k_equals_n(self):
        boxes = [BoundingBox(0, 0, 10, h) for h in (5, 10, 20)]
        assert cluster_aspect_ratios(box_array(boxes), 3, seed=0) == pytest.approx([0.5, 1.0, 2.0])

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            cluster_aspect_ratios(box_array([BoundingBox(0, 0, 1, 1)]), 2)

    def test_permutation_invariant(self, rng):
        boxes = [make_box(rng) for _ in range(20)]
        shuffled = boxes[:]
        rng.shuffle(shuffled)
        assert (cluster_aspect_ratios(box_array(boxes), 3, seed=11)
                == cluster_aspect_ratios(box_array(shuffled), 3, seed=11))

    def test_matches_exhaustive_partition_oracle(self, rng):
        for trial in range(30):
            n = rng.randint(4, 12)
            k = rng.randint(1, 3)
            boxes = [make_box(rng) for _ in range(n)]
            values = np.log([b.height / b.width for b in boxes])
            ratios = cluster_aspect_ratios(box_array(boxes), k, seed=trial)
            cost = clustering_cost(values, np.log(ratios))
            assert cost <= kmeans_1d_optimal_cost(values, k) + 1e-9


def test_scored_box_score_must_be_finite():
    with pytest.raises(ValueError, match="score must be finite"):
        ScoredBox(BoundingBox(0, 0, 1, 1), float("nan"))


@pytest.mark.parametrize("threshold", [-0.1, 1.1])
def test_nms_threshold_outside_the_unit_interval_is_an_error(threshold):
    with pytest.raises(ValueError, match="iou_threshold must be in"):
        nms([ScoredBox(BoundingBox(0, 0, 1, 1), 1.0)], threshold, keep=1)


def test_cluster_aspect_ratios_needs_k_of_one_or_more():
    with pytest.raises(ValueError, match="k must be >= 1"):
        cluster_aspect_ratios(box_array([BoundingBox(0, 0, 1, 1)]), 0)


def test_identical_boxes_at_the_area_limit_have_iou_one():
    # the union adds two areas of half the largest float, which stays finite
    b = BoundingBox(0, 0, 2, sys.float_info.max / 4)
    assert iou(b, b) == 1.0
    assert iou(box_array([b]), box_array([b])).tolist() == [1.0]
