"""Acceptance suite: one test per release criterion, each printing a
PASS line on success. Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 1 needs the full public dataset on disk (point SWIG_DATA_DIR at
a directory holding dataset.json, lexicon.json, vocab.json in the
canonical schema); without it the criterion is waived and covered by the
fixture-scale criteria 2-8.
"""

import contextlib
import io
import json
import os
import random

import numpy as np
import pytest

from swig_toolkit import (
    BoundingBox,
    FocalParams,
    GroundedFrame,
    LossParts,
    ScoredBox,
    SmoothingParams,
    VerbSetting,
    cluster_aspect_ratios,
    compute_stats,
    evaluate,
    focal_loss,
    gr_sit_sim,
    iou,
    l1_reg,
    load_dataset,
    nms,
    retrieve_topk,
    sit_sim,
    smoothed_ce,
    split_query_search,
    total_loss,
)
from swig_toolkit.cli import main as cli_main
from swig_toolkit.fusion import DetectionSet, assign_groundings

from conftest import (
    Prediction,
    load_preds,
    load_split,
    make_box,
    perfect_prediction,
    random_dataset,
    random_prediction,
)
from oracles import (
    clustering_cost,
    evaluate_naive,
    iou_raster,
    kmeans_1d_optimal_cost,
    nms_naive,
    topk_naive,
)
from test_retrieval import PairwiseScorer, random_situation


def report(criterion, name):
    print(f"\nACCEPTANCE {criterion} ({name}): PASS")


def test_criterion_1_full_dataset_statistics():
    data_dir = os.environ.get("SWIG_DATA_DIR")
    if not data_dir:
        pytest.skip(
            "criterion 1 waived: full public dataset not available in this "
            "environment (set SWIG_DATA_DIR to run); covered by criteria 2-8"
        )
    ds = load_dataset(
        os.path.join(data_dir, "dataset.json"),
        os.path.join(data_dir, "lexicon.json"),
        os.path.join(data_dir, "vocab.json"),
    )
    stats = compute_stats(ds)
    assert stats["total_images"] == 126_102
    assert stats["total_verbs"] == 504
    assert stats["total_noun_slots"] == 451_916
    assert stats["non_null_slots"] == 435_566
    assert stats["grounded_slots"] == 278_336
    assert abs(stats["grounded_fraction"] - 0.639) <= 0.001
    assert abs(stats["mean_frame_length"] - 3.55) <= 0.01
    assert len(ds.vocabulary) == 11_538
    report(1, "full dataset statistics")


def test_criterion_2_metric_fixpoints_and_dominance(lexicon, vocabulary):
    rng = random.Random(101)

    # perfect predictions: exactly 1.0 everywhere, all settings
    dataset = random_dataset(rng, lexicon, vocabulary, n_verbs=5, images_per_verb=4)
    table = load_split(dataset)
    perfect = load_preds([perfect_prediction(img) for img in dataset.images], lexicon)
    for setting in VerbSetting:
        rep = evaluate(table, perfect, setting)
        assert all(v == 1.0 for v in rep["macro"].values()), setting

    # adversarial predictions: nouns never match any annotator
    adversarial = []
    for img in dataset.images:
        roles = lexicon.roles(img.verb)
        values = tuple((role, "never-a-real-noun") for role in roles)
        frame = GroundedFrame(values, (None,) * len(roles))
        adversarial.append(
            Prediction(img.image_id, (img.verb,), {img.verb: frame})
        )
    adversarial = load_preds(adversarial, lexicon)
    for setting in VerbSetting:
        rep = evaluate(table, adversarial, setting)
        assert rep["macro"]["value"] == 0.0
        assert rep["macro"]["value_all"] == 0.0

    # dominance chains on 1000 randomized fixtures
    for _ in range(1000):
        ds = random_dataset(rng, lexicon, vocabulary, n_verbs=1, images_per_verb=2)
        table = load_split(ds)
        preds = load_preds([random_prediction(rng, lexicon, img) for img in ds.images], lexicon)
        for setting in VerbSetting:
            row = evaluate(table, preds, setting)["macro"]
            assert row["grounded_value"] <= row["value"] + 1e-12
            assert row["grounded_value_all"] <= row["value_all"] + 1e-12
            assert row["value_all"] <= row["value"] + 1e-12
    report(2, "metric fixpoints and dominance")


def test_criterion_3_metric_oracle_equivalence(lexicon, vocabulary):
    rng = random.Random(202)
    for _ in range(50):
        ds = random_dataset(
            rng, lexicon, vocabulary,
            n_verbs=rng.randint(1, 5), images_per_verb=rng.randint(1, 2),
        )
        preds = [random_prediction(rng, lexicon, img) for img in ds.images]
        table, predictions = load_split(ds), load_preds(preds, lexicon)
        for setting in VerbSetting:
            rep = evaluate(table, predictions, setting)
            expected = evaluate_naive(ds, preds, setting.value)
            macro = expected.pop("_macro")
            assert rep["per_verb"] == expected
            assert rep["macro"] == macro
    report(3, "metric oracle equivalence")


def test_criterion_4_geometry_oracles():
    rng = random.Random(303)

    for _ in range(1000):
        a, b = make_box(rng), make_box(rng)
        assert abs(iou(a, b) - iou_raster(a, b, grid=1000)) <= 1e-3

    for _ in range(200):
        n = rng.randint(1, 40)
        candidates = [ScoredBox(make_box(rng), round(rng.uniform(0, 1), 2)) for _ in range(n)]
        threshold = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])
        keep = rng.choice([3, 10, 100])
        assert nms(candidates, threshold, keep) == nms_naive(candidates, threshold, keep)

    for trial in range(50):
        n = rng.randint(3, 12)
        k = rng.randint(1, 3)
        boxes = [make_box(rng) for _ in range(n)]
        values = np.log([b.height / b.width for b in boxes])
        ratios = cluster_aspect_ratios(boxes, k, seed=trial)
        assert clustering_cost(values, np.log(ratios)) <= kmeans_1d_optimal_cost(values, k) + 1e-9
    report(4, "geometry oracles")


def test_criterion_5_loss_gradient_checks():
    rng = np.random.default_rng(404)
    step = 1e-5

    def central(fn, x):
        g = np.zeros_like(x)
        for i in range(x.size):
            hi, lo = x.copy(), x.copy()
            hi[i] += step
            lo[i] -= step
            g[i] = (fn(hi) - fn(lo)) / (2 * step)
        return g

    def check(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-6)
        assert np.max(np.abs(analytic - numeric) / denom) <= 1e-4

    for _ in range(100):
        n = int(rng.integers(2, 10))
        x = rng.normal(size=n) * 3
        t = (rng.random(n) < 0.5).astype(float)
        fp = FocalParams(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0, 4)))
        check(focal_loss(x, t, fp)[1], central(lambda v: focal_loss(v, t, fp)[0], x))

        k = int(rng.integers(2, 10))
        xs = rng.normal(size=k) * 3
        tgt = int(rng.integers(k))
        sp = SmoothingParams(float(rng.uniform(0, 0.9)))
        check(smoothed_ce(xs, tgt, sp)[1], central(lambda v: smoothed_ce(v, tgt, sp)[0], xs))

        p, q = rng.normal(size=n), rng.normal(size=n)
        check(l1_reg(p, q)[1], central(lambda v: l1_reg(v, q)[0], p))

    # focal at gamma=0, alpha=1 reduces to BCE; alpha weights negatives by
    # 1 - alpha, so the exact identity is checked on positive targets (the
    # alpha=0.5 half-BCE identity covers mixed targets)
    def bce(x, t):
        return float(np.mean(np.logaddexp(0, x) - t * x))

    for _ in range(100):
        n = int(rng.integers(2, 10))
        x = rng.normal(size=n) * 3
        ones = np.ones(n)
        loss, _ = focal_loss(x, ones, FocalParams(alpha=1.0, gamma=0.0))
        assert abs(loss - bce(x, ones)) <= 1e-12
        t = (rng.random(n) < 0.5).astype(float)
        half, _ = focal_loss(x, t, FocalParams(alpha=0.5, gamma=0.0))
        assert abs(half - 0.5 * bce(x, t)) <= 1e-12

    # smoothed CE at epsilon 0 equals plain CE
    for _ in range(100):
        k = int(rng.integers(2, 10))
        x = rng.normal(size=k) * 3
        tgt = int(rng.integers(k))
        loss, _ = smoothed_ce(x, tgt, SmoothingParams(0.0))
        shifted = x - x.max()
        ce = float(np.log(np.exp(shifted).sum()) - shifted[tgt])
        assert abs(loss - ce) <= 1e-12

    # total objective is the exact unweighted sum of its parts
    vals = rng.random(7)
    parts = LossParts(vals[0], vals[1], vals[2], vals[3], tuple(vals[4:]))
    assert total_loss(parts) == vals[0] + vals[1] + vals[2] + vals[3] + vals[4] + vals[5] + vals[6]
    report(5, "loss gradient checks")


def test_criterion_6_retrieval_bounds_and_split():
    rng = random.Random(505)

    for _ in range(500):
        s = random_situation(rng, grounded=True)
        assert sit_sim(s, s) == 1.0
        assert gr_sit_sim(s, s) == 2.0

    shared_roles = {v: rng.randint(1, 6) for v in
                    ("kneading", "jumping", "carrying", "teaching", "sitting")}
    for _ in range(200):
        i = random_situation(rng, shared_roles, grounded=rng.random() < 0.5)
        j = random_situation(rng, shared_roles, grounded=rng.random() < 0.5)
        assert 0 <= sit_sim(i, j) <= 1
        assert 0 <= gr_sit_sim(i, j) <= 2

    for _ in range(50):
        sits = {f"img{i:02d}": random_situation(rng) for i in range(15)}
        query = rng.choice(sorted(sits))
        sim = lambda q, s: gr_sit_sim(sits[q], sits[s])
        assert (retrieve_topk(query, sorted(sits), PairwiseScorer(sim, sorted(sits)), 5)
                == topk_naive(query, sorted(sits), sim, 5))

    ids_by_verb = {f"verb{v:03d}": [f"verb{v:03d}_img{i}" for i in range(55)] for v in range(504)}
    query, search = split_query_search(ids_by_verb, seed=17)
    assert len(query) == 1008
    assert len(search) == 24192
    assert not set(query) & set(search)
    report(6, "retrieval self-maximality, bounds, split sizes")


def test_criterion_7_fusion_behavior():
    rng = random.Random(606)
    noun_index = {"man": 0, "dough": 1, "sofa": 2}
    frame = GroundedFrame(
        (("Agent", "man"), ("Item", "dough"), ("Place", "sofa")),
        (None, None, None),
    )

    for _ in range(200):
        n = rng.randint(1, 8)
        scores = np.array([[rng.uniform(-8, 8) for _ in range(3)] for _ in range(n)])
        det = DetectionSet(tuple(make_box(rng) for _ in range(n)), scores, noun_index)
        counts = []
        for threshold in (-8.0, -4.0, 0.0, 4.0, 8.1):
            fused = assign_groundings(frame, det, threshold)
            counts.append(sum(b is not None for b in fused.groundings))
        assert counts == sorted(counts, reverse=True)

    # default threshold -4: best logit -10 stays ungrounded, +3 grounds to argmax
    scores = np.array([[-10.0, 3.0, 0.0], [-12.0, 1.0, 0.0]])
    det = DetectionSet(
        (BoundingBox(0, 0, 5, 5), BoundingBox(10, 10, 15, 15)), scores, noun_index
    )
    fused = assign_groundings(frame, det)
    assert fused.grounding_of("Agent") is None
    assert fused.grounding_of("Item") == det.boxes[0]
    report(7, "fusion threshold behavior")


def test_criterion_8_cli_determinism(tmp_path):
    lexicon = {"kneading": ["Agent", "Item", "Place"], "jumping": ["Agent", "Place"]}
    vocab = ["man", "woman", "dough", "kitchen", "street"]
    (tmp_path / "lexicon.json").write_text(json.dumps(lexicon))
    (tmp_path / "vocab.json").write_text(json.dumps(vocab))
    dataset = [{
        "id": "img1.jpg", "width": 100, "height": 100, "verb": "kneading",
        "frames": [
            {"Agent": "man", "Item": "dough", "Place": "kitchen"},
            {"Agent": "man", "Item": "dough", "Place": ""},
            {"Agent": "woman", "Item": "dough", "Place": "kitchen"},
        ],
        "boxes": {"Agent": [0, 0, 50, 80], "Item": [20, 30, 40, 50], "Place": None},
    }]
    (tmp_path / "dataset.json").write_text(json.dumps(dataset))
    preds = [{
        "id": "img1.jpg", "verbs": ["kneading"],
        "frames": {"kneading": {
            "nouns": {"Agent": "man", "Item": "dough", "Place": "kitchen"},
            "boxes": {"Agent": [0, 0, 50, 80], "Item": [20, 30, 40, 50], "Place": None},
        }},
    }]
    (tmp_path / "preds.json").write_text(json.dumps(preds))
    (tmp_path / "dets.json").write_text(json.dumps([{
        "id": "img1.jpg", "boxes": [[0, 0, 50, 80], [20, 30, 40, 50]],
        "nouns": ["man", "dough", "kitchen"],
        "noun_scores": [[3.0, -9.0, 0.0], [-9.0, 5.0, 0.0]],
    }]))
    sits = [{
        "id": f"img{i}", "verbs": ["kneading", "a", "b", "c", "d"],
        "entities": [["man", "dough", "kitchen"], ["x"], ["x"], ["x"], ["x"]],
        "boxes": [[[0, 0, 10, 10], None, None], [None], [None], [None], [None]],
    } for i in range(4)]
    (tmp_path / "sits.json").write_text(json.dumps(sits))
    (tmp_path / "chain_sits.json").write_text(json.dumps([
        {"verb": "kneading",
         "nouns": {"Agent": "man", "Item": "dough", "Place": "kitchen"},
         "boxes": {"Agent": [0, 0, 10, 10], "Item": None, "Place": None}},
        {"verb": "jumping", "nouns": {"Agent": "man", "Place": "street"},
         "boxes": {"Agent": [0, 0, 10, 10], "Place": None}},
    ]))
    (tmp_path / "boxes.json").write_text(json.dumps([[0, 0, 20, 10]] * 5 + [[0, 0, 10, 20]] * 5))
    (tmp_path / "query.txt").write_text("img0\n")
    (tmp_path / "search.txt").write_text("img0\nimg1\nimg2\nimg3\n")

    d = str(tmp_path)
    subcommands = {
        "validate": ["validate", f"{d}/dataset.json", "--lexicon", f"{d}/lexicon.json",
                     "--vocab", f"{d}/vocab.json"],
        "stats": ["stats", f"{d}/dataset.json", "--lexicon", f"{d}/lexicon.json",
                  "--vocab", f"{d}/vocab.json", "--out", "-"],
        "eval": ["eval", "--dataset", f"{d}/dataset.json", "--preds", f"{d}/preds.json",
                 "--lexicon", f"{d}/lexicon.json", "--vocab", f"{d}/vocab.json",
                 "--setting", "gt", "--out", "-"],
        "fuse": ["fuse", "--frames", f"{d}/preds.json", "--detections", f"{d}/dets.json",
                 "--lexicon", f"{d}/lexicon.json", "--out", "-"],
        "retrieve": ["retrieve", "--mode", "grsit", "--query", f"{d}/query.txt",
                     "--search", f"{d}/search.txt", "--situations", f"{d}/sits.json",
                     "--out", "-"],
        "chain": ["chain", "--situations", f"{d}/chain_sits.json", "--out", "-"],
        "anchors": ["anchors", "--boxes", f"{d}/boxes.json", "--k", "2",
                    "--seed", "17", "--out", "-"],
        "gradcheck": ["gradcheck", "--trials", "10", "--seed", "7", "--out", "-"],
    }
    for name, args in subcommands.items():
        outputs = []
        for threads in ("1", "8"):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                status = cli_main(["--threads", threads, *args])
            assert status == 0, (name, threads)
            outputs.append(buffer.getvalue().encode())
        assert outputs[0] == outputs[1], name
    report(8, "CLI determinism across thread counts")
