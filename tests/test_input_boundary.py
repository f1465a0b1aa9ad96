"""The input boundary: every file a subcommand reads goes through one parser
in `dataset_io`, so any JSON value ends in a result or in exit status 1
with a one-line error naming the record and field, and `swig validate`
accepts exactly the datasets the loaders accept."""

import builtins
import contextlib
import copy
import io
import json
import os
import stat
import struct
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from swig_toolkit.cli import main, write_output
from swig_toolkit.dataset_io import (
    DatasetError,
    load_boxes,
    load_chain_nodes,
    load_dataset,
    load_detection_sets,
    load_object_detections,
    load_predictions,
    load_situations,
    parse_box,
    parse_dataset,
    parse_lexicon,
    parse_vocabulary,
)
from swig_toolkit.retrieval import write_embeddings

LEXICON = {"kneading": ["Agent", "Item", "Place"], "jumping": ["Agent", "Place"]}
VOCAB = ["man", "woman", "dough", "kitchen", "street"]


def valid_files():
    record = {
        "id": "img1.jpg", "width": 100, "height": 100, "verb": "kneading",
        "frames": [
            {"Agent": "man", "Item": "dough", "Place": "kitchen"},
            {"Agent": "man", "Item": "dough", "Place": ""},
            {"Agent": "woman", "Item": "dough", "Place": "kitchen"},
        ],
        "boxes": {"Agent": [0, 0, 50, 80], "Item": [20, 30, 40, 50], "Place": None},
    }
    return {
        "lexicon.json": LEXICON,
        "vocab.json": VOCAB,
        "dataset.json": [record],
        "preds.json": [{
            "id": "img1.jpg", "verbs": ["kneading"],
            "frames": {"kneading": {
                "nouns": {"Agent": "man", "Item": "dough", "Place": "kitchen"},
                "boxes": {"Agent": [0, 0, 50, 80], "Item": None, "Place": None},
            }},
        }],
        "dets.json": [{
            "id": "img1.jpg", "boxes": [[0, 0, 50, 80]], "nouns": ["man", "dough"],
            "noun_scores": [[3.0, -9.0]],
        }],
        "sits.json": [{
            "id": f"img{i}", "verbs": ["kneading", "a", "b", "c", "d"],
            "entities": [["man", "dough", "kitchen"], ["x"], ["x"], ["x"], ["x"]],
            "boxes": [[[0, 0, 10, 10], None, None], [None], [None], [None], [None]],
        } for i in range(2)],
        "objs.json": [{"id": f"img{i}", "classes": ["man"], "boxes": [[0, 0, 10, 10]]}
                      for i in range(2)],
        "chain.json": [{"verb": "jumping", "nouns": {"Agent": "man", "Place": "street"},
                        "boxes": {"Agent": [0, 0, 10, 10], "Place": None}}],
        "boxes.json": [[0, 0, 20, 10], [0, 0, 10, 20]],
    }


def command(name, d):
    lex, voc = ["--lexicon", f"{d}/lexicon.json"], ["--vocab", f"{d}/vocab.json"]
    return {
        "validate": ["validate", f"{d}/dataset.json", *lex, *voc],
        "eval": ["eval", "--dataset", f"{d}/dataset.json", "--preds", f"{d}/preds.json",
                 *lex, *voc, "--out", "-"],
        "stats": ["stats", f"{d}/dataset.json", *lex, *voc, "--out", "-"],
        "fuse": ["fuse", "--frames", f"{d}/preds.json", "--detections", f"{d}/dets.json",
                 *lex, "--out", "-"],
        "retrieve": ["retrieve", "--mode", "sit", "--query", f"{d}/query.txt",
                     "--search", f"{d}/query.txt", "--situations", f"{d}/sits.json",
                     "--out", "-"],
        "retrieve-obj": ["retrieve", "--mode", "obj", "--query", f"{d}/query.txt",
                         "--search", f"{d}/query.txt", "--detections", f"{d}/objs.json",
                         "--out", "-"],
        "chain": ["chain", "--situations", f"{d}/chain.json", "--out", "-"],
        "anchors": ["anchors", "--boxes", f"{d}/boxes.json", "--k", "1", "--out", "-"],
    }[name]


def write_files(d, files):
    for name, value in files.items():
        with open(os.path.join(d, name), "w", encoding="utf-8") as f:
            json.dump(value, f)
    with open(os.path.join(d, "query.txt"), "w", encoding="utf-8") as f:
        f.write("img0\n")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def _at(files, path):
    *keys, last = path
    for key in keys:
        files = files[key]
    return files, last


def _set(path, value):
    def mutate(files):
        parent, key = _at(files, path)
        parent[key] = value
    return mutate


def _delete(path):
    def mutate(files):
        parent, key = _at(files, path)
        del parent[key]
    return mutate


DATASET = ("dataset.json", 0)

# (probe, mutation, subcommands, substrings the error must contain)
PROBES = [
    ("box-outside-image", _set((*DATASET, "boxes", "Agent"), [200, 200, 300, 300]),
     ("validate", "stats"), ("image 'img1.jpg'", "boxes['Agent']")),
    ("width-zero", _set((*DATASET, "width"), 0),
     ("validate", "stats"), ("image 'img1.jpg'", "width")),
    ("width-string", _set((*DATASET, "width"), "100"),
     ("validate", "stats"), ("image 'img1.jpg'", "width")),
    ("missing-role", _delete((*DATASET, "frames", 1, "Place")),
     ("validate", "stats"), ("image 'img1.jpg'", "frames[1]", "'Place'")),
    ("two-frames", _delete((*DATASET, "frames", 2)),
     ("validate", "stats"), ("image 'img1.jpg'", "frames")),
    ("duplicate-id", lambda f: f["dataset.json"].append(dict(f["dataset.json"][0])),
     ("validate", "stats"), ("image 'img1.jpg'", "duplicate")),
    ("record-not-object", lambda f: f["dataset.json"].append("oops"),
     ("validate", "stats"), ("record #1",)),
    ("boxes-as-list", _set((*DATASET, "boxes"), [[0, 0, 50, 80]]),
     ("validate", "stats"), ("image 'img1.jpg'", "boxes")),
    ("frames-as-strings", _set((*DATASET, "frames"), ["man", "man", "woman"]),
     ("validate", "stats"), ("image 'img1.jpg'", "frames[0]")),
    ("non-string-noun", _set((*DATASET, "frames", 0, "Agent"), 5),
     ("validate", "stats"), ("image 'img1.jpg'", "frames[0]['Agent']")),
    ("fuse-without-nouns", _delete(("dets.json", 0, "nouns")),
     ("fuse",), ("detections 'img1.jpg'", "nouns")),
    ("fuse-noun-not-detected", lambda f: f["dets.json"][0].update(nouns=["man"], noun_scores=[[3.0]]),
     ("fuse",), ("image 'img1.jpg'", "verb 'kneading'", "role 'Item'", "'dough'")),
    ("stray-prediction-ids",
     lambda f: f["preds.json"].extend(dict(f["preds.json"][0], id=i) for i in ("ghost.jpg", "x.jpg")),
     ("eval",), ("prediction 'ghost.jpg'", "(and 1 more)")),
    ("situations-without-entities", _delete(("sits.json", 0, "entities")),
     ("retrieve",), ("situation 'img0'", "entities")),
    ("grounded-not-boolean",
     _set(("preds.json", 0, "frames", "kneading", "grounded"), {"Agent": True, "Item": "no"}),
     ("eval", "fuse"), ("prediction 'img1.jpg'", "frames['kneading']", "grounded['Item']")),
    ("situation-four-verbs", _delete(("sits.json", 0, "verbs", 4)),
     ("retrieve",), ("situation 'img0', verbs",)),
    ("situation-four-entity-lists", _delete(("sits.json", 0, "entities", 4)),
     ("retrieve",), ("situation 'img0', entities",)),
    ("situation-box-row-short", _delete(("sits.json", 0, "boxes", 0, 2)),
     ("retrieve",), ("situation 'img0', boxes[0]",)),
    ("object-class-without-box", lambda f: f["objs.json"][0]["classes"].append("dough"),
     ("retrieve-obj",), ("detections 'img0', boxes",)),
    ("frame-verb-not-ranked",
     _set(("preds.json", 0, "frames", "jumping"), {"nouns": {"Agent": "man", "Place": "street"}}),
     ("eval", "fuse"), ("prediction 'img1.jpg', frames['jumping']",)),
    ("noun-score-overflow", _set(("dets.json", 0, "noun_scores", 0, 0), float("1e400")),
     ("fuse",), ("detections 'img1.jpg', noun_scores",)),
    ("chain-nouns-string", _set(("chain.json", 0, "nouns"), "man"),
     ("chain",), ("situation #0", "nouns")),
    ("anchor-box-3-coordinates", _set(("boxes.json", 0), [0, 0, 20]),
     ("anchors",), ("boxes[0]",)),
    ("box-coordinate-string", _set((*DATASET, "boxes", "Agent"), ["0", "0", "50", "80"]),
     ("validate", "stats"), ("image 'img1.jpg'", "boxes['Agent']", "JSON numbers")),
    ("box-coordinate-true",
     _set(("preds.json", 0, "frames", "kneading", "boxes", "Agent"), [0, 0, True, 80]),
     ("eval", "fuse"),
     ("prediction 'img1.jpg'", "frames['kneading'], boxes['Agent']", "JSON numbers")),
    ("frame-verb-unknown",
     _set(("preds.json", 0, "frames", "zz"), {"nouns": {"Agent": "man", "Place": "street"}}),
     ("eval", "fuse"), ("prediction 'img1.jpg', frames['zz']", "unknown verb")),
    ("fuse-noun-repeated",  # box 0 is best for the first 'man' column, box 1 for the second
     lambda f: f["dets.json"][0].update(boxes=[[0, 0, 50, 80], [20, 30, 40, 50]],
                                        nouns=["man", "dough", "man"],
                                        noun_scores=[[9.0, 0.0, 0.0], [0.0, 0.0, 2.0]]),
     ("fuse",), ("detections 'img1.jpg', nouns", "distinct")),
    ("noun-score-string", _set(("dets.json", 0, "noun_scores", 0, 0), "3.0"),
     ("fuse",), ("detections 'img1.jpg', noun_scores", "JSON numbers")),
    ("noun-score-true", _set(("dets.json", 0, "noun_scores", 0, 1), True),
     ("fuse",), ("detections 'img1.jpg', noun_scores", "JSON numbers")),
    ("noun-score-row-short", _delete(("dets.json", 0, "noun_scores", 0, 1)),
     ("fuse",), ("detections 'img1.jpg', noun_scores", "1x2")),
    ("noun-score-int-overflow", _set(("dets.json", 0, "noun_scores", 0, 0), 10**400),
     ("fuse",), ("detections 'img1.jpg', noun_scores",)),
    ("fuse-box-null", _set(("dets.json", 0, "boxes", 0), None),
     ("fuse",), ("detections 'img1.jpg', boxes[0]", "may not be null")),
    ("fuse-image-without-detections", _set(("dets.json", 0, "id"), "img2.jpg"),
     ("fuse",), ("no detections for image 'img1.jpg'",)),
    ("anchor-box-null", _set(("boxes.json", 0), None),
     ("anchors",), ("boxes[0]", "may not be null")),
    ("lexicon-verb-seven-roles",  # a new lexicon: valid_files() shares LEXICON itself
     lambda f: f.update({"lexicon.json": dict(LEXICON, kneading=[*"ABCDEFG"])}),
     ("stats", "eval", "fuse"), ("verb 'kneading'", "1..6 roles")),
    ("lexicon-role-repeated",
     lambda f: f.update({"lexicon.json": dict(LEXICON, kneading=["Agent", "Item", "Agent"])}),
     ("stats", "eval", "fuse"), ("verb 'kneading'", "duplicate role")),
    ("box-coordinate-nan", _set((*DATASET, "boxes", "Agent"), [float("nan"), 0, 10, 10]),
     ("validate", "stats"), ("image 'img1.jpg'", "boxes['Agent']", "finite")),
    ("box-coordinate-negative", _set((*DATASET, "boxes", "Agent"), [-5, 0, 10, 10]),
     ("validate", "stats"), ("image 'img1.jpg'", "boxes['Agent']", ">= 0")),
    ("box-corners-swapped", _set((*DATASET, "boxes", "Agent"), [50, 0, 10, 10]),
     ("validate", "stats"), ("image 'img1.jpg'", "boxes['Agent']", "x1 < x2")),
    ("record-id-number", _set((*DATASET, "id"), 5),
     ("validate", "stats"), ("record #0, id",)),
    ("worker-boxes-two",
     lambda f: f["dataset.json"][0].update(worker_boxes={"Agent": [[0, 0, 50, 80]] * 2}),
     ("validate", "stats"), ("image 'img1.jpg'", "worker_boxes['Agent']", "3 worker boxes")),
    ("prediction-verbs-empty", _set(("preds.json", 0, "verbs"), []),
     ("eval", "fuse"), ("prediction 'img1.jpg', verbs", "non-empty")),
    ("box-aspect-infinite", _set((*DATASET, "boxes", "Agent"), [0, 0, 5e-324, 10]),
     ("validate", "stats"), ("image 'img1.jpg'", "boxes['Agent']", "aspect ratio")),
    ("box-area-overflow", _set((*DATASET, "boxes", "Agent"), [0, 0, 1e308, 1e308]),
     ("validate", "stats"), ("image 'img1.jpg'", "boxes['Agent']", "area")),
    ("worker-boxes-mean-area-overflow",  # each worker box is valid, their mean is not
     lambda f: f["dataset.json"][0].update(
         worker_boxes={"Agent": [[0, 0, 8e307, 1], [0, 0, 1, 8e307], [0, 0, 1, 1]]}),
     ("validate", "stats"), ("image 'img1.jpg'", "worker_boxes['Agent']", "area")),
    ("prediction-box-area-overflow",
     _set(("preds.json", 0, "frames", "kneading", "boxes", "Agent"), [0, 0, 1e308, 1e308]),
     ("eval", "fuse"), ("prediction 'img1.jpg'", "frames['kneading'], boxes['Agent']", "area")),
    ("chain-box-area-overflow",  # two nodes with the same box
     lambda f: f.update({"chain.json": 2 * [dict(f["chain.json"][0], boxes={
         "Agent": [0, 0, 1e308, 1e308], "Place": None})]}),
     ("chain",), ("situation #0", "boxes['Agent']", "area")),
    ("anchor-box-aspect-infinite", _set(("boxes.json", 0), [0, 0, 5e-324, 1]),
     ("anchors",), ("boxes[0]", "aspect ratio")),
]


@pytest.mark.parametrize("mutate,subcommands,names", [p[1:] for p in PROBES],
                         ids=[p[0] for p in PROBES])
def test_probed_input_fails_with_one_named_error(tmp_path, mutate, subcommands, names):
    files = valid_files()
    write_files(tmp_path, files)
    for name in subcommands:  # the unmodified files are accepted
        assert run(command(name, tmp_path))[0] == 0, name
    mutate(files)
    write_files(tmp_path, files)
    for name in subcommands:
        status, out, err = run(command(name, tmp_path))
        assert status == 1, name
        if name == "validate":
            *violations, summary = out.splitlines()
            assert violations and summary == f"{len(violations)} violation(s)"
            reported = "\n".join(violations)
        else:
            assert out == "" and err.count("\n") == 1 and err.startswith("error: "), err
            reported = err
        for fragment in names:
            assert fragment in reported, (name, fragment, reported)


def test_validate_reports_every_violation_stats_reports_the_first(tmp_path):
    files = valid_files()
    rec = files["dataset.json"][0]
    rec["width"] = 0
    rec["frames"][0]["Agent"] = "astronaut"
    rec["boxes"]["Place"] = [0, 0, 5, 5]
    write_files(tmp_path, files)
    status, out, _ = run(command("validate", tmp_path))
    assert status == 1 and out.splitlines()[-1] == "3 violation(s)"
    status, _, err = run(command("stats", tmp_path))
    assert status == 1 and "(and 2 more)" in err


def test_validate_accepts_gt_box_on_a_role_an_annotator_left_null(tmp_path):
    files = valid_files()
    files["dataset.json"][0]["frames"][1]["Agent"] = ""
    write_files(tmp_path, files)
    assert run(command("validate", tmp_path))[:2] == (0, "ok\n")
    assert run(command("stats", tmp_path))[0] == 0


def test_duplicate_prediction_id_is_an_error():
    preds = valid_files()["preds.json"] * 2
    with pytest.raises(DatasetError, match="prediction 'img1.jpg': duplicate id"):
        load_predictions(preds, parse_lexicon(LEXICON))


@pytest.mark.parametrize("value", [0, True, None, 3.5], ids=["0", "True", "None", "3.5"])
def test_a_source_that_is_no_path_or_stream_is_a_parsed_value(monkeypatch, value):
    lexicon, vocabulary = parse_lexicon(LEXICON), parse_vocabulary(VOCAB)
    opened = []

    def no_open(*args, **kwargs):  # also keeps fd 0 and 1 of this process open
        opened.append(args)
        raise OSError("a parsed value is not opened")

    monkeypatch.setattr(builtins, "open", no_open)
    for load in (parse_lexicon, parse_vocabulary, lambda s: load_predictions(s, lexicon),
                 load_boxes):
        with pytest.raises(DatasetError):
            load(value)
    assert parse_dataset(value, lexicon, vocabulary, [])[1]
    assert opened == []


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_write_output_uses_the_umask_default_mode(tmp_path, umask):
    out = tmp_path / "report.json"
    previous = os.umask(umask)
    try:
        write_output({"a": 1}, str(out))
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
    assert json.loads(out.read_text()) == {"a": 1}
    assert os.listdir(tmp_path) == ["report.json"]


def _one_row(value):
    return b"SWGE" + struct.pack("<II", 1, 2) + struct.pack("<2f", 0.5, value)


@pytest.mark.parametrize("content,names", [
    (b"SWGE\x01\x00", ()),                                       # the count/dim header is cut
    (b"SWGE" + struct.pack("<II", 2**32 - 1, 2**32 - 1), ()),      # declares about 7e19 bytes
    (b"SWGE" + struct.pack("<II", 1, 4) + b"\x00" * 12, ()),       # one float32 short
    (_one_row(float("nan")), ("'img0'", "non-finite")),
    (_one_row(float("-inf")), ("'img0'", "non-finite")),
], ids=["short-header", "huge-count", "short-payload", "nan", "inf"])
def test_bad_embedding_file_is_one_named_error(tmp_path, content, names):
    (tmp_path / "emb.swge").write_bytes(content)
    (tmp_path / "emb.swge.ids").write_text("img0\n")
    (tmp_path / "ids.txt").write_text("img0\n")
    status, out, err = run(["retrieve", "--mode", "l2", "--query", f"{tmp_path}/ids.txt",
                            "--search", f"{tmp_path}/ids.txt",
                            "--embeddings", f"{tmp_path}/emb.swge", "--out", "-"])
    assert status == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "emb.swge" in err, err
    assert all(name in err for name in names), err


RETRIEVE_FEATURES = {"l2": ("--embeddings", "emb.swge"), "obj": ("--detections", "objs.json"),
                     "sit": ("--situations", "sits.json"), "grsit": ("--situations", "sits.json")}


@pytest.mark.parametrize("side", ["query", "search"])
@pytest.mark.parametrize("mode", sorted(RETRIEVE_FEATURES))
def test_retrieve_id_without_features_is_one_named_error(tmp_path, mode, side):
    write_files(tmp_path, valid_files())
    with open(tmp_path / "objs.json", "w", encoding="utf-8") as f:
        json.dump([{"id": f"img{i}", "classes": ["man"], "boxes": [[0, 0, 10, 10]]}
                   for i in range(2)], f)
    write_embeddings(tmp_path / "emb.swge", ["img0", "img1"], np.eye(2, 3))
    (tmp_path / "query.txt").write_text("ghost\n" if side == "query" else "img0\n")
    (tmp_path / "search.txt").write_text("img0\nghost\nimg1\n" if side == "search"
                                         else "img0\nimg1\n")
    flag, name = RETRIEVE_FEATURES[mode]
    status, out, err = run(["retrieve", "--mode", mode, "--query", f"{tmp_path}/query.txt",
                            "--search", f"{tmp_path}/search.txt", flag, f"{tmp_path}/{name}",
                            "--out", "-"])
    assert status == 1 and out == ""
    assert err == "error: missing features for image 'ghost'\n", err


@pytest.mark.parametrize("mode", sorted(RETRIEVE_FEATURES))
def test_retrieve_without_its_feature_file_is_a_usage_error(tmp_path, mode):
    write_files(tmp_path, valid_files())
    flag = RETRIEVE_FEATURES[mode][0]
    others = [arg for other, name in RETRIEVE_FEATURES.values() if other != flag
              for arg in (other, f"{tmp_path}/{name}")]
    status, out, err = run(["retrieve", "--mode", mode, "--query", f"{tmp_path}/query.txt",
                            "--search", f"{tmp_path}/query.txt", *others, "--out", "-"])
    assert status == 2 and out == ""
    assert err == f"error: --mode {mode} needs {flag}\n", err


@pytest.mark.parametrize("kind", ["manifest", "query", "search"])
def test_repeated_id_is_one_named_error(tmp_path, kind):
    ids = {"manifest": ["img0", "img1"], "query": ["img0"], "search": ["img0", "img1"]}
    ids[kind] = ids[kind][:1] + ids[kind]  # the first id is listed twice
    write_embeddings(tmp_path / "emb.swge", ids["manifest"], np.eye(len(ids["manifest"]), 3))
    (tmp_path / "query.txt").write_text("\n".join(ids["query"]) + "\n")
    (tmp_path / "search.txt").write_text("\n".join(ids["search"]) + "\n")
    status, out, err = run(["retrieve", "--mode", "l2", "--query", f"{tmp_path}/query.txt",
                            "--search", f"{tmp_path}/search.txt",
                            "--embeddings", f"{tmp_path}/emb.swge", "--out", "-"])
    file = {"manifest": "emb.swge.ids", "query": "query.txt", "search": "search.txt"}[kind]
    assert status == 1 and out == ""
    assert err == f"error: {tmp_path}/{file}: image id 'img0' is listed twice\n", err


def test_write_output_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_output({"a": 1}, str(tmp_path / "report.json"))
    assert os.listdir(tmp_path) == []


def test_write_output_writes_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    try:
        write_output({"a": 1}, str(fifo))
    finally:
        if reader.is_alive():  # unblock the reader if the write never opened the FIFO
            with open(fifo, "w"):
                pass
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert json.loads(received[0]) == {"a": 1}
    assert os.listdir(tmp_path) == ["out.fifo"]


def test_write_output_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("{}")
    link.symlink_to(target)
    write_output({"a": 1}, str(link))
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text()) == {"a": 1}
    assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]


@pytest.mark.parametrize("k,query", [pytest.param("-1", "img0\n", id="-1"),
                                     pytest.param("0", "img0\n", id="0"),
                                     pytest.param("0", "", id="0-no-queries")])
def test_retrieve_k_below_one_is_one_error(tmp_path, k, query):
    write_files(tmp_path, valid_files())
    (tmp_path / "query.txt").write_text(query)
    status, out, err = run(command("retrieve", tmp_path) + ["--k", k])
    assert status == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and f"got {k}" in err, err


@pytest.mark.parametrize("content", [b"not json", b"\xff\xfe", b"[" * 10**5 + b"]" * 10**5],
                         ids=["not-json", "not-utf-8", "nested-too-deep"])
@pytest.mark.parametrize("name", ["dataset.json", "preds.json", "lexicon.json", "vocab.json"])
def test_unreadable_json_file_is_one_error_naming_it(tmp_path, name, content):
    write_files(tmp_path, valid_files())
    (tmp_path / name).write_bytes(content)
    status, out, err = run(command("eval", tmp_path))
    assert status == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {tmp_path}/{name}: "), err


def test_non_utf8_id_list_is_one_error_naming_it(tmp_path):
    write_files(tmp_path, valid_files())
    (tmp_path / "query.txt").write_bytes(b"\xff\xfe")
    status, out, err = run(command("retrieve", tmp_path))
    assert status == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {tmp_path}/query.txt: "), err


@pytest.mark.parametrize("load", [
    lambda s: load_dataset(s, LEXICON, VOCAB), lambda s: load_dataset([], s, VOCAB),
    lambda s: load_dataset([], LEXICON, s), lambda s: load_predictions(s, parse_lexicon(LEXICON)),
    load_detection_sets, load_object_detections, load_situations, load_chain_nodes, load_boxes,
    parse_lexicon, parse_vocabulary,
    lambda s: parse_dataset(s, parse_lexicon(LEXICON), parse_vocabulary(VOCAB), []),
], ids=["dataset", "lexicon", "vocabulary", "predictions", "detection-sets", "object-detections",
        "situations", "chain-nodes", "boxes", "parse-lexicon", "parse-vocabulary", "parse-dataset"])
def test_undecodable_stream_is_a_dataset_error(tmp_path, load):
    with pytest.raises(DatasetError, match=r"^<stream>: Expecting value"):
        load(io.StringIO("["))
    (tmp_path / "broken.json").write_text("[")
    with open(tmp_path / "broken.json", encoding="utf-8") as f:
        with pytest.raises(DatasetError) as error:
            load(f)
    assert str(error.value).startswith(f"{tmp_path}/broken.json: Expecting value"), error.value


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_gradcheck_trials_below_one_is_one_error(trials):
    status, out, err = run(["gradcheck", "--trials", trials, "--out", "-"])
    assert status == 1 and out == ""
    assert err == f"error: --trials must be >= 1, got {trials}\n", err


@pytest.mark.parametrize("subcommand", ["anchors", "gradcheck"])
def test_a_negative_seed_is_one_error_naming_it(tmp_path, subcommand):
    write_files(tmp_path, valid_files())
    argv = command("anchors", tmp_path) if subcommand == "anchors" else ["gradcheck", "--out", "-"]
    status, out, err = run([*argv, "--seed", "-1"])
    assert (status, out, err) == (1, "", "error: --seed must be >= 0, got -1\n")


def test_eval_on_an_empty_dataset_is_one_error(tmp_path):
    files = valid_files()
    files["dataset.json"], files["preds.json"] = [], []
    write_files(tmp_path, files)
    status, out, err = run(command("eval", tmp_path))
    assert status == 1 and out == ""
    assert err == "error: the dataset holds no images: there is nothing to evaluate\n", err
    assert run(command("stats", tmp_path))[0] == 0


def test_missing_predictions_are_one_short_error(tmp_path):
    files = valid_files()
    record = files["dataset.json"][0]
    files["dataset.json"] = [dict(record, id=f"img{i:04d}.jpg") for i in range(500)]
    files["preds.json"] = [dict(files["preds.json"][0], id=f"img{i:04d}.jpg")
                           for i in range(490, 500)]
    write_files(tmp_path, files)
    status, out, err = run(command("eval", tmp_path))
    assert status == 1 and out == ""
    assert err == "error: image 'img0000.jpg': no prediction (and 489 more)\n", err
    assert len(err) < 200


@pytest.mark.parametrize("iou", ["-1", "2", "nan"])
def test_chain_iou_outside_the_unit_interval_is_one_error(tmp_path, iou):
    write_files(tmp_path, valid_files())
    status, out, err = run(command("chain", tmp_path) + ["--iou", iou])
    assert status == 1 and out == ""
    assert err == f"error: spatial_iou must be in [0,1], got {float(iou)}\n", err


@pytest.mark.parametrize("iou", ["0", "1"])
def test_chain_iou_at_the_bounds_is_accepted(tmp_path, iou):
    write_files(tmp_path, valid_files())
    assert run(command("chain", tmp_path) + ["--iou", iou])[0] == 0


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_fuse_non_finite_threshold_is_one_error(tmp_path, threshold):
    write_files(tmp_path, valid_files())
    status, out, err = run(command("fuse", tmp_path) + [f"--fusion-threshold={threshold}"])
    assert status == 1 and out == ""
    assert err == f"error: --fusion-threshold must be finite, got {float(threshold)}\n", err


# ---- property tests over arbitrary JSON ------------------------------------
#
# Each file is drawn well-formed, and half the time one value in it is
# replaced by an arbitrary JSON value or deleted: the whole file, a record,
# a field or a value deeper down, shallow ones more often. Fully random
# JSON almost never reaches the inner checks.

SCALARS = (st.none() | st.booleans() | st.integers(-3, 10**20) | st.floats()
           | st.text(max_size=4))
ANY = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)
IDS = st.sampled_from(["img0", "img1", "img2"])
VERBS = st.sampled_from(sorted(LEXICON))
NOUNS = st.sampled_from(VOCAB + [""])
COORD = st.integers(0, 110) | st.floats(0, 110)
SIDE = st.integers(1, 40) | st.floats(0.5, 40)
SIZE = st.integers(60, 160) | st.floats(60, 160)  # some boxes fall outside the image
BOX = st.builds(lambda x, y, w, h: [x, y, x + w, y + h], COORD, COORD, SIDE, SIDE)
OPTIONAL_BOX = st.none() | st.just([-1, -1, -1, -1]) | BOX


@st.composite
def corrupted(draw, well_formed):
    value = copy.deepcopy(draw(well_formed))
    if draw(st.booleans()):
        return value
    parent, key, node = None, None, value
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        parent = node
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    if parent is None:
        return draw(ANY)
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(ANY)
    return value


@st.composite
def image(draw, image_id):
    verb = draw(VERBS)
    roles = LEXICON[verb]
    ground = [r for r in roles if r != "Place"]
    rec = {"id": image_id, "width": draw(SIZE), "height": draw(SIZE),
           "verb": verb,
           "frames": [{r: draw(NOUNS) for r in roles} for _ in range(3)]}
    if draw(st.booleans()):
        rec["boxes"] = {r: draw(OPTIONAL_BOX) for r in ground}
    else:
        rec["worker_boxes"] = {r: draw(st.none() | st.lists(BOX, min_size=3, max_size=3))
                               for r in ground}
    return rec


@st.composite
def prediction(draw, image_id):
    verbs = draw(st.lists(VERBS, min_size=1, max_size=2, unique=True))
    frames = {v: {"nouns": {r: draw(NOUNS) for r in LEXICON[v]},
                  "boxes": {r: draw(OPTIONAL_BOX) for r in LEXICON[v]}} for v in verbs}
    if draw(st.booleans()):
        for v in verbs:
            frames[v]["grounded"] = {r: draw(st.booleans()) for r in LEXICON[v]}
    return {"id": image_id, "verbs": verbs, "frames": frames}


@st.composite
def fuse_detections(draw, image_id):
    boxes = draw(st.lists(BOX, max_size=3))
    nouns = draw(st.lists(NOUNS, max_size=3, unique=True))
    scores = [[draw(st.floats(-9, 9)) for _ in nouns] for _ in boxes]
    return {"id": image_id, "boxes": boxes, "nouns": nouns, "noun_scores": scores}


@st.composite
def object_detections(draw, image_id):
    boxes = draw(st.lists(BOX, max_size=3))
    return {"id": image_id, "classes": [draw(NOUNS) for _ in boxes], "boxes": boxes}


@st.composite
def situation(draw, image_id):
    verbs = [draw(VERBS) for _ in range(5)]
    entities = [[draw(NOUNS) for _ in LEXICON[v]] for v in verbs]
    boxes = [[draw(OPTIONAL_BOX) for _ in row] for row in entities]
    return {"id": image_id, "verbs": verbs, "entities": entities, "boxes": boxes}


@st.composite
def chain_node(draw):
    verb = draw(VERBS)
    roles = LEXICON[verb]
    node = {"verb": verb, "nouns": {r: draw(NOUNS) for r in roles},
            "boxes": {r: draw(OPTIONAL_BOX) for r in roles}, "query_box": draw(OPTIONAL_BOX)}
    if draw(st.booleans()):
        node["grounded"] = {r: draw(st.booleans()) for r in roles}
    return node


def records(make):
    """A file of up to three records with distinct ids."""
    return st.lists(IDS, max_size=3, unique=True).flatmap(
        lambda ids: st.tuples(*(make(i) for i in ids)).map(list))


DATASET_FILE = corrupted(records(image))
VOCAB_FILE = corrupted(st.just(VOCAB) | st.just({n: None for n in VOCAB}))
LEXICON_FILE = corrupted(st.just(LEXICON))
PREDICTIONS_FILE = corrupted(records(prediction))
FUSE_FILE = corrupted(records(fuse_detections))
OBJECTS_FILE = corrupted(records(object_detections))
SITUATIONS_FILE = corrupted(records(situation))
CHAIN_FILE = corrupted(st.lists(chain_node(), max_size=3))
BOXES_FILE = corrupted(st.lists(BOX, max_size=4))

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def loads_or_dataset_error(load, value, *args):
    try:
        load(io.StringIO(json.dumps(value)), *args)
    except DatasetError:
        pass


@PROPERTY
@given(dataset=DATASET_FILE, lexicon=LEXICON_FILE, vocab=VOCAB_FILE)
def test_validate_and_stats_agree_on_any_json(dataset, lexicon, vocab):
    loads_or_dataset_error(load_dataset, dataset, io.StringIO(json.dumps(lexicon)),
                           io.StringIO(json.dumps(vocab)))
    with tempfile.TemporaryDirectory() as d:
        write_files(d, {"dataset.json": dataset, "lexicon.json": lexicon, "vocab.json": vocab})
        v_status, v_out, _ = run(command("validate", d))
        s_status, s_out, s_err = run(command("stats", d))
    assert v_status in (0, 1) and s_status in (0, 1)
    assert (v_status == 0) == (s_status == 0), (v_out, s_err)
    if s_status:
        assert s_out == "" and s_err.count("\n") == 1 and s_err.startswith("error: ")


@PROPERTY
@given(preds=PREDICTIONS_FILE, fuse=FUSE_FILE, objects=OBJECTS_FILE,
       situations=SITUATIONS_FILE, nodes=CHAIN_FILE, boxes=BOXES_FILE)
def test_other_loaders_return_or_raise_dataset_error(preds, fuse, objects, situations,
                                                     nodes, boxes):
    loads_or_dataset_error(load_predictions, preds, parse_lexicon(LEXICON))
    loads_or_dataset_error(load_detection_sets, fuse)
    loads_or_dataset_error(load_object_detections, objects)
    loads_or_dataset_error(load_situations, situations)
    loads_or_dataset_error(load_chain_nodes, nodes)
    loads_or_dataset_error(load_boxes, boxes)


EDGE_COORD = st.sampled_from([-0.0, 5e-324, 1e308, 10**400, True, "1", float("nan"),
                              float("inf"), float("-inf"), -1, -1.0, 2**70])
AGREEMENT_BOX = (st.none() | st.just([-1, -1, -1, -1]) | st.just([-1.0, -1, -1, -1]) | BOX
                 | st.lists(EDGE_COORD | COORD, min_size=3, max_size=5)
                 | st.tuples(BOX, st.integers(0, 3), EDGE_COORD).map(  # one edge coordinate
                     lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:])
                 | st.sampled_from([[0, 0, 1e308, 10], [0, 0, 5e-324, 10], [0, 0, 10, 5e-324],
                                    [0, 0, 1e-300, 1e300], [0, 0, 1e300, 1e-300],
                                    [0, 0, 1.3e154, 1.4e154], [0, 0, 1.3e154, 6e153],
                                    [5e-324, 0, 1e-323, 1]]))  # area and aspect edges


@settings(PROPERTY, max_examples=400)
@given(box=AGREEMENT_BOX)
def test_a_prediction_box_is_accepted_exactly_when_parse_box_accepts_it(box):
    where = "prediction 'x', frames['jumping'], boxes['Agent']"
    preds = [{"id": "x", "verbs": ["jumping"], "frames": {"jumping": {
        "nouns": {"Agent": "man", "Place": "street"}, "boxes": {"Agent": box}}}}]
    try:
        expected = parse_box(box, where)
    except DatasetError as e:
        with pytest.raises(DatasetError) as got:
            load_predictions(preds, parse_lexicon(LEXICON))
        assert str(got.value) == str(e)
        return
    row = load_predictions(preds, parse_lexicon(LEXICON)).boxes[0].tolist()
    # -0.0 and 0.0 compare equal; their hex forms do not
    assert (None if row[0] != row[0] else [c.hex() for c in row]) == (
        None if expected is None else [c.hex() for c in expected.as_list()])


@pytest.mark.parametrize("nouns", [[], ["man", "dough"]], ids=["no-nouns", "nouns"])
def test_fuse_accepts_a_detection_record_without_boxes(tmp_path, nouns):
    files = valid_files()
    files["dets.json"][0].update(boxes=[], nouns=nouns, noun_scores=[])
    write_files(tmp_path, files)
    status, out, err = run(command("fuse", tmp_path))
    assert (status, err) == (0, "")
    [record] = json.loads(out)
    assert record["frames"]["kneading"]["boxes"] == {"Agent": None, "Item": None, "Place": None}


def test_a_clamped_box_is_one_warning_line_from_validate_and_stats(tmp_path):
    files = valid_files()
    files["dataset.json"][0]["boxes"]["Agent"] = [0, 0, 150, 80]  # the image is 100 wide
    write_files(tmp_path, files)
    warning = "image 'img1.jpg', role 'Agent': box clamped to image bounds"
    status, out, err = run(command("validate", tmp_path))
    assert (status, out, err) == (0, "ok\n", f"warning: {tmp_path}/dataset.json: {warning}\n")
    status, out, err = run(command("stats", tmp_path))
    assert (status, err) == (0, f"warning: {warning}\n")
    assert json.loads(out)["scale_aspect_samples"][0]["scale"] == 1.0  # 1.5 before clamping


def test_embedding_manifest_one_id_short_is_one_error_naming_it(tmp_path):
    write_embeddings(tmp_path / "emb.swge", ["img0", "img1"], np.eye(2, 3))
    (tmp_path / "emb.swge.ids").write_text("img0\n")
    (tmp_path / "ids.txt").write_text("img0\n")
    status, out, err = run(["retrieve", "--mode", "l2", "--query", f"{tmp_path}/ids.txt",
                            "--search", f"{tmp_path}/ids.txt",
                            "--embeddings", f"{tmp_path}/emb.swge", "--out", "-"])
    assert status == 1 and out == ""
    assert err == f"error: {tmp_path}/emb.swge.ids: 1 ids for 2 rows\n", err
