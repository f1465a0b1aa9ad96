import errno
import gc
import json
import os

import numpy as np
import pytest

from swig_toolkit import cli
from swig_toolkit.chaining import chain
from swig_toolkit.cli import main
from swig_toolkit.dataset_io import compute_stats, load_chain_nodes, load_dataset, load_predictions
from swig_toolkit.metrics import VerbSetting, evaluate

LEXICON = {"kneading": ["Agent", "Item", "Place"], "jumping": ["Agent", "Place"]}
VOCAB = ["man", "woman", "dough", "kitchen", "street"]


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "lexicon.json").write_text(json.dumps(LEXICON))
    (tmp_path / "vocab.json").write_text(json.dumps(VOCAB))
    dataset = [
        {
            "id": "img1.jpg", "width": 100, "height": 100, "verb": "kneading",
            "frames": [
                {"Agent": "man", "Item": "dough", "Place": "kitchen"},
                {"Agent": "man", "Item": "dough", "Place": "kitchen"},
                {"Agent": "woman", "Item": "dough", "Place": ""},
            ],
            "boxes": {"Agent": [0, 0, 50, 80], "Item": [20, 30, 40, 50], "Place": None},
        }
    ]
    (tmp_path / "dataset.json").write_text(json.dumps(dataset))
    predictions = [
        {
            "id": "img1.jpg", "verbs": ["kneading", "jumping"],
            "frames": {
                "kneading": {
                    "nouns": {"Agent": "man", "Item": "dough", "Place": "kitchen"},
                    "boxes": {"Agent": [0, 0, 50, 80], "Item": [20, 30, 40, 50], "Place": None},
                }
            },
        }
    ]
    (tmp_path / "preds.json").write_text(json.dumps(predictions))
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestValidate:
    def test_valid_dataset(self, workspace, capsys):
        assert run(["validate", workspace / "dataset.json",
                    "--lexicon", workspace / "lexicon.json",
                    "--vocab", workspace / "vocab.json"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_place_grounded_fails(self, workspace, capsys):
        bad = json.loads((workspace / "dataset.json").read_text())
        bad[0]["boxes"]["Place"] = [0, 0, 10, 10]
        (workspace / "bad.json").write_text(json.dumps(bad))
        assert run(["validate", workspace / "bad.json",
                    "--lexicon", workspace / "lexicon.json",
                    "--vocab", workspace / "vocab.json"]) == 1
        assert "place-grounded" in capsys.readouterr().out


class TestStats:
    def test_report_written(self, workspace):
        out = workspace / "stats.json"
        assert run(["stats", workspace / "dataset.json",
                    "--lexicon", workspace / "lexicon.json",
                    "--vocab", workspace / "vocab.json", "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["total_noun_slots"] == 9
        assert report["non_null_slots"] == 8
        assert report["role_grounding_rate"]["Place"] == 0.0

    def test_stdout_streaming(self, workspace, capsys):
        assert run(["stats", workspace / "dataset.json",
                    "--lexicon", workspace / "lexicon.json",
                    "--vocab", workspace / "vocab.json", "--out", "-"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_images"] == 1


class TestEval:
    def test_perfect_predictions(self, workspace, capsys):
        out = workspace / "report.json"
        assert run(["eval", "--dataset", workspace / "dataset.json",
                    "--preds", workspace / "preds.json",
                    "--lexicon", workspace / "lexicon.json",
                    "--vocab", workspace / "vocab.json",
                    "--setting", "gt", "--out", out]) == 0
        report = json.loads(out.read_text())
        assert all(v == 1.0 for v in report["macro"].values())

    def test_missing_prediction_is_failure(self, workspace, capsys):
        (workspace / "empty.json").write_text("[]")
        assert run(["eval", "--dataset", workspace / "dataset.json",
                    "--preds", workspace / "empty.json",
                    "--lexicon", workspace / "lexicon.json",
                    "--vocab", workspace / "vocab.json", "--out", "-"]) == 1


DETECTIONS = [
    {
        "id": "img1.jpg",
        "boxes": [[0, 0, 50, 80], [20, 30, 40, 50]],
        "nouns": ["man", "dough", "kitchen"],
        "noun_scores": [[3.0, -9.0, 0.0], [-9.0, 5.0, 0.0]],
    }
]


def fuse_pred(image_id="a", **frames):
    """A prediction record ranking `frames`' verbs in order, each {role: noun}, no boxes."""
    return {"id": image_id, "verbs": list(frames),
            "frames": {verb: {"nouns": nouns, "boxes": {}} for verb, nouns in frames.items()}}


def fuse_det(image_id="a", **overrides):
    return {"id": image_id, "boxes": [[0, 0, 5, 5], [1, 1, 4, 4]], "nouns": ["man", "dough"],
            "noun_scores": [[1.0, -9.0], [2.0, 3.0]], **overrides}


KNEADING = {"Agent": "man", "Item": "dough", "Place": "kitchen"}
NAN, HUGE = float("nan"), 10 ** 400  # json writes 10 ** 400 as its digits, too large for a float
TWO_FAULTS = [  # (case, predictions, detections, the one error line: the first fault)
    ("non-finite-logit-then-malformed-box-in-the-next-record",
     [fuse_pred(kneading=KNEADING)],
     [fuse_det(noun_scores=[[1.0, NAN], [2.0, 3.0]]), fuse_det("b", boxes=["x"])],
     "detections 'a', noun_scores: must be finite"),
    ("non-finite-logit-then-record-not-an-object",
     [fuse_pred(kneading=KNEADING)], [fuse_det(noun_scores=[[1.0, 2.0], [NAN, 3.0]]), 7],
     "detections 'a', noun_scores: must be finite"),
    ("over-large-int-then-nan-in-one-record",
     [fuse_pred(kneading=KNEADING)], [fuse_det(noun_scores=[[HUGE, NAN], [2.0, 3.0]])],
     "detections 'a', noun_scores: int too large to convert to float"),
    ("nan-then-over-large-int-in-one-record",
     [fuse_pred(kneading=KNEADING)], [fuse_det(noun_scores=[[NAN, 1.0], [2.0, HUGE]])],
     "detections 'a', noun_scores: int too large to convert to float"),
    ("nan-then-over-large-int-in-the-next-record",
     [fuse_pred(kneading=KNEADING)], [fuse_det(noun_scores=[[NAN, 1.0], [2.0, 3.0]]),
                                      fuse_det("b", noun_scores=[[HUGE, 1.0], [2.0, 3.0]])],
     "detections 'a', noun_scores: must be finite"),
    ("prediction-fault-and-detection-fault",
     [dict(fuse_pred(kneading=KNEADING), verbs=[])], [fuse_det(noun_scores=[[NAN, 1.0], [2.0, 3.0]])],
     "prediction 'a', verbs: must be a non-empty list"),
    ("absent-noun-then-record-without-detections",
     [fuse_pred(kneading=dict(KNEADING, Item="bread")), fuse_pred("b", kneading=KNEADING)], [fuse_det()],
     "image 'a', verb 'kneading', role 'Item': noun 'bread' absent from detection vocabulary"),
    ("absent-noun-in-a-later-record",
     [fuse_pred(kneading=KNEADING), fuse_pred("b", kneading=dict(KNEADING, Agent="cat"))],
     [fuse_det(), fuse_det("b")],
     "image 'b', verb 'kneading', role 'Agent': noun 'cat' absent from detection vocabulary"),
    ("absent-nouns-in-two-verbs-sorted-verb-first",  # kneading comes first in the file and the ranking
     [fuse_pred(kneading=dict(KNEADING, Agent="cat"), jumping={"Place": "street", "Agent": "dog"})],
     [fuse_det()],
     "image 'a', verb 'jumping', role 'Agent': noun 'dog' absent from detection vocabulary"),
    ("absent-nouns-in-two-roles-lexicon-role-first",  # the file names Item before Agent
     [fuse_pred(kneading={"Item": "bread", "Agent": "cat", "Place": "kitchen"})], [fuse_det()],
     "image 'a', verb 'kneading', role 'Agent': noun 'cat' absent from detection vocabulary"),
]


class TestFuse:
    def test_boxes_assigned(self, workspace, capsys):
        (workspace / "dets.json").write_text(json.dumps(DETECTIONS))
        out = workspace / "fused.json"
        assert run(["fuse", "--frames", workspace / "preds.json",
                    "--detections", workspace / "dets.json",
                    "--lexicon", workspace / "lexicon.json", "--out", out]) == 0
        fused = json.loads(out.read_text())
        frame = fused[0]["frames"]["kneading"]
        assert frame["boxes"]["Agent"] == [0, 0, 50, 80]
        assert frame["boxes"]["Item"] == [20, 30, 40, 50]
        assert frame["boxes"]["Place"] is None

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
    def test_the_collector_is_paused_while_fusing_and_restored(self, workspace, monkeypatch,
                                                               enabled):
        (workspace / "dets.json").write_text(json.dumps(DETECTIONS))
        during = []  # the collector's state as each record is encoded, while it is written
        encode = cli._encode
        monkeypatch.setattr(cli, "_encode", lambda *a: (during.append(gc.isenabled()), encode(*a))[1])
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(["fuse", "--frames", workspace / "preds.json",
                        "--detections", workspace / "dets.json",
                        "--lexicon", workspace / "lexicon.json", "--out", workspace / "f.json"]) == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False]

    @pytest.mark.parametrize("out", ["-", "fused.json"])
    def test_a_later_record_without_detections_writes_nothing(self, workspace, capsys, out):
        preds = json.loads((workspace / "preds.json").read_text())
        (workspace / "preds.json").write_text(json.dumps(preds + [dict(preds[0], id="img2.jpg")]))
        (workspace / "dets.json").write_text(json.dumps(DETECTIONS))
        before = sorted(os.listdir(workspace))
        assert run(["fuse", "--frames", workspace / "preds.json", "--detections", workspace / "dets.json",
                    "--lexicon", workspace / "lexicon.json",
                    "--out", out if out == "-" else workspace / out]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: no detections for image 'img2.jpg'\n"
        assert sorted(os.listdir(workspace)) == before  # no output file, and no temp file

    @pytest.mark.parametrize("out", ["-", "fused.json"])
    @pytest.mark.parametrize("preds,dets,error", [case[1:] for case in TWO_FAULTS],
                             ids=[case[0] for case in TWO_FAULTS])
    def test_a_file_with_two_faults_prints_the_first_and_writes_nothing(self, tmp_path, capsys,
                                                                         preds, dets, error, out):
        (tmp_path / "lexicon.json").write_text(json.dumps(LEXICON))
        (tmp_path / "preds.json").write_text(json.dumps(preds))
        (tmp_path / "dets.json").write_text(json.dumps(dets))  # a float NaN is written as NaN
        before = sorted(os.listdir(tmp_path))
        assert run(["fuse", "--frames", tmp_path / "preds.json", "--detections", tmp_path / "dets.json",
                    "--lexicon", tmp_path / "lexicon.json",
                    "--out", out if out == "-" else tmp_path / out]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {error}\n")
        assert sorted(os.listdir(tmp_path)) == before


class TestRetrieve:
    def test_sit_mode(self, workspace):
        sits = []
        for i in range(4):
            sits.append({
                "id": f"img{i}",
                "verbs": ["kneading", "a", "b", "c", "d"],
                "entities": [["man", "dough", "kitchen"], ["x"], ["x"], ["x"], ["x"]],
                "boxes": [[None, None, None], [None], [None], [None], [None]],
            })
        (workspace / "sits.json").write_text(json.dumps(sits))
        (workspace / "query.txt").write_text("img0\n")
        (workspace / "search.txt").write_text("img0\nimg1\nimg2\n")
        out = workspace / "ranked.json"
        assert run(["retrieve", "--mode", "sit",
                    "--query", workspace / "query.txt",
                    "--search", workspace / "search.txt",
                    "--situations", workspace / "sits.json",
                    "--k", "2", "--out", out]) == 0
        ranked = json.loads(out.read_text())
        assert ranked["img0"][0] == {"id": "img0", "score": 1.0}

    def test_l2_mode(self, workspace):
        from swig_toolkit.retrieval import write_embeddings

        ids = ["img0", "img1", "img2"]
        matrix = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]], dtype=np.float32)
        write_embeddings(workspace / "feats.swge", ids, matrix)
        (workspace / "query.txt").write_text("img0\n")
        (workspace / "search.txt").write_text("img1\nimg2\n")
        out = workspace / "ranked.json"
        assert run(["retrieve", "--mode", "l2",
                    "--query", workspace / "query.txt",
                    "--search", workspace / "search.txt",
                    "--embeddings", workspace / "feats.swge",
                    "--out", out]) == 0
        ranked = json.loads(out.read_text())
        assert [r["id"] for r in ranked["img0"]] == ["img2", "img1"]


class TestChainCommand:
    def test_graph_output(self, workspace):
        sits = [
            {"verb": "kneading",
             "nouns": {"Agent": "man", "Item": "dough", "Place": "kitchen"},
             "boxes": {"Agent": [0, 0, 10, 10], "Item": None, "Place": None}},
            {"verb": "jumping",
             "nouns": {"Agent": "man", "Place": "street"},
             "boxes": {"Agent": [0, 0, 10, 10], "Place": None},
             "query_box": [1, 2, 30, 40]},
        ]
        (workspace / "sits.json").write_text(json.dumps(sits))
        out = workspace / "graph.json"
        assert run(["chain", "--situations", workspace / "sits.json",
                    "--iou", "0.4", "--out", out]) == 0
        graph = json.loads(out.read_text())
        types = {e["type"] for e in graph["edges"]}
        assert types == {"spatial", "semantic"}
        assert graph["nodes"] == [
            {"verb": "kneading",
             "nouns": {"Agent": "man", "Item": "dough", "Place": "kitchen"},
             "boxes": {"Agent": [0.0, 0.0, 10.0, 10.0], "Item": None, "Place": None},
             "query_box": None},
            {"verb": "jumping",
             "nouns": {"Agent": "man", "Place": "street"},
             "boxes": {"Agent": [0.0, 0.0, 10.0, 10.0], "Place": None},
             "query_box": [1.0, 2.0, 30.0, 40.0]},
        ]


class TestWrittenJsonIsTheLibraryResult:
    """`--out -` prints the library's result itself, so each schema has one form."""

    def check(self, argv, result, capsys):
        assert run([*argv, "--out", "-"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(result))

    def test_eval(self, workspace, capsys):
        files = [str(workspace / f) for f in ("dataset.json", "lexicon.json", "vocab.json")]
        dataset = load_dataset(*files)
        preds = load_predictions(str(workspace / "preds.json"), dataset.lexicon)
        self.check(["eval", "--dataset", files[0], "--preds", workspace / "preds.json",
                    "--lexicon", files[1], "--vocab", files[2], "--setting", "top5"],
                   evaluate(dataset, preds, VerbSetting.TOP5), capsys)

    def test_stats(self, workspace, capsys):
        files = [str(workspace / f) for f in ("dataset.json", "lexicon.json", "vocab.json")]
        self.check(["stats", files[0], "--lexicon", files[1], "--vocab", files[2]],
                   compute_stats(load_dataset(*files)), capsys)

    def test_chain(self, workspace, capsys):
        sits = [{"verb": "jumping", "nouns": {"Agent": "man", "Place": "street"},
                 "boxes": {"Agent": [0, 0, 10, 10], "Place": None}, "query_box": [1, 2, 30, 40]},
                {"verb": "kneading", "nouns": {"Agent": "man", "Item": "dough", "Place": ""},
                 "boxes": {"Agent": [0, 1, 10, 10], "Item": [5, 5, 8, 8]}}]
        (workspace / "sits.json").write_text(json.dumps(sits))
        graph = chain(load_chain_nodes(sits))
        assert {e["type"] for e in graph["edges"]} == {"spatial", "semantic"}
        self.check(["chain", "--situations", workspace / "sits.json"], graph, capsys)


class TestAnchors:
    def test_ratios_printed(self, workspace, capsys):
        boxes = [[0, 0, 20, 10]] * 5 + [[0, 0, 10, 20]] * 5
        (workspace / "boxes.json").write_text(json.dumps(boxes))
        assert run(["anchors", "--boxes", workspace / "boxes.json",
                    "--k", "2", "--seed", "17"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aspect_ratios"] == pytest.approx([0.5, 2.0])


class TestGradcheck:
    def test_passes(self, workspace, capsys):
        assert run(["gradcheck", "--trials", "20", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "focal_loss" in out and "smoothed_ce" in out and "l1_reg" in out


class TestDeterminism:
    def test_thread_flag_does_not_change_output(self, workspace):
        out1, out8 = workspace / "r1.json", workspace / "r8.json"
        for threads, out in (("1", out1), ("8", out8)):
            assert run(["--threads", threads, "stats", workspace / "dataset.json",
                        "--lexicon", workspace / "lexicon.json",
                        "--vocab", workspace / "vocab.json", "--out", out]) == 0
        assert out1.read_bytes() == out8.read_bytes()


class TestCanonicalForm:
    """Every subcommand writes one line of compact, key-sorted JSON, the same
    bytes to a file as to stdout."""

    @pytest.fixture
    def argv(self, workspace):
        w = workspace
        (w / "dets.json").write_text(json.dumps([{
            "id": "img1.jpg", "boxes": [[0, 0, 50, 80], [20, 30, 40, 50]],
            "nouns": ["man", "dough", "kitchen"],
            "noun_scores": [[3.0, -9.0, 0.0], [-9.0, 5.0, 0.0]],
        }]))
        (w / "sits.json").write_text(json.dumps([{
            "id": f"img{i}", "verbs": ["kneading", "a", "b", "c", "d"],
            "entities": [["man", "dough", "kitchen"], ["x"], ["x"], ["x"], ["x"]],
            "boxes": [[[0, 0, 10 + i, 10], None, None], [None], [None], [None], [None]],
        } for i in range(3)]))
        (w / "chain.json").write_text(json.dumps([
            {"verb": "kneading", "nouns": {"Agent": "man", "Item": "dough", "Place": "kitchen"},
             "boxes": {"Agent": [0, 0, 10, 10], "Item": None, "Place": None}},
            {"verb": "jumping", "nouns": {"Agent": "man", "Place": "street"},
             "boxes": {"Agent": [0, 0, 10, 10], "Place": None}, "query_box": [1, 2, 30, 40]},
        ]))
        (w / "boxes.json").write_text(json.dumps([[0, 0, 20, 10]] * 5 + [[0, 0, 10, 20]] * 5))
        (w / "ids.txt").write_text("img0\nimg1\nimg2\n")
        data = ["--lexicon", w / "lexicon.json", "--vocab", w / "vocab.json"]
        return {
            "eval": ["eval", "--dataset", w / "dataset.json", "--preds", w / "preds.json", *data],
            "stats": ["stats", w / "dataset.json", *data],
            "fuse": ["fuse", "--frames", w / "preds.json", "--detections", w / "dets.json",
                     "--lexicon", w / "lexicon.json"],
            "chain": ["chain", "--situations", w / "chain.json"],
            "anchors": ["anchors", "--boxes", w / "boxes.json", "--k", "2"],
            "retrieve": ["retrieve", "--mode", "grsit", "--query", w / "ids.txt",
                         "--search", w / "ids.txt", "--situations", w / "sits.json"],
            "gradcheck": ["gradcheck", "--trials", "3"],
        }

    @pytest.mark.parametrize("name", ["eval", "stats", "fuse", "chain", "anchors", "retrieve",
                                      "gradcheck"])
    def test_file_and_stdout_hold_the_same_canonical_line(self, workspace, argv, capsys, name):
        out = workspace / f"{name}-out.json"
        assert run([*argv[name], "--out", out]) == 0
        capsys.readouterr()
        assert run([*argv[name], "--out", "-"]) == 0
        text = capsys.readouterr().out
        assert out.read_bytes() == text.encode()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
        assert text.count("\n") == 1

    @pytest.mark.parametrize("existing", [False, True], ids=["absent", "file"])
    @pytest.mark.parametrize("name", ["gradcheck", "stats", "retrieve"])
    def test_an_out_that_ends_in_a_separator_is_one_error_naming_it(self, workspace, argv, capsys,
                                                                      name, existing):
        (workspace / "d").mkdir()
        if existing:
            (workspace / "d" / "out.json").write_text("{}")
        out = f"{workspace / 'd' / 'out.json'}{os.sep}"
        assert run([*argv[name], "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: [Errno {errno.EISDIR}] Is a directory: {out!r}\n"
        assert os.listdir(workspace / "d") == (["out.json"] if existing else [])
        assert not existing or (workspace / "d" / "out.json").read_text() == "{}"

    @pytest.mark.parametrize("out,code", [("", errno.ENOENT), (".", errno.EISDIR), ("..", errno.EISDIR),
                                          ("e", errno.EISDIR), (os.path.join("..", "d"), errno.EISDIR)],
                             ids=["empty", "cwd", "parent", "relative", "relative-up"])
    @pytest.mark.parametrize("name", ["gradcheck", "stats", "retrieve"])
    def test_an_out_that_names_no_file_is_one_error_naming_it_as_given(self, workspace, argv, capsys,
                                                                        monkeypatch, name, out, code):
        (workspace / "d" / "e").mkdir(parents=True)
        monkeypatch.chdir(workspace / "d")
        listing = {p: sorted(os.listdir(p)) for p in (workspace, workspace / "d", workspace / "d" / "e")}
        assert run([*argv[name], "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: [Errno {code}] {os.strerror(code)}: {out!r}\n"
        assert {p: sorted(os.listdir(p)) for p in listing} == listing
