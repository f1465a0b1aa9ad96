"""The benchmark's workloads: the operations each one runs, the reference
outputs they are checked against, and the checks.

References come from `tests/oracles.py` where an oracle exists
(`evaluate_naive`, `topk_naive`, `nms_naive`) and from the generator's
known counts or an independent re-derivation otherwise. They are computed
once per seed and cached beside the fixtures, outside any timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np
from oracles import evaluate_naive, iou_exact, nms_naive, topk_naive
from swig_toolkit.frame_model import BoundingBox
from swig_toolkit.geometry import ScoredBox
from swig_toolkit.retrieval import (
    DetectionList,
    SituationPrediction,
    gr_sit_sim,
    l2_similarity,
    obj_sim,
    sit_sim,
)


@dataclass(frozen=True)
class Op:
    label: str  # e.g. "eval.top1"; the part after the first dot names the setting/mode/regime
    kind: str  # "cli": `python3 -m swig_toolkit.cli ARGV`; "lib": `python3 perfbench/libop.py ARGV`
    argv: tuple
    inputs: tuple  # fixture files the operation reads
    out: Optional[str]  # output file, None when the result is the exit status and stdout


@dataclass(frozen=True)
class Failure:
    cause: str
    declared: bool = False  # a known defect named in CHANGES.md, still counted as failed


def _load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _box(raw):
    return None if raw is None or raw == [-1, -1, -1, -1] else BoundingBox(*map(float, raw))


# Plain records with the attributes evaluate_naive reads, built straight from
# the files so that the reference shares no parsing code with the toolkit.
Box = namedtuple("Box", "x1 y1 x2 y2")
Frame = namedtuple("Frame", "roles role_values groundings")
Image = namedtuple("Image", "image_id verb annotator_frames gt_groundings")
Prediction = namedtuple("Prediction", "image_id verb_ranking frames")
Split = namedtuple("Split", "images")


def _plain_box(raw):
    return None if raw is None or raw == [-1, -1, -1, -1] else Box(*map(float, raw))


def _clamp(box, w, h):
    return box and Box(*(min(max(c, 0.0), lim) for c, lim in zip(box, (w, h, w, h))))


def _exit_failure(res) -> Optional[Failure]:
    if res.rc == 0:
        return None
    with open(res.stderr, "r", encoding="utf-8", errors="replace") as f:
        lines = f.read().strip().splitlines()
    return Failure(f"exit {res.rc}: {lines[-1] if lines else '(no stderr)'}")


class Workload:
    name = ""

    def __init__(self, fx: str, work: str, traffic: dict):
        self.fx, self.work, self.traffic = fx, work, traffic
        self.meta = _load(self.path("meta.json"))

    def path(self, name):
        return os.path.join(self.fx, name)

    def out(self, label):
        return os.path.join(self.work, label + ".json")

    def cli(self, label, inputs, *argv, out=True):
        return Op(label, "cli", tuple(argv) + (("--out", self.out(label)) if out else ()),
                  inputs, self.out(label) if out else None)

    def reference(self) -> dict:
        """The cached reference for this seed, computed on first use and
        recomputed whenever this file changes."""
        with open(__file__, "rb") as f:
            version = hashlib.sha256(f.read()).hexdigest()[:12]
        path = self.path(f"expected-{self.name}-{version}.json")
        if not os.path.exists(path):
            tmp = f"{path}.tmp{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(self.compute_reference(), f)
            os.replace(tmp, path)
        return _load(path)

    def compute_reference(self) -> dict:
        return {}

    def layer_counts(self, ref) -> dict:
        """Per-layer counts known from the fixtures and the reference."""
        return {}

    def check(self, op: Op, res, ref) -> Optional[Failure]:
        failure = _exit_failure(res)
        if failure is None:
            failure = self.check_output(op, _load(op.out) if op.out else None, res, ref)
        return failure


class EvalSplit(Workload):
    name = "eval-split"
    SETTINGS = ("top1", "top5", "gt")
    FILES = ("lexicon.json", "vocab.json", "dataset.json", "preds.json")

    def ops(self):
        return [self.cli(f"eval.{s}", self.FILES, "eval", "--dataset", self.path("dataset.json"),
                         "--preds", self.path("preds.json"), "--lexicon", self.path("lexicon.json"),
                         "--vocab", self.path("vocab.json"), "--setting", s)
                for s in self.SETTINGS]

    def compute_reference(self):
        lexicon = {verb: tuple(roles) for verb, roles in _load(self.path("lexicon.json")).items()}
        images = []
        for rec in _load(self.path("dataset.json")):
            roles = lexicon[rec["verb"]]
            frames = tuple(Frame(roles, tuple((r, f[r]) for r in roles), None) for f in rec["frames"])
            gt = {r: _clamp(_plain_box(rec["boxes"].get(r)), rec["width"], rec["height"]) for r in roles}
            images.append(Image(rec["id"], rec["verb"], frames, gt))
        preds = [Prediction(rec["id"], tuple(rec["verbs"]), {
            verb: Frame(lexicon[verb], tuple((r, f["nouns"][r]) for r in lexicon[verb]),
                        tuple(_plain_box(f["boxes"].get(r)) for r in lexicon[verb]))
            for verb, f in rec["frames"].items()}) for rec in _load(self.path("preds.json"))]
        return {s: evaluate_naive(Split(images), preds, s) for s in self.SETTINGS}

    def layer_counts(self, ref):
        return {"metrics.role_slots": len(self.SETTINGS) * self.meta["role_slots"]}

    def check_output(self, op, out, res, ref):
        ipv = self.traffic["split"]["images_per_verb"]
        counts = {verb: {"images": ipv, "role_slots": ipv * len(roles)}
                  for verb, roles in _load(self.path("lexicon.json")).items()}
        if out["counts"] != counts:
            return Failure("per-verb image and role-slot counts differ from the generator's")
        expected = dict(ref[op.label.split(".", 1)[1]])
        macro = expected.pop("_macro")
        if out["per_verb"] != expected:
            bad = sorted(v for v in expected if out["per_verb"].get(v) != expected[v])
            return Failure(f"per-verb scores differ from evaluate_naive for {len(bad)} verbs, e.g. {bad[:3]}")
        if out["macro"] != macro:
            return Failure(f"macro row {out['macro']} differs from evaluate_naive {macro}")
        return None


class IngestWrite(Workload):
    name = "ingest-write"
    FILES = ("lexicon.json", "vocab.json", "dataset.json")

    def ops(self):
        data = (self.path("dataset.json"), "--lexicon", self.path("lexicon.json"),
                "--vocab", self.path("vocab.json"))
        return [
            self.cli("validate", self.FILES, "validate", *data, out=False),
            self.cli("stats", self.FILES, "stats", *data),
            self.cli("fuse", ("lexicon.json", "preds.json", "fuse_dets.json"), "fuse",
                     "--frames", self.path("preds.json"), "--detections", self.path("fuse_dets.json"),
                     "--lexicon", self.path("lexicon.json"),
                     "--fusion-threshold", str(self.traffic["fusion"]["fusion_threshold"])),
        ]

    def compute_reference(self):
        """Late fusion re-derived: per non-null, non-Place role, the first box
        with the highest logit for the role's noun, if it reaches the threshold."""
        threshold = self.traffic["fusion"]["fusion_threshold"]
        lexicon = _load(self.path("lexicon.json"))
        dets = {d["id"]: d for d in _load(self.path("fuse_dets.json"))}
        fused, eligible, grounded = [], 0, 0
        for rec in _load(self.path("preds.json")):
            det = dets[rec["id"]]
            scores = np.asarray(det["noun_scores"], dtype=np.float64)
            column = {n: i for i, n in enumerate(det["nouns"])}
            frames = {}
            for verb, frame in rec["frames"].items():
                boxes = {}
                for role in lexicon[verb]:
                    noun, box = frame["nouns"][role], None
                    if noun and role != "Place" and det["boxes"]:
                        eligible += 1
                        col = scores[:, column[noun]]
                        best = int(np.argmax(col))
                        if col[best] >= threshold:
                            box = [float(c) for c in det["boxes"][best]]
                            grounded += 1
                    boxes[role] = box
                frames[verb] = {"nouns": {r: frame["nouns"][r] for r in lexicon[verb]}, "boxes": boxes}
            fused.append({"id": rec["id"], "verbs": rec["verbs"], "frames": frames})
        return {"fuse_digest": _digest(fused), "eligible": eligible, "grounded": grounded}

    def layer_counts(self, ref):
        return {"fusion.grounded_ratio": ref["grounded"] / ref["eligible"]}

    def check(self, op, res, ref):
        if op.label != "validate":
            return super().check(op, res, ref)
        # every record of the fixture loads with load_dataset, so validate must accept the file
        with open(res.stdout, "r", encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
        if res.rc == 0 and lines[-1:] == ["ok"]:
            return None
        rules = {}
        for line in lines[:-1]:
            rule = line.split(": ")[-1].split(" ")[0]
            rules[rule] = rules.get(rule, 0) + 1
        if res.rc == 1 and set(rules) == {"null-noun-grounded"}:
            return Failure(f"validate rejects a file that load_dataset accepts: "
                           f"{rules['null-noun-grounded']} null-noun-grounded (gt box on a role "
                           f"an annotator left null)", declared=True)
        return _exit_failure(res) or Failure(f"validate printed {lines[-1:]}, violations {rules}")

    def check_output(self, op, out, res, ref):
        m = self.meta
        if op.label == "stats":
            got = (out["total_images"], out["total_verbs"], out["total_noun_slots"],
                   out["non_null_slots"], out["grounded_slots"], out["grounded_fraction"],
                   len(out["scale_aspect_samples"]))
            want = (m["images"], m["verbs"], m["noun_slots"], m["non_null_slots"], m["grounded_slots"],
                    round(m["grounded_slots"] / m["non_null_slots"], 4), m["gt_boxes"])
            if got != want:
                return Failure(f"stats counts {got} differ from the generator's {want}")
            with open(res.stderr, "r", encoding="utf-8") as f:
                clamped = sum("clamped" in line for line in f)
            if clamped != m["clamped"]:
                return Failure(f"{clamped} clamp warnings, the generator clamped {m['clamped']} boxes")
            return None
        if _digest(out) != ref["fuse_digest"]:
            return Failure("fused predictions differ from the re-derived late fusion")
        return None


class RetrieveSplit(Workload):
    name = "retrieve-split"
    MODES = {"l2": ("--embeddings", "emb.swge"), "sit": ("--situations", "situations.json"),
             "grsit": ("--situations", "situations.json"), "obj": ("--detections", "obj_dets.json")}

    def ops(self):
        k = str(self.traffic["retrieval"]["k"])
        return [self.cli(f"retrieve.{mode}", (src,), "retrieve", "--mode", mode,
                         "--query", self.path("query.txt"), "--search", self.path("search.txt"),
                         "--k", k, flag, self.path(src))
                for mode, (flag, src) in self.MODES.items()]

    def compute_reference(self):
        with open(self.path("query.txt"), encoding="utf-8") as f:
            query = f.read().split()
        with open(self.path("search.txt"), encoding="utf-8") as f:
            search = f.read().split()
        with open(self.path("emb.swge"), "rb") as f:
            count, dim = np.frombuffer(f.read(12)[4:], dtype="<u4")
            rows = np.frombuffer(f.read(), dtype="<f4").reshape(count, dim)
        with open(self.path("emb.swge.ids"), encoding="utf-8") as f:
            emb = dict(zip(f.read().split(), rows))
        sits = {r["id"]: SituationPrediction(tuple(r["verbs"]), tuple(map(tuple, r["entities"])),
                                             tuple(tuple(_box(b) for b in row) for row in r["boxes"]))
                for r in _load(self.path("situations.json"))}
        dets = {r["id"]: DetectionList(tuple(r["classes"]), tuple(_box(b) for b in r["boxes"]))
                for r in _load(self.path("obj_dets.json"))}
        sims = {"l2": lambda q, s: l2_similarity(emb[q], emb[s]),
                "sit": lambda q, s: sit_sim(sits[q], sits[s]),
                "grsit": lambda q, s: gr_sit_sim(sits[q], sits[s]),
                "obj": lambda q, s: obj_sim(dets[q], dets[s])}
        k = self.traffic["retrieval"]["k"]
        return {mode: {q: [[i, float(s)] for i, s in topk_naive(q, search, sim, k)] for q in query}
                for mode, sim in sims.items()}

    def layer_counts(self, ref):
        return {"retrieval.shared_verb_ratio": self.meta["shared_verb_pairs"] / self.meta["retrieval_pairs"]}

    def check_output(self, op, out, res, ref):
        expected = ref[op.label.split(".", 1)[1]]
        got = {q: [[r["id"], r["score"]] for r in rows] for q, rows in out.items()}
        if got != expected:
            bad = sorted(q for q in expected if got.get(q) != expected[q])
            return Failure(f"top-k differs from topk_naive for {len(bad)} queries, e.g. {bad[:2]}")
        return None


class GeometryKernels(Workload):
    name = "geometry-kernels"

    def ops(self):
        g = self.traffic["geometry"]
        ops = [Op(f"nms.{regime}", "lib", ("nms", self.path(f"nms_{regime}.json"), self.out(f"nms.{regime}")),
                  (f"nms_{regime}.json",), self.out(f"nms.{regime}"))
               for regime in g["nms_regimes"]]
        ops.append(Op("extract", "lib", ("extract", self.path("extract.json"), self.out("extract")),
                      ("extract.json",), self.out("extract")))
        ops.append(self.cli("anchors", ("anchor_boxes.json",), "anchors", "--boxes",
                            self.path("anchor_boxes.json"), "--k", str(g["anchor_k"]), "--seed", "0"))
        ops.append(self.cli("chain", ("chain.json",), "chain", "--situations", self.path("chain.json"),
                            "--iou", str(g["chain_iou"])))
        return ops

    def compute_reference(self):
        ref = {}
        for regime in self.traffic["geometry"]["nms_regimes"]:
            data = _load(self.path(f"nms_{regime}.json"))
            cands = [ScoredBox(BoundingBox(*b), s) for b, s in zip(data["boxes"], data["scores"])]
            ref[f"nms.{regime}"] = nms_naive(cands, data["iou"], data["keep"])
            ref[f"candidates.{regime}"] = len(cands)
        data = _load(self.path("extract.json"))
        picked = {}
        for box, row in zip(data["boxes"], data["class_logits"]):
            c = max(range(len(row)), key=lambda i: (row[i], -i))  # first maximum
            if row[c] > -1.0:
                picked.setdefault(data["noun_ids"][c], []).append(ScoredBox(BoundingBox(*box), row[c]))
        classes, boxes = [], []
        for cls in sorted(picked):
            group = picked[cls]
            for i in nms_naive(group, data["iou"], len(group)):
                classes.append(cls)
                boxes.append(group[i].box.as_list())
        ref["extract"] = {"classes": classes, "boxes": boxes}
        ref["chain"] = self._chain_edges(self.traffic["geometry"]["chain_iou"])
        return ref

    def _chain_edges(self, spatial_iou):
        slots = [[(role, noun, _box(node["boxes"].get(role))) for role, noun in node["nouns"].items()]
                 for node in _load(self.path("chain.json"))]
        edges = []
        for i, a in enumerate(slots):
            for j in range(i + 1, len(slots)):
                for role_a, noun_a, box_a in a:
                    for role_b, noun_b, box_b in slots[j]:
                        if box_a is not None and box_b is not None:
                            overlap = iou_exact(box_a, box_b)
                            if overlap >= spatial_iou:
                                edges.append([i, role_a, j, role_b, "spatial", 1.0 + overlap])
                        if noun_a and noun_a == noun_b:
                            edges.append([i, role_a, j, role_b, "semantic", 1.0])
        return sorted(edges)

    def layer_counts(self, ref):
        regimes = self.traffic["geometry"]["nms_regimes"]
        return {"geometry.nms.kept_ratio": sum(len(ref[f"nms.{r}"]) for r in regimes)
                / sum(ref[f"candidates.{r}"] for r in regimes),
                "chaining.edges": len(ref["chain"])}

    def check_output(self, op, out, res, ref):
        if op.label == "anchors":
            return self._check_anchors(out["aspect_ratios"])
        if op.label == "chain":
            got = sorted([e["node_i"], e["role_a"], e["node_j"], e["role_b"], e["type"], e["strength"]]
                         for e in out["edges"])
            if got != ref["chain"]:
                return Failure(f"{len(got)} chain edges, the brute-force scan finds {len(ref['chain'])}")
            return None
        expected = ref[op.label]
        got = out["kept"] if op.label.startswith("nms.") else out
        if got != expected:
            return Failure(f"{op.label} output differs from nms_naive")
        return None

    def _check_anchors(self, ratios):
        """k ascending ratios that are a Lloyd fixpoint: each centroid (in log
        space) is the mean of the log aspect ratios nearest to it."""
        k = self.traffic["geometry"]["anchor_k"]
        if len(ratios) != k or ratios != sorted(ratios):
            return Failure(f"expected {k} ascending aspect ratios, got {ratios}")
        boxes = np.asarray(_load(self.path("anchor_boxes.json")), dtype=np.float64)
        values = np.log((boxes[:, 3] - boxes[:, 1]) / (boxes[:, 2] - boxes[:, 0]))
        centroids = np.log(ratios)
        assign = np.argmin(np.abs(values[:, None] - centroids[None, :]), axis=1)
        for c in range(k):
            members = values[assign == c]
            if len(members) and abs(members.mean() - centroids[c]) > 1e-9:
                return Failure(f"aspect ratio {ratios[c]} is not the mean of its cluster")
        return None


WORKLOADS = {w.name: w for w in (EvalSplit, RetrieveSplit, IngestWrite, GeometryKernels)}
