"""Seeded SWiG-shaped inputs for the benchmark, cached on disk by seed.

Every traffic dimension comes from `traffic.json`; the same seed and the
same generator give byte-identical files. The program under test only
ever sees the files written here, never the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import struct

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_DIR = os.path.join(HERE, ".cache")
CACHE_KEEP = 24  # seed directories kept (about 14 MB each); older ones are evicted


def load_traffic(toy: bool = False) -> dict:
    with open(os.path.join(HERE, "traffic.json"), encoding="utf-8") as f:
        traffic = json.load(f)
    overrides = traffic.pop("toy")
    if toy:
        for section, values in overrides.items():
            traffic[section].update(values)
    return traffic


def fixture_dir(seed: int, toy: bool = False) -> str:
    """Return the cache directory for `seed`, generating it on a miss."""
    digest = hashlib.sha256()
    for name in ("fixtures.py", "traffic.json"):
        with open(os.path.join(HERE, name), "rb") as f:
            digest.update(f.read())
    key = f"{'toy' if toy else 'full'}-{seed}-{digest.hexdigest()[:12]}"
    path = os.path.join(CACHE_DIR, key)
    if not os.path.isdir(path):
        os.makedirs(CACHE_DIR, exist_ok=True)
        tmp = f"{path}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        generate(load_traffic(toy), seed, tmp)
        try:
            os.replace(tmp, path)
        except OSError:  # another run finished the same seed first
            if not os.path.isdir(path):
                raise
            shutil.rmtree(tmp, ignore_errors=True)
        _evict(keep=path)
    os.utime(path)
    return path


def _evict(keep: str):
    dirs = [os.path.join(CACHE_DIR, d) for d in os.listdir(CACHE_DIR)
            if d.startswith(("full-", "toy-")) and ".tmp" not in d]
    dirs = sorted((d for d in dirs if d != keep), key=os.path.getmtime)
    for d in dirs[: max(0, len(dirs) + 1 - CACHE_KEEP)]:
        shutil.rmtree(d, ignore_errors=True)


def _dump(obj, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(obj, separators=(",", ":")))


def _write_lines(lines, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _box_pools(nrng, sizes, count, chunk=1024):
    """Yield, per image size, a (count, 4) array of random boxes inside the image, one decimal."""
    for start in range(0, len(sizes), chunk):
        wh = np.asarray(sizes[start:start + chunk], dtype=np.float64)[:, None, :]
        u = nrng.random((len(wh), count, 4))
        side = (0.1 + 0.7 * u[..., 2:]) * wh
        lo = u[..., :2] * (wh - side)
        yield from np.round(np.concatenate([lo, lo + side], axis=-1), 1)


def _jitter(rng, box, w, h, rel=0.12):
    bw, bh = box[2] - box[0], box[3] - box[1]
    x1 = min(max(box[0] + rng.gauss(0, rel * bw), 0.0), w - 2)
    y1 = min(max(box[1] + rng.gauss(0, rel * bh), 0.0), h - 2)
    x2 = min(max(box[2] + rng.gauss(0, rel * bw), x1 + 1), w)
    y2 = min(max(box[3] + rng.gauss(0, rel * bh), y1 + 1), h)
    return [round(x1, 1), round(y1, 1), round(x2, 1), round(y2, 1)]


def generate(traffic: dict, seed: int, out: str):
    """Write every input file for one seed into `out`, plus `meta.json`
    holding the counts the generator knows by construction."""
    S, P, F, R, G = (traffic[k] for k in ("split", "predictions", "fusion", "retrieval", "geometry"))
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)

    # lexicon: verbs with 1..6 ordered roles, Agent first and Place last when present
    verbs = [f"v{i:03d}" for i in range(S["verbs"])]
    others = [f"role{j:03d}" for j in range(S["role_pool"] - 2)]
    # role counts by quota (largest remainder), so every seed has the same mean frame length
    quota = [w * len(verbs) / sum(S["role_count_weights"]) for w in S["role_count_weights"]]
    counts = [int(q) for q in quota]
    for i in sorted(range(6), key=lambda i: int(quota[i]) - quota[i])[: len(verbs) - sum(counts)]:
        counts[i] += 1
    role_counts = [n for n, c in zip(range(1, 7), counts) for _ in range(c)]
    rng.shuffle(role_counts)
    lexicon = {}
    for v, n in zip(verbs, role_counts):
        agent = n >= 2 and rng.random() < S["agent_role_rate"]
        place = n >= 2 and rng.random() < S["place_role_rate"]
        lexicon[v] = (["Agent"] if agent else []) + rng.sample(others, n - agent - place) + (
            ["Place"] if place else [])
    nouns = [f"n{k:05d}" for k in range(S["nouns"])]
    place_nouns = nouns[: S["place_nouns"]]
    object_nouns = nouns[S["place_nouns"]:]
    object_weights = 1.0 / (np.arange(len(object_nouns)) + 10)

    ipv = S["images_per_verb"]
    verb_of = [verbs[i % len(verbs)] for i in range(len(verbs) * ipv)]
    rng.shuffle(verb_of)
    ids = [f"img{i:05d}.jpg" for i in range(len(verb_of))]

    n_ann = S["annotators"]
    rnd = rng.random

    def pick(seq):
        return seq[int(rnd() * len(seq))]

    null_rates = (S["annotator_null_on_ungrounded_rate"], S["annotator_null_on_grounded_rate"])
    grounded_rate, agree_rate, oob_rate = (S[k] for k in (
        "grounded_role_rate", "annotator_agree_rate", "out_of_image_box_rate"))
    top1, top5, in_cluster, correct, pred_null, hit, spurious = (P[k] for k in (
        "top1_rate", "top5_rate", "in_cluster_rate", "noun_correct_rate", "predicted_null_rate",
        "gt_box_hit_rate", "spurious_box_rate"))
    cluster = P["verb_confusion_cluster"]
    clusters = [verbs[i:i + cluster] for i in range(0, len(verbs), cluster)]
    sizes = np.stack([nrng.integers(300, 641, len(ids)), nrng.integers(240, 513, len(ids))], 1).tolist()
    # per image: 6 gt slots, 30 prediction slots (5 verbs x 6 roles), fusion and object detections
    n_fuse = F["boxes_per_image"]
    pools = _box_pools(nrng, sizes, 36 + n_fuse + R["detections_per_image"][1])
    dataset, preds, fuse_dets, scenes, clamped_boxes, obj_pool = [], [], [], [], [], {}
    role_slots = clamped_count = null_grounded = non_null = grounded_slots = pred_boxes = 0
    scene_idx = nrng.choice(len(object_nouns), size=(len(ids), S["scene_nouns"]),
                            p=object_weights / object_weights.sum()).tolist()
    for image_id, verb, (w, h), pool, scene in zip(ids, verb_of, sizes, pools, scene_idx):
        scene = [object_nouns[i] for i in scene]
        roles = lexicon[verb]
        role_slots += len(roles)
        truth, frames, boxes = {}, [{} for _ in range(n_ann)], {}
        for ri, role in enumerate(roles):
            nounpool = place_nouns if role == "Place" else scene
            truth[role] = noun_true = pick(nounpool)
            grounded = role != "Place" and rnd() < grounded_rate
            null_rate = null_rates[grounded]
            for frame in frames:
                if rnd() < null_rate:
                    frame[role] = ""
                    null_grounded += grounded
                else:
                    frame[role] = noun_true if rnd() < agree_rate else pick(nounpool)
                    non_null += 1
                    grounded_slots += grounded
            if grounded:
                box = pool[ri].astype(int).tolist()
                if rnd() < oob_rate:
                    box[2 + rng.randrange(2)] += rng.randint(1, 40)
                clamped = [box[0], box[1], min(box[2], w), min(box[3], h)]
                clamped_count += clamped != box
                clamped_boxes.append(clamped)
                boxes[role] = box
            else:
                boxes[role] = None
        dataset.append({"id": image_id, "width": w, "height": h, "verb": verb,
                        "frames": frames, "boxes": boxes})

        # top-5 verb ranking, confusions concentrated in the gt verb's cluster
        members = clusters[int(verb[1:]) // cluster]
        u = rnd()
        pos = 0 if u < top1 else rng.randint(1, 4) if u < top5 else None
        ranking = []
        while len(ranking) < 5 - (pos is not None):
            cand = pick(members) if rnd() < in_cluster else pick(verbs)
            if cand != verb and cand not in ranking:
                ranking.append(cand)
        if pos is not None:
            ranking.insert(pos, verb)
        pframes = {}
        for k, pv in enumerate(ranking):
            pn, pb = {}, {}
            is_gt = pv == verb
            for ri, role in enumerate(lexicon[pv]):
                box = None
                if role == "Place":
                    pn[role] = truth[role] if is_gt and rnd() < correct else pick(place_nouns)
                else:
                    pn[role] = "" if rnd() < pred_null else (
                        truth[role] if is_gt and rnd() < correct else pick(scene))
                    gt = boxes[role] if is_gt else None
                    if gt is not None:
                        box = _jitter(rng, gt, w, h) if rnd() < hit else None
                    elif rnd() < (spurious if is_gt else 0.6):
                        box = pool[6 + 6 * k + ri].tolist()
                    pred_boxes += box is not None
                pb[role] = box
            pframes[pv] = {"nouns": pn, "boxes": pb}
        preds.append({"id": image_id, "verbs": ranking, "frames": pframes})

        # detector output for late fusion: every non-Place predicted noun has a column
        det_nouns = sorted({n for f in pframes.values() for r, n in f["nouns"].items()
                            if n and r != "Place"}.union(scene))
        dboxes = [_jitter(rng, b, w, h) if b and rnd() < 0.5 else pool[36 + i].tolist()
                  for i, b in enumerate((list(boxes.values()) + [None] * n_fuse)[:n_fuse])]
        fuse_dets.append({"id": image_id, "boxes": dboxes, "nouns": det_nouns})
        scenes.append(scene)
        obj_pool[image_id] = pool[36 + n_fuse:]
    meta = {"images": len(ids), "verbs": len(verbs), "role_slots": role_slots,
            "gt_boxes": len(clamped_boxes), "clamped": clamped_count,
            "null_noun_grounded": null_grounded, "noun_slots": n_ann * role_slots,
            "non_null_slots": non_null, "grounded_slots": grounded_slots,
            "pred_boxes": pred_boxes, "pred_frames": 5 * len(ids)}

    sizes_flat = [len(d["nouns"]) * len(d["boxes"]) for d in fuse_dets]
    logits = np.round(nrng.normal(F["logit_mean"], F["logit_sd"], size=sum(sizes_flat)), 2).tolist()
    start = 0
    for d, n in zip(fuse_dets, sizes_flat):
        m = len(d["nouns"])
        d["noun_scores"] = [logits[i:i + m] for i in range(start, start + n, m)]
        start += n

    vocab = sorted(nouns)
    _dump(lexicon, os.path.join(out, "lexicon.json"))
    _dump(vocab, os.path.join(out, "vocab.json"))
    _dump(dataset, os.path.join(out, "dataset.json"))
    _dump(preds, os.path.join(out, "preds.json"))
    _dump(fuse_dets, os.path.join(out, "fuse_dets.json"))

    # retrieval: the paper's per-verb query/search split, a seeded query subset
    by_verb = {}
    for image_id, verb in zip(ids, verb_of):
        by_verb.setdefault(verb, []).append(image_id)
    split_rng = random.Random(seed)
    query, search = [], []
    for verb in sorted(by_verb):
        members = sorted(by_verb[verb])
        split_rng.shuffle(members)
        query.extend(members[: R["per_verb_query"]])
        search.extend(members[R["per_verb_query"]: R["per_verb_query"] + R["per_verb_search"]])
    query = sorted(rng.sample(query, R["queries"]))
    _write_lines(query, os.path.join(out, "query.txt"))
    _write_lines(search, os.path.join(out, "search.txt"))
    index = {image_id: i for i, image_id in enumerate(ids)}
    used = query + search
    centroids = nrng.normal(size=(len(verbs), R["embedding_dim"]))
    emb = (centroids[[int(verb_of[index[i]][1:]) for i in used]]
           + nrng.normal(scale=1.5, size=(len(used), R["embedding_dim"]))).astype("<f4")
    with open(os.path.join(out, "emb.swge"), "wb") as f:
        f.write(b"SWGE" + struct.pack("<II", *emb.shape) + emb.tobytes())
    _write_lines(used, os.path.join(out, "emb.swge.ids"))
    sits, obj = [], []
    lo, hi = R["detections_per_image"]
    for image_id in used:
        p = preds[index[image_id]]
        sits.append({"id": image_id, "verbs": p["verbs"],
                     "entities": [[p["frames"][v]["nouns"][r] for r in lexicon[v]] for v in p["verbs"]],
                     "boxes": [[p["frames"][v]["boxes"][r] for r in lexicon[v]] for v in p["verbs"]]})
        n = rng.randint(lo, hi)
        obj.append({"id": image_id, "classes": rng.choices(scenes[index[image_id]], k=n),
                    "boxes": obj_pool[image_id][:n].tolist()})
    _dump(sits, os.path.join(out, "situations.json"))
    _dump(obj, os.path.join(out, "obj_dets.json"))
    shared = 0
    query_verbs = [set(sits[i]["verbs"]) for i in range(len(query))]
    for s in sits[len(query):]:
        shared += sum(not q.isdisjoint(s["verbs"]) for q in query_verbs)
    meta["retrieval_pairs"] = len(query) * len(search)
    meta["shared_verb_pairs"] = shared
    files = {"dataset.json": [meta["gt_boxes"], n_ann * len(ids)],
             "preds.json": [meta["pred_boxes"], meta["pred_frames"]],
             "fuse_dets.json": [n_fuse * len(ids), 0],
             "situations.json": [sum(b is not None for s in sits for row in s["boxes"] for b in row),
                                 5 * len(sits)],
             "obj_dets.json": [sum(len(o["boxes"]) for o in obj), 0],
             "anchor_boxes.json": [len(clamped_boxes), 0]}

    # geometry kernels: NMS in two overlap regimes, per-class NMS, anchors, chaining
    for regime, spec in G["nms_regimes"].items():
        side_lo, side_hi = spec["box_side"]
        n = G["nms_boxes"]
        if spec["clusters"]:
            centers = nrng.uniform(side_hi, spec["canvas"] - side_hi, size=(spec["clusters"], 2))
            xy = centers[nrng.integers(spec["clusters"], size=n)] + nrng.normal(0, side_lo / 4, size=(n, 2))
        else:
            xy = nrng.uniform(side_hi, spec["canvas"] - side_hi, size=(n, 2))
        wh = nrng.uniform(side_lo, side_hi, size=(n, 2))
        coords = np.round(np.clip(np.hstack([xy - wh / 2, xy + wh / 2]), 0, None), 2)
        files[f"nms_{regime}.json"] = [n, 0]
        _dump({"boxes": coords.tolist(), "scores": np.round(nrng.random(n), 6).tolist(),
               "iou": G["nms_iou"], "keep": n}, os.path.join(out, f"nms_{regime}.json"))
    n = G["extract_boxes"]
    centers = nrng.uniform(60, 940, size=(n // 20, 2))
    xy = centers[nrng.integers(len(centers), size=n)] + nrng.normal(0, 8, size=(n, 2))
    wh = nrng.uniform(30, 110, size=(n, 2))
    class_logits = nrng.normal(-2.0, 1.5, size=(n, G["extract_classes"]))
    _dump({"boxes": np.round(np.clip(np.hstack([xy - wh / 2, xy + wh / 2]), 0, None), 2).tolist(),
           "class_logits": np.round(class_logits, 3).tolist(),
           "noun_ids": object_nouns[: G["extract_classes"]], "iou": G["nms_iou"]},
          os.path.join(out, "extract.json"))
    files["extract.json"] = [n, 0]
    _dump(clamped_boxes, os.path.join(out, "anchor_boxes.json"))
    nodes = []
    for p in preds[: G["chain_nodes"]]:
        frame = p["frames"][p["verbs"][0]]
        nodes.append({"verb": p["verbs"][0], "nouns": frame["nouns"], "boxes": frame["boxes"]})
    _dump(nodes, os.path.join(out, "chain.json"))
    files["chain.json"] = [sum(b is not None for n in nodes for b in n["boxes"].values()), len(nodes)]
    meta["files"] = files
    _dump(meta, os.path.join(out, "meta.json"))
