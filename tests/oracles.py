"""Independent reference implementations used to check the library.

Everything here is deliberately naive (rasterization, brute-force scans,
exhaustive enumeration) and shares no code with the implementations
under test.
"""

import itertools
import math

import numpy as np


def iou_raster(a, b, grid=1000):
    """IoU by counting covered cell centers on a grid x grid raster.

    Cell membership factorizes per axis, so covered-cell counts are
    products of 1-D center counts; no 2-D grid is materialized.
    """
    x_lo = min(a.x1, b.x1)
    x_hi = max(a.x2, b.x2)
    y_lo = min(a.y1, b.y1)
    y_hi = max(a.y2, b.y2)
    xs = np.linspace(x_lo, x_hi, grid, endpoint=False) + (x_hi - x_lo) / (2 * grid)
    ys = np.linspace(y_lo, y_hi, grid, endpoint=False) + (y_hi - y_lo) / (2 * grid)

    def count(centers, lo, hi):
        inside = (centers >= lo) & (centers <= hi)
        return np.count_nonzero(inside), inside

    ax, in_ax = count(xs, a.x1, a.x2)
    ay, in_ay = count(ys, a.y1, a.y2)
    bx, in_bx = count(xs, b.x1, b.x2)
    by, in_by = count(ys, b.y1, b.y2)
    cells_a = ax * ay
    cells_b = bx * by
    cells_both = np.count_nonzero(in_ax & in_bx) * np.count_nonzero(in_ay & in_by)
    union = cells_a + cells_b - cells_both
    return cells_both / union if union else 0.0


def iou_exact(a, b):
    """Closed-form IoU, written independently for cross-checks."""
    w = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    h = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = w * h
    area_a = (a.x2 - a.x1) * (a.y2 - a.y1)
    area_b = (b.x2 - b.x1) * (b.y2 - b.y1)
    return inter / (area_a + area_b - inter) if inter else 0.0


def nms_naive(candidates, iou_threshold, keep):
    """O(n^2) reference NMS: repeatedly take the best remaining candidate."""
    remaining = list(range(len(candidates)))
    kept = []
    while remaining and len(kept) < keep:
        best = min(remaining, key=lambda i: (-candidates[i].score, i))
        kept.append(best)
        remaining = [
            i for i in remaining
            if i != best and iou_exact(candidates[i].box, candidates[best].box) <= iou_threshold
        ]
    return kept


def kmeans_1d_optimal_cost(values, k):
    """Global 1-D k-means objective by enumerating contiguous partitions.

    Optimal 1-D clusters are contiguous in sorted order, so trying every
    placement of k-1 split points is exhaustive.
    """
    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)

    def sse(seg):
        return float(((seg - seg.mean()) ** 2).sum()) if len(seg) else 0.0

    best = np.inf
    for splits in itertools.combinations(range(1, n), k - 1):
        bounds = [0, *splits, n]
        cost = sum(sse(v[bounds[i]:bounds[i + 1]]) for i in range(k))
        best = min(best, cost)
    return best


def clustering_cost(values, centroids):
    """Within-cluster SSE of assigning each value to its nearest centroid."""
    v = np.asarray(values, dtype=float)
    c = np.asarray(centroids, dtype=float)
    assign = np.argmin(np.abs(v[:, None] - c[None, :]), axis=1)
    return float(sum(((v[assign == i] - v[assign == i].mean()) ** 2).sum()
                     for i in set(assign)))


def evaluate_naive(dataset, predictions, setting_name, grounding_iou=0.5,
                   value_all_mode="any-per-role"):
    """Brute-force slot enumeration of the five metrics.

    Returns {verb: {metric: value}} plus the macro row under key "_macro".
    Re-derives everything from scratch: no shared scoring helpers.
    value_all_mode "any-per-role" credits value_all when every role matches
    some annotator; "single-annotator" when one annotator frame matches on
    every role. grounded_value_all also needs every grounding correct.
    """
    preds = {p.image_id: p for p in predictions}
    rows = {}
    for img in dataset.images:
        p = preds[img.image_id]
        if setting_name == "top1":
            verb_ok = p.verb_ranking[0] == img.verb
            frame = p.frames.get(p.verb_ranking[0]) if verb_ok else None
            credit = verb_ok
        elif setting_name == "top5":
            verb_ok = img.verb in p.verb_ranking[:5]
            frame = p.frames.get(img.verb) if verb_ok else None
            credit = verb_ok
        else:
            verb_ok = True
            frame = p.frames.get(img.verb)
            credit = True

        roles = img.annotator_frames[0].roles
        slot_noun, slot_both = [], []
        for idx, role in enumerate(roles):
            if not credit or frame is None:
                slot_noun.append(False)
                slot_both.append(False)
                continue
            pred_noun = dict(frame.role_values)[role]
            truth = [dict(f.role_values)[role] for f in img.annotator_frames]
            n_ok = pred_noun in truth
            pred_box = frame.groundings[idx]
            gt_box = img.gt_groundings.get(role)
            if pred_box is None and gt_box is None:
                g_ok = True
            elif pred_box is None or gt_box is None:
                g_ok = False
            else:
                g_ok = iou_exact(pred_box, gt_box) >= grounding_iou
            slot_noun.append(n_ok)
            slot_both.append(n_ok and g_ok)

        r = rows.setdefault(img.verb, {"images": 0, "verb": 0, "slots": 0,
                                       "value": 0, "gvalue": 0, "vall": 0, "gvall": 0})
        r["images"] += 1
        r["verb"] += int(verb_ok)
        r["slots"] += len(roles)
        r["value"] += sum(slot_noun)
        r["gvalue"] += sum(slot_both)
        if value_all_mode == "single-annotator":
            vall = credit and frame is not None and any(
                all(dict(frame.role_values)[role] == dict(f.role_values)[role] for role in roles)
                for f in img.annotator_frames)
        else:
            vall = all(slot_noun)
        r["vall"] += int(vall)
        r["gvall"] += int(vall and all(slot_both))

    out = {}
    for verb, r in rows.items():
        out[verb] = {
            "verb_acc": r["verb"] / r["images"],
            "value": r["value"] / r["slots"],
            "value_all": r["vall"] / r["images"],
            "grounded_value": r["gvalue"] / r["slots"],
            "grounded_value_all": r["gvall"] / r["images"],
        }
    macro = {
        m: sum(out[v][m] for v in sorted(out)) / len(out)
        for m in ("verb_acc", "value", "value_all", "grounded_value", "grounded_value_all")
    }
    out["_macro"] = macro
    return out


def topk_naive(query, search_ids, similarity, k):
    """Full sort of all candidates, independent of retrieve_topk."""
    pairs = sorted(
        ((sid, similarity(query, sid)) for sid in search_ids),
        key=lambda t: (-t[1], t[0]),
    )
    return pairs[:k]


def chain_naive(frames, spatial_iou):
    """Brute-force scan of every role pair across distinct nodes, given as
    the GroundedFrames of the nodes in node order.

    Returns (node_i, role_a, node_j, role_b, type, strength) tuples in the
    order i < j, then role position in i, then role position in j, with a
    pair's spatial edge before its semantic one.
    """
    edges = []
    for i, j in itertools.combinations(range(len(frames)), 2):
        frame_i, frame_j = frames[i], frames[j]
        for (role_a, noun_a), box_a in zip(frame_i.role_values, frame_i.groundings):
            for (role_b, noun_b), box_b in zip(frame_j.role_values, frame_j.groundings):
                same_noun = noun_a != "" and noun_a == noun_b
                both_grounded = box_a is not None and box_b is not None
                if both_grounded:
                    overlap = iou_exact(box_a, box_b)
                    if overlap >= spatial_iou:
                        edges.append((i, role_a, j, role_b, "spatial", 1.0 + overlap))
                if same_noun:
                    edges.append((i, role_a, j, role_b, "semantic", 1.0))
    return edges



def fuse_naive(predictions, detections, lexicon, threshold):
    """Late fusion by its definition, over the parsed JSON of well-formed
    prediction and detection files: (the fused records, None), or (None,
    the first fault's line). A detection file with a non-finite logit fails
    at its first such record; then each prediction record in order, its
    frames by sorted verb and its roles in lexicon order, fails when its
    image has no detection record, or when a non-null, non-Place role's
    noun is not among the nouns of an image with boxes. Such a role gets
    the first box of highest logit for its noun when that logit reaches
    the threshold; no other role gets a box."""
    for det in detections:
        if not all(math.isfinite(logit) for row in det["noun_scores"] for logit in row):
            return None, f"detections {det['id']!r}, noun_scores: must be finite"
    by_id = {det["id"]: det for det in detections}
    fused = []
    for rec in predictions:
        det = by_id.get(rec["id"])
        if det is None:
            return None, f"no detections for image {rec['id']!r}"
        frames = {}
        for verb in sorted(rec["frames"]):
            named = rec["frames"][verb]["nouns"]
            boxes = {}
            for role in lexicon[verb]:
                noun, boxes[role] = named[role], None
                if noun == "" or role == "Place" or not det["boxes"]:
                    continue
                if noun not in det["nouns"]:
                    return None, (f"image {rec['id']!r}, verb {verb!r}, role {role!r}: "
                                  f"noun {noun!r} absent from detection vocabulary")
                column = [row[det["nouns"].index(noun)] for row in det["noun_scores"]]
                best = max(column)
                if best >= threshold:
                    first = min(i for i, logit in enumerate(column) if logit == best)
                    boxes[role] = [float(c) for c in det["boxes"][first]]
            frames[verb] = {"nouns": {role: named[role] for role in lexicon[verb]}, "boxes": boxes}
        fused.append({"id": rec["id"], "verbs": rec["verbs"], "frames": frames})
    return fused, None

def load_dataset_naive(records, lexicon, vocabulary):
    """Plain record-by-record reading of a dataset file's parsed JSON.

    `lexicon` is {verb: [role, ...]} and `vocabulary` a list of noun ids.
    Returns (images, warnings, faulty): each valid image as (id, width,
    height, verb, the three annotators' noun tuples in the verb's role order,
    {role: (x1, y1, x2, y2) or None}); the clamp warning lines of the valid
    images; and the label ("image 'id'" or "record #i") of every record that
    breaks a rule. Shares no code with the toolkit's readers.
    """
    largest = 1.7976931348623157e308

    def number(v):
        return type(v) in (int, float)

    def check(x1, y1, x2, y2):
        if not all(math.isfinite(c) and c >= 0 for c in (x1, y1, x2, y2)):
            raise ValueError("coordinate")
        if not (x1 < x2 and y1 < y2):
            raise ValueError("corners")
        w, h = x2 - x1, y2 - y1
        if not (0 < w * h <= largest / 2 and 0 < h / w < math.inf):
            raise ValueError("area or aspect")

    def box(raw):
        if raw is None or raw == [-1, -1, -1, -1]:
            return None
        if type(raw) is not list or len(raw) != 4 or not all(number(c) for c in raw):
            raise ValueError("box")
        coords = tuple(float(c) for c in raw)
        check(*coords)
        return coords

    def read(rec, label):
        width, height = rec.get("width"), rec.get("height")
        if not all(number(v) and 0 < v <= largest for v in (width, height)):
            raise ValueError("size")
        verb = rec.get("verb")
        if type(verb) is not str or verb not in lexicon:
            raise ValueError("verb")
        roles = lexicon[verb]
        frames = rec.get("frames")
        if type(frames) is not list or len(frames) != 3:
            raise ValueError("frames")
        nouns = []
        for frame in frames:
            if type(frame) is not dict:
                raise ValueError("frame")
            for role in roles:
                noun = frame[role]
                if type(noun) is not str or (noun != "" and noun not in vocabulary):
                    raise ValueError("noun")
            nouns.append(tuple(frame[role] for role in roles))
        gt = {}
        if "worker_boxes" in rec:
            given = {} if rec["worker_boxes"] is None else rec["worker_boxes"]
            if type(given) is not dict:
                raise ValueError("worker_boxes")
            for role in roles:
                listed = [] if given.get(role) is None else given[role]
                if type(listed) is not list:
                    raise ValueError("worker list")
                workers = [b for b in map(box, listed) if b is not None]
                if workers and len(workers) != 3:
                    raise ValueError("worker count")
                gt[role] = tuple(sum(c) / 3 for c in zip(*workers)) if workers else None
                if workers:
                    check(*gt[role])
        else:
            given = {} if rec.get("boxes") is None else rec["boxes"]
            if type(given) is not dict:
                raise ValueError("boxes")
            gt = {role: box(given.get(role)) for role in roles}
        notes = []
        for role, b in gt.items():
            if b is None:
                continue
            if role == "Place":
                raise ValueError("place")
            if b[2] > width or b[3] > height:
                b = (min(b[0], width), min(b[1], height), min(b[2], width), min(b[3], height))
                check(*b)
                gt[role] = b
                notes.append(f"{label}, role {role!r}: box clamped to image bounds")
        return (rec["id"], width, height, verb, tuple(nouns), gt), notes

    images, warnings, faulty, seen = [], [], [], set()
    for i, rec in enumerate(records):
        if type(rec) is not dict:
            faulty.append(f"record #{i}")
            continue
        image_id = rec.get("id")
        label = f"image {image_id!r}" if type(image_id) is str else f"record #{i}"
        try:
            if type(image_id) is not str or image_id in seen:
                raise ValueError("id")
            image, notes = read(rec, label)
        except (ValueError, KeyError, OverflowError):
            faulty.append(label)
        else:
            images.append(image)
            warnings += notes
        if type(image_id) is str:
            seen.add(image_id)
    return images, warnings, faulty


def compute_stats_naive(images, lexicon):
    """The corpus statistics of images in `load_dataset_naive`'s form, one
    noun slot (image, annotator, role) at a time."""
    slots = named = grounded = role_slots = 0
    per_role, per_role_grounded, per_noun, samples = {}, {}, {}, []
    for _, width, height, verb, nouns, gt in images:
        roles = lexicon[verb]
        role_slots += len(roles)
        for annotator in nouns:
            for role, noun in zip(roles, annotator):
                slots += 1
                per_role[role] = per_role.get(role, 0) + 1
                if noun != "":
                    named += 1
                    if gt[role] is not None:
                        grounded += 1
                        per_role_grounded[role] = per_role_grounded.get(role, 0) + 1
                        per_noun[noun] = per_noun.get(noun, 0) + 1
        for i, role in enumerate(roles):
            if gt[role] is None:
                continue
            x1, y1, x2, y2 = gt[role]
            first = [annotator[i] for annotator in nouns if annotator[i] != ""]
            samples.append({"noun": first[0] if first else "", "verb": verb, "role": role,
                            "scale": max((x2 - x1) / width, (y2 - y1) / height),
                            "aspect": (y2 - y1) / (x2 - x1)})
    return {
        "total_images": len(images),
        "total_verbs": len({image[3] for image in images}),
        "total_noun_slots": slots,
        "non_null_slots": named,
        "grounded_slots": grounded,
        "grounded_fraction": round(grounded / named, 4) if named else 0.0,
        "mean_frame_length": role_slots / len(images) if images else 0.0,
        "groundings_per_noun": per_noun,
        "role_grounding_rate": {role: per_role_grounded.get(role, 0) / per_role[role]
                                for role in sorted(per_role)},
        "scale_aspect_samples": samples,
    }
