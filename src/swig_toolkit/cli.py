"""`swig` command line: validate, stats, eval, fuse, retrieve, chain,
anchors, gradcheck.

Machine output is JSON; human-facing tables only ever go to stdout.
`--out -` streams JSON to stdout, a regular file path is written atomically
(temp file then rename), and an existing FIFO or device is written in
place. Exit status: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import SCHEMA_VERSION, __version__
from .chaining import chain
from .dataset_io import (
    DatasetError,
    compute_stats,
    load_boxes,
    load_chain_nodes,
    load_dataset,
    load_detection_sets,
    load_object_detections,
    load_predictions,
    load_situations as _load_situations,  # the name perfbench/tracer.py times
    parse_dataset,
    parse_lexicon,
    parse_vocabulary,
    _read_json,
)
from .frame_model import FrameModelError, frame_to_json
from .fusion import DEFAULT_FUSION_THRESHOLD, FusionError, assign_groundings
from .geometry import cluster_aspect_ratios
from .loss_kernels import FocalParams, SmoothingParams, focal_loss, l1_reg, smoothed_ce
from .metrics import ValueAllMode, VerbSetting, evaluate, format_table
from .retrieval import (
    gr_sit_sim,
    l2_similarity,
    obj_sim,
    read_embeddings,
    retrieve_topk,
    sit_sim,
)


def write_output(payload, out: str):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out == "-":
        sys.stdout.write(text + "\n")
        return
    out = os.path.realpath(out)  # a symlink stays a link: its target gets the JSON
    if os.path.exists(out) and not os.path.isfile(out):
        # a FIFO or device: renaming over it would replace it with a regular file
        with open(out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(out), suffix=".tmp")
    umask = os.umask(0)  # reading the umask means setting it, so set it back
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            os.fchmod(f.fileno(), 0o666 & ~umask)  # mkstemp creates the file 0600
            f.write(text + "\n")
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_validate(args) -> int:
    lexicon = parse_lexicon(_read_json(args.lexicon))
    vocabulary = parse_vocabulary(_read_json(args.vocab))
    failures = 0
    for path in args.files:
        warnings = []
        _, violations = parse_dataset(_read_json(path), lexicon, vocabulary, warnings)
        for w in warnings:
            print(f"warning: {path}: {w}", file=sys.stderr)
        for v in violations:
            print(f"{path}: {v}")
        failures += len(violations)
    if failures:
        print(f"{failures} violation(s)")
        return 1
    print("ok")
    return 0


def cmd_stats(args) -> int:
    warnings = []
    dataset = load_dataset(args.dataset, args.lexicon, args.vocab, warnings=warnings)
    report = compute_stats(dataset)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    write_output(report.to_dict(), args.out)
    return 0


def cmd_eval(args) -> int:
    dataset = load_dataset(args.dataset, args.lexicon, args.vocab)
    predictions = load_predictions(args.preds, dataset.lexicon)
    setting = VerbSetting(args.setting)
    mode = ValueAllMode(args.value_all_mode)
    report = evaluate(dataset, predictions, setting, mode)
    if args.out != "-":
        print(format_table(report, setting))
    write_output(report.to_dict(), args.out)
    return 0


def cmd_fuse(args) -> int:
    lexicon = parse_lexicon(_read_json(args.lexicon))
    predictions = load_predictions(args.frames, lexicon)
    detections = load_detection_sets(args.detections)
    out = []
    for pred in predictions:
        if pred.image_id not in detections:
            raise DatasetError(f"no detections for image {pred.image_id!r}")
        try:
            fused = {
                verb: assign_groundings(frame, detections[pred.image_id], args.fusion_threshold)
                for verb, frame in sorted(pred.frames.items())
            }
        except FusionError as e:
            raise DatasetError(f"image {pred.image_id!r}, {e}") from e
        out.append(
            {
                "id": pred.image_id,
                "verbs": list(pred.verb_ranking),
                "frames": {
                    verb: {k: v for k, v in frame_to_json(frame).items() if k != "verb"}
                    for verb, frame in fused.items()
                },
            }
        )
    write_output(out, args.out)
    return 0


def cmd_retrieve(args) -> int:
    with open(args.query, "r", encoding="utf-8") as f:
        query_ids = [line for line in f.read().splitlines() if line]
    with open(args.search, "r", encoding="utf-8") as f:
        search_ids = [line for line in f.read().splitlines() if line]

    if args.mode == "l2":
        ids, matrix = read_embeddings(args.embeddings)
        index = {i: matrix[row] for row, i in enumerate(ids)}
        sim = lambda q, s: l2_similarity(index[q], index[s])
    elif args.mode == "obj":
        dets = load_object_detections(args.detections)
        sim = lambda q, s: obj_sim(dets[q], dets[s])
    else:
        sits = _load_situations(args.situations)
        fn = sit_sim if args.mode == "sit" else gr_sit_sim
        sim = lambda q, s: fn(sits[q], sits[s])

    try:
        results = {
            q: [{"id": i, "score": s} for i, s in retrieve_topk(q, search_ids, sim, args.k)]
            for q in query_ids
        }
    except KeyError as e:
        raise DatasetError(f"missing features for image {e.args[0]!r}") from e
    write_output(results, args.out)
    return 0


def cmd_chain(args) -> int:
    graph = chain(load_chain_nodes(args.situations), spatial_iou=args.iou)
    write_output(graph.to_dict(), args.out)
    return 0


def cmd_anchors(args) -> int:
    ratios = cluster_aspect_ratios(load_boxes(args.boxes), args.k, args.seed)
    write_output({"aspect_ratios": ratios}, args.out)
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    step = 1e-5
    results = {}

    def central_diff(fn, x):
        grad = np.zeros_like(x)
        for i in range(x.size):
            hi, lo = x.copy(), x.copy()
            hi[i] += step
            lo[i] -= step
            grad[i] = (fn(hi) - fn(lo)) / (2 * step)
        return grad

    def max_rel_err(analytic, numeric):
        # absolute floor so fp noise on near-zero gradients does not dominate
        denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-6)
        return float(np.max(np.abs(analytic - numeric) / denom))

    worst = 0.0
    for _ in range(args.trials):
        n = int(rng.integers(2, 12))
        x = rng.normal(size=n) * 3
        t = (rng.random(n) < 0.5).astype(float)
        params = FocalParams(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0, 4)))
        _, grad = focal_loss(x, t, params)
        worst = max(worst, max_rel_err(grad, central_diff(lambda v: focal_loss(v, t, params)[0], x)))
    results["focal_loss"] = worst

    worst = 0.0
    for _ in range(args.trials):
        k = int(rng.integers(2, 12))
        x = rng.normal(size=k) * 3
        target = int(rng.integers(k))
        params = SmoothingParams(float(rng.uniform(0, 0.9)))
        _, grad = smoothed_ce(x, target, params)
        worst = max(worst, max_rel_err(grad, central_diff(lambda v: smoothed_ce(v, target, params)[0], x)))
    results["smoothed_ce"] = worst

    worst = 0.0
    for _ in range(args.trials):
        n = int(rng.integers(2, 12))
        p = rng.normal(size=n)
        t = rng.normal(size=n)  # ties have measure zero under the gaussian draw
        _, grad = l1_reg(p, t)
        worst = max(worst, max_rel_err(grad, central_diff(lambda v: l1_reg(v, t)[0], p)))
    results["l1_reg"] = worst

    for kernel, err in results.items():
        print(f"{kernel}: max relative gradient error {err:.3e}")
    ok = all(err <= 1e-4 for err in results.values())
    write_output({"max_relative_error": results, "pass": ok}, args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swig", description=__doc__)
    parser.add_argument(
        "--version", action="version",
        version=f"swig-toolkit {__version__} (schema {SCHEMA_VERSION})",
    )
    parser.add_argument("--threads", type=int, default=os.cpu_count(),
                        help="accepted and ignored; every subcommand runs in one thread")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check dataset files for structural violations")
    p.add_argument("files", nargs="+")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--vocab", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="corpus statistics report")
    p.add_argument("dataset")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", help="five-metric evaluation")
    p.add_argument("--dataset", required=True)
    p.add_argument("--preds", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--setting", choices=[s.value for s in VerbSetting], default="gt")
    p.add_argument("--value-all-mode", choices=[m.value for m in ValueAllMode],
                   default="any-per-role")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fuse", help="assign detector boxes to predicted frames")
    p.add_argument("--frames", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--fusion-threshold", type=float, default=DEFAULT_FUSION_THRESHOLD)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("retrieve", help="top-k similar images")
    p.add_argument("--mode", choices=["l2", "obj", "sit", "grsit"], required=True)
    p.add_argument("--query", required=True, help="newline-separated query ids")
    p.add_argument("--search", required=True, help="newline-separated search ids")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--embeddings", help="binary embedding file (mode l2)")
    p.add_argument("--detections", help="detections JSON (mode obj)")
    p.add_argument("--situations", help="situations JSON (modes sit, grsit)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("chain", help="link situations into a relation graph")
    p.add_argument("--situations", required=True)
    p.add_argument("--iou", type=float, default=0.4)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("anchors", help="aspect-ratio clustering for anchors")
    p.add_argument("--boxes", required=True, help="JSON array of [x1,y1,x2,y2]")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("gradcheck", help="finite-difference check of the loss kernels")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, FrameModelError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
