"""`swig` command line: validate, stats, eval, fuse, retrieve, chain,
anchors, gradcheck.

Every subcommand writes its result as one line of compact, key-sorted
JSON (`python -m json.tool` pretty-prints it); human-facing tables only
ever go to stdout.
`--out -` streams JSON to stdout, a regular file path is written atomically
(temp file then rename), and an existing FIFO or device is written in
place. Exit status: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from . import SCHEMA_VERSION, __version__
from .chaining import DEFAULT_SPATIAL_IOU, chain
from .dataset_io import (
    DatasetError,
    _gc_paused,
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
)
from .frame_model import PLACE_ROLE, frame_to_json
from .fusion import DEFAULT_FUSION_THRESHOLD, absent_noun, ground
from .geometry import cluster_aspect_ratios
from .loss_kernels import FocalParams, SmoothingParams, focal_loss, l1_reg, smoothed_ce
from .metrics import ValueAllMode, VerbSetting, evaluate, format_table
from .retrieval import (
    L2Scorer,
    ObjScorer,
    RetrievalError,
    SitScorer,
    read_embeddings,
    read_ids,
    retrieve_topk,
)


def write_output(payload, out: str, encoded: bool = False):
    """Write `payload` as one line of compact, key-sorted JSON; when `encoded`,
    `payload` is an iterable of the items of a JSON array, each already
    encoded, written as it comes between the array's "[", separators and "]"."""
    text = _pieces(payload) if encoded else (_encode(payload) + "\n",)
    if out == "-":
        sys.stdout.writelines(text)
        return
    if out[-1:] in (os.sep, os.altsep):  # realpath would drop the separator and write the file
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    target = os.path.realpath(out)  # a symlink stays a link: its target gets the JSON
    if os.path.exists(target) and not os.path.isfile(target):
        # a FIFO or device, which a rename would replace; a directory or "" fails, naming `out`
        with open(out, "w", encoding="utf-8") as f:
            f.writelines(text)
        return
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
    except OSError as e:  # its message names a random temp file: name the output
        raise OSError(e.errno, e.strerror, out) from e
    umask = os.umask(0)  # reading the umask means setting it, so set it back
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            os.fchmod(f.fileno(), 0o666 & ~umask)  # mkstemp creates the file 0600
            f.writelines(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pieces(items):
    """The text of the JSON array of encoded `items` and its newline, in pieces."""
    yield "["
    for k, item in enumerate(items):
        if k:
            yield ","
        yield item
    yield "]\n"


def _encode(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cmd_validate(args) -> int:
    lexicon = parse_lexicon(args.lexicon)
    vocabulary = parse_vocabulary(args.vocab)
    failures = 0
    for path in args.files:
        warnings = []
        _, violations = parse_dataset(path, lexicon, vocabulary, warnings)
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
    write_output(report, args.out)
    return 0


def cmd_eval(args) -> int:
    dataset = load_dataset(args.dataset, args.lexicon, args.vocab)
    predictions = load_predictions(args.preds, dataset.lexicon)
    setting = VerbSetting(args.setting)
    mode = ValueAllMode(args.value_all_mode)
    report = evaluate(dataset, predictions, setting, mode)
    write_output(report, args.out)
    if args.out != "-":
        print(format_table(report, setting))
    return 0


@_gc_paused  # fusing builds no reference cycles, so a collection would free nothing
def cmd_fuse(args) -> int:
    if not np.isfinite(args.fusion_threshold):
        raise ValueError(f"--fusion-threshold must be finite, got {args.fusion_threshold}")
    lexicon = parse_lexicon(args.lexicon)
    # the predicted boxes are replaced, never read: they die before the detections are read
    table = replace(load_predictions(args.frames, lexicon), boxes=None)
    dets = load_detection_sets(args.detections)
    # per slot: its record, the image its record names (-1: none), its noun's detection code
    record = np.repeat(np.arange(len(table.ids)), list(map(len, table.frames)))[
        np.repeat(np.arange(len(table.roles)), np.diff(table.starts))]
    images = np.fromiter(map(dets.index.get, table.ids, itertools.repeat(-1)), dtype=np.intp,
                         count=len(table.ids))
    image = images[record]
    code = {noun: c for c, noun in enumerate(dets.nouns[:-1])}
    codes = np.array([code.get(noun, -2) for noun in table.nouns[:-1]] + [-1], dtype=np.intp)[table.codes]
    place = np.fromiter(map(PLACE_ROLE.__eq__, itertools.chain.from_iterable(table.roles)),
                        dtype=bool, count=len(image))
    eligible = (table.codes >= 0) & ~place & np.append(np.diff(dets.starts) > 0, False)[image]
    # one gather: each eligible slot's column, by its (image, code) key among the columns' sorted keys
    width, find = len(dets.nouns), eligible & (codes >= 0)  # code -2: a noun no image lists
    keys = np.repeat(np.arange(len(dets.columns) - 1) * width, np.diff(dets.columns)) + dets.codes
    wanted, order = image[find] * width + codes[find], np.argsort(keys)
    at = order[np.searchsorted(keys, wanted, sorter=order).clip(max=len(keys) - 1)]
    columns = np.full(len(image), -1, dtype=np.intp)
    columns[find] = np.where(keys[at] == wanted, at, -1)
    grounded, absent = ground(eligible, columns, dets.rows, dets.logits, args.fusion_threshold)
    faulty = np.concatenate([np.flatnonzero(images < 0), record[absent]])
    if faulty.size:  # the first fault: by record, then sorted verb, then role
        r = int(faulty.min())
        if images[r] < 0:
            raise DatasetError(f"no detections for image {table.ids[r]!r}")
        verb, row, s = min((verb, row, s) for verb, row in table.frames[r].items()
                           for s in range(table.starts[row], table.starts[row + 1]) if absent[s])
        role = table.roles[row][s - table.starts[row]]
        raise DatasetError(f"image {table.ids[r]!r}, verb {verb!r}, "
                           f"{absent_noun(role, table.nouns[table.codes[s]])}")
    nouns = list(map(table.nouns.__getitem__, table.codes.tolist()))  # per slot, one str per noun
    grounded, boxes = grounded.tolist(), dets.boxes

    def records():  # each encoded as it is written, so the output is never one object tree
        for image_id, ranking, rows in zip(table.ids, table.rankings, table.frames):
            frames = {}
            for verb, row in sorted(rows.items()):
                lo, hi = table.starts[row], table.starts[row + 1]
                frames[verb] = frame_to_json(tuple(zip(table.roles[row], nouns[lo:hi])),
                                             [None if r < 0 else boxes[r].tolist() for r in grounded[lo:hi]])
            yield _encode({"id": image_id, "verbs": list(ranking), "frames": frames})

    write_output(records(), args.out, encoded=True)
    return 0


FEATURE_FLAG = {"l2": "embeddings", "obj": "detections", "sit": "situations",
                "grsit": "situations"}


def cmd_retrieve(args) -> int:
    flag = FEATURE_FLAG[args.mode]
    if getattr(args, flag) is None:
        print(f"error: --mode {args.mode} needs --{flag}", file=sys.stderr)
        return 2
    if args.k < 1:
        raise RetrievalError(f"k must be >= 1, got {args.k}")
    query_ids = read_ids(args.query)
    search_ids = read_ids(args.search)

    if args.mode == "l2":
        # the scorer keeps no id list, so the manifest's ids die with its index
        scorer = L2Scorer(*read_embeddings(args.embeddings), search_ids, query_ids, args.k)
    elif args.mode == "obj":
        scorer = ObjScorer(load_object_detections(args.detections), search_ids)
    else:
        scorer = SitScorer(_load_situations(args.situations), search_ids,
                           grounded=args.mode == "grsit")

    results = {
        q: [{"id": i, "score": s} for i, s in retrieve_topk(q, search_ids, scorer, args.k)]
        for q in query_ids
    }
    write_output(results, args.out)
    return 0


def cmd_chain(args) -> int:
    write_output(chain(load_chain_nodes(args.situations), spatial_iou=args.iou), args.out)
    return 0


def cmd_anchors(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    ratios = cluster_aspect_ratios(load_boxes(args.boxes), args.k, args.seed)
    write_output({"aspect_ratios": ratios}, args.out)
    return 0


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    step = 1e-5

    def focal():
        n = int(rng.integers(2, 12))
        x = rng.normal(size=n) * 3
        t = (rng.random(n) < 0.5).astype(float)
        params = FocalParams(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0, 4)))
        return x, lambda v: focal_loss(v, t, params)

    def smoothed():
        k = int(rng.integers(2, 12))
        x = rng.normal(size=k) * 3
        target = int(rng.integers(k))
        params = SmoothingParams(float(rng.uniform(0, 0.9)))
        return x, lambda v: smoothed_ce(v, target, params)

    def l1():
        n = int(rng.integers(2, 12))
        x = rng.normal(size=n)
        t = rng.normal(size=n)  # ties have measure zero under the gaussian draw
        return x, lambda v: l1_reg(v, t)

    results = {}
    for kernel, draw in {"focal_loss": focal, "smoothed_ce": smoothed, "l1_reg": l1}.items():
        worst = 0.0
        for _ in range(args.trials):
            x, fn = draw()  # fn returns (loss, gradient)
            analytic = fn(x)[1]
            numeric = np.zeros_like(x)
            for i in range(x.size):  # central difference
                hi, lo = x.copy(), x.copy()
                hi[i] += step
                lo[i] -= step
                numeric[i] = (fn(hi)[0] - fn(lo)[0]) / (2 * step)
            # absolute floor so fp noise on near-zero gradients does not dominate
            denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-6)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
        results[kernel] = worst

    ok = all(err <= 1e-4 for err in results.values())
    write_output({"max_relative_error": results, "pass": ok}, args.out)
    if args.out != "-":
        for kernel, err in results.items():
            print(f"{kernel}: max relative gradient error {err:.3e}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swig", description=__doc__)
    parser.add_argument(
        "--version", action="version",
        version=f"swig-toolkit {__version__} (schema {SCHEMA_VERSION})",
    )
    parser.add_argument("--threads", type=int, default=os.cpu_count(),
                        help="accepted and ignored (numpy's BLAS may use its own threads)")
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
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", help="five-metric evaluation")
    p.add_argument("--dataset", required=True)
    p.add_argument("--preds", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--setting", choices=[s.value for s in VerbSetting], default="gt")
    p.add_argument("--value-all-mode", choices=[m.value for m in ValueAllMode],
                   default="any-per-role")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fuse", help="assign detector boxes to predicted frames")
    p.add_argument("--frames", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--fusion-threshold", type=float, default=DEFAULT_FUSION_THRESHOLD)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("retrieve", help="top-k similar images")
    p.add_argument("--mode", choices=["l2", "obj", "sit", "grsit"], required=True)
    p.add_argument("--query", required=True, help="newline-separated query ids")
    p.add_argument("--search", required=True, help="newline-separated search ids")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--embeddings", help="binary embedding file (mode l2)")
    p.add_argument("--detections", help="detections JSON (mode obj)")
    p.add_argument("--situations", help="situations JSON (modes sit, grsit)")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("chain", help="link situations into a relation graph")
    p.add_argument("--situations", required=True)
    p.add_argument("--iou", type=float, default=DEFAULT_SPATIAL_IOU)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("anchors", help="aspect-ratio clustering for anchors")
    p.add_argument("--boxes", required=True, help="JSON array of [x1,y1,x2,y2]")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("gradcheck", help="finite-difference check of the loss kernels")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    for name, p in sub.choices.items():
        if name != "validate":  # the one subcommand that writes no JSON
            p.add_argument("--out", default="-")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
