"""Library-level operations that have no `swig` subcommand, run in a fresh
process like the CLI ones:

    python3 perfbench/libop.py nms IN.json OUT.json      # geometry.nms
    python3 perfbench/libop.py extract IN.json OUT.json  # retrieval.extract_detections
"""

from __future__ import annotations

import json
import sys

from swig_toolkit import cli, geometry, retrieval
from swig_toolkit.frame_model import BoundingBox


def main(argv) -> int:
    op, src, out = argv
    with open(src, "r", encoding="utf-8") as f:
        data = json.load(f)
    boxes = [BoundingBox(*b) for b in data["boxes"]]
    if op == "nms":
        candidates = [geometry.ScoredBox(b, s) for b, s in zip(boxes, data["scores"])]
        cli.write_output({"kept": geometry.nms(candidates, data["iou"], data["keep"])}, out)
    elif op == "extract":
        det = retrieval.extract_detections(boxes, data["class_logits"], data["noun_ids"],
                                           nms_iou=data["iou"])
        cli.write_output({"classes": list(det.classes), "boxes": [b.as_list() for b in det.boxes]}, out)
    else:
        print(f"unknown operation {op!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
