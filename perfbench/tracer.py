"""Run one benchmark operation in this process with spans around the calls
into each layer, then write the spans and counters as JSON.

    python3 perfbench/tracer.py SPANS_OUT LABEL cli|lib ARGV...

The toolkit itself is not instrumented: the names that `swig_toolkit.cli`
(and the library-level operations in `libop.py`) call are replaced by
wrappers that record a span for each call. Spans stay in memory until
the operation ends.
"""

from __future__ import annotations

import contextlib
import json as _json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


class Trace:
    """In-memory spans (name, start, end, parent index) and counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}

    @contextlib.contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self.stack.pop()][2] = time.perf_counter()

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, module, attr, name, before=None):
        """Replace module.attr, if it exists, by a wrapper that runs it inside
        span `name`; a name the toolkit no longer has simply records no span."""
        fn = getattr(module, attr, None)
        if fn is None:
            return

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(module, attr, traced)


class _JsonShim:
    """Stands in for the `json` module inside one toolkit module, so that
    decode and encode calls get spans and byte counts."""

    def __init__(self, trace):
        self._trace = trace

    def __getattr__(self, attr):
        return getattr(_json, attr)

    def load(self, f, **kwargs):
        with self._trace.span("dataset_io.decode"):
            text = f.read()
            self._trace.count("dataset_io.decode_bytes", len(text))
            return _json.loads(text, **kwargs)

    def dumps(self, obj, **kwargs):
        with self._trace.span("cli.encode"):
            text = _json.dumps(obj, **kwargs)
        self._trace.count("cli.out_bytes", len(text))
        return text


def main(argv) -> int:
    spans_out, label, kind, op_argv = argv[0], argv[1], argv[2], argv[3:]
    suffix = label.split(".", 1)[1] if "." in label else label
    trace = Trace()
    with trace.span("cli.import"):
        import swig_toolkit.cli as cli
        from swig_toolkit import dataset_io, geometry, metrics, retrieval
    shim = _JsonShim(trace)
    dataset_io.json = shim
    cli.json = shim

    warning_lists = []  # clamp warnings land here, counted when the operation ends

    def collect_warnings(args, kwargs):
        if len(args) < 5:
            warning_lists.append(kwargs.setdefault("warnings", []))

    trace.wrap(cli, "load_dataset", "dataset_io.load_dataset", before=collect_warnings)
    trace.wrap(cli, "load_predictions", "dataset_io.load_predictions")
    trace.wrap(cli, "compute_stats", "dataset_io.compute_stats")
    trace.wrap(cli, "evaluate", f"metrics.evaluate.{suffix}")
    trace.wrap(cli, "assign_groundings", "fusion.assign")
    trace.wrap(cli, "read_embeddings", "retrieval.load")
    trace.wrap(cli, "_load_situations", "retrieval.load")
    trace.wrap(cli, "retrieve_topk", f"retrieval.topk.{suffix}",
               before=lambda a, k: trace.count("retrieval.pairs", len(a[1])))
    trace.wrap(cli, "cluster_aspect_ratios", "geometry.cluster")
    trace.wrap(cli, "chain", "chaining.chain")
    trace.wrap(cli, "write_output", "cli.write")
    trace.wrap(retrieval, "extract_detections", "retrieval.extract_detections")
    trace.wrap(geometry, "nms", "geometry.nms.per_class" if label == "extract" else f"geometry.nms.{suffix}")
    iou = metrics.iou

    def counted_iou(a, b):
        trace.count("metrics.iou_pairs")
        return iou(a, b)

    metrics.iou = counted_iou

    if kind == "cli":
        with trace.span("cli.main"):
            rc = cli.main(op_argv)
    else:
        sys.path.insert(0, HERE)
        import libop  # its own json.load of the input is harness work, left out of dataset_io

        with trace.span("libop.main"):
            rc = libop.main(op_argv)

    trace.count("dataset_io.clamped", sum(len(w) for w in warning_lists))
    with open(spans_out, "w", encoding="utf-8") as f:
        _json.dump({"spans": trace.spans, "counters": trace.counters}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
