"""SWiG-scale benchmark of the swig toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the toolkit is
imported from the checkout's `src/`. The seeded inputs are generated (or
taken from the cache under `perfbench/.cache/`) before anything is timed.
Every operation runs in a fresh process, one at a time, and its output is
checked against a reference after the timed pass.

With `--trace 0` the run repeats whole passes of the workload for at least
S seconds and reports the end-to-end metrics of BENCHMARK.json. With
`--trace 1` it runs one untraced pass and one traced pass (each operation
under `tracer.py`) and reports the per-layer metrics. The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = ("cli", "dataset_io", "frame_model", "metrics", "geometry", "fusion", "retrieval",
           "chaining", "loss_kernels")
SETUP_SAMPLES = 11
OP_TIMEOUT_S = 150  # one operation; the whole run must end within 180 s
RUN_BUDGET_S = 120  # no further pass starts once this much of the run is spent
MIN_PASSES = 3  # per end-to-end run, besides measuring for at least --seconds


@dataclass
class Result:
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def run_process(cmd, label, work, env) -> Result:
    """Run `cmd` to completion through `launch.py`, which times it from
    spawn to exit and reads its own peak RSS."""
    stdout, stderr, status = (os.path.join(work, f"{label}.{s}") for s in ("stdout", "stderr", "status"))
    launcher = [sys.executable, os.path.join(HERE, "launch.py"), status, str(OP_TIMEOUT_S)]
    with open(stdout, "wb") as so, open(stderr, "wb") as se:
        subprocess.run(launcher + cmd, stdout=so, stderr=se, env=env, cwd=work,
                       timeout=OP_TIMEOUT_S + 10, check=True)
    with open(status, "r", encoding="utf-8") as f:
        r = json.load(f)
    return Result(r["rc"], r["wall_s"], r["rss_mb"], stdout, stderr)


def run_pass(ops, work, env, traced=False):
    """Run every operation once, in order; returns (wall_s, results, spans
    files). The pass's wall time is the sum of its operations' wall times."""
    results, spans = [], []
    for op in ops:
        if traced:
            spans.append(os.path.join(work, f"{op.label}.spans.json"))
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans[-1], op.label, op.kind, *op.argv]
        elif op.kind == "cli":
            cmd = [sys.executable, "-m", "swig_toolkit.cli", *op.argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "libop.py"), *op.argv]
        results.append(run_process(cmd, op.label, work, env))
    return sum(r.wall_s for r in results), results, spans


def check_pass(workload, ops, results, ref):
    from workloads import Failure

    failures = []
    for op, res in zip(ops, results):
        try:
            failure = workload.check(op, res, ref)
        except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
            failure = Failure(f"missing or unreadable output: {e!r}")
        if failure is not None:
            failures.append(failure)
            tag = " (declared defect)" if failure.declared else ""
            print(f"FAILED {op.label}{tag}: {failure.cause}")
    return failures


def self_times(span_files):
    """Sum of self time (duration minus direct children) per span name,
    and the counters, over all traced operations."""
    totals, counters = {}, {}
    for path in span_files:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
        spans = data["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start) - inner
        for name, n in data["counters"].items():
            counters[name] = counters.get(name, 0) + n
    return totals, counters


def setup_sample(work, env) -> float:
    """Wall time of a fresh process that imports the CLI, the work every
    operation does before it can start."""
    r = run_process([sys.executable, "-c", "import swig_toolkit.cli"], "setup", work, env)
    if r.rc:
        raise SystemExit("error: `import swig_toolkit.cli` failed in a fresh process")
    return r.wall_s


def end_to_end(workload, ops, ref, work, env, seconds):
    # set-up samples are split around the passes so a slow phase of the machine skews fewer of them
    setup = [setup_sample(work, env) for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    walls, op_walls, peaks, attempted, failures = [], [], [], 0, []
    begin = time.perf_counter()
    while len(walls) < MIN_PASSES or (
            sum(walls) < seconds and time.perf_counter() - begin + max(walls) < RUN_BUDGET_S):
        wall, results, _ = run_pass(ops, work, env)
        walls.append(wall)
        op_walls.append([r.wall_s for r in results])
        peaks.append(max(r.rss_mb for r in results))
        attempted += len(results)
        failures += check_pass(workload, ops, results, ref)
    setup += [setup_sample(work, env) for _ in range(SETUP_SAMPLES // 2)]
    # a pass of typical operations: each operation's median over the passes, summed, so that
    # a slow phase of the shared host's CPU during one operation is not carried into the whole pass
    wall = sum(statistics.median(times) for times in zip(*op_walls))
    print(f"wall_s: {wall:.3f}, the sum of per-operation medians over {len(walls)} passes of "
          f"{len(ops)} operations; pass sums: " + ", ".join(f"{w:.3f}" for w in walls))
    for op, times in zip(ops, zip(*op_walls)):
        print(f"  {op.label}: " + ", ".join(f"{t:.3f}" for t in times))
    print(f"setup_s: median of {len(setup)} fresh-process imports: "
          + ", ".join(f"{s:.4f}" for s in setup))
    metrics = {
        "wall_s": wall,
        "peak_rss_mb": statistics.median(peaks),
        "setup_s": statistics.median(setup),
        "ok_ratio": (attempted - len(failures)) / attempted,
    }
    return metrics, attempted, failures


def per_layer(workload, ops, ref, work, env):
    wall, results, _ = run_pass(ops, work, env)
    failures = check_pass(workload, ops, results, ref)
    traced_wall, traced_results, span_files = run_pass(ops, work, env, traced=True)
    failures += check_pass(workload, ops, traced_results, ref)
    totals, counters = self_times(f for f in span_files if os.path.exists(f))
    metrics = {f"{name}_s": t for name, t in totals.items() if name not in ("cli.main", "libop.main")}
    metrics["cli.self_s"] = totals.get("cli.main", 0.0)
    metrics.update(counters)
    for op, res in zip(ops, results):
        metrics[f"{op.kind}.{op.label}.wall_s"] = res.wall_s
    files = workload.meta["files"]
    metrics["frame_model.boxes"] = sum(files.get(name, [0, 0])[0] for op in ops for name in op.inputs)
    metrics["frame_model.frames"] = sum(files.get(name, [0, 0])[1] for op in ops for name in op.inputs)
    metrics.update(workload.layer_counts(ref))
    for module in MODULES:
        with open(os.path.join(SRC, "swig_toolkit", f"{module}.py"), "rb") as f:
            metrics[f"{module}.src_lines"] = f.read().count(b"\n")
    metrics["trace.overhead_ratio"] = traced_wall / wall
    print(f"traced pass {traced_wall:.3f} s, untraced pass {wall:.3f} s")
    return metrics, 2 * len(ops), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-check")
    args = parser.parse_args(argv)

    if not (os.path.isfile(os.path.join(SRC, "swig_toolkit", "cli.py"))
            and os.path.isfile(os.path.join(ROOT, "tests", "oracles.py"))):
        print(f"error: {ROOT} is not a swig-toolkit checkout (src/swig_toolkit and "
              "tests/oracles.py are required)", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests"), HERE]
    import fixtures
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    fx = fixtures.fixture_dir(args.seed, toy=args.toy)
    work = tempfile.mkdtemp(prefix="work-", dir=fixtures.CACHE_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](fx, work, fixtures.load_traffic(args.toy))
        ops = workload.ops()
        ref = workload.reference()
        print(f"inputs and reference for seed {args.seed} ready in {time.perf_counter() - start:.1f} s "
              "(excluded from setup_s)")
        if args.trace:
            values, attempted, failures = per_layer(workload, ops, ref, work, env)
            declared = spec["per_layer"]
        else:
            values, attempted, failures = end_to_end(workload, ops, ref, work, env, args.seconds)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": all(f.declared for f in failures), "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
