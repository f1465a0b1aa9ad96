"""Toy-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Asserts that every workload, untraced and traced, prints a result line
with every metric that BENCHMARK.json names; that every output check
accepts the toolkit's output and rejects a corrupted copy of it; and that
the benchmark fails without printing a result in a directory that holds
only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def corrupt(path):
    """Add 1 to the first number in the JSON file at `path`."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    stack = [(None, None, data)]
    while stack:
        parent, key, value = stack.pop(0)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            parent[key] = value + 1
            break
        items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
        stack[:0] = [(value, k, v) for k, v in items]
    else:
        raise AssertionError(f"{path} holds no number to corrupt")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                         "--trace", str(trace), "--toy")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] is True and result["attempted"] >= 1, result
            assert list(result["metrics"]) == [m["name"] for m in spec[kind]], workload
            print(f"ok: {workload} --trace {trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed")

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    import fixtures
    import run
    import workloads

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for name, cls in workloads.WORKLOADS.items():
        work = tempfile.mkdtemp(prefix="selfcheck-", dir=fixtures.CACHE_DIR)
        try:
            workload = cls(fixtures.fixture_dir(SEED, toy=True), work, fixtures.load_traffic(toy=True))
            ops, ref = workload.ops(), workload.reference()
            _, results, _ = run.run_pass(ops, work, env)
            for op, res in zip(ops, results):
                if op.out is None:
                    continue
                assert workload.check(op, res, ref) is None, op.label
                corrupt(op.out)
                assert workload.check(op, res, ref) is not None, f"{op.label}: corruption not detected"
                print(f"ok: {name} {op.label}: check rejects a corrupted output")
        finally:
            shutil.rmtree(work, ignore_errors=True)

    bare = tempfile.mkdtemp(prefix="selfcheck-bare-", dir=fixtures.CACHE_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".cache"))
        proc = bench("--workload", "eval-split", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare, root=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
        print(f"ok: without the toolkit the benchmark exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
