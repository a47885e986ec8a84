#!/usr/bin/env python3
"""Harness self-benchmark, baseline against head: writes a ``BENCH_<pr>.json``.

    python3 scripts/bench_harness.py --baseline <git-rev> --output BENCH_<pr>.json

Measures nothing itself.  It builds two throwaway trees in a temporary
directory: the baseline revision's ``src/`` and ``configs/`` (from ``git
archive``) and this checkout's own, each beside a copy of this checkout's
``perfbench/`` and ``tests/fixtures/``.  The trees are copies, not symlinks,
because perfbench finds its root from its own resolved path.

In each tree it runs ``perfbench/run.py`` on every workload, at ``--trace 0``
(the end-to-end metrics) and ``--trace 1`` (the per-layer metrics), over
``ROUNDS`` rounds with the round number as seed and ``SECONDS`` per run,
alternating which tree goes first.  One warm-up run per tree and workload
comes first and is discarded.  It stops at the first run that exits non-zero
or reports ``correct: false``.

For each metric the output holds each tree's median over the rounds, each
tree's quartile distance (third quartile minus first), and the head/baseline
ratio of the medians.  The ratio is ``inside_spread`` when it is no further
from 1 than the larger of the two trees' quartile distance over the size of
its median: such a ratio cannot be told from noise.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite-native", "corpus-text", "armvm")
ROUNDS = 10  # per tree, workload and trace level
SECONDS = 10  # perfbench's --seconds; a run takes about this plus 5 s
COPIED = ("perfbench", "tests/fixtures")  # from this checkout into both trees
SKIPPED = shutil.ignore_patterns("__pycache__", "*.pyc", ".work", ".out")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def make_tree(dest: Path, baseline: str | None) -> Path:
    """``src/`` and ``configs/`` of ``baseline`` (or of this checkout, if
    None) under ``dest``, beside copies of this checkout's ``COPIED``."""
    if baseline is None:
        for part in ("src", "configs"):
            shutil.copytree(ROOT / part, dest / part, ignore=SKIPPED)
    else:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", baseline, "src", "configs"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest)
    for part in COPIED:
        shutil.copytree(ROOT / part, dest / part, ignore=SKIPPED)
    return dest


def read_result(line: str) -> dict:
    """One perfbench result line, checked: raises ValueError unless it is a
    result object that reports ``correct: true``."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or not {"correct", "attempted", "failed",
                                            "metrics"} <= result.keys():
        raise ValueError(f"not a perfbench result: {line[-200:]!r}")
    if result["correct"] is not True:
        raise ValueError(f"perfbench reports correct: {result['correct']}")
    return result


def run_perfbench(tree: Path, workload: str, seed: int, trace: int) -> str:
    """The result line of one perfbench run in ``tree``; exits the harness
    if the run fails."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        read_result(lines[-1] if lines else "")
    except ValueError as exc:
        sys.exit(f"bench_harness: {tree.name} {workload} seed {seed} trace {trace}: {exc}\n"
                 f"{proc.stderr[-2000:]}")
    return lines[-1]


def quartile_distance(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(lines: dict[str, list[str]]) -> dict:
    """Per metric: each tree's median and quartile distance over its result
    ``lines``, the head/baseline ratio and whether it is inside the spread."""
    runs = {tree: [read_result(line) for line in tree_lines]
            for tree, tree_lines in lines.items()}
    out = {}
    for name, first in runs["baseline"][0]["metrics"].items():
        values = {tree: [r["metrics"][name]["value"] for r in results]
                  for tree, results in runs.items()}
        median = {tree: statistics.median(v) for tree, v in values.items()}
        spread = {tree: quartile_distance(v) for tree, v in values.items()}
        ratio = median["head"] / median["baseline"] if median["baseline"] else None
        relative = max(spread[t] / abs(median[t]) if median[t] else 0.0 for t in runs)
        out[name] = {
            "unit": first["unit"],
            "median": median,
            "quartile_distance": spread,
            "ratio": None if ratio is None else round(ratio, 4),
            "inside_spread": None if ratio is None else abs(ratio - 1) <= relative,
        }
    return out


def tree_id(path: str) -> str:
    """The git tree id of this checkout's ``path``, if it is committed."""
    if git("status", "--porcelain", path):
        return "uncommitted changes"
    return git("rev-parse", f"HEAD:{path}")


def machine_stamp() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True,
                        help="git revision to measure beside this checkout")
    parser.add_argument("--output", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    report = {
        "machine": machine_stamp(),
        "rounds": ROUNDS,
        "seconds": SECONDS,
        "baseline": args.baseline,
        # git tree ids of what was measured (a commit amended later keeps them)
        "baseline_src_tree": git("rev-parse", f"{args.baseline}:src"),
        "baseline_configs_tree": git("rev-parse", f"{args.baseline}:configs"),
        "head_src_tree": tree_id("src"),
        "head_configs_tree": tree_id("configs"),
        "perfbench_tree": tree_id("perfbench"),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        # directory names of equal length: perfbench's stores hold paths
        trees = {"baseline": make_tree(Path(tmp) / "base", args.baseline),
                 "head": make_tree(Path(tmp) / "head", None)}
        for workload in WORKLOADS:
            for tree in trees.values():
                run_perfbench(tree, workload, 0, 0)  # warm-up, discarded
            lines = {trace: {name: [] for name in trees} for trace in (0, 1)}
            runs = []
            for seed in range(1, ROUNDS + 1):
                # alternate which tree runs first, so drift favours neither
                order = list(trees) if seed % 2 else list(reversed(trees))
                for trace in (0, 1):
                    for name in order:
                        line = run_perfbench(trees[name], workload, seed, trace)
                        lines[trace][name].append(line)
                        result = json.loads(line)
                        runs.append({"tree": name, "seed": seed, "trace": trace,
                                     **{k: result[k] for k in ("correct", "attempted", "failed")}})
            report["workloads"][workload] = {
                "end_to_end": summarize(lines[0]),
                "per_layer": summarize(lines[1]),
                "runs": runs,
            }
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
