#!/usr/bin/env python3
"""Harness self-benchmark by layer: writes a ``BENCH_<pr>.json``.

    python3 scripts/bench_harness.py --baseline <git-rev> --output BENCH_<pr>.json

Measures this checkout's ``src/`` and the ``src/`` of the baseline git
revision (exported with ``git archive`` into a temporary directory),
alternating the two trees over ``ROUNDS`` rounds.

armvm layer:

- in-process Minstr/s of ``armvm.run`` on each ``armenc`` guest shape
  (exit, loop, straight, selfstore), best of three runs in each of the
  rounds;
- wall seconds of a ``python -m xisa.armvm`` child on the exit guest, best
  of the rounds: the fixed cost every emulated candidate pays;
- peak RSS of a ``python -m xisa.armvm`` child on the straight guest,
  largest of the rounds.

Beside each head/baseline ratio stands each tree's spread over the rounds:
its largest per-round value over its smallest.  A ratio further from 1 than
the spreads can be told from noise; one inside them cannot.

Every run's exit code is checked against the guest's.  The guests are those
of perfbench's ``armvm`` workload, at its sizes, from ``perfbench/armenc.py``
loaded by path.

build layer (gcc only): ``mini_suite`` is loaded as x86_64 self-translation
under ``configs/clang-lite.cfg``, and each pair's ground truth is run through
``evaluation.run_functional`` ``BEAMS`` times in a row, as a beam list would
be, in a fresh child per round, so every pair's first call starts cold and
later calls show only reuse within the pair.  Reported: the median seconds
per call over all rounds, for the first beam and for the later ones; the
median seconds of each ``toolrun.run_command`` step by template; and
``run_command`` calls per candidate.  Every call must pass.

Each measurement runs in a fresh child process whose ``PYTHONPATH`` names
one tree's ``src/``; both trees use this checkout's configs and fixtures.
The output holds the machine stamp and each layer's results under
``layers``.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPES = ("exit", "loop", "straight", "selfstore")
# the sizes of perfbench/armvm_guests.py
LOOP_ITERATIONS = 7000
STRAIGHT_LENGTH = 30000
SELFSTORE_ITERATIONS = 12000
SEED = 0  # of the guests' random programs

ROUNDS = 7  # per tree, alternating
IN_PROCESS_RUNS = 3  # per guest and round, in one child
BEAMS = 4  # run_functional calls per mini_suite pair and round
BUILD_CONFIG = ROOT / "configs" / "clang-lite.cfg"
BUILD_SUITE = ROOT / "tests" / "fixtures" / "mini_suite"

# in-process runs of each guest: prints {shape: best seconds}
ARMVM_CHILD = """
import json, sys, time
from xisa import armvm
out = {}
for shape, path, code, runs in json.loads(sys.argv[1]):
    for _ in range(runs):
        start = time.perf_counter()
        got = armvm.run(path)
        seconds = time.perf_counter() - start
        if got != code:
            sys.exit(f"{shape}: exit code {got}, expected {code}")
        out[shape] = min(out.get(shape, seconds), seconds)
print(json.dumps(out))
"""


# one pass over the suite: prints every call's seconds and every step's
BUILD_CHILD = """
import json, sys, time
from xisa import core, dataset, evaluation, toolrun
config, suite, beams = json.loads(sys.argv[1])
cfg = core.load_config(config)
pairs = dataset.load_eval_suite(suite, "x86_64", cfg)
steps = {}
real = toolrun.run_command
def timed(template, mapping, timeout):
    start = time.perf_counter()
    try:
        return real(template, mapping, timeout)
    finally:
        steps.setdefault(template, []).append(time.perf_counter() - start)
toolrun.run_command = timed
calls = []
for pair in pairs:
    beam_s = []
    for _ in range(beams):
        start = time.perf_counter()
        outcome, logs = evaluation.run_functional(pair.target.normalized_text, pair, cfg)
        beam_s.append(time.perf_counter() - start)
        if not outcome.is_pass:
            sys.exit(f"{pair.pair_id}: {outcome.describe()}\\n{logs}")
    calls.append(beam_s)
print(json.dumps({"calls": calls, "steps": steps}))
"""


def load_armenc():
    spec = importlib.util.spec_from_file_location("armenc", ROOT / "perfbench" / "armenc.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def write_guests(work: Path, seed: int) -> dict:
    """The four guest ELFs under ``work``: {shape: (path, exit code, instructions)}."""
    armenc = load_armenc()
    rng = random.Random(seed)
    guests = [armenc.exit_guest(rng),
              armenc.loop_guest(rng, LOOP_ITERATIONS),
              armenc.straight_guest(rng, STRAIGHT_LENGTH),
              armenc.selfstore_guest(rng, SELFSTORE_ITERATIONS)]
    out = {}
    for g in guests:
        path = work / f"{g.name}.elf"
        path.write_bytes(g.image)
        out[g.name] = (str(path), g.exit_code, g.instructions)
    return out


def export_tree(rev: str, dest: Path) -> Path:
    """``rev``'s ``src/``, unpacked under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    archive_path = dest / "src.tar"
    archive_path.write_bytes(archive)
    with tarfile.open(archive_path) as tar:
        tar.extractall(dest)
    return dest / "src"


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def child_env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src)}


def run_vm(src: Path, guest: tuple) -> tuple[float, float]:
    """Wall seconds and peak RSS (MB) of one ``python -m xisa.armvm`` child."""
    path, code, _instr = guest
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "xisa.armvm", path], env=child_env(src))
    # wait4 gives this child's own rusage; Popen is told it has been reaped
    _pid, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != code:
        raise RuntimeError(f"{path}: exit code {proc.returncode}, expected {code}")
    return seconds, usage.ru_maxrss / 1024


def armvm_round(src: Path, guests: dict) -> dict:
    spec = json.dumps([(shape, guests[shape][0], guests[shape][1], IN_PROCESS_RUNS)
                       for shape in SHAPES])
    proc = subprocess.run([sys.executable, "-c", ARMVM_CHILD, spec], env=child_env(src),
                          capture_output=True, text=True, check=True)
    seconds = json.loads(proc.stdout)
    exit_wall, _ = run_vm(src, guests["exit"])
    _, straight_rss = run_vm(src, guests["straight"])
    return {"seconds": seconds, "exit_wall_s": exit_wall, "straight_rss_mb": straight_rss}


def build_round(src: Path) -> dict:
    spec = json.dumps([str(BUILD_CONFIG), str(BUILD_SUITE), BEAMS])
    proc = subprocess.run([sys.executable, "-c", BUILD_CHILD, spec], env=child_env(src),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"build layer child failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def summarize_armvm(rounds: list[dict], guests: dict) -> dict:
    best = {shape: min(r["seconds"][shape] for r in rounds) for shape in SHAPES}
    return {
        "minstr_per_s": {shape: round(guests[shape][2] / best[shape] / 1e6, 4)
                         for shape in SHAPES},
        "run_s": {shape: round(best[shape], 5) for shape in SHAPES},
        "exit_guest_wall_s": round(min(r["exit_wall_s"] for r in rounds), 4),
        "straight_peak_rss_mb": round(max(r["straight_rss_mb"] for r in rounds), 2),
    }


def summarize_build(rounds: list[dict]) -> dict:
    calls = [pair for r in rounds for pair in r["calls"]]
    candidates = sum(len(pair) for pair in calls)
    steps: dict[str, list[float]] = {}
    for r in rounds:
        for template, seconds in r["steps"].items():
            steps.setdefault(template, []).extend(seconds)
    return {
        "candidates": candidates,
        "call_s_median": round(statistics.median(s for pair in calls for s in pair), 5),
        "first_beam_s_median": round(statistics.median(pair[0] for pair in calls), 5),
        "later_beam_s_median": round(statistics.median(s for pair in calls for s in pair[1:]), 5),
        "step_s_median": {t: round(statistics.median(v), 5) for t, v in steps.items()},
        "step_calls": {t: len(v) for t, v in steps.items()},
        "run_command_calls_per_candidate": round(
            sum(len(v) for v in steps.values()) / candidates, 4),
    }


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

    stamp = machine_stamp()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        guests = write_guests(work, SEED)
        base = work / "baseline"
        base.mkdir()
        trees = {"baseline": export_tree(args.baseline, base), "head": ROOT / "src"}
        armvm_rounds: dict[str, list] = {name: [] for name in trees}
        build_rounds: dict[str, list] = {name: [] for name in trees}
        for i in range(ROUNDS):
            # alternate which tree runs first, so drift favours neither
            order = list(trees) if i % 2 == 0 else list(reversed(trees))
            for name in order:
                armvm_rounds[name].append(armvm_round(trees[name], guests))
                build_rounds[name].append(build_round(trees[name]))
        armvm = {name: summarize_armvm(armvm_rounds[name], guests) for name in trees}
        build = {name: summarize_build(build_rounds[name]) for name in trees}

    def ratio(key: str, layer: dict) -> float:
        return round(layer["head"][key] / layer["baseline"][key], 3)

    def beside_spread(head_over_baseline: float, per_round) -> dict:
        """The ratio, and each tree's max/min over rounds of ``per_round(round)``."""
        return {"ratio": head_over_baseline, "spread": {
            name: round(max(map(per_round, rounds)) / min(map(per_round, rounds)), 3)
            for name, rounds in armvm_rounds.items()}}

    report = {
        "machine": stamp,
        "rounds": ROUNDS,
        "baseline": args.baseline,
        "baseline_src_tree": git("rev-parse", f"{args.baseline}:src"),
        # git tree ids of the measured src/ (a commit amended later keeps them)
        "head_src_tree": "uncommitted changes" if git("status", "--porcelain", "src")
        else git("rev-parse", "HEAD:src"),
        "layers": {
            "armvm": {
                "seed": SEED,
                "guest_instructions": {shape: guests[shape][2] for shape in SHAPES},
                "results": armvm,
                "head_over_baseline": {
                    "minstr_per_s": {
                        shape: beside_spread(
                            round(armvm["head"]["minstr_per_s"][shape]
                                  / armvm["baseline"]["minstr_per_s"][shape], 3),
                            lambda r, shape=shape: r["seconds"][shape])
                        for shape in SHAPES},
                    "exit_guest_wall_s": beside_spread(
                        ratio("exit_guest_wall_s", armvm), lambda r: r["exit_wall_s"]),
                    "straight_peak_rss_mb": beside_spread(
                        ratio("straight_peak_rss_mb", armvm), lambda r: r["straight_rss_mb"]),
                },
            },
            "build": {
                "config": str(BUILD_CONFIG.relative_to(ROOT)),
                "suite": str(BUILD_SUITE.relative_to(ROOT)),
                "beams": BEAMS,
                "results": build,
                "head_over_baseline": {
                    key: ratio(key, build)
                    for key in ("call_s_median", "first_beam_s_median",
                                "later_beam_s_median", "run_command_calls_per_candidate")
                },
            },
        },
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
