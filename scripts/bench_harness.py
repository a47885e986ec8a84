#!/usr/bin/env python3
"""armvm layer of the harness self-benchmark: writes a ``BENCH_<pr>.json``.

    python3 scripts/bench_harness.py --baseline <git-rev> --output BENCH_<pr>.json

Measures this checkout's ``src/`` and the ``src/`` of the baseline git
revision (exported with ``git archive`` into a temporary directory),
alternating the two trees over ``ROUNDS`` rounds:

- in-process Minstr/s of ``armvm.run`` on each ``armenc`` guest shape
  (exit, loop, straight, selfstore), best of three runs in each of the
  rounds;
- wall seconds of a ``python -m xisa.armvm`` child on the exit guest, best
  of the rounds: the fixed cost every emulated candidate pays;
- peak RSS of a ``python -m xisa.armvm`` child on the straight guest,
  largest of the rounds.

Every run's exit code is checked against the guest's.  Each measurement
runs in a fresh child process whose ``PYTHONPATH`` names one tree's
``src/``.  The guests are those of perfbench's ``armvm`` workload, at its
sizes, from ``perfbench/armenc.py`` loaded by path.  The output also holds
the machine stamp.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
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

# in-process runs of each guest: prints {shape: best seconds}
CHILD = """
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


def one_round(src: Path, guests: dict) -> dict:
    spec = json.dumps([(shape, guests[shape][0], guests[shape][1], IN_PROCESS_RUNS)
                       for shape in SHAPES])
    proc = subprocess.run([sys.executable, "-c", CHILD, spec], env=child_env(src),
                          capture_output=True, text=True, check=True)
    seconds = json.loads(proc.stdout)
    exit_wall, _ = run_vm(src, guests["exit"])
    _, straight_rss = run_vm(src, guests["straight"])
    return {"seconds": seconds, "exit_wall_s": exit_wall, "straight_rss_mb": straight_rss}


def summarize(rounds: list[dict], guests: dict) -> dict:
    best = {shape: min(r["seconds"][shape] for r in rounds) for shape in SHAPES}
    return {
        "minstr_per_s": {shape: round(guests[shape][2] / best[shape] / 1e6, 4)
                         for shape in SHAPES},
        "run_s": {shape: round(best[shape], 5) for shape in SHAPES},
        "exit_guest_wall_s": round(min(r["exit_wall_s"] for r in rounds), 4),
        "straight_peak_rss_mb": round(max(r["straight_rss_mb"] for r in rounds), 2),
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
        rounds: dict[str, list] = {name: [] for name in trees}
        for i in range(ROUNDS):
            # alternate which tree runs first, so drift favours neither
            order = list(trees) if i % 2 == 0 else list(reversed(trees))
            for name in order:
                rounds[name].append(one_round(trees[name], guests))
        results = {name: summarize(rounds[name], guests) for name in trees}

    report = {
        "layer": "armvm",
        "machine": stamp,
        "rounds": ROUNDS,
        "seed": SEED,
        # git tree ids of the measured src/ (a commit amended later keeps them)
        "head_src_tree": "uncommitted changes" if git("status", "--porcelain", "src")
        else git("rev-parse", "HEAD:src"),
        "guest_instructions": {shape: guests[shape][2] for shape in SHAPES},
        "results": results,
        "baseline": args.baseline,
        "baseline_src_tree": git("rev-parse", f"{args.baseline}:src"),
    }
    base, head = results["baseline"], results["head"]
    report["head_over_baseline"] = {
        "minstr_per_s": {shape: round(head["minstr_per_s"][shape]
                                      / base["minstr_per_s"][shape], 3)
                         for shape in SHAPES},
        "exit_guest_wall_s": round(head["exit_guest_wall_s"]
                                   / base["exit_guest_wall_s"], 3),
        "straight_peak_rss_mb": round(head["straight_peak_rss_mb"]
                                      / base["straight_peak_rss_mb"], 3),
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
