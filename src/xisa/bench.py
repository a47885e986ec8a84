"""Repeated-execution benchmarking with geometric-mean aggregation.

Runs execute strictly sequentially (measurement isolation), wall time comes
from a monotonic clock, and peak resident set size comes from the child's
rusage accounting rather than sampling.  Failed runs are excluded from
aggregation and counted separately.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass
from statistics import geometric_mean as geomean

from .errors import AllRunsFailed

SUMMARY_SCHEMA = "xisa.bench_summary/v1"


@dataclass(frozen=True)
class BenchSample:
    wall_time: float
    max_rss: int
    exit_code: int


@dataclass(frozen=True)
class BenchSummary:
    mode: str
    n_valid: int
    n_failed: int
    geomean_time: float
    geomean_rss: float
    samples: tuple[BenchSample, ...] = ()


def _measure_once(argv: list[str], timeout: float) -> BenchSample:
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return BenchSample(
        wall_time=max(wall, 1e-9),
        max_rss=rusage.ru_maxrss * 1024,  # Linux reports KiB
        exit_code=proc.returncode,
    )


def bench_run(
    binary: str,
    args: Sequence[str] = (),
    runs: int = 100,
    mode: str = "default",
    warmup: int = 3,
    timeout: float = 60.0,
    wrapper: str = "",
) -> BenchSummary:
    """Execute ``binary`` runs+warmup times sequentially and aggregate.

    ``wrapper`` optionally prefixes every invocation (an energy sampler or
    emulator command); it is split shell-style and prepended verbatim.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if not os.path.exists(binary):
        raise FileNotFoundError(f"benchmark binary missing: {binary}")
    argv = (shlex.split(wrapper) if wrapper else []) + [binary, *args]

    for _ in range(max(0, warmup)):
        _measure_once(argv, timeout)

    samples = [_measure_once(argv, timeout) for _ in range(runs)]
    valid = [s for s in samples if s.exit_code == 0]
    failed = len(samples) - len(valid)
    if not valid:
        raise AllRunsFailed(f"all {runs} runs of {binary} exited non-zero")
    return BenchSummary(
        mode=mode,
        n_valid=len(valid),
        n_failed=failed,
        geomean_time=geomean([s.wall_time for s in valid]),
        geomean_rss=geomean([float(s.max_rss) for s in valid]),
        samples=tuple(samples),
    )


@dataclass(frozen=True)
class ModeComparison:
    mode: str
    speedup: float
    memory_ratio: float


def compare_modes(
    summaries: Sequence[BenchSummary], baseline_mode: str
) -> list[ModeComparison]:
    """Speedups and memory ratios relative to the baseline (normalized to 1.0).

    speedup > 1 means the mode is faster than the baseline; memory_ratio > 1
    means it uses less peak memory.
    """
    by_mode = {s.mode: s for s in summaries}
    if baseline_mode not in by_mode:
        raise ValueError(f"baseline mode {baseline_mode!r} not present")
    base = by_mode[baseline_mode]
    rows = []
    for summary in summaries:
        rows.append(
            ModeComparison(
                mode=summary.mode,
                speedup=base.geomean_time / summary.geomean_time,
                memory_ratio=base.geomean_rss / summary.geomean_rss,
            )
        )
    return rows


def summary_to_record(summary: BenchSummary) -> dict:
    return {
        "schema": SUMMARY_SCHEMA,
        "mode": summary.mode,
        "n_valid": summary.n_valid,
        "n_failed": summary.n_failed,
        "geomean_time": summary.geomean_time,
        "geomean_rss": summary.geomean_rss,
        "samples": [
            {"wall_time": s.wall_time, "max_rss": s.max_rss, "exit_code": s.exit_code}
            for s in summary.samples
        ],
    }


def record_to_summary(record: dict) -> BenchSummary:
    samples = tuple(
        BenchSample(s["wall_time"], s["max_rss"], s["exit_code"])
        for s in record["samples"]
    )
    return BenchSummary(
        mode=record["mode"],
        n_valid=record["n_valid"],
        n_failed=record["n_failed"],
        geomean_time=record["geomean_time"],
        geomean_rss=record["geomean_rss"],
        samples=samples,
    )
