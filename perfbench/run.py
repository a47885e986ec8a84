"""xisa harness self-benchmark.

    python3 perfbench/run.py --workload suite-native --seed 1 --seconds 30 --trace 0

Runs one workload from the repository root for about ``--seconds`` of whole
cycles and prints, as its last stdout line, one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end set; with ``--trace 1`` untraced and traced cycles alternate,
and the metrics are the per-layer set, the tracing overhead among them.  The
line before it holds the machine stamp and the workload's own stage names.
See ``perfbench/README.md`` for workloads and metrics.
"""
from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import CONFIG, ROOT, command_stage, timed  # noqa: E402

WORKLOADS = {
    "suite-native": ("suite_native", "SuiteNative"),
    "corpus-text": ("corpus_text", "CorpusText"),
    "armvm": ("armvm_guests", "ArmvmGuests"),
}
SETUP_REPEATS = 5
MIN_CYCLES = 4  # untraced cycles; a traced run needs MIN_TRACED of each kind
MIN_TRACED = 2
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

LAYERS = ("asmtext", "tokenizer", "segmenter", "backends", "evaluation",
          "dataset", "toolrun", "armvm", "cli")
# per-layer seconds, read straight from a traced cycle's span totals
SPAN_SECONDS = (
    "evaluation.levenshtein.char.tiny.s", "evaluation.levenshtein.char.mid.s",
    "evaluation.levenshtein.char.large.s", "evaluation.levenshtein.char.rule.s",
    "evaluation.levenshtein.char.suite.s", "evaluation.levenshtein.line.s",
    "tokenizer.byte.s", "tokenizer.extended.s", "tokenizer.build_vocab.s",
    "segmenter.segment.s", "asmtext.parse.s", "asmtext.normalize.s",
    "asmtext.profile.s", "evaluation.classify.s", "evaluation.functional.s",
    "backends.rule.s", "toolrun.compile.s", "toolrun.assemble.s",
    "toolrun.link.s", "toolrun.exec.s", "dataset.compile_pair.s",
    *(f"self.{layer}.s" for layer in LAYERS),
)
# per-layer counts -> the span total each reads
SPAN_COUNTS = {
    "evaluation.levenshtein.cells": "evaluation.levenshtein.cells",
    "tokenizer.byte.tokens": "tokenizer.byte.tokens",
    "tokenizer.extended.tokens": "tokenizer.extended.tokens",
    "tokenizer.calls": "tokenizer.calls",
    "segmenter.segments": "segmenter.segment.segments",
    "segmenter.violations": "segmenter.segment.violations",
    "segmenter.tokenize_calls": "segmenter.tokenize_call.n",
    "asmtext.parse.lines": "asmtext.parse.lines",
    "asmtext.parse.fallbacks": "asmtext.parse.fallbacks",
    "asmtext.profile.flags": "asmtext.profile.flags",
    "evaluation.functional.runs": "evaluation.functional.n",
    "backends.rule.unsupported": "backends.rule.error.UnsupportedInstruction",
    "toolrun.commands": "toolrun.commands",
}


def with_sums(totals: dict[str, float]) -> dict[str, float]:
    """Span totals plus the counts that add several of them up."""
    return {
        **totals,
        "evaluation.levenshtein.cells": sum(
            v for k, v in totals.items()
            if k.startswith("evaluation.levenshtein.") and k.endswith(".cells")),
        "tokenizer.calls": totals.get("tokenizer.byte.n", 0) + totals.get("tokenizer.extended.n", 0),
        "toolrun.commands": sum(totals.get(f"toolrun.{k}.n", 0)
                                for k in ("compile", "assemble", "link", "exec", "other")),
    }


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    pct = int(100 * (1 - TAIL_BEYOND / len(samples)))
    if pct < 1:
        raise ValueError(f"{len(samples)} samples are too few for a tail")
    return statistics.quantiles(samples, n=100)[pct - 1], pct


def peak_rss_kib() -> int:
    """Largest resident set of this process and of any child it waited for:
    the guests' interpreters and the toolchain run as children."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def machine_stamp() -> dict:
    def burn(copies: int) -> float:
        code = "s = 0\nfor i in range(3_000_000): s += i"
        start = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, "-c", code]) for _ in range(copies)]
        for p in procs:
            p.wait()
        return time.perf_counter() - start

    one, two = burn(1), burn(2)
    gcc = subprocess.run(["gcc", "--version"], capture_output=True, text=True, check=True)
    return {
        "nproc": os.cpu_count(),
        "effective_parallelism": round(2 * one / two, 2),
        "python": platform.python_version(),
        "gcc": gcc.stdout.splitlines()[0],
        "missing": [t for t in ("clang", "ld.lld", "qemu-arm") if shutil.which(t) is None],
    }


def set_up(workload: str, seed: int, work: Path):
    """Set the workload up SETUP_REPEATS times, each with a cold ``import
    xisa`` in a subprocess and after one reference run; returns the last
    instance, every set-up's seconds and every reference run's seconds."""
    module, cls = WORKLOADS[workload]
    wl_class = getattr(importlib.import_module(module), cls)
    seconds, reference = [], []

    def once() -> None:
        subprocess.run([sys.executable, "-c", "import xisa.cli, xisa.armvm"], check=True)
        wl.setup()

    for i in range(SETUP_REPEATS):
        wl_work = work / f"setup{i}"
        wl_work.mkdir()
        wl = wl_class(seed, wl_work, os.cpu_count() or 1)
        reference.append(timed(wl.reference))
        seconds.append(timed(once))
    return wl, seconds, reference


def run_cycles(wl, seconds: float, tracer):
    """Whole cycles for about ``seconds``; with a tracer, untraced and traced
    cycles alternate.  The workload's reference task runs after each cycle.
    Returns (untraced, traced, span totals per traced, reference seconds)."""
    plain, traced, totals, walls, reference = [], [], [], [], []
    if tracer:
        import spans
        from xisa.core import load_config

        classify = command_stage(load_config(CONFIG))
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(plain) > len(traced)
        if use_trace:
            spans.install_xisa(tracer, classify)
            first = len(tracer.spans)
        t0 = time.perf_counter()
        try:
            cycle = wl.cycle(tracer if use_trace else None)
        finally:
            if use_trace:
                tracer.uninstall()
        walls.append(time.perf_counter() - t0)
        reference.append(timed(wl.reference))
        if use_trace:
            traced.append(cycle)
            totals.append(tracer.summarize(first, len(tracer.spans)))
        else:
            plain.append(cycle)
        if tracer:
            enough = min(len(plain), len(traced)) >= MIN_TRACED
        else:
            enough = len(plain) >= MIN_CYCLES
        if enough and time.perf_counter() - start + statistics.median(walls) > seconds:
            return plain, traced, totals, reference


def per_item(stage: str, cycles: list, scale: float = 1.0) -> float:
    return statistics.median(c.stages[stage] / c.items[stage] for c in cycles) * scale


def count(name: str, cycles: list) -> float:
    return statistics.median(c.counts.get(name, 0) for c in cycles)


def layer_metrics(wl, tracer, plain, traced, totals, scale: float) -> dict:
    """The per-layer set: medians over traced cycles, plus the armvm probe."""
    totals = [with_sums(t) for t in totals]
    layer: dict[str, tuple[float, str]] = {}
    for name in SPAN_SECONDS:
        layer[name] = (statistics.median(
            t.get(name, 0.0) for t in totals) * scale, "s")
    for name, key in SPAN_COUNTS.items():
        layer[name] = (statistics.median(t.get(key, 0.0) for t in totals), "count")
    untraced_s = statistics.median(sum(c.stages.values()) for c in plain) * scale
    traced_s = statistics.median(sum(c.stages.values()) for c in traced) * scale
    layer["trace.overhead_s"] = (traced_s - untraced_s, "s")
    layer["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "share")
    layer["dataset.store_bytes"] = (count("store_bytes", traced), "bytes")
    layer["build_s_per_pair"] = (
        per_item("build", plain, scale) if "build" in plain[0].stages else 0.0, "s")
    layer["class_mismatches"] = (count("class_mismatches", plain), "count")
    armvm = {"armvm.startup_s": 0.0, "armvm.load_elf.s": 0.0, "armvm.run.s": 0.0,
             "armvm.guest_instr": 0, "armvm.minstr_per_s": 0.0}
    if hasattr(wl, "probe"):
        import spans
        from xisa.core import load_config

        armvm["armvm.startup_s"] = per_item("startup", traced, scale)
        spans.install_xisa(tracer, command_stage(load_config(CONFIG)))
        try:
            armvm.update(wl.probe(tracer, scale))
        finally:
            tracer.uninstall()
    units = {"armvm.guest_instr": "count", "armvm.minstr_per_s": "Minstr/s"}
    for name, value in armvm.items():
        layer[name] = (value, units.get(name, "s"))
    return layer


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    wl, setups, reference = set_up(workload, seed, work)
    stamp = machine_stamp()
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    plain, traced, totals, cycle_reference = run_cycles(wl, seconds, tracer)

    # The box's speed drifts by tens of percent from minute to minute with the
    # load of whatever shares it.  Every time is reported at reference speed:
    # multiplied by the reference task's nominal seconds over its median
    # measured seconds in this run.  The task uses no xisa code.
    scale = wl.reference_nominal_s / statistics.median(reference + cycle_reference)
    cycles = plain + traced
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    wrong = sum(c.wrong for c in cycles)
    samples = [s * scale for c in plain for s in c.samples]
    work_tail, pct = tail(samples)
    info = {
        "workload": workload, "seed": seed, "trace": int(trace), "machine": stamp,
        "cycles": len(plain), "traced_cycles": len(traced),
        **{name: per_item(stage, plain, scale) for name, stage in wl.stage_names.items()},
        wl.tail_name: work_tail,
        "tail_percentile": pct, "tail_samples": len(samples),
        "wrong_outputs": wrong, "failed_ops_share": failed / attempted,
        "counts": {k: count(k, plain) for c in plain for k in c.counts},
        "raw_s_per_item": {name: per_item(stage, plain)
                           for name, stage in wl.stage_names.items()},
        "reference_slowdown": 1 / scale,
    }
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups) * scale, "s"),
            "peak_rss_mb": (peak_rss_kib() / 1024, "MB"),
            "ingest_s_per_item": (per_item(wl.ingest_stage, plain, scale), "s"),
            "work_s_per_item": (per_item(wl.main_stage, plain, scale), "s"),
            "work_tail_s": (work_tail, "s"),
        }
    else:
        metrics = layer_metrics(wl, tracer, plain, traced, totals, scale)
        metrics["wrong_outputs"] = (wrong, "count")
        metrics["failed_ops_share"] = (failed / attempted, "share")
        out_dir = ROOT / "perfbench" / ".out"
        out_dir.mkdir(exist_ok=True)
        with gzip.open(out_dir / f"trace-{workload}.ndjson.gz", "wt", encoding="utf-8") as fh:
            tracer.write(fh)
    return _result(attempted, failed, wrong, metrics), info


def _result(attempted: int, failed: int, wrong: int, metrics: dict) -> dict:
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "xisa" / "__init__.py").is_file():
        print(f"perfbench: no xisa sources under {src}", file=sys.stderr)
        return 2
    if shutil.which("gcc") is None:
        print("perfbench: gcc not found; every workload needs it", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    work = ROOT / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    # xisa's temporary directories and gcc's temporary files stay in the checkout
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    try:
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
