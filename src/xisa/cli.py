"""Command-line entry point.

Subcommands mirror the pipeline stages: ``dataset`` builds paired corpora,
``tokenizer`` builds vocabularies and reports token statistics, ``transpile``
drives one backend over one file, ``eval`` scores a suite, ``segment`` windows
long functions, ``bench`` measures binaries, ``report`` renders result tables.

Exit codes: 0 success, 1 candidate-level failures present, 2 infrastructure
or usage error.  Machine output is newline-delimited JSON; human tables only
come from ``report``.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import os
import shlex
import sys
from pathlib import Path

from . import bench as bench_mod
from . import dataset as dataset_mod
from . import evaluation as eval_mod
from . import tokenizer as tok
from .asmtext import parse_assembly
from .backends import TranspileRequest, check_target, make_backend
from .core import GenerationParams, IsaName, ToolchainConfig, load_config
from .core import atomic_write, read_records, write_records
from .dataset import read_store
from .errors import BackendRefused, ConfigError, XisaError
from .segmenter import segment_unit
from .tokenizer import load_vocab, save_vocab

RUN_SCHEMA = "xisa.run/v1"


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _config_fingerprint(cfg: ToolchainConfig) -> str:
    """Hash of the parsed config, so it covers commands after $VAR expansion."""
    return hashlib.sha256(repr(cfg).encode()).hexdigest()[:16]


def _write_run_record(
    argv: list[str],
    started: str,
    out: str,
    cfg: ToolchainConfig | None = None,
    tool_versions: dict[str, str] | None = None,
) -> None:
    """The run record of a command that writes ``out``, as ``<out>.run.json``:
    what is not deterministic stays out of ``out`` itself."""
    write_records(out + ".run.json", [{
        "schema": RUN_SCHEMA,
        "command": shlex.join(["xisa", *argv]),
        "config_fingerprint": _config_fingerprint(cfg) if cfg else "none",
        "tool_versions": tool_versions or {},
        "started": started,
        "finished": _now(),
        "outputs": [out],
    }])


def _load_cfg(args: argparse.Namespace) -> ToolchainConfig:
    path = getattr(args, "config", None) or os.environ.get("XISA_CONFIG")
    if not path:
        raise ConfigError("no toolchain config: pass --config or set XISA_CONFIG")
    return load_config(path)


def _vocab_or_baseline(path: str | None) -> tok.TokenizerSpec:
    if path:
        return load_vocab(path)
    return tok.BYTE_BASELINE


# --- subcommand handlers ------------------------------------------------------

def _cmd_dataset(args: argparse.Namespace, argv: list[str]) -> int:
    if args.dataset_cmd == "inspect":
        count = 0
        token_x86 = token_tgt = 0
        for pair in read_store(args.store):
            count += 1
            token_x86 += pair.token_count_x86
            token_tgt += pair.token_count_target
        print(f"records: {count}")
        if count:
            print(f"mean tokens x86:    {token_x86 / count:.1f}")
            print(f"mean tokens target: {token_tgt / count:.1f}")
            # one build: every record has the same target and opt level
            print(f"target ISA: {pair.target_isa.value}  opt: {pair.opt_level}")
        sidecar = args.store + ".run.json"
        if Path(sidecar).exists():
            for versions in read_records(sidecar, RUN_SCHEMA, lambda r: dict(r["tool_versions"])):
                for isa, fp in versions.items():
                    print(f"  {isa}: {fp}")
        return 0

    started = _now()
    cfg = _load_cfg(args)
    spec = _vocab_or_baseline(args.vocab)
    written = dataset_mod.build_corpus(
        args.src,
        args.target,
        cfg,
        args.out,
        sample=args.sample,
        seed=args.seed,
        tokenizer_spec=spec,
        jobs=args.jobs,
    )
    versions = dataset_mod.toolchain_fingerprints(
        cfg, [IsaName.X86_64, IsaName(args.target)]
    )
    _write_run_record(argv, started, args.out, cfg, versions)
    print(f"built {written} pairs -> {args.out}")
    return 0 if written > 0 else 1


def _cmd_tokenizer(args: argparse.Namespace, argv: list[str]) -> int:
    if args.tokenizer_cmd == "build":
        started = _now()
        units = []
        if args.corpus_store:
            for pair in read_store(args.corpus_store):
                units.append(parse_assembly(pair.x86.normalized_text, IsaName.X86_64))
                units.append(parse_assembly(pair.target.normalized_text, pair.target_isa))
        else:
            isa = IsaName(args.isa)
            for path in sorted(Path(args.asm_dir).glob("*.s")):
                units.append(
                    parse_assembly(path.read_text(encoding="utf-8"), isa, path.name)
                )
        spec = tok.build_vocab(units, top_k=args.top_k)
        save_vocab(spec, args.out)
        _write_run_record(argv, started, args.out)
        print(f"vocabulary {spec.version}: {len(spec.extended_entries)} entries -> {args.out}")
        return 0

    # stats: token reduction of extended over the byte baseline
    extended = load_vocab(args.extended)
    texts: list[str] = []
    if args.corpus_store:
        for pair in read_store(args.corpus_store):
            texts.append(pair.target.normalized_text)
    else:
        for path in sorted(Path(args.asm_dir).glob("*.s")):
            texts.append(path.read_text(encoding="utf-8"))
    ratio = tok.token_reduction_ratio(texts, tok.BYTE_BASELINE, extended)
    print(f"corpus items: {len(texts)}")
    print(f"token reduction: {ratio * 100.0:.2f}%")
    return 0


def _cmd_transpile(args: argparse.Namespace, argv: list[str]) -> int:
    started = _now()
    check_target(args.backend, IsaName(args.target))
    cfg = _load_cfg(args) if (args.config or os.environ.get("XISA_CONFIG")) else None
    source = Path(args.infile).read_text(encoding="utf-8")
    spec = _vocab_or_baseline(args.vocab)
    backend_kwargs = {
        "endpoint": args.endpoint,
        "tokenizer_spec": spec if args.vocab else None,
    }
    if cfg is not None:
        backend_kwargs["preamble"] = cfg.prompt_preamble
    backend = make_backend(args.backend, **backend_kwargs)
    params = GenerationParams(num_beams=args.beams)
    try:
        response = backend.transpile(
            TranspileRequest(
                source_text=source, target_isa=IsaName(args.target), params=params
            )
        )
    except BackendRefused as exc:  # scored as the candidate's failure, as in eval
        print(f"transpile failed: {exc}", file=sys.stderr)
        return 1
    atomic_write(args.out, [response.candidates[0].text])
    _write_run_record(argv, started, args.out, cfg)
    print(f"{backend.backend_id}: {len(response.candidates)} candidate(s) -> {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace, argv: list[str]) -> int:
    started = _now()
    check_target(args.backend, IsaName(args.target))
    cfg = _load_cfg(args)
    spec = _vocab_or_baseline(args.vocab)
    pairs = dataset_mod.load_eval_suite(
        args.suite, args.target, cfg, spec, jobs=args.jobs
    )
    backend = make_backend(
        args.backend,
        pairs=pairs,
        endpoint=args.endpoint,
        tokenizer_spec=spec if args.vocab else None,
        preamble=cfg.prompt_preamble,
    )
    params = GenerationParams(num_beams=args.beams)
    results, summary = eval_mod.evaluate_suite(
        pairs,
        backend,
        params,
        cfg,
        raw=args.policy == "raw",
        jobs=args.jobs,
        line_level=args.line_level,
    )
    write_records(args.out, (eval_mod.result_to_record(r) for r in results))
    versions = dataset_mod.toolchain_fingerprints(
        cfg, [IsaName.X86_64, IsaName(args.target)]
    )
    _write_run_record(argv, started, args.out, cfg, versions)
    print(
        f"n={summary.n} avg_edit={summary.avg_edit_distance:.2f} "
        f"exact={summary.exact_match_rate * 100:.2f}% "
        f"accuracy={summary.test_accuracy * 100:.2f}% -> {args.out}"
    )
    return 0 if summary.test_accuracy == 1.0 else 1


def _cmd_segment(args: argparse.Namespace, argv: list[str]) -> int:
    spec = _vocab_or_baseline(args.vocab)
    unit = parse_assembly(
        Path(args.infile).read_text(encoding="utf-8"), IsaName(args.isa)
    )
    segments = segment_unit(unit, spec, args.budget)
    for seg in segments:
        flag = " VIOLATION" if seg.budget_violation else ""
        print(
            f"{seg.function_name}[{seg.index}] tokens={seg.token_count} "
            f"lines={len(seg.lines)} "
            f"bounds=({seg.boundary_labels[0]} .. {seg.boundary_labels[1]}){flag}"
        )
    return 0


def _cmd_bench(args: argparse.Namespace, argv: list[str]) -> int:
    if args.bench_cmd == "compare":
        summaries = []
        for path in args.files:
            summaries += read_records(path, bench_mod.SUMMARY_SCHEMA, bench_mod.record_to_summary)
        rows = bench_mod.compare_modes(summaries, args.baseline)
        print(f"{'mode':<20} {'speedup':>10} {'memory':>10}")
        for row in rows:
            print(f"{row.mode:<20} {row.speedup:>9.2f}x {row.memory_ratio:>9.2f}x")
        return 0

    started = _now()
    summary = bench_mod.bench_run(
        args.bin,
        args.args,
        runs=args.runs,
        mode=args.mode,
        warmup=args.warmup,
        timeout=args.timeout,
        wrapper=args.wrapper,
    )
    write_records(args.out, [bench_mod.summary_to_record(summary)])
    _write_run_record(argv, started, args.out)
    print(
        f"{summary.mode}: n={summary.n_valid} geomean_time={summary.geomean_time:.6f}s "
        f"geomean_rss={summary.geomean_rss / 1024.0:.0f}KiB -> {args.out}"
    )
    return 0 if summary.n_failed == 0 else 1


def _render_table(summary: eval_mod.SuiteSummary, label: str) -> str:
    lines = [
        f"suite: {label}  (n={summary.n})",
        f"{'Average Edit Distance':>22}  {'Exact Match':>12}  {'Test Accuracy':>14}",
        (
            f"{summary.avg_edit_distance:>22.2f}  "
            f"{summary.exact_match_rate * 100:>11.2f}%  "
            f"{summary.test_accuracy * 100:>13.2f}%"
        ),
    ]
    if summary.error_class_histogram:
        total = sum(summary.error_class_histogram.values())
        parts = [
            f"{name}: {count} ({count / total * 100:.2f}%)"
            for name, count in summary.error_class_histogram.items()
        ]
        lines.append("error classes: " + ", ".join(parts))
    return "\n".join(lines)


def _cmd_report(args: argparse.Namespace, argv: list[str]) -> int:
    results_a = eval_mod.read_results(args.results)
    print(_render_table(eval_mod.summarize(results_a), args.results))
    if args.results_b:
        results_b = eval_mod.read_results(args.results_b)
        print()
        print(_render_table(eval_mod.summarize(results_b), args.results_b))
        counts = eval_mod.confusion_matrix(results_a, results_b)
        print()
        print(
            f"confusion: both_pass={counts.both_pass} both_fail={counts.both_fail} "
            f"a_only_fail={counts.a_only_fail} b_only_fail={counts.b_only_fail}"
        )
        print(f"agreement: {counts.agreement * 100:.1f}%")
    return 0


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xisa",
        description="cross-ISA assembly transpilation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dataset = sub.add_parser("dataset", help="build or inspect pair corpora")
    dsub = p_dataset.add_subparsers(dest="dataset_cmd", required=True)
    p_build = dsub.add_parser("build")
    p_build.add_argument("--src", required=True)
    p_build.add_argument("--target", required=True, choices=[i.value for i in IsaName])
    p_build.add_argument("--sample", type=int, default=None)
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--config")
    p_build.add_argument("--vocab")
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--jobs", type=int, default=1)
    p_inspect = dsub.add_parser("inspect")
    p_inspect.add_argument("store")

    p_tok = sub.add_parser("tokenizer", help="build vocabularies, token stats")
    tsub = p_tok.add_subparsers(dest="tokenizer_cmd", required=True)
    t_build = tsub.add_parser("build")
    t_build_in = t_build.add_mutually_exclusive_group(required=True)
    t_build_in.add_argument("--corpus-store")
    t_build_in.add_argument("--asm-dir")
    t_build.add_argument("--isa", default="armv5", choices=[i.value for i in IsaName])
    t_build.add_argument("--top-k", type=int, default=512)
    t_build.add_argument("--out", required=True)
    t_stats = tsub.add_parser("stats")
    t_stats.add_argument("--extended", required=True)
    t_stats_in = t_stats.add_mutually_exclusive_group(required=True)
    t_stats_in.add_argument("--corpus-store")
    t_stats_in.add_argument("--asm-dir")

    p_trans = sub.add_parser("transpile", help="translate one assembly file")
    p_trans.add_argument("--in", dest="infile", required=True)
    p_trans.add_argument(
        "--backend", required=True, choices=["identity", "rule", "remote"]
    )
    p_trans.add_argument("--target", required=True, choices=[i.value for i in IsaName])
    p_trans.add_argument("--beams", type=int, default=1)
    p_trans.add_argument("--endpoint")
    p_trans.add_argument("--config")
    p_trans.add_argument("--vocab")
    p_trans.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="score a benchmark suite")
    esub = p_eval.add_subparsers(dest="eval_cmd", required=True)
    e_run = esub.add_parser("run")
    e_run.add_argument("--suite", required=True)
    e_run.add_argument(
        "--backend", required=True, choices=["identity", "replay", "rule", "remote"]
    )
    e_run.add_argument("--target", required=True, choices=[i.value for i in IsaName])
    e_run.add_argument("--beams", type=int, default=1)
    e_run.add_argument("--endpoint")
    e_run.add_argument("--config")
    e_run.add_argument("--vocab")
    e_run.add_argument("--policy", choices=["default", "raw"], default="default")
    e_run.add_argument("--line-level", action="store_true")
    e_run.add_argument("--jobs", type=int, default=1)
    e_run.add_argument("--out", required=True)

    p_seg = sub.add_parser("segment", help="token-budgeted function segmentation")
    p_seg.add_argument("--in", dest="infile", required=True)
    p_seg.add_argument("--isa", required=True, choices=[i.value for i in IsaName])
    p_seg.add_argument("--budget", type=int, default=1024)
    p_seg.add_argument("--vocab")

    p_bench = sub.add_parser("bench", help="repeated timing/memory measurement")
    bsub = p_bench.add_subparsers(dest="bench_cmd", required=True)
    b_run = bsub.add_parser("run")
    b_run.add_argument("--bin", required=True)
    b_run.add_argument("--runs", type=int, default=100)
    b_run.add_argument("--mode", default="default")
    b_run.add_argument("--warmup", type=int, default=3)
    b_run.add_argument("--timeout", type=float, default=60.0)
    b_run.add_argument("--wrapper", default="")
    b_run.add_argument("--out", required=True)
    b_run.add_argument("args", nargs="*")
    b_cmp = bsub.add_parser("compare")
    b_cmp.add_argument("--baseline", required=True)
    b_cmp.add_argument("files", nargs="+")

    p_report = sub.add_parser("report", help="render result tables")
    p_report.add_argument("results")
    p_report.add_argument("results_b", nargs="?")

    return parser


_HANDLERS = {
    "dataset": _cmd_dataset,
    "tokenizer": _cmd_tokenizer,
    "transpile": _cmd_transpile,
    "eval": _cmd_eval,
    "segment": _cmd_segment,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    # candidate-level failures never travel as exceptions: whatever reaches
    # here is a harness, input or usage error
    try:
        # an output that cannot be written fails before any work is done
        out = getattr(args, "out", None)
        if out and not Path(out).parent.is_dir():
            raise NotADirectoryError(f"cannot write {out}: {Path(out).parent} is not a directory")
        if out and Path(out).is_dir():
            raise IsADirectoryError(f"cannot write {out}: it is a directory")
        return _HANDLERS[args.command](args, argv)
    except (XisaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(exc, "command", ""):
            print(f"failing command: {exc.command}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
