from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from conftest import CONFIGS, FIXTURES, needs_gcc, needs_lite
from xisa.cli import RUN_SCHEMA, _config_fingerprint, main
from xisa.core import load_config, read_records
from xisa.dataset import read_store
from xisa.evaluation import read_results, summarize
from xisa.tokenizer import load_vocab

LITE = str(CONFIGS / "clang-lite.cfg")


def make_tiny_suite(tmp_path: Path) -> Path:
    suite = tmp_path / "suite"
    for pid, (expr, expect) in {
        "t01": ("x + 1", "f(4) == 5"),
        "t02": ("x * 2", "f(4) == 8"),
    }.items():
        d = suite / pid
        d.mkdir(parents=True)
        (d / "func.c").write_text(f"int f(int x) {{ return {expr}; }}\n")
        (d / "test.c").write_text(
            f"int f(int x);\nint main(void) {{ return {expect} ? 0 : 1; }}\n"
        )
    return suite


def run_records(out: Path) -> list[dict]:
    """The run records of the command that wrote ``out``."""
    return list(read_records(f"{out}.run.json", RUN_SCHEMA, dict))


def test_help_lists_subcommands(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("dataset", "tokenizer", "transpile", "eval", "segment", "bench", "report"):
        assert name in out


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_unknown_flag_exits_2():
    assert main(["report", "--no-such-flag", "x"]) == 2


def test_missing_config_is_infrastructure_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("XISA_CONFIG", raising=False)
    rc = main(
        ["dataset", "build", "--src", str(tmp_path), "--target", "armv5",
         "--out", str(tmp_path / "s.ndjson")]
    )
    assert rc == 2
    assert "config" in capsys.readouterr().err.lower()


@needs_lite
def test_dataset_build_and_inspect(tmp_path, capsys):
    out = tmp_path / "pairs.ndjson"
    rc = main(
        ["dataset", "build", "--src", str(FIXTURES / "c_corpus"),
         "--target", "armv5", "--sample", "3", "--seed", "7",
         "--config", LITE, "--out", str(out)]
    )
    assert rc == 0
    assert out.exists()
    [run_record] = run_records(out)
    assert run_record["config_fingerprint"] != "none"
    assert main(["dataset", "inspect", str(out)]) == 0
    assert "records: 3" in capsys.readouterr().out


@needs_gcc
def test_dataset_build_and_inspect_x86_64_gcc_only(tmp_path, capsys):
    out = tmp_path / "pairs.ndjson"
    rc = main(
        ["dataset", "build", "--src", str(FIXTURES / "c_corpus"),
         "--target", "x86_64", "--sample", "2", "--config", LITE, "--out", str(out)]
    )
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "pairs.ndjson", "pairs.ndjson.run.json"
    ]
    versions = run_records(out)[0]["tool_versions"]
    assert list(versions) == ["x86_64"]
    capsys.readouterr()
    assert main(["dataset", "inspect", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "records: 2"
    assert "target ISA: x86_64  opt: -O0" in lines
    assert f"  x86_64: {versions['x86_64']}" in lines
    assert "gcc" in versions["x86_64"]


@needs_gcc
def test_vocabulary_from_a_pair_store_feeds_every_vocab_flag_gcc_only(tmp_path, capsys):
    pairs, vocab = tmp_path / "pairs.ndjson", tmp_path / "vocab.ndjson"
    build = ["dataset", "build", "--src", str(FIXTURES / "c_corpus"), "--target", "x86_64",
             "--sample", "3", "--config", LITE]
    assert main([*build, "--out", str(pairs)]) == 0
    assert main(["tokenizer", "build", "--corpus-store", str(pairs), "--top-k", "16",
                 "--out", str(vocab)]) == 0
    spec = load_vocab(vocab)
    assert spec.extended_entries
    capsys.readouterr()
    assert main(["tokenizer", "stats", "--extended", str(vocab),
                 "--corpus-store", str(pairs)]) == 0
    assert "corpus items: 3" in capsys.readouterr().out

    versioned = tmp_path / "versioned.ndjson"
    assert main([*build, "--vocab", str(vocab), "--out", str(versioned)]) == 0
    records = list(read_store(versioned))
    assert len(records) == 3
    assert {p.tokenizer_version for p in records} == {spec.version}

    asm = tmp_path / "f.s"
    asm.write_text(records[0].x86.raw_text)
    capsys.readouterr()
    assert main(["segment", "--in", str(asm), "--isa", "x86_64", "--vocab", str(vocab)]) == 0
    assert "tokens=" in capsys.readouterr().out
    out = tmp_path / "out.s"
    assert main(["transpile", "--in", str(asm), "--backend", "identity", "--target", "x86_64",
                 "--vocab", str(vocab), "--out", str(out)]) == 0
    assert out.read_text() == asm.read_text()


def test_config_fingerprint_covers_expanded_commands(tmp_path, monkeypatch):
    cfg_path = tmp_path / "env.cfg"
    cfg_path.write_text("[x86_64]\ncompile = $XCC {opt} -S {input} -o {output}\n")
    fingerprints = set()
    for compiler in ("gcc", "clang"):
        monkeypatch.setenv("XCC", compiler)
        fingerprints.add(_config_fingerprint(load_config(cfg_path)))
    assert len(fingerprints) == 2


def test_dataset_build_missing_toolchain_echoes_command(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(
        "[x86_64]\ncompile = xisa-no-such-cc -S {input} -o {output}\n"
        "[armv5]\ncompile = xisa-no-such-cc -S {input} -o {output}\n"
    )
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.c").write_text("int a;\n")
    rc = main(
        ["dataset", "build", "--src", str(src), "--target", "armv5",
         "--config", str(bad_cfg), "--out", str(tmp_path / "s.ndjson")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "xisa-no-such-cc" in err
    assert not (tmp_path / "s.ndjson.tmp").exists()


@needs_lite
def test_eval_run_replay_and_report(tmp_path, capsys):
    suite = make_tiny_suite(tmp_path)
    out = tmp_path / "results.ndjson"
    rc = main(
        ["eval", "run", "--suite", str(suite), "--backend", "replay",
         "--target", "armv5", "--config", LITE, "--out", str(out)]
    )
    assert rc == 0
    results = read_results(out)
    assert summarize(results).test_accuracy == 1.0
    assert len(results) == 2
    capsys.readouterr()

    assert main(["report", str(out)]) == 0
    table = capsys.readouterr().out
    assert "Average Edit Distance" in table
    assert "Exact Match" in table
    assert "Test Accuracy" in table
    assert "100.00%" in table


@needs_gcc
def test_eval_run_replay_x86_64_gcc_only(tmp_path):
    out = tmp_path / "results.ndjson"
    rc = main(
        ["eval", "run", "--suite", str(FIXTURES / "mini_suite"), "--backend", "replay",
         "--target", "x86_64", "--config", LITE, "--out", str(out)]
    )
    assert rc == 0
    results = read_results(out)
    assert summarize(results).test_accuracy == 1.0
    assert len(results) == 12


@needs_lite
def test_eval_exit_code_1_on_failures(tmp_path):
    suite = make_tiny_suite(tmp_path)
    # identity backend feeds x86 text to the ARM assembler: guaranteed failures
    out = tmp_path / "results.ndjson"
    rc = main(
        ["eval", "run", "--suite", str(suite), "--backend", "identity",
         "--target", "armv5", "--config", LITE, "--out", str(out)]
    )
    assert rc == 1


@needs_lite
def test_report_confusion_between_two_runs(tmp_path, capsys):
    suite = make_tiny_suite(tmp_path)
    out_a = tmp_path / "a.ndjson"
    out_b = tmp_path / "b.ndjson"
    for backend, out in (("replay", out_a), ("identity", out_b)):
        main(
            ["eval", "run", "--suite", str(suite), "--backend", backend,
             "--target", "armv5", "--config", LITE, "--out", str(out)]
        )
    capsys.readouterr()
    assert main(["report", str(out_a), str(out_b)]) == 0
    out_text = capsys.readouterr().out
    assert "agreement:" in out_text
    assert "both_pass=0" in out_text  # replay passes, identity fails -> no overlap


@needs_lite
def test_transpile_rule_backend(tmp_path, capsys):
    src = tmp_path / "f.c"
    src.write_text("int f(void) { return 31; }\n")
    x86 = tmp_path / "f.s"
    import subprocess

    subprocess.run(
        ["gcc", "-S", "-O0", "-fcf-protection=none", "-fno-asynchronous-unwind-tables",
         str(src), "-o", str(x86)],
        check=True,
    )
    out = tmp_path / "f_arm.s"
    rc = main(
        ["transpile", "--in", str(x86), "--backend", "rule", "--target", "armv5",
         "--out", str(out)]
    )
    assert rc == 0
    assert "mov r0, #31" in out.read_text()


def test_transpile_unsupported_is_candidate_failure(tmp_path, capsys):
    x86 = tmp_path / "f.s"
    x86.write_text("\t.type f, @function\nf:\n\tcvtsi2sd %eax, %xmm0\n\tret\n")
    rc = main(
        ["transpile", "--in", str(x86), "--backend", "rule", "--target", "armv5",
         "--out", str(tmp_path / "out.s")]
    )
    assert rc == 1
    assert "cvtsi2sd" in capsys.readouterr().err


def test_transpile_context_overflow_is_candidate_failure(tmp_path, capsys):
    # eval scores every refusal as the candidate's failure, so transpile exits 1
    x86 = tmp_path / "f.s"
    x86.write_text("\tnop\n" * 6000)
    vocab = tmp_path / "vocab.ndjson"
    vocab.write_text(json.dumps({**VOCAB, "entries": ["nop"]}) + "\n")
    out = tmp_path / "out.s"
    rc = main(
        ["transpile", "--in", str(x86), "--backend", "identity", "--target", "x86_64",
         "--vocab", str(vocab), "--out", str(out)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "transpile failed: source is 18000 tokens, exceeds context window 16384\n"
    assert not out.exists()


def test_segment_listing(tmp_path, capsys):
    asm = FIXTURES / "arm_corpus" / "sum_upto.s"
    rc = main(["segment", "--in", str(asm), "--isa", "armv5", "--budget", "1024"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sum_upto[0]" in out
    assert "tokens=" in out


def test_tokenizer_build_and_stats(tmp_path, capsys):
    vocab = tmp_path / "vocab.ndjson"
    rc = main(
        ["tokenizer", "build", "--asm-dir", str(FIXTURES / "arm_corpus"),
         "--isa", "armv5", "--top-k", "32", "--out", str(vocab)]
    )
    assert rc == 0
    assert vocab.exists()
    capsys.readouterr()
    rc = main(
        ["tokenizer", "stats", "--extended", str(vocab),
         "--asm-dir", str(FIXTURES / "arm_corpus")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "token reduction" in out


def test_bench_run_and_compare(tmp_path, capsys):
    import stat
    import sys

    script = tmp_path / "quick"
    script.write_text(f"#!{sys.executable}\npass\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    out_a = tmp_path / "a.ndjson"
    rc = main(
        ["bench", "run", "--bin", str(script), "--runs", "2", "--warmup", "0",
         "--mode", "native", "--out", str(out_a)]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(["bench", "compare", "--baseline", "native", str(out_a)])
    assert rc == 0
    assert "1.00x" in capsys.readouterr().out


@needs_lite
def test_eval_outputs_are_atomic_and_deterministic(tmp_path):
    suite = make_tiny_suite(tmp_path)
    out_a = tmp_path / "a.ndjson"
    out_b = tmp_path / "b.ndjson"
    for out in (out_a, out_b):
        rc = main(
            ["eval", "run", "--suite", str(suite), "--backend", "replay",
             "--target", "armv5", "--config", LITE, "--out", str(out)]
        )
        assert rc == 0
        assert not Path(str(out) + ".tmp").exists()

    assert out_a.read_bytes() == out_b.read_bytes()


# --- every --out command writes <out> and its run record <out>.run.json -------

X86_ASM = "\t.globl f\nf:\n\tret\n"
OUT_CASES = {
    "dataset_build": pytest.param(
        ["dataset", "build", "--src", str(FIXTURES / "c_corpus"), "--target", "x86_64",
         "--sample", "2", "--config", LITE],
        marks=needs_gcc),
    "tokenizer_build": ["tokenizer", "build", "--asm-dir", str(FIXTURES / "arm_corpus")],
    "transpile": [
        "transpile", "--in", "{d}/f.s", "--backend", "identity", "--target", "x86_64"],
    "eval_run": pytest.param(
        ["eval", "run", "--suite", str(FIXTURES / "mini_suite"), "--backend", "replay",
         "--target", "x86_64", "--config", LITE],
        marks=needs_gcc),
    "bench_run": ["bench", "run", "--bin", "{true}", "--runs", "1", "--warmup", "0"],
}


@pytest.mark.parametrize("argv", OUT_CASES.values(), ids=OUT_CASES.keys())
def test_out_and_its_run_record_are_all_a_command_leaves(tmp_path, capsys, argv):
    (tmp_path / "f.s").write_text(X86_ASM)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "o"
    true = shutil.which("true") or "/bin/true"
    argv = [a.format(d=tmp_path, true=true) for a in argv] + ["--out", str(out)]
    assert main(argv) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["o", "o.run.json"]
    [run_record] = run_records(out)
    assert run_record["command"].startswith(f"xisa {argv[0]} ")
    assert run_record["outputs"] == [str(out)]


# --- exit code 2: malformed input, usage errors, unwritable output -------------

ARM_CORPUS = str(FIXTURES / "arm_corpus")
BENCH_NATIVE = {
    "schema": "xisa.bench_summary/v1", "mode": "native", "n_valid": 1, "n_failed": 0,
    "geomean_time": 1.0, "geomean_rss": 1.0, "samples": [],
}
RUN = json.dumps({"schema": "xisa.run/v1", "outputs": []})
RESULT = {
    "schema": "xisa.eval_result/v1", "pair_id": "p01", "backend_id": "replay",
    "edit_distance": 0, "exact_match": True, "outcome": "pass", "failed_count": 0,
    "signal_name": "", "error_class": None, "candidate_index_used": 0, "logs": "",
}
VOCAB = {"schema": "xisa.vocab/v1", "version": "v1-test", "entries": ["ldr", "r1"]}
# each case: argv, with {d} standing for a directory that holds these files
FILES = {
    "not_json": "{not json\n",
    "no_pair_id": json.dumps({"schema": "xisa.eval_result/v1", "backend_id": "b"}) + "\n",
    "pairs.ndjson": json.dumps({"schema": "xisa.pair/v1", "pair_id": "p"}) + "\n",
    "empty.ndjson": "",
    "empty.ndjson.run.json": RUN + "\n",
    "run_then_result": RUN + "\n" + json.dumps(RESULT) + "\n",
    "result_without_three_fields": json.dumps(
        {k: v for k, v in RESULT.items() if k not in ("failed_count", "signal_name", "logs")}
    ) + "\n",
    "bench.ndjson": json.dumps(BENCH_NATIVE) + "\n",
    "bench_without_samples": json.dumps(
        {k: v for k, v in BENCH_NATIVE.items() if k != "samples"}) + "\n",
    "vocab.ndjson": json.dumps(VOCAB) + "\n",
    "vocab_old_header": "# xisa vocab v1\nversion = v1-test\nfallback = byte\n---\nldr\n",
    "vocab_twice": (json.dumps(VOCAB) + "\n") * 2,
    "vocab_entry_not_a_string": json.dumps({**VOCAB, "entries": ["ldr", 1]}) + "\n",
    "f.s": X86_ASM,
    "plain": "a regular file, so nothing can be written under it\n",
}
EXIT_2_CASES = {
    "report_not_json": ["report", "{d}/not_json"],
    "report_result_without_pair_id": ["report", "{d}/no_pair_id"],
    "report_on_a_pair_store": ["report", "{d}/pairs.ndjson"],
    "report_on_a_directory": ["report", "{d}"],
    "report_results_starting_with_a_run_record": ["report", "{d}/run_then_result"],
    "report_result_without_failed_count_signal_name_logs": [
        "report", "{d}/result_without_three_fields"],
    "inspect_not_json": ["dataset", "inspect", "{d}/not_json"],
    "inspect_sidecar_without_tool_versions": ["dataset", "inspect", "{d}/empty.ndjson"],
    "bench_compare_not_json": ["bench", "compare", "--baseline", "native", "{d}/not_json"],
    "stats_extended_not_a_vocabulary": [
        "tokenizer", "stats", "--extended", "{d}/not_json", "--asm-dir", ARM_CORPUS],
    "bench_compare_summary_without_samples": [
        "bench", "compare", "--baseline", "native", "{d}/bench_without_samples"],
    "stats_extended_in_the_old_header_format": [
        "tokenizer", "stats", "--extended", "{d}/vocab_old_header", "--asm-dir", ARM_CORPUS],
    "segment_vocab_with_two_records": [
        "segment", "--in", "{d}/f.s", "--isa", "x86_64", "--vocab", "{d}/vocab_twice"],
    "transpile_vocab_entry_not_a_string": [
        "transpile", "--in", "{d}/f.s", "--backend", "identity", "--target", "x86_64",
        "--vocab", "{d}/vocab_entry_not_a_string", "--out", "{d}/out.s"],
    "bench_compare_absent_baseline": [
        "bench", "compare", "--baseline", "jit", "{d}/bench.ndjson"],
    "segment_budget_0": [
        "segment", "--in", "{d}/f.s", "--isa", "x86_64", "--budget", "0"],
    "transpile_beams_0": [
        "transpile", "--in", "{d}/f.s", "--backend", "identity", "--target", "x86_64",
        "--beams", "0", "--out", "{d}/out.s"],
    "transpile_remote_without_endpoint": [
        "transpile", "--in", "{d}/f.s", "--backend", "remote", "--target", "armv5",
        "--out", "{d}/out.s"],
    "tokenizer_build_top_k_0": [
        "tokenizer", "build", "--asm-dir", ARM_CORPUS, "--top-k", "0", "--out", "{d}/v.txt"],
    "tokenizer_build_without_input": ["tokenizer", "build", "--out", "{d}/v.txt"],
    "tokenizer_build_with_both_inputs": [
        "tokenizer", "build", "--corpus-store", "{d}/pairs.ndjson", "--asm-dir", ARM_CORPUS,
        "--out", "{d}/v.txt"],
    "tokenizer_stats_without_input": ["tokenizer", "stats", "--extended", "{d}/vocab.ndjson"],
    "bench_without_run": [
        "bench", "--bin", "{mark}", "--runs", "1", "--warmup", "0", "--out", "{d}/b.ndjson"],
    "bench_run_runs_0": [
        "bench", "run", "--bin", "{mark}", "--runs", "0", "--out", "{d}/b.ndjson"],
    "bench_run_out_is_a_directory": [
        "bench", "run", "--bin", "{mark}", "--runs", "3", "--warmup", "0", "--out", "{d}"],
    "bench_run_out_under_a_file": [
        "bench", "run", "--bin", "{mark}", "--runs", "1", "--warmup", "0",
        "--out", "{d}/plain/b.ndjson"],
    "eval_run_out_under_a_file": [
        "eval", "run", "--suite", str(FIXTURES / "mini_suite"), "--backend", "replay",
        "--target", "x86_64", "--config", "{d}/mark.cfg", "--out", "{d}/plain/r.ndjson"],
    "eval_run_unreachable_backend": pytest.param(
        ["eval", "run", "--suite", str(FIXTURES / "mini_suite"), "--backend", "remote",
         "--endpoint", "http://127.0.0.1:9", "--target", "x86_64", "--config", LITE,
         "--out", "{d}/r.ndjson"],
        marks=needs_gcc),
    "eval_run_rule_backend_targets_only_armv5": [
        "eval", "run", "--suite", str(FIXTURES / "rule_suite"), "--backend", "rule",
        "--target", "x86_64", "--config", "{d}/mark.cfg", "--out", "{d}/r.ndjson"],
    "transpile_rule_backend_targets_only_armv5": [
        "transpile", "--in", "{d}/f.s", "--backend", "rule", "--target", "x86_64",
        "--out", "{d}/out.s"],
    "transpile_out_under_a_file": [
        "transpile", "--in", "{d}/f.s", "--backend", "identity", "--target", "x86_64",
        "--out", "{d}/plain/out.s"],
}


@pytest.mark.parametrize("argv", EXIT_2_CASES.values(), ids=EXIT_2_CASES.keys())
def test_harness_and_usage_errors_exit_2(tmp_path, capsys, argv):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    # a binary, and a compiler, that leave a marker: a case that exits 2 has run neither
    marker = tmp_path / "ran"
    mark = tmp_path / "mark"
    mark.write_text(f"#!/bin/sh\ntouch {marker}\n")
    mark.chmod(0o755)
    (tmp_path / "mark.cfg").write_text(f"[x86_64]\ncompile = {mark} {{input}} {{output}}\n")
    true = shutil.which("true") or "/bin/true"
    assert main([a.format(d=tmp_path, true=true, mark=mark) for a in argv]) == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err
    assert not marker.exists()
