from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from conftest import CONFIGS, FIXTURES, needs_gcc, needs_lite
from xisa.cli import main, make_run_record
from xisa.core import load_config
from xisa.evaluation import read_results, summarize, summary_to_record

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


def written_summary(path: Path) -> dict:
    """The summary record ``eval run`` wrote last into a results file."""
    return json.loads(path.read_text().splitlines()[-1])


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
    run_record = json.loads((tmp_path / "pairs.ndjson.run.json").read_text())
    assert run_record["schema"] == "xisa.run/v1"
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
    versions = json.loads((tmp_path / "pairs.ndjson.run.json").read_text())[
        "tool_versions"
    ]
    assert list(versions) == ["x86_64"]
    capsys.readouterr()
    assert main(["dataset", "inspect", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "records: 2"
    assert "target ISA: x86_64  opt: -O0" in lines
    assert f"  x86_64: {versions['x86_64']}" in lines
    assert "gcc" in versions["x86_64"]


def test_config_fingerprint_covers_expanded_commands(tmp_path, monkeypatch):
    cfg_path = tmp_path / "env.cfg"
    cfg_path.write_text("[x86_64]\ncompile = $XCC {opt} -S {input} -o {output}\n")
    fingerprints = set()
    for compiler in ("gcc", "clang"):
        monkeypatch.setenv("XCC", compiler)
        record = make_run_record([], "", [], load_config(cfg_path))
        fingerprints.add(record["config_fingerprint"])
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
    assert written_summary(out) == summary_to_record(summarize(results))
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
    assert written_summary(out) == summary_to_record(summarize(results))
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


def test_segment_listing(tmp_path, capsys):
    asm = FIXTURES / "arm_corpus" / "sum_upto.s"
    rc = main(["segment", "--in", str(asm), "--isa", "armv5", "--budget", "1024"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sum_upto[0]" in out
    assert "tokens=" in out


def test_tokenizer_build_and_stats(tmp_path, capsys):
    vocab = tmp_path / "vocab.txt"
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

    def stable_records(path: Path) -> list[dict]:
        records = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record.get("schema") == "xisa.run/v1":
                continue
            records.append(record)
        return records

    assert stable_records(out_a) == stable_records(out_b)


def test_bench_shorthand_without_run(tmp_path, capsys):
    import stat
    import sys

    script = tmp_path / "quick"
    script.write_text(f"#!{sys.executable}\npass\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    out = tmp_path / "b.ndjson"
    rc = main(
        ["bench", "--bin", str(script), "--runs", "1", "--warmup", "0",
         "--mode", "m", "--out", str(out)]
    )
    assert rc == 0
    assert out.exists()


# --- exit code 2: malformed input, usage errors, unwritable output -------------

ARM_CORPUS = str(FIXTURES / "arm_corpus")
BENCH_NATIVE = json.dumps({
    "schema": "xisa.bench_summary/v1", "mode": "native", "n_valid": 1, "n_failed": 0,
    "geomean_time": 1.0, "geomean_rss": 1.0, "samples": [],
})
# each case: argv, with {d} standing for a directory that holds these files
FILES = {
    "not_json": "{not json\n",
    "no_pair_id": json.dumps({"schema": "xisa.eval_result/v1", "backend_id": "b"}) + "\n",
    "pairs.ndjson": json.dumps({"schema": "xisa.pair/v1", "pair_id": "p"}) + "\n",
    "bench.ndjson": BENCH_NATIVE + "\n",
    "vocab.txt": "# xisa vocab v1\n---\n",
    "f.s": "\t.globl f\nf:\n\tret\n",
    "plain": "a regular file, so nothing can be written under it\n",
}
EXIT_2_CASES = {
    "report_not_json": ["report", "{d}/not_json"],
    "report_result_without_pair_id": ["report", "{d}/no_pair_id"],
    "report_on_a_pair_store": ["report", "{d}/pairs.ndjson"],
    "report_on_a_directory": ["report", "{d}"],
    "inspect_not_json": ["dataset", "inspect", "{d}/not_json"],
    "bench_compare_not_json": ["bench", "compare", "--baseline", "native", "{d}/not_json"],
    "stats_extended_not_a_vocabulary": [
        "tokenizer", "stats", "--extended", "{d}/not_json", "--asm-dir", ARM_CORPUS],
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
    "tokenizer_stats_without_input": ["tokenizer", "stats", "--extended", "{d}/vocab.txt"],
    "bench_run_runs_0": [
        "bench", "run", "--bin", "{true}", "--runs", "0", "--out", "{d}/b.ndjson"],
    "bench_run_out_under_a_file": [
        "bench", "run", "--bin", "{true}", "--runs", "1", "--warmup", "0",
        "--out", "{d}/plain/b.ndjson"],
    "transpile_out_under_a_file": [
        "transpile", "--in", "{d}/f.s", "--backend", "identity", "--target", "x86_64",
        "--out", "{d}/plain/out.s"],
}


@pytest.mark.parametrize("argv", EXIT_2_CASES.values(), ids=EXIT_2_CASES.keys())
def test_harness_and_usage_errors_exit_2(tmp_path, capsys, argv):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    true = shutil.which("true") or "/bin/true"
    assert main([a.format(d=tmp_path, true=true) for a in argv]) == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err
