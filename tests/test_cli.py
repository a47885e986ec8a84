from __future__ import annotations

import json
from pathlib import Path

from conftest import CONFIGS, FIXTURES, needs_gcc, needs_lite
from xisa.cli import main
from xisa.evaluation import read_results

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
    results, summary = read_results(out)
    assert summary is not None and summary.test_accuracy == 1.0
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
    results, summary = read_results(out)
    assert summary is not None and summary.test_accuracy == 1.0
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
