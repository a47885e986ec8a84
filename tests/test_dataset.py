from __future__ import annotations

import json
import stat
from pathlib import Path

import pytest

from conftest import CONFIGS, FIXTURES, needs_gcc, needs_lite
from xisa.cli import main as cli_main
from xisa.core import IsaName, parse_config
from xisa.dataset import (
    build_corpus,
    compile_pair,
    load_eval_suite,
    manifest_path_for,
    pair_to_record,
    read_manifest,
    read_store,
    record_to_pair,
)
from xisa.errors import CompileFailed, LayoutError, NoSources

C_CORPUS = FIXTURES / "c_corpus"


@needs_lite
def test_compile_pair_add2(lite_cfg, tmp_path):
    c_file = tmp_path / "add2.c"
    c_file.write_text("int add2(int a, int b) { return a + b; }\n")
    pair = compile_pair(c_file, IsaName.ARMV5, lite_cfg)
    assert pair.target_isa is IsaName.ARMV5
    arm_mnemonics = {
        ln.split()[0] for ln in pair.target.normalized_text.splitlines() if ln
    }
    assert "add" in arm_mnemonics
    x86_text = pair.x86.normalized_text
    assert ("addl" in x86_text) or ("leal" in x86_text)
    assert pair.pair_id.startswith("add2-")
    assert pair.token_count_x86 > 0 and pair.token_count_target > 0


@needs_lite
def test_compile_pair_syntax_error(lite_cfg, tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("int broken( { return; }\n")
    with pytest.raises(CompileFailed) as excinfo:
        compile_pair(bad, IsaName.ARMV5, lite_cfg)
    assert excinfo.value.isa == "x86_64"
    assert excinfo.value.stderr


@needs_lite
def test_compile_pair_deterministic(lite_cfg, tmp_path):
    c_file = tmp_path / "f.c"
    c_file.write_text("int f(int x) { return x * 3 + 1; }\n")
    first = compile_pair(c_file, IsaName.ARMV5, lite_cfg)
    second = compile_pair(c_file, IsaName.ARMV5, lite_cfg)
    assert first.x86.normalized_text == second.x86.normalized_text
    assert first.target.normalized_text == second.target.normalized_text
    assert first.pair_id == second.pair_id


@needs_lite
def test_compile_pair_riscv_target(lite_cfg, tmp_path):
    c_file = tmp_path / "f.c"
    c_file.write_text("int f(int x) { return x + 7; }\n")
    pair = compile_pair(c_file, IsaName.RISCV64, lite_cfg)
    assert "addw" in pair.target.normalized_text or "addiw" in pair.target.normalized_text


@needs_lite
def test_build_corpus_seeded_sampling_is_reproducible(lite_cfg, tmp_path):
    store_a = tmp_path / "a.ndjson"
    store_b = tmp_path / "b.ndjson"
    m_a = build_corpus(C_CORPUS, IsaName.ARMV5, lite_cfg, store_a, sample=5, seed=7)
    m_b = build_corpus(C_CORPUS, IsaName.ARMV5, lite_cfg, store_b, sample=5, seed=7)
    ids_a = sorted(p.pair_id for p in read_store(store_a))
    ids_b = sorted(p.pair_id for p in read_store(store_b))
    assert m_a.records == m_b.records == 5
    assert ids_a == ids_b
    different = build_corpus(
        C_CORPUS, IsaName.ARMV5, lite_cfg, tmp_path / "c.ndjson", sample=5, seed=8
    )
    ids_c = sorted(p.pair_id for p in read_store(tmp_path / "c.ndjson"))
    assert different.records == 5
    assert ids_c != ids_a  # overwhelmingly likely under a different seed


@needs_lite
def test_build_corpus_clamps_oversized_sample(lite_cfg, tmp_path, caplog):
    store = tmp_path / "s.ndjson"
    with caplog.at_level("WARNING"):
        manifest = build_corpus(
            C_CORPUS, IsaName.ARMV5, lite_cfg, store, sample=999, seed=0
        )
    assert manifest.records == 20
    assert any("exceeds available" in r.message for r in caplog.records)


@needs_lite
def test_build_corpus_skips_uncompilable(lite_cfg, tmp_path, caplog):
    src = tmp_path / "src"
    src.mkdir()
    for i in range(9):
        (src / f"ok{i}.c").write_text(f"int f{i}(int x) {{ return x + {i}; }}\n")
    (src / "broken.c").write_text("int broken( {\n")
    store = tmp_path / "s.ndjson"
    with caplog.at_level("WARNING"):
        manifest = build_corpus(src, IsaName.ARMV5, lite_cfg, store)
    assert manifest.records == 9
    assert any("skipping" in r.message for r in caplog.records)


def test_build_corpus_no_sources(lite_cfg, tmp_path):
    with pytest.raises(NoSources):
        build_corpus(tmp_path, IsaName.ARMV5, lite_cfg, tmp_path / "s.ndjson")


@needs_lite
def test_store_roundtrip(lite_cfg, tmp_path):
    c_file = tmp_path / "g.c"
    c_file.write_text("int g(int x) { return x - 2; }\n")
    pair = compile_pair(c_file, IsaName.ARMV5, lite_cfg, test_source_path="t.c")
    assert record_to_pair(json.loads(json.dumps(pair_to_record(pair)))) == pair


@needs_lite
def test_manifest_written_last_and_counts_match(lite_cfg, tmp_path):
    store = tmp_path / "s.ndjson"
    manifest = build_corpus(C_CORPUS, IsaName.ARMV5, lite_cfg, store, sample=3, seed=1)
    on_disk = read_manifest(manifest_path_for(store))
    assert on_disk.records == manifest.records == len(list(read_store(store)))
    assert on_disk.target_isa == "armv5"
    assert on_disk.opt_level == "-O0"


def _fake_compiler(tmp_path: Path, version: str) -> str:
    script = tmp_path / f"fakecc-{version}.sh"
    script.write_text(
        "#!/bin/sh\n"
        f'if [ "$1" = "--version" ]; then echo "fakecc {version}"; exit 0; fi\n'
        'out=""\n'
        'prev=""\n'
        'for a in "$@"; do if [ "$prev" = "-o" ]; then out="$a"; fi; prev="$a"; done\n'
        'echo "nop" > "$out"\n'
    )
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return str(script)


def test_fingerprint_tracks_compiler_version(tmp_path):
    cc_v1 = _fake_compiler(tmp_path, "1.0")
    cc_v2 = _fake_compiler(tmp_path, "2.0")
    template = (
        "[x86_64]\ncompile = {cc} -S {{opt}} {{input}} -o {{output}}\n"
        "[armv5]\ncompile = {cc} -S {{opt}} {{input}} -o {{output}}\n"
    )
    cfg_v1 = parse_config(template.format(cc=cc_v1))
    cfg_v2 = parse_config(template.format(cc=cc_v2))
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.c").write_text("int a;\n")
    m1 = build_corpus(src, IsaName.ARMV5, cfg_v1, tmp_path / "s1.ndjson")
    m2 = build_corpus(src, IsaName.ARMV5, cfg_v2, tmp_path / "s2.ndjson")
    assert m1.toolchain_fingerprints != m2.toolchain_fingerprints
    assert "fakecc 1.0" in m1.toolchain_fingerprints["x86_64"]
    assert "fakecc 2.0" in m2.toolchain_fingerprints["x86_64"]


@needs_lite
def test_load_eval_suite_well_formed(lite_cfg, tmp_path):
    suite = tmp_path / "suite"
    for pid in ("p2", "p1", "p3"):
        d = suite / pid
        d.mkdir(parents=True)
        (d / "func.c").write_text("int f(int x) { return x; }\n")
        (d / "test.c").write_text("int f(int x);\nint main(void){return f(0);}\n")
    pairs = load_eval_suite(suite, IsaName.ARMV5, lite_cfg)
    assert len(pairs) == 3
    assert [Path(p.c_source_path).parent.name for p in pairs] == ["p1", "p2", "p3"]
    assert all(p.test_source_path for p in pairs)


def test_load_eval_suite_missing_test_named(lite_cfg, tmp_path):
    suite = tmp_path / "suite"
    good = suite / "p1"
    good.mkdir(parents=True)
    (good / "func.c").write_text("int f(void){return 0;}\n")
    (good / "test.c").write_text("int main(void){return 0;}\n")
    bad = suite / "p2"
    bad.mkdir()
    (bad / "func.c").write_text("int g(void){return 0;}\n")
    with pytest.raises(LayoutError, match="p2"):
        load_eval_suite(suite, IsaName.ARMV5, lite_cfg)


@needs_gcc
def test_load_eval_suite_jobs_invariant_gcc_only(lite_cfg):
    parallel = load_eval_suite(FIXTURES / "mini_suite", IsaName.X86_64, lite_cfg, jobs=2)
    serial = load_eval_suite(FIXTURES / "mini_suite", IsaName.X86_64, lite_cfg, jobs=1)
    assert parallel == serial
    assert [p.pair_id for p in serial] == sorted(p.pair_id for p in serial)


@needs_gcc
def test_load_eval_suite_stops_at_first_failure_gcc_only(lite_cfg, tmp_path, monkeypatch):
    import xisa.dataset as dataset

    suite = tmp_path / "suite"
    for i in range(8):
        entry = suite / f"p{i}"
        entry.mkdir(parents=True)
        body = "int broken( {\n" if i == 0 else f"int f{i}(void){{return {i};}}\n"
        (entry / "func.c").write_text(body)
        (entry / "test.c").write_text("int main(void){return 0;}\n")
    compiled = set()
    real = dataset.run_command

    def counting(template, mapping, **kwargs):
        compiled.add(Path(mapping["input"]).parent.name)
        return real(template, mapping, **kwargs)

    monkeypatch.setattr(dataset, "run_command", counting)
    with pytest.raises(CompileFailed):
        load_eval_suite(suite, IsaName.X86_64, lite_cfg, jobs=1)
    # p0 fails; the one worker may already have taken p1, but nothing after it
    assert "p0" in compiled
    assert compiled <= {"p0", "p1"}


@needs_lite
def test_repo_mini_suite_loads(mini_pairs):
    assert len(mini_pairs) >= 10
    for pair in mini_pairs:
        assert pair.target.normalized_text.strip()
        assert pair.x86.normalized_text.strip()
        assert pair.test_source_path


@needs_lite
def test_build_corpus_parallel_matches_serial(lite_cfg, tmp_path):
    serial = tmp_path / "serial.ndjson"
    parallel = tmp_path / "parallel.ndjson"
    build_corpus(C_CORPUS, IsaName.ARMV5, lite_cfg, serial, sample=6, seed=3, jobs=1)
    build_corpus(C_CORPUS, IsaName.ARMV5, lite_cfg, parallel, sample=6, seed=3, jobs=4)
    key = lambda p: p.pair_id  # noqa: E731
    assert sorted(read_store(serial), key=key) == sorted(read_store(parallel), key=key)


def test_compile_timeout_maps_to_tool_timeout(tmp_path):
    import stat
    import sys

    slow = tmp_path / "slowcc"
    slow.write_text(f"#!{sys.executable}\nimport time\ntime.sleep(5)\n")
    slow.chmod(slow.stat().st_mode | stat.S_IEXEC)
    cfg = parse_config(
        f"[global]\ntimeout_compile = 0.5\n"
        f"[x86_64]\ncompile = {slow} -S {{input}} -o {{output}}\n"
        f"[armv5]\ncompile = {slow} -S {{input}} -o {{output}}\n"
    )
    src = tmp_path / "a.c"
    src.write_text("int a;\n")
    from xisa.errors import ToolTimeout

    with pytest.raises(ToolTimeout):
        compile_pair(src, IsaName.ARMV5, cfg)


@needs_gcc
def test_build_store_bytes_independent_of_jobs(tmp_path):
    stores = []
    for jobs in ("1", "2"):
        store = tmp_path / f"jobs{jobs}.ndjson"
        rc = cli_main(
            ["dataset", "build", "--src", str(C_CORPUS), "--target", "x86_64",
             "--jobs", jobs, "--config", str(CONFIGS / "clang-lite.cfg"),
             "--out", str(store)]
        )
        assert rc == 0
        stores.append(store.read_bytes())
    assert stores[0] == stores[1]
    assert stores[0].count(b"\n") == len(list(C_CORPUS.glob("*.c")))
