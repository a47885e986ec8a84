from __future__ import annotations

import json

import pytest

from conftest import CONFIGS
from xisa.core import (
    GenerationParams,
    IsaName,
    atomic_write,
    get_isa,
    load_config,
    parse_config,
    read_records,
    write_records,
)
from xisa.dataset import read_store
from xisa.errors import ConfigError, MalformedRecord
from xisa.evaluation import read_results


def test_registry_has_four_isas():
    names = [get_isa(n).name for n in IsaName]
    assert names == [IsaName.X86_64, IsaName.ARMV5, IsaName.ARMV8, IsaName.RISCV64]


def test_armv5_register_table():
    regs = get_isa(IsaName.ARMV5).registers
    for i in range(16):
        assert f"r{i}" in regs
    assert {"fp", "sp", "lr", "pc"} <= regs.keys()


def test_x86_includes_subregister_aliases():
    regs = get_isa(IsaName.X86_64).registers
    assert "rax" in regs and "eax" in regs
    assert "al" in regs and "r8d" in regs


def test_riscv_abi_aliasing():
    regs = get_isa(IsaName.RISCV64).registers
    assert regs["a0"] == regs["x10"] == "x10"


def test_registry_is_pure():
    assert [get_isa(n) for n in IsaName] == [get_isa(n) for n in IsaName]
    a = get_isa("armv5")
    b = get_isa(IsaName.ARMV5)
    assert a is b


def test_isa_is_hashable():
    assert len(set([get_isa(n) for n in IsaName])) == 4
    assert get_isa("armv5").registers["fp"] == "r11"


def test_register_tables_duplicate_free():
    for isa in [get_isa(n) for n in IsaName]:
        # a map holds each name once; every alias names a register of its own table
        assert set(isa.registers.values()) <= set(isa.registers)
        assert isa.comment_leaders


MINIMAL = """
[x86_64]
compile = gcc -S {opt} {input} -o {output}

[armv5]
compile = clang --target=armv5te-linux-gnueabi -S {input} -o {output}
"""


def test_parse_config_defaults_opt_level():
    cfg = parse_config(MINIMAL)
    assert cfg.optimization_level == "-O0"
    assert set(cfg.entries) == {IsaName.X86_64, IsaName.ARMV5}


def test_zero_timeout_rejected_naming_field():
    bad = MINIMAL + "\n[global]\ntimeout_run = 0\n"
    with pytest.raises(ConfigError, match="timeout_run"):
        parse_config(bad)


def test_empty_config_is_parse_failure(tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    with pytest.raises(ConfigError, match="parse failure"):
        load_config(empty)


def test_unknown_isa_section_rejected():
    with pytest.raises(ConfigError, match="unknown ISA"):
        parse_config(MINIMAL + "\n[sparc]\ncompile = cc\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config(MINIMAL + "\n[global]\nfrobnicate = 1\n")
    # a retired key is unknown too
    with pytest.raises(ConfigError, match="prompt_version"):
        parse_config(MINIMAL + "\n[global]\nprompt_version = v1\n")


def test_config_roundtrip(tmp_path):
    source = tmp_path / "t.cfg"
    source.write_text(
        MINIMAL + "\n[global]\ntimeout_compile = 12.5\ntimeout_run = 3.0\n"
    )
    cfg = load_config(source)
    assert (cfg.timeout_compile, cfg.timeout_run) == (12.5, 3.0)
    assert cfg == parse_config(source.read_text())


def test_assemble_link_is_multiline(tmp_path):
    text = MINIMAL + (
        "\n[riscv64]\ncompile = clang -S {input} -o {output}\n"
        "assemble_link =\n"
        "    clang -c {candidate} -o {tmpdir}/c.o\n"
        "    ld.lld -o {output} {tmpdir}/c.o\n"
    )
    cfg = parse_config(text)
    assert len(cfg.entries[IsaName.RISCV64].assemble_link) == 2


@pytest.mark.parametrize("step", [
    "gcc -static {candidate} {test_src} -o {output}",
    "as {candidate} -o {output}",
    "gcc -c {candidate} {test_src}",
], ids=["test_src+output", "output", "test_src"])
def test_candidate_step_names_no_other_input_or_output(step):
    # a failing step is scored by its placeholders alone, so one that also
    # builds the driver or the binary could not tell whose fault it was
    text = MINIMAL + f"\n[riscv64]\nassemble_link =\n    {step}\n"
    with pytest.raises(ConfigError, match=r"\[riscv64\].*\{candidate\}"):
        parse_config(text)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_profiles_load(path):
    # every section, including those whose tools are not installed here
    cfg = load_config(path)
    for isa, cmds in cfg.entries.items():
        if cmds.assemble_link:
            assert sum("{candidate}" in step for step in cmds.assemble_link) == 1, isa
            assert "{output}" in cmds.assemble_link[-1], isa


def test_missing_command_named_in_error():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="assemble_link"):
        cfg.require(IsaName.ARMV5, "assemble_link")
    with pytest.raises(ConfigError, match="riscv64"):
        cfg.commands(IsaName.RISCV64)


def test_generation_params_validation():
    params = GenerationParams()
    assert params.num_beams == 1
    assert params.context_window == 16384
    with pytest.raises(ValueError):
        GenerationParams(num_beams=0)
    with pytest.raises(ValueError):
        GenerationParams(max_new_tokens=0)


def test_branch_mnemonics_populated():
    assert "jmp" in get_isa(IsaName.X86_64).branch_mnemonics
    assert {"b", "bl", "beq"} <= get_isa(IsaName.ARMV5).branch_mnemonics
    assert "b.eq" in get_isa(IsaName.ARMV8).branch_mnemonics
    assert {"beqz", "jal"} <= get_isa(IsaName.RISCV64).branch_mnemonics


def test_environment_variable_expansion(monkeypatch):
    monkeypatch.setenv("XISA_TEST_ROOT", "/opt/cross/bin")
    cfg = parse_config(
        "[x86_64]\ncompile = $XISA_TEST_ROOT/gcc -S {input} -o {output}\n"
    )
    assert cfg.entries[IsaName.X86_64].compile.startswith("/opt/cross/bin/gcc")


# --- the one writer and the one reader ----------------------------------------

def test_records_round_trip_sorted_keys_without_a_tmp_file(tmp_path):
    path = tmp_path / "r.ndjson"
    write_records(path, iter([{"schema": "s", "b": 1, "a": 2}, {"schema": "s", "a": 3}]))
    assert path.read_text() == (
        '{"a": 2, "b": 1, "schema": "s"}\n{"a": 3, "schema": "s"}\n'
    )
    assert list(read_records(path, "s", lambda r: r["a"])) == [2, 3]
    assert [p.name for p in tmp_path.iterdir()] == ["r.ndjson"]


def test_interrupted_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("complete\n")

    def chunks():
        yield "half of a new file"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        atomic_write(path, chunks())
    assert path.read_text() == "complete\n"
    assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]


def test_malformed_line_is_named_by_file_and_line(tmp_path):
    path = tmp_path / "r.ndjson"
    path.write_text('{"schema": "s", "a": 1}\n\n{not json\n')
    with pytest.raises(MalformedRecord, match=f"{path}:3: not JSON"):
        list(read_records(path, "s", dict))
    path.write_text('{"schema": "s", "a": 1}\n{"schema": "s"}\n')
    with pytest.raises(MalformedRecord, match=f"{path}:2: bad s record: KeyError"):
        list(read_records(path, "s", lambda r: r["a"]))
    path.write_text("[1, 2]\n")
    with pytest.raises(MalformedRecord, match=f"{path}:1: schema None"):
        list(read_records(path, "s", dict))


def test_store_holding_a_run_record_is_rejected(tmp_path):
    store = tmp_path / "pairs.ndjson"
    store.write_text(json.dumps({"schema": "xisa.run/v1", "outputs": []}) + "\n")
    with pytest.raises(MalformedRecord, match=f"{store}:1: schema 'xisa.run/v1'"):
        list(read_store(store))


def test_results_file_holds_only_result_records(tmp_path):
    result = {
        "schema": "xisa.eval_result/v1", "pair_id": "p01", "backend_id": "replay",
        "edit_distance": 0, "exact_match": True, "outcome": "pass", "failed_count": 0,
        "signal_name": "", "error_class": None, "candidate_index_used": 0, "logs": "",
    }
    path = tmp_path / "results.ndjson"
    path.write_text("\n".join(["", json.dumps(result), "   "]) + "\n")
    assert [r.pair_id for r in read_results(path)] == ["p01"]
    # a run record belongs in <out>.run.json, never in the results file
    path.write_text(json.dumps({"schema": "xisa.run/v1", "outputs": [str(path)]}) + "\n")
    with pytest.raises(MalformedRecord, match=f"{path}:1: schema 'xisa.run/v1'"):
        read_results(path)
