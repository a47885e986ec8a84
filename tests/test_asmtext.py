from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from xisa.asmtext import (
    LineKind,
    OperandKind,
    RegisterProfile,
    _split_operands,
    _strip_comment,
    canonical_register,
    load_role_table,
    normalize,
    parse_assembly,
    static_register_profile,
)
from xisa.core import IsaName, get_isa
from xisa.evaluation import score_syntactic
from xisa.toolrun import run_command

from conftest import FIXTURES, needs_gcc


def test_arm_load_with_negative_offset():
    unit = parse_assembly("ldr r1, [fp, #-8]", IsaName.ARMV5)
    insn = unit.lines[0].instruction
    assert insn.mnemonic == "ldr"
    reg, mem = insn.operands
    assert reg.kind is OperandKind.REGISTER and reg.register == "r1"
    assert mem.kind is OperandKind.MEMORY
    assert mem.base == "fp" and mem.offset == -8 and mem.index is None


def test_empty_input():
    unit = parse_assembly("", IsaName.ARMV5)
    assert unit.lines == ()
    assert unit.functions == ()
    assert unit.parse_fallbacks == 0


def test_three_register_add():
    unit = parse_assembly("add r1, r2, r3", IsaName.ARMV5)
    insn = unit.lines[0].instruction
    assert insn.mnemonic == "add"
    assert [op.register for op in insn.operands] == ["r1", "r2", "r3"]


def test_scaled_index_memory_operand():
    unit = parse_assembly("ldr r1, [r3, r1, lsl #2]", IsaName.ARMV5)
    mem = unit.lines[0].instruction.operands[1]
    assert mem.kind is OperandKind.MEMORY
    assert mem.base == "r3" and mem.index == "r1" and mem.scale_or_shift == "lsl #2"


def test_att_operands():
    text = "movl %edi, -4(%rbp)\naddl $1, %eax\ncall helper\njmp .L2"
    unit = parse_assembly(text, IsaName.X86_64)
    mov = unit.lines[0].instruction
    assert mov.operands[0].register == "edi"
    assert mov.operands[1].kind is OperandKind.MEMORY
    assert mov.operands[1].base == "rbp" and mov.operands[1].offset == -4
    add = unit.lines[1].instruction
    assert add.operands[0].kind is OperandKind.IMMEDIATE and add.operands[0].value == 1
    call = unit.lines[2].instruction
    assert call.label_refs == frozenset({"helper"})
    jmp = unit.lines[3].instruction
    assert jmp.label_refs == frozenset({".L2"})
    assert unit.parse_fallbacks == 0


def test_riscv_operands():
    text = "addi sp, sp, -32\nsw a0, -20(s0)\nlui a0, %hi(.LCPI0_0)"
    unit = parse_assembly(text, IsaName.RISCV64)
    addi = unit.lines[0].instruction
    assert addi.operands[2].value == -32
    sw = unit.lines[1].instruction
    assert sw.operands[1].kind is OperandKind.MEMORY
    assert sw.operands[1].base == "s0" and sw.operands[1].offset == -20
    lui = unit.lines[2].instruction
    assert lui.operands[1].kind is OperandKind.OTHER
    assert unit.parse_fallbacks == 0


def test_register_list_recognized_not_fallback():
    unit = parse_assembly("push {r11, lr}\npop {r11, pc}", IsaName.ARMV5)
    assert unit.parse_fallbacks == 0
    assert unit.lines[0].instruction.operands[0].kind is OperandKind.OTHER


def test_line_classification_exhaustive():
    text = "\t.globl f\nf:\n\tmov r0, #0\n@ pure comment\n\n"
    unit = parse_assembly(text, IsaName.ARMV5)
    kinds = [line.kind for line in unit.lines]
    assert kinds == [
        LineKind.DIRECTIVE,
        LineKind.LABEL,
        LineKind.INSTRUCTION,
        LineKind.COMMENT,
        LineKind.BLANK,
    ]


def test_comment_stripping_exact():
    text = "@ comment line\nmov r0, #0\n"
    unit = parse_assembly(text, IsaName.ARMV5)
    assert normalize(unit) == "mov r0, #0\n"


def test_inline_comment_stripped():
    unit = parse_assembly("mov r0, #0 @ set return", IsaName.ARMV5)
    assert unit.lines[0].text_normalized == "mov r0, #0"


def test_hash_not_comment_in_arm():
    unit = parse_assembly("cmp r0, #10", IsaName.ARMV5)
    assert unit.lines[0].instruction.operands[1].value == 10


def test_normalize_idempotent():
    text = "\t.file  \"x.c\"\nf:\n\tmov   r0,  #1\n\n@ c\n\tbx lr\n"
    unit = parse_assembly(text, IsaName.ARMV5)
    once = normalize(unit)
    again = normalize(parse_assembly(once, IsaName.ARMV5))
    assert once == again


def test_volatile_directives_dropped_banners_ignored():
    base = 'f:\n\tmov r0, #1\n\tbx lr\n'
    a = '\t.file "a.c"\n\t.ident "GCC: (Ubuntu 11.4.0) 11.4.0"\n' + base
    b = '\t.file "b.c"\n\t.ident "GCC: (Debian 13.1.0) 13.1.0"\n' + base
    na = normalize(parse_assembly(a, IsaName.ARMV5))
    nb = normalize(parse_assembly(b, IsaName.ARMV5))
    assert na == nb == "f:\nmov r0, #1\nbx lr\n"


def test_raw_policy_preserves_comments_and_blanks():
    text = '\t.file "a.c"\n@ keep me\n\nmov r0, #0\n'
    unit = parse_assembly(text, IsaName.ARMV5)
    assert normalize(unit, raw=True) == '.file "a.c"\n@ keep me\n\nmov r0, #0\n'
    assert normalize(unit) == "mov r0, #0\n"


def test_word_directive_retained():
    text = ".L8:\n\t.word 2147483647\n"
    unit = parse_assembly(text, IsaName.ARMV5)
    assert normalize(unit) == ".L8:\n.word 2147483647\n"


def test_whitespace_canonicalization():
    unit = parse_assembly("\t mov \t r0 ,   #0", IsaName.ARMV5)
    assert unit.lines[0].text_normalized == "mov r0, #0"


# one line each: isa, line, its kind, its normalized text, operand texts, fallbacks
SCANNER_CASES = {
    "leader_inside_a_string_is_kept": (
        IsaName.X86_64, '\t.string "a # b; c"\t# note', LineKind.DIRECTIVE,
        '.string "a # b; c"', [], 0),
    "double_slash_is_an_arm_leader": (
        IsaName.ARMV5, "\tmov r0, r1 // copy", LineKind.INSTRUCTION, "mov r0, r1",
        ["r0", "r1"], 0),
    "lone_slash_is_not_an_arm_leader": (
        IsaName.ARMV5, "\t.word 8/2 @ half", LineKind.DIRECTIVE, ".word 8/2", [], 0),
    "unterminated_quote_keeps_the_rest": (
        IsaName.ARMV5, '\t.ascii "abc @ def', LineKind.DIRECTIVE, '.ascii "abc @ def', [], 0),
    "escaped_backslash_closes_the_string": (
        IsaName.ARMV5, '\t.ascii "a\\\\" @ c', LineKind.DIRECTIVE, '.ascii "a\\\\"', [], 0),
    "escaped_quote_keeps_the_x86_string": (
        IsaName.X86_64, '.string "x\\"; y"', LineKind.DIRECTIVE, '.string "x\\"; y"', [], 0),
    "escaped_quote_keeps_the_arm_string": (
        IsaName.ARMV5, '.ascii "a\\"@b"', LineKind.DIRECTIVE, '.ascii "a\\"@b"', [], 0),
    "escaped_quote_keeps_the_riscv_string": (
        IsaName.RISCV64, '.string "q\\"# r"', LineKind.DIRECTIVE, '.string "q\\"# r"', [], 0),
    "commas_inside_parentheses": (
        IsaName.X86_64, "\tleaq 8(%rax,%rbx,4), %rcx", LineKind.INSTRUCTION,
        "leaq 8(%rax,%rbx,4), %rcx", ["8(%rax,%rbx,4)", "%rcx"], 0),
    "commas_inside_nested_parentheses": (
        IsaName.RISCV64, "\tlui a0, %hi((s,(t,u)))", LineKind.INSTRUCTION,
        "lui a0, %hi((s,(t,u)))", ["a0", "%hi((s,(t,u)))"], 0),
    "commas_inside_brackets": (
        IsaName.ARMV5, "\tldr r1, [r3, r1, lsl #2]", LineKind.INSTRUCTION,
        "ldr r1, [r3, r1, lsl #2]", ["r1", "[r3, r1, lsl #2]"], 0),
    "commas_inside_braces": (
        IsaName.ARMV5, "\tldmia r0!, {r1, r2}", LineKind.INSTRUCTION,
        "ldmia r0!, {r1, r2}", ["r0!", "{r1, r2}"], 0),
    "commas_inside_quotes": (
        IsaName.X86_64, '\tfoo "a, b", c', LineKind.INSTRUCTION, 'foo "a, b", c',
        ['"a, b"', "c"], 1),
    "label_with_trailing_code": (
        IsaName.X86_64, ".L2:\tmovl  $1,%eax", LineKind.LABEL, ".L2: movl $1,%eax", [], 1),
    "tab_and_space_runs_collapse": (
        IsaName.ARMV5, " \t mov \t r0 ,\t  r1 ,  lsl \t #2 ", LineKind.INSTRUCTION,
        "mov r0, r1, lsl #2", ["r0", "r1", "lsl #2"], 0),
    "comment_only_line_collapses": (
        IsaName.RISCV64, "  #\t  note  here ", LineKind.COMMENT, "# note here", [], 0),
    "semicolon_separates_x86_statements": (
        IsaName.X86_64, "\trep; movsb", LineKind.INSTRUCTION, "rep; movsb", ["movsb"], 0),
    "semicolon_separates_arm_statements": (
        IsaName.ARMV5, "\tmov r0, #1; mov r1, #2", LineKind.INSTRUCTION,
        "mov r0, #1; mov r1, #2", ["r0", "#1; mov r1", "#2"], 0),
}


@pytest.mark.parametrize(
    "isa,line,kind,text,operands,fallbacks", SCANNER_CASES.values(), ids=SCANNER_CASES.keys()
)
def test_line_scanner(isa, line, kind, text, operands, fallbacks):
    unit = parse_assembly(line, isa)
    (parsed,) = unit.lines
    assert (parsed.kind, parsed.text_normalized) == (kind, text)
    insn = parsed.instruction
    assert ([op.text for op in insn.operands] if insn else []) == operands
    assert unit.parse_fallbacks == fallbacks


def test_data_after_an_escaped_quote_is_scored():
    distance, exact = score_syntactic(
        '\t.string "x\\"; y"\n', '\t.string "x\\"; q"\n', IsaName.X86_64
    )
    assert distance > 0 and not exact


@pytest.mark.parametrize(
    "candidate, truth, isa",
    [
        ("\trep; movsb\n", "\trep; stosb\n", IsaName.X86_64),
        ("\tmov r0, #1; mov r1, #2\n", "\tmov r0, #1; mov r1, #3\n", IsaName.ARMV5),
    ],
    ids=["x86_64", "armv5"],
)
def test_statement_after_a_semicolon_is_scored(candidate, truth, isa):
    # GNU as reads ``;`` as a statement separator, never as a comment leader
    distance, exact = score_syntactic(candidate, truth, isa)
    assert distance > 0 and not exact


def test_parse_never_raises_on_garbage():
    unit = parse_assembly("\x00\xff nonsense $$$ ???\n\tmov r0, !!!", IsaName.ARMV5)
    assert len(unit.lines) == 2


def test_function_spans_from_type_directives():
    text = (
        "\t.type f, %function\nf:\n\tmov r0, #0\n\tbx lr\n"
        "\t.type g, %function\ng:\n\tmov r0, #1\n\tbx lr\n"
    )
    unit = parse_assembly(text, IsaName.ARMV5)
    assert [s.name for s in unit.functions] == ["f", "g"]
    f, g = unit.functions
    assert f.start_line < f.end_line <= g.start_line < g.end_line
    assert unit.lines[f.start_line].text_normalized == "f:"


def test_detokenization_reproduces_instruction_text(arm_corpus_units):
    for unit in arm_corpus_units:
        for line in unit.lines:
            if line.instruction is None:
                continue
            rendered = line.instruction.mnemonic
            if line.instruction.operands:
                rendered += " " + ", ".join(
                    op.text for op in line.instruction.operands
                )
            assert rendered == line.text_normalized


def test_zero_fallbacks_on_compiler_fixtures(arm_corpus_units):
    for unit in arm_corpus_units:
        assert unit.parse_fallbacks == 0, unit.source_id


def test_profile_back_to_back_writes_flagged():
    unit = parse_assembly("mov r3, r0\nmov r3, r1", IsaName.ARMV5)
    profile = static_register_profile(unit)
    assert profile["r3"].overwrite_without_read_lines == [1]


def test_profile_read_intervenes():
    unit = parse_assembly("mov r3, r0\nadd r1, r3, r2", IsaName.ARMV5)
    profile = static_register_profile(unit)
    assert profile["r3"].overwrite_without_read_lines == []


def test_profile_clobber_pattern_from_failed_translation():
    # accumulator register reloaded without the copy chain that kept it live
    predicted = "str r0, [fp, #-8]\nmov r0, #1\nldr r0, [fp, #-8]\nmul r3, r0, r0"
    unit = parse_assembly(predicted, IsaName.ARMV5)
    profile = static_register_profile(unit)
    assert profile["r0"].overwrite_without_read_lines == [2]

    truth = "str r0, [fp, #-8]\nmov r2, #1\nldr r3, [fp, #-8]\nmul r3, r3, r2"
    clean = static_register_profile(parse_assembly(truth, IsaName.ARMV5))
    assert all(not p.overwrite_without_read_lines for p in clean.values())


def test_profile_call_reads_argument_registers():
    unit = parse_assembly("mov r0, #3\nbl f\nmov r0, #5\nbl f", IsaName.ARMV5)
    profile = static_register_profile(unit)
    assert profile["r0"].overwrite_without_read_lines == []


def test_profile_x86_att_destination_last():
    unit = parse_assembly("movl $1, %eax\nmovl $2, %eax", IsaName.X86_64)
    profile = static_register_profile(unit)
    assert profile["rax"].overwrite_without_read_lines == [1]


def test_profile_store_is_pure_read():
    unit = parse_assembly("mov r3, r0\nstr r3, [fp, #-4]\nmov r3, r1", IsaName.ARMV5)
    profile = static_register_profile(unit)
    assert profile["r3"].overwrite_without_read_lines == []


def _flags(text: str, isa: IsaName) -> dict[str, list[int]]:
    profile = static_register_profile(parse_assembly(text, isa))
    return {r: p.overwrite_without_read_lines for r, p in profile.items()
            if p.overwrite_without_read_lines}


@pytest.mark.parametrize("text,isa", [
    # both arms of an if/else write the result register
    ("cmp r1, #0\nbeq .L2\nmov r0, #1\nb .L3\n.L2:\nmov r0, #2\n.L3:\nbx lr",
     IsaName.ARMV5),
    ("cmpl $0, %edi\nje .L2\nmovl $1, %eax\njmp .L3\n.L2:\nmovl $2, %eax\n.L3:\n"
     "popq %rbp\nret", IsaName.X86_64),
    # the value written at the bottom of the loop is read through its back edge
    ("mov r3, #0\n.L1:\nstr r3, [fp, #-8]\nmov r3, #5\ncmp r0, #0\nbne .L1\n"
     "mov r3, #7\nbx lr", IsaName.ARMV5),
    # two functions, each writing r0 at its end
    (".type f, %function\nf:\nmov r0, #1\n.type g, %function\ng:\nmov r0, #2\nbx lr",
     IsaName.ARMV5),
    # a write to pc leaves the function, so r0 is live after line 1
    ("mov r0, #1\npop {fp, pc}\n.L2:\nmov r0, #2", IsaName.ARMV5),
    ("mov r0, #1\nldm sp!, {fp, pc}\nmov r0, #2", IsaName.ARMV5),
    ("mov r0, #1\nmov pc, lr\nmov r0, #2", IsaName.ARMV5),
    # tail calls and indirect jumps leave it too
    ("movl $1, %eax\njmp f\nmovl $2, %eax", IsaName.X86_64),
    ("movl $1, %eax\njmp *%rdx\nmovl $2, %eax", IsaName.X86_64),
    # a conditional move or load keeps its destination when the condition fails
    ("mov r0, #0\ncmp r1, r2\nmovle r0, #1\nbx lr", IsaName.ARMV5),
    ("mov r0, #1\nldreq r0, [r1]\nbx lr", IsaName.ARMV5),
    ("movl $0, %eax\ncmpl %esi, %edi\ncmovl %esi, %eax\nret", IsaName.X86_64),
])
def test_profile_control_flow_keeps_live_writes(text, isa):
    assert _flags(text, isa) == {}


def test_profile_dead_write_in_a_loop_is_flagged():
    text = "mov r0, #0\n.L1:\nmov r3, #1\nmov r3, #2\nadd r0, r0, r3\ncmp r0, #9\nble .L1\nbx lr"
    assert _flags(text, IsaName.ARMV5) == {"r3": [3]}
    # a branch to a label of its own function does not leave the function
    assert _flags("mov r0, #1\nb .L2\n.L2:\nmov r0, #2", IsaName.ARMV5) == {"r0": [1]}


def test_profile_flags_no_frozen_arm_unit(arm_corpus_units):
    assert {u.source_id: _flags(u.raw_text, IsaName.ARMV5)
            for u in arm_corpus_units} == {u.source_id: {} for u in arm_corpus_units}


@needs_gcc
def test_profile_flags_no_gcc_x86_unit(lite_cfg, tmp_path):
    """gcc -O0 and -O2 output of every fixture C file, test drivers included."""
    sources = sorted(FIXTURES.glob("*/*.c")) + sorted(FIXTURES.glob("*/*/*.c"))
    assert len(sources) == 70
    jobs = [(c, opt, tmp_path / f"{i}{opt}.s") for i, c in enumerate(sources)
            for opt in ("-O0", "-O2")]

    def compile_one(job):
        c, opt, out = job
        proc = run_command(lite_cfg.commands("x86_64").compile,
                           {"input": str(c), "output": str(out), "opt": opt},
                           lite_cfg.timeout_compile)
        assert proc.returncode == 0, proc.stderr
        return f"{c.relative_to(FIXTURES)} {opt}", _flags(out.read_text(), IsaName.X86_64)

    with ThreadPoolExecutor(2) as pool:
        flagged = {name: flags for name, flags in pool.map(compile_one, jobs) if flags}
    assert flagged == {}


def test_canonical_register_names():
    assert canonical_register("eax", IsaName.X86_64) == "rax"
    assert canonical_register("r8d", IsaName.X86_64) == "r8"
    assert canonical_register("fp", IsaName.ARMV5) == "r11"
    assert canonical_register("w3", IsaName.ARMV8) == "x3"
    assert canonical_register("a0", IsaName.RISCV64) == "x10"


# The alias tables asmtext kept beside the ISA registry before the registry
# became a name -> register map; the oracle for canonical_register.
_X86_FAMILIES = list(
    zip(
        ["rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi"],
        ["eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"],
        ["ax", "cx", "dx", "bx", "sp", "bp", "si", "di"],
        ["al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil"],
    )
)
_X86_SUBREG_CANON = {alias: fam[0] for fam in _X86_FAMILIES for alias in fam}
_X86_SUBREG_CANON.update(zip(["ah", "ch", "dh", "bh"], ["rax", "rcx", "rdx", "rbx"]))
_X86_SUBREG_CANON.update(
    {f"r{i}{suffix}": f"r{i}" for i in range(8, 16) for suffix in ("", "d", "w", "b")}
)
_ARM_ALIAS_CANON = {"fp": "r11", "ip": "r12", "sp": "r13", "lr": "r14", "pc": "r15"}
_ARMV8_ALIAS_CANON = {"fp": "x29", "lr": "x30"}
_RISCV_ABI_CANON = {
    "zero": "x0", "ra": "x1", "sp": "x2", "gp": "x3", "tp": "x4",
    "t0": "x5", "t1": "x6", "t2": "x7", "s0": "x8", "fp": "x8", "s1": "x9",
    "a0": "x10", "a1": "x11", "a2": "x12", "a3": "x13", "a4": "x14",
    "a5": "x15", "a6": "x16", "a7": "x17", "s2": "x18", "s3": "x19",
    "s4": "x20", "s5": "x21", "s6": "x22", "s7": "x23", "s8": "x24",
    "s9": "x25", "s10": "x26", "s11": "x27", "t3": "x28", "t4": "x29",
    "t5": "x30", "t6": "x31",
}


def oracle_canonical(name: str, isa: IsaName) -> str:
    name = name.lower()
    if isa is IsaName.X86_64:
        return _X86_SUBREG_CANON.get(name, name)
    if isa is IsaName.ARMV5:
        return _ARM_ALIAS_CANON.get(name, name)
    if isa is IsaName.ARMV8:
        if name in _ARMV8_ALIAS_CANON:
            return _ARMV8_ALIAS_CANON[name]
        if name.startswith("w") and name[1:].isdigit():
            return "x" + name[1:]
        return name
    return _RISCV_ABI_CANON.get(name, name)


@pytest.mark.parametrize("isa", list(IsaName))
def test_canonical_register_matches_alias_oracle(isa):
    for name in get_isa(isa).registers:
        assert canonical_register(name, isa) == oracle_canonical(name, isa)
        assert canonical_register(name.upper(), isa) == oracle_canonical(name, isa)
    assert canonical_register("Bogus", isa) == "bogus"


@pytest.mark.parametrize("isa", [IsaName.ARMV5, IsaName.ARMV8])
def test_register_list_ranges_match_alias_oracle(isa):
    names = list(get_isa(isa).registers)
    for lo in names:
        for hi in names:
            unit = parse_assembly(f"pop {{{lo}-{hi}}}", isa)
            lo_c, hi_c = oracle_canonical(lo, isa), oracle_canonical(hi, isa)
            expected = set()
            if lo_c[1:].isdigit() and hi_c[1:].isdigit():
                expected = {f"{lo_c[0]}{i}" for i in range(int(lo_c[1:]), int(hi_c[1:]) + 1)}
            assert set(static_register_profile(unit)) == expected, (lo, hi)


def test_role_tables_load_for_all_isas():
    for isa in IsaName:
        table = load_role_table(isa)
        assert table
    arm = load_role_table(IsaName.ARMV5)
    assert arm["mov"] == ((0,), True)
    assert arm["cmp"] == ((), False)
    assert arm["add"] == ((0,), False)
    x86 = load_role_table(IsaName.X86_64)
    assert x86["movl"] == ((-1,), True)


# The name-prefix heuristic that decided purity before the role tables held it.
_PURE_WRITE_PREFIXES = ("mov", "ldr", "lw", "ld", "lb", "lh", "li", "lui", "la",
                        "mv", "mvn", "lea", "pop", "set")
# where the tables correct the heuristic: movk keeps the other 48 bits
_PREFIX_ORACLE_WRONG = {
    IsaName.ARMV8: {"movk"},
    # a conditional move or load keeps its destination when the condition fails
    IsaName.ARMV5: {"moveq", "movne", "movlt", "movgt", "movle", "movge", "ldreq", "ldrne"},
    # partial-register writes keep the rest of the register; gcc's frame
    # chain pops %rbp after saving %rsp in it
    IsaName.X86_64: {"sete", "setne", "setl", "setg", "setle", "setge", "movb", "movw",
                     "pop", "popq", "popl"},
}


@pytest.mark.parametrize("isa", list(IsaName))
def test_role_table_purity_matches_prefix_oracle(isa):
    wrong = _PREFIX_ORACLE_WRONG.get(isa, set())
    for mnemonic, (_, pure) in load_role_table(isa).items():
        assert pure == (mnemonic.startswith(_PURE_WRITE_PREFIXES)
                        and mnemonic not in wrong), mnemonic
    assert wrong <= set(load_role_table(isa))


def test_profile_movk_reads_its_destination():
    unit = parse_assembly("mov x0, #1\nmovk x0, #2, lsl #16", IsaName.ARMV8)
    assert static_register_profile(unit)["x0"].overwrite_without_read_lines == []
    unit = parse_assembly("mov x0, #1\nmov x0, #2", IsaName.ARMV8)
    assert static_register_profile(unit)["x0"].overwrite_without_read_lines == [1]


@pytest.mark.parametrize("text", ["movl $1, %eax\nsete %al", "movb $1, %al\nmovb $2, %ah"])
def test_profile_partial_register_write_reads_its_destination(text):
    unit = parse_assembly(text, IsaName.X86_64)
    assert static_register_profile(unit)["rax"].overwrite_without_read_lines == []


def test_profile_writeback_base_is_written():
    unit = parse_assembly("ldmia r0!, {r1, r2}\nmov r0, #1", IsaName.ARMV5)
    assert static_register_profile(unit)["r0"].overwrite_without_read_lines == [1]
    unit = parse_assembly("ldmia r0, {r1, r2}\nmov r0, #1", IsaName.ARMV5)
    assert static_register_profile(unit)["r0"].overwrite_without_read_lines == []
    # an ARM memory operand writes its base back when pre-indexed with `!`
    # or post-indexed, i.e. followed by another operand
    assert _flags("str r0, [r1, #4]!\nmov r1, #0", IsaName.ARMV5) == {"r1": [1]}
    assert _flags("ldr fp, [sp], #4\nmov sp, r0", IsaName.ARMV5) == {"r13": [1]}
    assert _flags("str r0, [r1, #4]\nmov r1, #0", IsaName.ARMV5) == {}
    # an x86 memory operand followed by another operand writes nothing back
    assert _flags("movl (%rbx), %eax\nmovq $0, %rbx", IsaName.X86_64) == {}


def test_profile_arm_o0_frame_flags_nothing():
    # gcc -O0's frame for `int f(int a) { return a + 1; }`: fp pushed with a
    # pre-indexed store, popped with a post-indexed load
    frame = (
        "f:\n"
        "\tstr fp, [sp, #-4]!\n"
        "\tadd fp, sp, #0\n"
        "\tsub sp, sp, #12\n"
        "\tstr r0, [fp, #-8]\n"
        "\tldr r3, [fp, #-8]\n"
        "\tadd r3, r3, #1\n"
        "\tmov r0, r3\n"
        "\tadd sp, fp, #0\n"
        "\tldr fp, [sp], #4\n"
        "\tbx lr\n"
    )
    assert _flags(frame, IsaName.ARMV5) == {}


# a pure move of the second register into the first, per ISA
_PURE_MOVE = {
    IsaName.X86_64: "movq %{1}, %{0}",
    IsaName.ARMV5: "mov {0}, {1}",
    IsaName.ARMV8: "mov {0}, {1}",
    IsaName.RISCV64: "mv {0}, {1}",
}


@pytest.mark.parametrize("isa", list(IsaName))
def test_profile_unlisted_mnemonic_reads_every_operand(isa):
    assert "movhi" not in load_role_table(isa)  # pure-looking, but unlisted
    sigil = "%" if isa is IsaName.X86_64 else ""
    first, second = list(get_isa(isa).registers)[:2]
    line = f"movhi {sigil}{first}, {sigil}{second}\n"
    profile = static_register_profile(parse_assembly(line * 2, isa))
    assert profile == {first: RegisterProfile([]), second: RegisterProfile([])}
    # it writes neither operand, so neither pure move after it finds a dead
    # write, and it reads both, so neither pure move before it is dead either
    for move in (_PURE_MOVE[isa].format(first, second), _PURE_MOVE[isa].format(second, first)):
        assert _flags(line + move, isa) == {}
        assert _flags(move + "\n" + line, isa) == {}


def test_profile_unlisted_mnemonic_mutant_flags_nothing():
    # a misspelt push does not write %rbp, so the frame move after it is no
    # overwrite of an unread %rbp
    text = "f:\n\tbad_pushq %rbp\n\tmovq %rsp, %rbp\n\tpopq %rbp\n\tret\n"
    assert "bad_pushq" not in load_role_table(IsaName.X86_64)
    assert _flags(text, IsaName.X86_64) == {}


def test_profile_arm_jump_table_switch_flags_nothing():
    # gcc's ARMv5 switch: a bounds check, then an unlisted conditional add
    # into pc that indexes a table of branches
    text = (
        "f:\n"
        "\tcmp r0, #3\n"
        "\taddls pc, pc, r0, lsl #2\n"
        "\tb .L2\n"
        "\tb .L3\n"
        "\tb .L4\n"
        "\tb .L5\n"
        "\tb .L6\n"
        ".L3:\n\tmov r0, #10\n\tbx lr\n"
        ".L4:\n\tmov r0, #20\n\tbx lr\n"
        ".L5:\n\tmov r0, #30\n\tbx lr\n"
        ".L6:\n\tmov r0, #40\n\tbx lr\n"
        ".L2:\n\tmov r0, #0\n\tbx lr\n"
    )
    assert "addls" not in load_role_table(IsaName.ARMV5)
    assert _flags(text, IsaName.ARMV5) == {}


@pytest.mark.parametrize(
    "text,isa",
    [
        ("str r1, [fp, #-8]", IsaName.ARMV5),
        ("mov r0, #400", IsaName.ARMV5),
        ("asr r2, r2, #1", IsaName.ARMV5),
        ("mvn r3, #-2147483648", IsaName.ARMV5),
        ("ldr r3, .L8", IsaName.ARMV5),
        ("strb r3, [fp, #-21]", IsaName.ARMV5),
    ],
)
def test_appendix_operand_shapes_parse_clean(text, isa):
    unit = parse_assembly(text, isa)
    assert unit.parse_fallbacks == 0
    assert unit.lines[0].kind is LineKind.INSTRUCTION


from hypothesis import example, given, settings
from hypothesis import strategies as st


@settings(max_examples=300, deadline=None)
@given(
    text=st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.,#[]%$()@;:!/- \t\n",
        max_size=200,
    ),
    isa=st.sampled_from([IsaName.X86_64, IsaName.ARMV5, IsaName.RISCV64]),
)
def test_normalize_idempotent_property(text, isa):
    once = normalize(parse_assembly(text, isa))
    again = normalize(parse_assembly(once, isa))
    assert once == again


@pytest.mark.parametrize(
    "text, verbatim",
    [
        ("mov r0, #08", "#08"),
        ("ldr r0, [r1, #09]", "[r1, #09]"),
        ("mov r0, #010", "#010"),
        ("mov r0, #0x", "#0x"),
    ],
)
def test_leading_zero_decimal_kept_verbatim(text, verbatim):
    unit = parse_assembly(text, IsaName.ARMV5)
    op = unit.lines[0].instruction.operands[1]
    assert op.kind is OperandKind.OTHER and op.text == verbatim
    assert op.value is None and op.offset is None


_ARM_CORPUS_LINES = [
    line
    for path in sorted((FIXTURES / "arm_corpus").glob("*.s"))
    for line in path.read_text(encoding="utf-8").splitlines()
    if line.strip()
]
_EDIT_ALPHABET = "rx0123456789, #[]"


@st.composite
def _edited_corpus_line(draw):
    line = draw(st.sampled_from(_ARM_CORPUS_LINES))
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        pos = draw(st.integers(min_value=0, max_value=len(line)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        ch = draw(st.sampled_from(_EDIT_ALPHABET))
        if op == "insert":
            line = line[:pos] + ch + line[pos:]
        elif op == "delete":
            line = line[:pos] + line[pos + 1 :]
        else:
            line = line[:pos] + ch + line[pos + 1 :]
    return line


@settings(max_examples=500, deadline=None)
@given(line=_edited_corpus_line())
@example(line="\tldr\tr3, [fp, #08]")
def test_parse_never_raises_on_edited_corpus_lines(line):
    parse_assembly(line, IsaName.ARMV5)


# --- the line scanner against its per-character reference --------------------

def _unquoted(text):
    """Yield (index, char) for each character outside double-quoted strings.

    The quotes belong to the string, and inside it a backslash escapes the
    next character, as GNU as reads it.  An unterminated string runs to the
    end of the text.
    """
    in_quote = escaped = False
    for i, ch in enumerate(text):
        if in_quote:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_quote = False
        elif ch == '"':
            in_quote = True
        else:
            yield i, ch


def reference_strip_comment(text, leaders):
    for i, _ in _unquoted(text):
        if text.startswith(leaders, i):
            return text[:i], True
    return text, False


def reference_split_operands(text):
    parts = []
    depth = start = 0
    for i, ch in _unquoted(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


_ALL_ISAS = list(IsaName)


@settings(max_examples=2000, deadline=None)
@given(
    text=st.text(alphabet='ar0 \t,"\\()[]{}#@/;', max_size=40),
    leaders=st.sampled_from([get_isa(isa).comment_leaders for isa in _ALL_ISAS]),
)
@example(text='a"b\\', leaders=("#",))
@example(text='x "a\\"# b" // c', leaders=("//", "@"))
def test_scanners_match_the_per_character_reference(text, leaders):
    assert _strip_comment(text, leaders) == reference_strip_comment(text, leaders)
    assert _split_operands(text) == reference_split_operands(text)


_ASM_LINES = st.one_of(
    st.text(alphabet='abcmovlr0x1_.,#[]{}%$()@;:!/-"\\ \t', max_size=40),
    st.sampled_from([
        '\t.file "a.c"', '\t.ident "GCC"', "\t.type f, %function", "f:", ".L2: mov r0, r1",
        "\tmovl $1, %eax # c", "\tldr r1, [fp, #-8] @ c", "\tld a0, 8(sp)", "\t.string \"a#b\"",
    ]),
)


@settings(max_examples=500, deadline=None)
@given(
    lines=st.lists(_ASM_LINES, max_size=8),
    isa=st.sampled_from(_ALL_ISAS),
    raw=st.booleans(),
)
def test_normalize_text_matches_its_parsed_unit(lines, isa, raw):
    text = "\n".join(lines)
    assert normalize(text, raw, isa) == normalize(parse_assembly(text, isa), raw)
