from __future__ import annotations

import random
import runpy
import struct
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from pathlib import Path

import pytest

from conftest import armenc, needs_lite
from armenc import SVC0, bx, dp, mem, mov, mul, pop, push  # loaded by conftest
from xisa import armvm
from xisa.toolrun import DATA_DIR

CLANG_ARM = ["clang", "--target=armv5te-linux-gnueabi"]


def build(tmp_path: Path, asm_text: str) -> Path:
    src = tmp_path / "prog.s"
    src.write_text(asm_text)
    start_obj = tmp_path / "start.o"
    prog_obj = tmp_path / "prog.o"
    binary = tmp_path / "prog"
    subprocess.run(
        [*CLANG_ARM, "-c", f"{DATA_DIR}/start_armv5.s", "-o", str(start_obj)],
        check=True,
    )
    subprocess.run([*CLANG_ARM, "-c", str(src), "-o", str(prog_obj)], check=True)
    subprocess.run(
        ["ld.lld", "-static", "-o", str(binary), str(start_obj), str(prog_obj)],
        check=True,
    )
    return binary


def run_vm(binary: Path, timeout: float = 20.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "xisa.armvm", str(binary)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


MAIN = """\
\t.text
\t.globl main
\t.type main, %function
main:
{body}
"""


def run_body(tmp_path, body: str) -> subprocess.CompletedProcess:
    lines = "\n".join("\t" + line for line in body.strip().splitlines())
    return run_vm(build(tmp_path, MAIN.format(body=lines)))


@needs_lite
def test_exit_code_path(tmp_path):
    proc = run_body(tmp_path, "mov r0, #42\nbx lr")
    assert proc.returncode == 42


@needs_lite
def test_arithmetic_and_flags(tmp_path):
    # 7*6 - 2 = 40; bne path must not trigger
    body = """
mov r1, #7
mov r2, #6
mul r3, r1, r2
sub r3, r3, #2
cmp r3, #40
moveq r0, #0
movne r0, #1
bx lr
"""
    assert run_body(tmp_path, body).returncode == 0


@needs_lite
def test_conditional_branches(tmp_path):
    body = """
mov r0, #5
cmp r0, #10
bge wrong
mov r0, #0
bx lr
wrong:
mov r0, #1
bx lr
"""
    assert run_body(tmp_path, body).returncode == 0


@needs_lite
def test_signed_comparison_negative(tmp_path):
    body = """
mov r1, #0
sub r1, r1, #5
cmp r1, #3
blt ok
mov r0, #1
bx lr
ok:
mov r0, #0
bx lr
"""
    assert run_body(tmp_path, body).returncode == 0


@needs_lite
def test_memory_and_stack(tmp_path):
    body = """
push {fp, lr}
mov fp, sp
sub sp, sp, #8
mov r1, #17
str r1, [fp, #-4]
ldr r0, [fp, #-4]
mov sp, fp
pop {fp, pc}
"""
    assert run_body(tmp_path, body).returncode == 17


@needs_lite
def test_byte_loads_and_stores(tmp_path):
    body = """
sub sp, sp, #8
mov r1, #65
strb r1, [sp, #1]
ldrb r0, [sp, #1]
sub r0, r0, #60
add sp, sp, #8
bx lr
"""
    assert run_body(tmp_path, body).returncode == 5


@needs_lite
def test_literal_pool_big_constant(tmp_path):
    body = """
ldr r0, =123456789
ldr r1, =123456689
sub r0, r0, r1
bx lr
"""
    assert run_body(tmp_path, body).returncode == 100


@needs_lite
def test_shift_operands(tmp_path):
    body = """
mov r1, #3
lsl r2, r1, #4
add r2, r2, r1, lsl #1
mov r0, r2
bx lr
"""
    # 3<<4 + 3<<1 = 48 + 6 = 54
    assert run_body(tmp_path, body).returncode == 54


@needs_lite
def test_function_call_and_return(tmp_path):
    asm = """\
\t.text
\t.globl double_it
double_it:
\tadd r0, r0, r0
\tbx lr
\t.globl main
main:
\tpush {r4, lr}
\tmov r0, #21
\tbl double_it
\tpop {r4, pc}
"""
    assert run_vm(build(tmp_path, asm)).returncode == 42


@needs_lite
def test_segfault_reports_invalid_address(tmp_path):
    body = """
mov r1, #68
ldr r0, [r1]
bx lr
"""
    proc = run_body(tmp_path, body)
    assert proc.returncode == -11  # killed by SIGSEGV
    assert "Invalid memory access" in proc.stderr


@needs_lite
def test_undefined_instruction_raises_sigill(tmp_path):
    body = """
.word 0xffffffff
bx lr
"""
    proc = run_body(tmp_path, body)
    assert proc.returncode == -4  # SIGILL
    assert "unsupported instruction" in proc.stderr


@needs_lite
def test_write_syscall(tmp_path):
    # write(1, buf, 2) through the EABI svc path
    body = """
push {fp, lr}
mov fp, sp
sub sp, sp, #8
mov r1, #79
strb r1, [fp, #-8]
mov r1, #75
strb r1, [fp, #-7]
mov r0, #1
sub r1, fp, #8
mov r2, #2
mov r7, #4
svc #0
mov r0, #0
mov sp, fp
pop {fp, pc}
"""
    proc = run_body(tmp_path, body)
    assert proc.returncode == 0
    assert proc.stdout == "OK"


def test_non_arm_binary_rejected(tmp_path):
    fake = tmp_path / "not_elf"
    fake.write_bytes(b"\x7fELFgarbage")
    proc = run_vm(fake)
    assert proc.returncode == 125
    assert "armvm" in proc.stderr


@needs_lite
def test_clang_compiled_program_runs(tmp_path):
    c_file = tmp_path / "t.c"
    c_file.write_text(
        "int tri(int n){int s=0;for(int i=0;i<=n;i++)s+=i;return s;}\n"
        "int main(void){return tri(8) == 36 ? 0 : 1;}\n"
    )
    obj = tmp_path / "t.o"
    subprocess.run(
        [*CLANG_ARM, "-O0", "-ffreestanding", "-fno-unwind-tables", "-c",
         str(c_file), "-o", str(obj)],
        check=True,
    )
    start_obj = tmp_path / "start.o"
    subprocess.run(
        [*CLANG_ARM, "-c", f"{DATA_DIR}/start_armv5.s", "-o", str(start_obj)],
        check=True,
    )
    binary = tmp_path / "t"
    subprocess.run(
        ["ld.lld", "-static", "-o", str(binary), str(start_obj), str(obj)],
        check=True,
    )
    assert run_vm(binary).returncode == 0


@needs_lite
def test_differential_against_native_execution(tmp_path):
    """Random integer expression programs, compiled twice: natively for the
    host (gcc) and for ARMv5 (clang).  Host execution is the oracle; the
    interpreter must produce the same exit code on every program."""
    import random

    rng = random.Random(0xA5A5)

    def expr(depth: int) -> str:
        if depth == 0:
            return str(rng.randint(0, 40))
        op = rng.choice(["+", "-", "*", "&", "|", "^", "<<", ">>", "<", ">", "=="])
        left = expr(depth - 1)
        right = expr(depth - 1)
        if op == "<<":
            return f"(({left}) << {rng.randint(0, 3)})"
        if op == ">>":
            return f"((({left}) & 0xffff) >> {rng.randint(0, 3)})"
        return f"(({left}) {op} ({right}))"

    start_obj = tmp_path / "start.o"
    subprocess.run(
        [*CLANG_ARM, "-c", f"{DATA_DIR}/start_armv5.s", "-o", str(start_obj)],
        check=True,
    )
    for i in range(12):
        body = expr(4)
        source = (
            f"int compute(void) {{ return ({body}) & 0x7f; }}\n"
            "int main(void) { return compute(); }\n"
        )
        c_file = tmp_path / f"d{i}.c"
        c_file.write_text(source)

        native = tmp_path / f"d{i}_native"
        subprocess.run(
            ["gcc", "-O0", str(c_file), "-o", str(native)], check=True
        )
        expected = subprocess.run([str(native)]).returncode

        obj = tmp_path / f"d{i}.o"
        subprocess.run(
            [*CLANG_ARM, "-O0", "-ffreestanding", "-fno-unwind-tables",
             "-c", str(c_file), "-o", str(obj)],
            check=True,
        )
        binary = tmp_path / f"d{i}_arm"
        subprocess.run(
            ["ld.lld", "-static", "-o", str(binary), str(start_obj), str(obj)],
            check=True,
        )
        got = run_vm(binary).returncode
        assert got == expected, f"program {i}: native={expected} armvm={got}\n{body}"


# --- toolchain-free twins: the programs above, hand-encoded with armenc ------

FP, SP, LR, PC = 11, 13, 14, 15


def with_start(build_main) -> list[int]:
    """``_start`` from start_armv5.s (bl main; exit with r0), then main."""
    p = armenc.Program()
    p.branch("main", link=True)
    p.emit(mov(7, ("#", 1)), SVC0)
    p.label("main")
    build_main(p)
    return p.words()


def run_main(arm_elf, *words: int) -> subprocess.CompletedProcess:
    return run_vm(arm_elf(with_start(lambda p: p.emit(*words))))


def test_exit_code_path_encoded(arm_elf):
    assert run_main(arm_elf, mov(0, ("#", 42)), bx(LR)).returncode == 42


def test_arithmetic_and_flags_encoded(arm_elf):
    proc = run_main(
        arm_elf,
        mov(1, ("#", 7)),
        mov(2, ("#", 6)),
        mul(3, 1, 2),
        dp("sub", 3, 3, ("#", 2)),
        dp("cmp", 0, 3, ("#", 40)),
        mov(0, ("#", 0), cond="eq"),
        mov(0, ("#", 1), cond="ne"),
        bx(LR),
    )
    assert proc.returncode == 0


def test_conditional_branches_encoded(arm_elf):
    def main(p):
        p.emit(mov(0, ("#", 5)), dp("cmp", 0, 0, ("#", 10)))
        p.branch("wrong", cond="ge")
        p.emit(mov(0, ("#", 0)), bx(LR))
        p.label("wrong")
        p.emit(mov(0, ("#", 1)), bx(LR))

    assert run_vm(arm_elf(with_start(main))).returncode == 0


def test_signed_comparison_negative_encoded(arm_elf):
    def main(p):
        p.emit(mov(1, ("#", 0)), dp("sub", 1, 1, ("#", 5)), dp("cmp", 0, 1, ("#", 3)))
        p.branch("ok", cond="lt")
        p.emit(mov(0, ("#", 1)), bx(LR))
        p.label("ok")
        p.emit(mov(0, ("#", 0)), bx(LR))

    assert run_vm(arm_elf(with_start(main))).returncode == 0


def test_memory_and_stack_encoded(arm_elf):
    proc = run_main(
        arm_elf,
        push([FP, LR]),
        mov(FP, SP),
        dp("sub", SP, SP, ("#", 8)),
        mov(1, ("#", 17)),
        mem("str", 1, FP, -4),
        mem("ldr", 0, FP, -4),
        mov(SP, FP),
        pop([FP, PC]),
    )
    assert proc.returncode == 17


def test_byte_loads_and_stores_encoded(arm_elf):
    proc = run_main(
        arm_elf,
        dp("sub", SP, SP, ("#", 8)),
        mov(1, ("#", 65)),
        mem("strb", 1, SP, 1),
        mem("ldrb", 0, SP, 1),
        dp("sub", 0, 0, ("#", 60)),
        dp("add", SP, SP, ("#", 8)),
        bx(LR),
    )
    assert proc.returncode == 5


def test_literal_pool_big_constant_encoded(arm_elf):
    # each ldr reads the pool word 4 words after it: pc reads 8 bytes ahead
    proc = run_main(
        arm_elf,
        mem("ldr", 0, PC, 8),
        mem("ldr", 1, PC, 8),
        dp("sub", 0, 0, 1),
        bx(LR),
        123456789,
        123456689,
    )
    assert proc.returncode == 100


def test_shift_operands_encoded(arm_elf):
    proc = run_main(
        arm_elf,
        mov(1, ("#", 3)),
        mov(2, 1, ("lsl", 4)),
        dp("add", 2, 2, 1, ("lsl", 1)),
        mov(0, 2),
        bx(LR),
    )
    assert proc.returncode == 54  # 3<<4 + 3<<1


def test_function_call_and_return_encoded(arm_elf):
    def main(p):
        p.emit(push([4, LR]), mov(0, ("#", 21)))
        p.branch("double_it", link=True)
        p.emit(pop([4, PC]))
        p.label("double_it")
        p.emit(dp("add", 0, 0, 0), bx(LR))

    assert run_vm(arm_elf(with_start(main))).returncode == 42


def test_segfault_reports_invalid_address_encoded(arm_elf):
    proc = run_main(arm_elf, mov(1, ("#", 68)), mem("ldr", 0, 1, 0), bx(LR))
    assert proc.returncode == -11  # killed by SIGSEGV
    assert "Invalid memory access" in proc.stderr


def test_undefined_instruction_raises_sigill_encoded(arm_elf):
    proc = run_main(arm_elf, 0xFFFFFFFF, bx(LR))
    assert proc.returncode == -4  # SIGILL
    assert "unsupported instruction" in proc.stderr


def test_write_syscall_encoded(arm_elf):
    proc = run_main(
        arm_elf,
        push([FP, LR]),
        mov(FP, SP),
        dp("sub", SP, SP, ("#", 8)),
        mov(1, ("#", 79)),
        mem("strb", 1, FP, -8),
        mov(1, ("#", 75)),
        mem("strb", 1, FP, -7),
        mov(0, ("#", 1)),
        dp("sub", 1, FP, ("#", 8)),
        mov(2, ("#", 2)),
        mov(7, ("#", 4)),
        SVC0,
        mov(0, ("#", 0)),
        mov(SP, FP),
        pop([FP, PC]),
    )
    assert proc.returncode == 0
    assert proc.stdout == "OK"


# --- whole guests, in-process -------------------------------------------------

def guests(seed: int, iterations: int = 60) -> list:
    rng = random.Random(seed)
    return [armenc.exit_guest(rng), armenc.loop_guest(rng, iterations),
            armenc.straight_guest(rng, 300), armenc.selfstore_guest(rng, iterations)]


# loop iterations that reach the translation threshold with room to spare
HOT_ITERATIONS = armvm.HOT + 72


def translated(mem: armvm.Memory) -> list[tuple]:
    """The translated blocks of ``mem``, without the addresses left cold."""
    return [block for block in mem.blocks.values() if block[1]]


@pytest.mark.parametrize("seed", range(20))
def test_armenc_guests_exit_code_and_steps(tmp_path, seed):
    for guest in guests(seed, HOT_ITERATIONS):
        path = tmp_path / f"{guest.name}.elf"
        path.write_bytes(guest.image)
        # exactly the guest's length: one instruction fewer stops it short
        budget = guest.instructions
        cpu = armvm.Cpu(*armvm.load_elf(str(path)))
        assert cpu.run(budget) == guest.exit_code, guest.name
        assert bool(translated(cpu.mem)) == (guest.name in ("loop", "selfstore"))
        with pytest.raises(armvm.BudgetExhausted):
            armvm.run(str(path), max_steps=budget - 1)


def test_instruction_budget_kills_with_sigkill(tmp_path):
    path = tmp_path / "loop.elf"
    path.write_bytes(guests(0)[1].image)
    proc = subprocess.run(
        [sys.executable, "-m", "xisa.armvm", str(path), "--max-steps", "10"],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == -9  # SIGKILL
    assert "armvm: instruction budget of 10 exhausted" in proc.stderr


def test_instruction_budget_raises_in_process(tmp_path):
    path = tmp_path / "loop.elf"
    path.write_bytes(guests(0)[1].image)
    # the caller gets the fault; only main kills its own process
    with pytest.raises(armvm.BudgetExhausted, match="budget of 10 exhausted"):
        armvm.run(str(path), max_steps=10)


def test_negative_budget_is_an_input_error(tmp_path):
    path = tmp_path / "exit.elf"
    path.write_bytes(guests(0)[0].image)
    mem, entry = armvm.load_elf(str(path))
    cpu = armvm.Cpu(mem, entry)
    with pytest.raises(ValueError, match="negative instruction budget -1"):
        cpu.run(-1)
    assert cpu.pc == entry  # nothing ran
    proc = subprocess.run(
        [sys.executable, "-m", "xisa.armvm", str(path), "--max-steps", "-1"],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 125
    assert proc.stderr == "armvm: negative instruction budget -1\n"


def patched(image: bytes, fmt: str, offset: int, value: int) -> bytes:
    data = bytearray(image)
    struct.pack_into(fmt, data, offset, value)
    return bytes(data)


EXIT_IMAGE = guests(0)[0].image
# e_phnum is the header's halfword at 44; the one program header starts at
# 52, its p_offset at 56, p_filesz at 68 and p_memsz at 72
MALFORMED_ELFS = {
    "magic_only": (EXIT_IMAGE[:4], "ELF header truncated at 4 of 52 bytes"),
    "8_byte_header": (EXIT_IMAGE[:8], "ELF header truncated at 8 of 52 bytes"),
    "3_program_headers_claimed": (
        patched(EXIT_IMAGE[:52], "<H", 44, 3), "program header table outside the file"),
    "segment_past_the_end": (
        patched(EXIT_IMAGE, "<I", 56, len(EXIT_IMAGE)), "segment 0 lies outside the file"),
    "filesz_over_memsz": (
        patched(EXIT_IMAGE, "<I", 72, 4), "segment 0 has p_filesz > p_memsz"),
    # 12 bytes of code declaring a 64 MB .bss: zero-filling it peaked at 78 MB RSS
    "64_mb_memsz": (
        patched(EXIT_IMAGE, "<I", 72, 64 << 20), f"loadable segments span {64 << 20} bytes"),
}


@pytest.mark.parametrize("data,reason", MALFORMED_ELFS.values(), ids=MALFORMED_ELFS)
def test_malformed_elf_is_an_input_error(tmp_path, capsys, data, reason):
    path = tmp_path / "bad.elf"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=reason):
        armvm.load_elf(str(path))
    assert armvm.main([str(path)]) == 125
    assert capsys.readouterr().err == f"armvm: {path}: {reason}\n"


def test_an_image_of_max_image_bytes_loads(tmp_path):
    path = tmp_path / "bss.elf"
    path.write_bytes(patched(EXIT_IMAGE, "<I", 72, armvm.MAX_IMAGE))
    mem, _entry = armvm.load_elf(str(path))
    assert len(mem.image) == armvm.MAX_IMAGE
    assert armvm.run(str(path)) == guests(0)[0].exit_code


# --- single steps ---------------------------------------------------------------

def step(word: int, regs: dict[int, int] | None = None, flags: str = "") -> armvm.Cpu:
    """One instruction at 0x10000 from the given registers and set flags
    (letters of "NZCV")."""
    cpu = armvm.Cpu(armvm.Memory(0x10000, bytearray(word.to_bytes(4, "little"))), 0x10000)
    for reg, value in (regs or {}).items():
        cpu.regs[reg] = value
    cpu.n, cpu.z, cpu.c, cpu.v = (letter in flags for letter in "NZCV")
    with pytest.raises(armvm.BudgetExhausted):
        cpu.run(1)
    return cpu


def nzcv(cpu: armvm.Cpu) -> str:
    return "".join(letter for letter, f in zip("NZCV", (cpu.n, cpu.z, cpu.c, cpu.v)) if f)


def reg_shift(kind: str, rm: int, rs: int) -> int:
    """movs r0, rm, <kind> rs"""
    return dp("mov", 0, 0, rm, s=True) | rs << 8 | armenc.SHIFT[kind] << 5 | 1 << 4


M = 0xFFFF_FFFF

# (word, registers, flags before, r0 after, flags after); values by hand
FLAG_AND_SHIFT_CASES = [
    # AddWithCarry: ADDS 0x7FFFFFFF + 1 overflows into the sign bit
    (dp("add", 0, 1, 2, s=True), {1: 0x7FFFFFFF, 2: 1}, "", 0x80000000, "NV"),
    (dp("add", 0, 1, 2, s=True), {1: M, 2: 1}, "", 0, "ZC"),
    # SUBS 0 - 1 borrows: C clear
    (dp("sub", 0, 1, 2, s=True), {1: 0, 2: 1}, "C", M, "N"),
    (dp("sub", 0, 1, 2, s=True), {1: 5, 2: 5}, "", 0, "ZC"),
    (dp("sub", 0, 1, 2, s=True), {1: 0x80000000, 2: 1}, "", 0x7FFFFFFF, "CV"),
    # RSBS r0, r1, #0 is 0 - r1
    (dp("rsb", 0, 1, ("#", 0), s=True), {1: 1}, "", M, "N"),
    (dp("rsb", 0, 1, ("#", 0), s=True), {1: 0x80000000}, "", 0x80000000, "NV"),
    (dp("rsb", 0, 1, ("#", 0), s=True), {1: 0}, "", 0, "ZC"),
    # ADCS adds C in
    (dp("adc", 0, 1, 2, s=True), {1: M, 2: 0}, "", M, "N"),
    (dp("adc", 0, 1, 2, s=True), {1: M, 2: 0}, "C", 0, "ZC"),
    (dp("adc", 0, 1, 2, s=True), {1: 0x7FFFFFFF, 2: 0}, "C", 0x80000000, "NV"),
    # SBCS subtracts NOT C
    (dp("sbc", 0, 1, 2, s=True), {1: 5, 2: 5}, "", M, "N"),
    (dp("sbc", 0, 1, 2, s=True), {1: 5, 2: 5}, "C", 0, "ZC"),
    (dp("sbc", 0, 1, 2, s=True), {1: 0x80000000, 2: 0}, "", 0x7FFFFFFF, "CV"),
    # RSC: r2 - r1 - NOT C
    (dp("rsc", 0, 1, 2, s=True), {1: 1, 2: 5}, "", 3, "C"),
    # CMP/CMN set flags and write nothing (r0 keeps 7)
    (dp("cmp", 0, 1, 2), {0: 7, 1: 3, 2: 5}, "", 7, "N"),
    (dp("cmn", 0, 1, 2), {0: 7, 1: M, 2: 1}, "", 7, "ZC"),
    # immediate shifts: LSR/ASR #0 encode #32, ROR #0 encodes RRX
    (mov(0, 1, ("lsr", 32)) | 1 << 20, {1: 0x80000001}, "V", 0, "ZCV"),
    (mov(0, 1, ("asr", 32)) | 1 << 20, {1: 0x80000000}, "", M, "NC"),
    (mov(0, 1, ("asr", 32)) | 1 << 20, {1: 0x7FFFFFFF}, "C", 0, "Z"),
    (mov(0, 1, ("ror", 0)) | 1 << 20, {1: 3}, "C", 0x80000001, "NC"),
    (mov(0, 1, ("ror", 0)) | 1 << 20, {1: 2}, "", 1, ""),
    (mov(0, 1, ("lsl", 1)) | 1 << 20, {1: 0x80000001}, "", 2, "C"),
    # register shifts use the low byte of Rs: 0 keeps C
    (reg_shift("lsl", 1, 2), {1: 0x80000001, 2: 0}, "C", 0x80000001, "NC"),
    (reg_shift("lsl", 1, 2), {1: 0x80000001, 2: 0x100}, "", 0x80000001, "N"),
    (reg_shift("lsl", 1, 2), {1: 0x80000001, 2: 32}, "", 0, "ZC"),
    (reg_shift("lsl", 1, 2), {1: 0x80000001, 2: 33}, "C", 0, "Z"),
    (reg_shift("lsl", 1, 2), {1: M, 2: 255}, "C", 0, "Z"),
    (reg_shift("lsr", 1, 2), {1: 0x80000001, 2: 32}, "", 0, "ZC"),
    (reg_shift("lsr", 1, 2), {1: M, 2: 33}, "C", 0, "Z"),
    (reg_shift("lsr", 1, 2), {1: M, 2: 255}, "C", 0, "Z"),
    (reg_shift("asr", 1, 2), {1: 0x80000000, 2: 32}, "", M, "NC"),
    (reg_shift("asr", 1, 2), {1: 0x80000000, 2: 33}, "", M, "NC"),
    (reg_shift("asr", 1, 2), {1: 0x40000000, 2: 255}, "C", 0, "Z"),
    (reg_shift("ror", 1, 2), {1: 0x80000001, 2: 32}, "", 0x80000001, "NC"),
    (reg_shift("ror", 1, 2), {1: 0x00000001, 2: 32}, "C", 1, ""),
    (reg_shift("ror", 1, 2), {1: 0x00000003, 2: 33}, "", 0x80000001, "NC"),
    (reg_shift("ror", 1, 2), {1: 0x00000003, 2: 0}, "", 3, ""),
]


@pytest.mark.parametrize("word,regs,before,result,after", FLAG_AND_SHIFT_CASES)
def test_flags_and_shifts(word, regs, before, result, after):
    cpu = step(word, regs, before)
    assert cpu.regs[0] == result
    assert nzcv(cpu) == after


# one row per condition, one column per NZCV state (N the high bit):
# 1 where the condition passes
CONDITION_TABLE = {
    "eq": "0000111100001111",
    "ne": "1111000011110000",
    "cs": "0011001100110011",
    "cc": "1100110011001100",
    "mi": "0000000011111111",
    "pl": "1111111100000000",
    "vs": "0101010101010101",
    "vc": "1010101010101010",
    "hi": "0011000000110000",
    "ls": "1100111111001111",
    "ge": "1010101001010101",
    "lt": "0101010110101010",
    "gt": "1010000001010000",
    "le": "0101111110101111",
    "al": "1111111111111111",
}


@pytest.mark.parametrize("cond", CONDITION_TABLE)
def test_all_conditions_against_all_flag_states(cond):
    for state in range(16):
        flags = "".join(letter for i, letter in enumerate("NZCV") if state >> (3 - i) & 1)
        cpu = step(mov(0, ("#", 1), cond=cond), {0: 0}, flags)
        assert cpu.regs[0] == int(CONDITION_TABLE[cond][state]), (cond, flags)
        assert cpu.pc == 0x10004
        assert nzcv(cpu) == flags


@pytest.mark.parametrize(
    "word", [0xE16F0F11, 0xE1020051, 0xE1200070], ids=["clz", "qadd", "bkpt"]
)
def test_miscellaneous_instructions_are_undefined(word):
    # once run as flag-setting TST/TEQ/CMP/CMN without S
    with pytest.raises(armvm.UndefinedInstruction):
        step(word, {1: 1, 2: 2})


def test_writeback_follows_the_transfer():
    stack = armvm.STACK_TOP - 256
    # str r1, [r1, #4]! stores the old base, then writes the new one back
    cpu = step(0xE5A11004, {1: stack})
    assert cpu.mem.load(stack + 4, 4) == stack
    assert cpu.regs[1] == stack + 4
    # ldr r1, [r1], #4: post-indexed, the writeback overwrites the load
    cpu = step(0xE4911004, {1: stack})
    assert cpu.regs[1] == stack + 4
    # ldr r2, [r1, #-4]: pre-indexed without ! leaves the base alone
    cpu = step(0xE5112004, {1: stack + 4, 2: 9})
    assert (cpu.regs[1], cpu.regs[2]) == (stack + 4, 0)


# words that name r15 where the ARM ARM makes the result UNPREDICTABLE;
# each once wrote or read an unused register slot instead of pc
R15_UNPREDICTABLE = {
    "mul pc, r1, r2": 0xE00F0291,
    "mul r0, pc, r2": 0xE000029F,
    "mla r0, r1, r2, pc": 0xE020F291,
    "umull r0, pc, r1, r2": 0xE08F0291,
    "umull pc, r0, r1, r2": 0xE080F291,
    "ldrh pc, [r1]": 0xE1D1F0B0,
    "strh pc, [r1]": 0xE1C1F0B0,
    "ldrh r0, [r1, pc]": 0xE19100BF,
    "ldrh r0, [pc, #2]!": 0xE1FF00B2,
    "ldr r0, [pc, #4]!": 0xE5BF0004,
    "ldr r0, [pc], #4": 0xE49F0004,
    "ldmia pc, {r0}": 0xE89F0001,
    "movs r0, r1, lsl pc": reg_shift("lsl", 1, 15),
}


@pytest.mark.parametrize("word", R15_UNPREDICTABLE.values(), ids=R15_UNPREDICTABLE)
def test_unpredictable_r15_forms_are_undefined(word):
    with pytest.raises(armvm.UndefinedInstruction):
        step(word, {1: 0x10000, 2: 2})


# --- the code cache: a patched word runs in its new form ----------------------

def image_cpu(*words: int) -> armvm.Cpu:
    """A Cpu over an image of ``words`` at 0x10000, pc at its first word."""
    image = bytearray(b"".join(w.to_bytes(4, "little") for w in words))
    return armvm.Cpu(armvm.Memory(0x10000, image), 0x10000)


def run_at(cpu: armvm.Cpu, addr: int, times: int = 1) -> None:
    for _ in range(times):
        cpu.pc = addr
        with pytest.raises(armvm.BudgetExhausted):
            cpu.run(1)


def cached_then_patched(cpu: armvm.Cpu, targets: list[int], store_at: int) -> None:
    """Run each target word twice, so that it is cached, then the store."""
    for addr in targets:
        run_at(cpu, addr, times=2)
        assert addr in cpu.mem.code  # the patch below must meet a cached entry
    run_at(cpu, store_at)


def test_str_patch_reaches_a_cached_word():
    # mov r0, #1 becomes mov r0, #2
    cpu = image_cpu(mov(0, ("#", 1)), mem("str", 2, 1, 0))
    cpu.regs[1], cpu.regs[2] = 0x10000, mov(0, ("#", 2))
    cached_then_patched(cpu, [0x10000], store_at=0x10004)
    run_at(cpu, 0x10000)
    assert cpu.regs[0] == 2


def test_strb_patch_into_a_cached_word():
    # byte 1 of mov r0, #1 holds rd: 0x10 makes it mov r1, #1
    cpu = image_cpu(mov(0, ("#", 1)), mem("strb", 2, 3, 0))
    cpu.regs[2], cpu.regs[3] = 0x10, 0x10001
    cached_then_patched(cpu, [0x10000], store_at=0x10004)
    cpu.regs[0] = cpu.regs[1] = 0
    run_at(cpu, 0x10000)
    assert (cpu.regs[0], cpu.regs[1]) == (0, 1)


def test_unaligned_strh_patches_both_cached_words():
    # the halfword at 0x10003 is byte 3 of the first word (0xE3 -> 0x03
    # turns mov into moveq) and byte 0 of the second (its immediate, 5 -> 9)
    cpu = image_cpu(mov(0, ("#", 1)), mov(2, ("#", 5)), mem("strh", 4, 3, 0))
    cpu.regs[3], cpu.regs[4] = 0x10003, 0x0903
    cached_then_patched(cpu, [0x10000, 0x10004], store_at=0x10008)
    cpu.regs[0], cpu.z = 7, False
    run_at(cpu, 0x10000)
    run_at(cpu, 0x10004)
    assert (cpu.regs[0], cpu.regs[2]) == (7, 9)


def test_stm_patches_cached_words():
    # stmia r1, {r2, r3} rewrites both words: mov r0, #1 / mov r5, #1
    # become add r0, r0, #3 / mov r5, #4
    stmia = 0xE8810000 | 1 << 2 | 1 << 3
    cpu = image_cpu(mov(0, ("#", 1)), mov(5, ("#", 1)), stmia)
    cpu.regs[1:4] = [0x10000, dp("add", 0, 0, ("#", 3)), mov(5, ("#", 4))]
    cached_then_patched(cpu, [0x10000, 0x10004], store_at=0x10008)
    cpu.regs[0] = 10
    run_at(cpu, 0x10000)
    run_at(cpu, 0x10004)
    assert (cpu.regs[0], cpu.regs[5]) == (13, 4)


def watch_stores(mem: armvm.Memory) -> list[set[int]]:
    """Record, for each store into ``mem`` from now on, the words it writes
    that a translated block held just before it."""
    held = []
    store = mem.store

    def watched(addr: int, size: int, value: int) -> None:
        written = {addr & ~3, (addr + size - 1) & ~3}
        held.append({word for word in written if word in mem.translated})
        store(addr, size, value)

    mem.store = watched
    return held


def stack_code_guest(calls: int = HOT_ITERATIONS) -> list[int]:
    """Copies ``add r0, r0, #1; bx lr`` below sp, calls it ``calls`` times
    (enough to translate it), patches its add to ``#10`` and calls it once
    more: exits with ``calls + 10``."""
    blx_r4 = bx(4) | 1 << 5
    p = armenc.Program()
    p.emit(dp("sub", 4, SP, ("#", 256)), mov(0, ("#", 0)))
    p.const(5, dp("add", 0, 0, ("#", 1)))
    p.emit(mem("str", 5, 4, 0))
    p.const(5, bx(LR))
    p.emit(mem("str", 5, 4, 4))
    p.const(6, calls)
    p.label("call")
    p.emit(blx_r4, dp("sub", 6, 6, ("#", 1), s=True))
    p.branch("call", cond="ne")
    p.const(5, dp("add", 0, 0, ("#", 10)))
    p.emit(mem("str", 5, 4, 0), blx_r4)
    p.exit_with(0)
    return p.words()


def test_code_on_the_stack_runs_patched(arm_elf):
    path = arm_elf(stack_code_guest())
    cpu = armvm.Cpu(*armvm.load_elf(str(path)))
    held = watch_stores(cpu.mem)
    code_at = armvm.STACK_TOP - 64 - 256  # sp at entry, less 256
    assert cpu.run() == HOT_ITERATIONS + 10
    assert held[-1] == {code_at}  # the patch met the translated block
    assert run_vm(path).returncode == HOT_ITERATIONS + 10


CLZEQ = 0x016F0F11  # clzeq r0, r1: the miscellaneous space, undefined here


def test_conditional_undefined_word_faults_only_when_its_condition_passes():
    cpu = image_cpu(CLZEQ)
    cpu.z = False
    run_at(cpu, 0x10000, times=3)  # skipped, and cached from the second run
    assert (cpu.pc, cpu.regs[0]) == (0x10004, 0)
    assert 0x10000 in cpu.mem.code
    cpu.z = True
    with pytest.raises(armvm.UndefinedInstruction, match="0x016f0f11 at 0x00010000"):
        run_at(cpu, 0x10000)
    assert cpu.pc == 0x10000  # the faulting instruction


@pytest.mark.parametrize("stop_at,expected", [(100, 1), (1, -4)])
def test_conditional_undefined_word_in_a_guest(arm_elf, stop_at, expected):
    # counts r1 down from 3; clzeq runs once r1 equals stop_at
    p = armenc.Program()
    p.emit(mov(0, ("#", 1)), mov(1, ("#", 3)))
    p.label("loop")
    p.emit(dp("cmp", 0, 1, ("#", stop_at)), CLZEQ, dp("sub", 1, 1, ("#", 1), s=True))
    p.branch("loop", cond="ne")
    p.exit_with(0)
    proc = run_vm(arm_elf(p.words()))
    assert proc.returncode == expected  # 1: exited; -4: SIGILL
    assert ("0x016f0f11" in proc.stderr) == (expected == -4)


# --- translated blocks ----------------------------------------------------------

def address(p: armenc.Program, label: str) -> int:
    return armenc.BASE + 0x60 + 4 * p.labels[label]  # elf32 puts code at 0x60


def conditional(word: int, cond: str) -> int:
    return word & 0x0FFFFFFF | armenc.COND[cond] << 28


def test_store_into_the_running_block_exits_it(arm_elf):
    # the last iteration patches the add after its streq to add #100, and
    # that add must run as patched
    p = armenc.Program()
    p.adr(7, "target")
    p.const(6, dp("add", 2, 2, ("#", 100)))
    p.const(5, HOT_ITERATIONS)
    p.label("loop")
    p.emit(dp("add", 1, 1, ("#", 1)), dp("cmp", 0, 5, ("#", 1)),
           conditional(mem("str", 6, 7, 0), "eq"))
    p.label("target")
    p.emit(dp("add", 2, 2, ("#", 1)), dp("sub", 5, 5, ("#", 1), s=True))
    p.branch("loop", cond="ne")
    p.exit_with(2)
    cpu = armvm.Cpu(*armvm.load_elf(str(arm_elf(p.words()))))
    held = watch_stores(cpu.mem)
    cpu.run()
    assert held == [{address(p, "target")}]
    assert (cpu.regs[1], cpu.regs[2]) == (HOT_ITERATIONS, HOT_ITERATIONS - 1 + 100)


def test_store_into_a_block_that_is_not_running(arm_elf):
    # with r5 == 2 the loop patches bump's add to add #100; the last call,
    # a new arrival at bump's block, must run it as patched
    p = armenc.Program()
    p.adr(7, "bump")
    p.const(6, dp("add", 2, 2, ("#", 100)))
    p.const(5, HOT_ITERATIONS)
    p.label("loop")
    p.branch("bump", link=True)
    p.emit(dp("cmp", 0, 5, ("#", 2)), conditional(mem("str", 6, 7, 0), "eq"),
           dp("sub", 5, 5, ("#", 1), s=True))
    p.branch("loop", cond="ne")
    p.exit_with(2)
    p.label("bump")
    p.emit(dp("add", 2, 2, ("#", 1)), bx(LR))
    cpu = armvm.Cpu(*armvm.load_elf(str(arm_elf(p.words()))))
    held = watch_stores(cpu.mem)
    cpu.run()
    assert held == [{address(p, "bump")}]
    assert cpu.regs[2] == HOT_ITERATIONS - 1 + 100


def test_unaligned_strh_patches_two_translated_blocks(arm_elf):
    # the last iteration's strheq writes byte 3 of "branch" (bne -> beq) and
    # byte 0 of "after" (its immediate, 5 -> 9), the first word of the block
    # that "detour" jumps back to; the patched beq is taken, so every
    # iteration passes through "detour"
    p = armenc.Program()
    p.adr(7, "branch")
    p.emit(dp("add", 7, 7, ("#", 3)))
    p.const(6, 0x090A)
    p.const(5, HOT_ITERATIONS)
    p.label("loop")
    p.emit(dp("add", 1, 1, ("#", 1)), dp("cmp", 0, 5, ("#", 1)),
           conditional(mem("strh", 6, 7, 0), "eq"))
    p.label("branch")
    p.branch("detour", cond="ne")
    p.label("after")
    p.emit(mov(2, ("#", 5)), dp("add", 3, 3, 2), dp("sub", 5, 5, ("#", 1), s=True))
    p.branch("loop", cond="ne")
    p.exit_with(3)
    p.label("detour")
    p.emit(dp("add", 4, 4, ("#", 1)))
    p.branch("after")
    cpu = armvm.Cpu(*armvm.load_elf(str(arm_elf(p.words()))))
    held = watch_stores(cpu.mem)
    cpu.run()
    assert held == [{address(p, "branch"), address(p, "after")}]
    assert (cpu.regs[3], cpu.regs[4]) == (5 * (HOT_ITERATIONS - 1) + 9, HOT_ITERATIONS)


def test_memory_with_blocks_is_freed_with_its_last_reference(tmp_path):
    # a block function that referred back to its Memory or to the dict that
    # holds it would be kept, with the 1 MB stack it binds, until the cyclic
    # garbage collector ran
    path = tmp_path / "loop.elf"
    path.write_bytes(guests(0, HOT_ITERATIONS)[1].image)
    cpu = armvm.Cpu(*armvm.load_elf(str(path)))
    cpu.run()
    kept = [weakref.ref(cpu.mem), *(weakref.ref(block[1]) for block in translated(cpu.mem))]
    assert len(kept) > 1
    del cpu
    assert [ref() for ref in kept] == [None] * len(kept)


def run_stepped(cpu: armvm.Cpu):
    """Run ``cpu`` one instruction per ``run`` call, so that only blocks of
    a single jump run translated: the exit code, or the fault's type and
    message."""
    while True:
        try:
            return cpu.run(1)
        except armvm.BudgetExhausted:
            continue
        except armvm.GuestFault as fault:
            return type(fault), str(fault)


def run_whole(cpu: armvm.Cpu):
    try:
        return cpu.run(10**6)
    except armvm.GuestFault as fault:
        return type(fault), str(fault)


def state(cpu: armvm.Cpu) -> tuple:
    return (cpu.regs, nzcv(cpu), cpu.pc, cpu.mem.image, cpu.mem.stack)


def test_fault_inside_a_block_leaves_pc_at_the_faulting_load(arm_elf):
    # the last iteration points r6 at unmapped 0x40 before the ldr
    p = armenc.Program()
    p.adr(6, "data")
    p.const(5, HOT_ITERATIONS)
    p.label("loop")
    p.emit(dp("add", 1, 1, ("#", 1)), dp("cmp", 0, 5, ("#", 1)),
           mov(6, ("#", 0x40), cond="eq"))
    p.label("load")
    p.emit(mem("ldr", 0, 6, 0), dp("add", 2, 2, 0), dp("sub", 5, 5, ("#", 1), s=True))
    p.branch("loop", cond="ne")
    p.exit_with(2)
    p.label("data")
    p.emit(7)
    path = arm_elf(p.words())
    whole, stepped = (armvm.Cpu(*armvm.load_elf(str(path))) for _ in range(2))
    fault = (armvm.MemoryFault, "Invalid memory access at 0x00000040")
    assert run_whole(whole) == run_stepped(stepped) == fault
    assert whole.pc == address(p, "load") and address(p, "load") in whole.mem.translated
    assert (whole.regs[1], whole.regs[2]) == (HOT_ITERATIONS, 7 * (HOT_ITERATIONS - 1))
    assert state(whole) == state(stepped)
    proc = run_vm(path)
    assert (proc.returncode, proc.stderr) == (-11, "armvm: " + fault[1] + "\n")


FREE = (0, 1, 2, 3, 4, 6, 7, 9, 10, 12)  # r5 counts, r8 holds "data", r11 = sp


def random_op(rng: random.Random, p: armenc.Program) -> None:
    """One random instruction (two for push/pop, or a skip) of every
    rendered form, with random conditions, plus umull, which ends a block."""
    cond = rng.choice(list(armenc.COND)) if rng.random() < 0.3 else "al"
    rd, rn, rm, rs = (rng.choice(FREE) for _ in range(4))
    kind = rng.randrange(10)
    if kind < 4:
        op = rng.choice(list(armenc.DP))
        flags = rng.random() < 0.5
        if rng.random() < 0.4:
            imm = rng.randrange(256) << 2 * rng.randrange(12)
            p.emit(dp(op, rd, rn, ("#", imm), s=flags, cond=cond))
        elif rng.random() < 0.3:  # shifted by a register
            shift = rs << 8 | rng.randrange(4) << 5 | 1 << 4
            p.emit(dp(op, rd, rn, rm, s=flags, cond=cond) | shift)
        else:
            shift = (rng.choice(list(armenc.SHIFT)), rng.randrange(32))
            p.emit(dp(op, rd, rng.choice((rn, PC)), rm, shift, s=flags, cond=cond))
    elif kind == 4:
        word = mul(rd, rm, rs) | rng.choice((0, 1 << 21 | rn << 12)) | rng.choice((0, 1 << 20))
        p.emit(conditional(word, cond))
    elif kind < 7:
        op = rng.choice(["ldr", "str", "ldrb", "strb", "ldrh", "strh", "ldrsb", "ldrsh"])
        base = rng.choice((SP, FP, 8))
        offset = 4 * rng.randrange(1, 12) if op in ("ldr", "str") else rng.randrange(1, 48)
        word = mem(op if op[-2:] != "sb" and op[-2:] != "sh" else "ldrh", rd, base,
                   offset if base == 8 else -offset)
        if op in ("ldrsb", "ldrsh"):  # sh field 2 and 3 beside ldrh's 1
            word = word & ~0x60 | (0x40 if op == "ldrsb" else 0x60)
        p.emit(conditional(word, cond))
    elif kind == 7:
        regs = sorted(rng.sample(FREE, rng.randrange(1, 4)))
        p.emit(push(regs), pop(regs))
    elif kind == 8:
        label = f"skip{len(p)}"
        p.branch(label, cond=rng.choice(list(armenc.COND)))
        p.emit(dp("add", rd, rd, ("#", 1)))
        p.label(label)
    else:
        rdlo, rdhi = rng.sample(FREE, 2)
        p.emit(0xE0800090 | rdhi << 16 | rdlo << 12 | rs << 8 | rm)  # umull


def random_loop(rng: random.Random) -> list[int]:
    p = armenc.Program()
    p.adr(8, "data")
    for reg in FREE:
        p.const(reg, rng.randrange(1 << 32))
    p.emit(mov(FP, SP))
    p.const(5, HOT_ITERATIONS)
    p.label("loop")
    for _ in range(rng.randrange(3, 25)):
        random_op(rng, p)
    p.emit(dp("sub", 5, 5, ("#", 1), s=True))
    p.branch("loop", cond="ne")
    p.exit_with(0)
    p.label("data")
    p.emit(*(rng.randrange(1 << 32) for _ in range(16)))
    return p.words()


@pytest.mark.parametrize("seed", range(10))
def test_translated_blocks_match_single_steps(arm_elf, seed):
    path = arm_elf(random_loop(random.Random(seed)))
    whole, stepped = (armvm.Cpu(*armvm.load_elf(str(path))) for _ in range(2))
    assert run_whole(whole) == run_stepped(stepped)
    assert state(whole) == state(stepped)
    assert translated(whole.mem)


def two_segment_elf(words: list[int], gap: int) -> bytes:
    """``armenc.elf32(words)`` with a second, 4-byte PT_LOAD ``gap`` bytes
    above the first: both program headers move to the end of the file."""
    image = bytearray(armenc.elf32(words))
    first = image[52:84]
    top = armenc.BASE + len(image) + gap
    second = struct.pack("<8I", 1, 0, top, top, 4, 4, 6, 0x1000)
    struct.pack_into("<I", image, 28, len(image))  # e_phoff
    struct.pack_into("<H", image, 44, 2)  # e_phnum
    return bytes(image + first + second)


def test_far_apart_segments_are_an_input_error(tmp_path, capsys):
    words = [mov(0, ("#", 3)), mov(7, ("#", 1)), SVC0]
    path = tmp_path / "near.elf"
    path.write_bytes(two_segment_elf(words, 4096))
    assert armvm.run(str(path)) == 3
    path.write_bytes(two_segment_elf(words, 64 << 20))
    assert armvm.main([str(path)]) == 125
    reason = f"{64 << 20} bytes between loadable segments"
    assert capsys.readouterr().err == f"armvm: {path}: {reason}\n"


@pytest.mark.parametrize("argv,message", [
    ([], "missing BINARY"),
    (["guest.elf", "--max-steps"], "--max-steps needs a value"),
    (["guest.elf", "--max-steps", "ten"], "invalid literal for int() with base 10: 'ten'"),
    (["--trace", "guest.elf"], "unknown option --trace"),
])
def test_command_line_usage_errors(capsys, argv, message):
    assert armvm.main(argv) == 2
    assert capsys.readouterr().err == f"{armvm.USAGE}\nxisa-armvm: error: {message}\n"


def test_max_steps_with_equals_sign(tmp_path):
    path = tmp_path / "loop.elf"
    path.write_bytes(guests(0)[1].image)
    proc = subprocess.run(
        [sys.executable, "-m", "xisa.armvm", "--max-steps=10", str(path), "ignored"],
        capture_output=True, text=True, timeout=20,
    )
    assert (proc.returncode, proc.stderr) == (-9, "armvm: instruction budget of 10 exhausted\n")


def test_command_line_translates_with_one_armvm_module(tmp_path):
    # __main__ is the package's own file: the command line imports armvm once,
    # under its name, and armblock renders blocks for that one module
    guest = guests(0, HOT_ITERATIONS)[1]
    path = tmp_path / "loop.elf"
    path.write_bytes(guest.image)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "xisa.armvm", str(path)],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == guest.exit_code
    imported = Counter(line.rpartition("|")[2].strip() for line in proc.stderr.splitlines())
    assert (imported["xisa.armvm"], imported["xisa.armblock"]) == (1, 1)


def test_command_line_is_silent_in_development_mode(tmp_path):
    # -X dev warns of a file left open; -W error turns any warning into stderr
    for guest in guests(0, HOT_ITERATIONS):
        path = tmp_path / f"{guest.name}.elf"
        path.write_bytes(guest.image)
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "xisa.armvm", str(path)],
            capture_output=True, text=True, timeout=20,
        )
        assert (proc.returncode, proc.stderr) == (guest.exit_code, ""), guest.name


@pytest.mark.parametrize("alter_sys", [False, True])
def test_runpy_runs_the_imported_package_without_a_warning(tmp_path, monkeypatch, alter_sys):
    # runpy warns when the module it runs is imported already, but not a package
    guest = guests(0)[0]
    path = tmp_path / "exit.elf"
    path.write_bytes(guest.image)
    monkeypatch.setattr(sys, "argv", ["armvm", str(path)])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exit_info:
        warnings.simplefilter("error")
        runpy.run_module("xisa.armvm", run_name="__main__", alter_sys=alter_sys)
    assert exit_info.value.code == guest.exit_code
    assert sys.modules["xisa.armvm"] is armvm


@pytest.mark.parametrize("alter_sys", [False, True])
def test_command_line_translates_under_runpy(tmp_path, monkeypatch, alter_sys):
    # this copy of armvm is no module in sys.modules: armblock must render
    # blocks for its handlers and faults, not for those of xisa.armvm
    guest = guests(0, HOT_ITERATIONS)[1]
    path = tmp_path / "loop.elf"
    path.write_bytes(guest.image)
    monkeypatch.setattr(sys, "argv", ["armvm", str(path)])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exit_info:
        warnings.simplefilter("ignore", RuntimeWarning)  # xisa.armvm is imported here
        runpy.run_module("xisa.armvm", run_name="__main__", alter_sys=alter_sys)
    assert exit_info.value.code == guest.exit_code
    assert sys.modules["xisa.armvm"] is armvm
