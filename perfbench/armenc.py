"""Table-driven ARMv5 encoder and the guest programs of the ``armvm`` workload.

Each guest is built together with its expected exit code and its executed
instruction count, both worked out here from the program's structure and a
plain-Python model of its arithmetic.  Nothing in this file imports
``xisa.armvm``: the interpreter is what the guests test.
"""
from __future__ import annotations

import random
import struct
from dataclasses import dataclass

M32 = 0xFFFF_FFFF
BASE = 0x10000  # load address of the single PT_LOAD segment
_CODE_OFF = 0x60  # code starts after the ELF and program headers

COND = {c: i for i, c in enumerate(
    "eq ne cs cc mi pl vs vc hi ls ge lt gt le al".split())}
DP = {op: i for i, op in enumerate(
    "and eor sub rsb add adc sbc rsc tst teq cmp cmn orr mov bic mvn".split())}
SHIFT = {"lsl": 0, "lsr": 1, "asr": 2, "ror": 3}
_TEST_OPS = {"tst", "teq", "cmp", "cmn"}


def rot_imm(value: int) -> int:
    """12-bit rotated-immediate field for ``value``; ValueError if none."""
    value &= M32
    for rot in range(16):
        v = ((value << 2 * rot) | (value >> (32 - 2 * rot))) & M32 if rot else value
        if v < 256:
            return (rot << 8) | v
    raise ValueError(f"0x{value:x} is not an ARM immediate")


def dp(op: str, rd: int, rn: int, src, shift: tuple[str, int] | None = None,
       s: bool = False, cond: str = "al") -> int:
    """Data-processing word.  ``src`` is ``("#", imm)`` or a register number,
    optionally shifted by ``shift = (kind, amount)``."""
    s = s or op in _TEST_OPS
    word = COND[cond] << 28 | DP[op] << 21 | int(s) << 20 | rn << 16 | rd << 12
    if isinstance(src, tuple):
        return word | 1 << 25 | rot_imm(src[1])
    if shift:
        kind, amount = shift
        word |= (amount & 31) << 7 | SHIFT[kind] << 5
    return word | src


def mov(rd: int, src, shift=None, cond: str = "al") -> int:
    return dp("mov", rd, 0, src, shift, cond=cond)


def mul(rd: int, rm: int, rs: int) -> int:
    return COND["al"] << 28 | rd << 16 | rs << 8 | 0x90 | rm


def mem(op: str, rt: int, rn: int, offset: int = 0) -> int:
    """ldr/str/ldrb/strb (12-bit offset) and ldrh/strh (8-bit offset)."""
    up = int(offset >= 0)
    off = abs(offset)
    load = int(op.startswith("ldr"))
    if op in ("ldrh", "strh"):
        return (COND["al"] << 28 | 1 << 24 | up << 23 | 1 << 22 | load << 20
                | rn << 16 | rt << 12 | (off >> 4) << 8 | 0xB0 | (off & 0xF))
    byte = int(op.endswith("b"))
    return (COND["al"] << 28 | 1 << 26 | 1 << 24 | up << 23 | byte << 22
            | load << 20 | rn << 16 | rt << 12 | off)


def push(regs: list[int]) -> int:  # stmdb sp!, {regs}
    return 0xE92D0000 | sum(1 << r for r in regs)


def pop(regs: list[int]) -> int:  # ldmia sp!, {regs}
    return 0xE8BD0000 | sum(1 << r for r in regs)


def bx(rm: int) -> int:
    return 0xE12FFF10 | rm


SVC0 = 0xEF000000


class Program:
    """Words plus labels; branches resolve when ``words()`` is called."""

    def __init__(self) -> None:
        self.items: list = []
        self.labels: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.items)

    def emit(self, *words: int) -> None:
        self.items.extend(words)

    def label(self, name: str) -> None:
        self.labels[name] = len(self.items)

    def branch(self, target: str, cond: str = "al", link: bool = False) -> None:
        self.items.append(("b", target, cond, link))

    def adr(self, rd: int, target: str) -> None:
        """rd = address of a later label (``add rd, pc, #offset``)."""
        self.items.append(("adr", rd, target))

    def const(self, rd: int, value: int) -> None:
        """rd = value, one mov plus one orr per further non-zero byte."""
        chunks = [(value >> s & 0xFF) << s for s in (0, 8, 16, 24)]
        nonzero = [c for c in chunks if c] or [0]
        self.emit(mov(rd, ("#", nonzero[0])))
        for c in nonzero[1:]:
            self.emit(dp("orr", rd, rd, ("#", c)))

    def exit_with(self, reg: int) -> None:
        """exit(reg & 0xff): three words."""
        self.emit(dp("and", 0, reg, ("#", 0xFF)), mov(7, ("#", 1)), SVC0)

    def words(self) -> list[int]:
        out = []
        for i, item in enumerate(self.items):
            if isinstance(item, tuple) and item[0] == "b":
                _, target, cond, link = item
                delta = (self.labels[target] - i - 2) & 0xFFFFFF
                item = COND[cond] << 28 | 0b101 << 25 | int(link) << 24 | delta
            elif isinstance(item, tuple):  # adr; pc reads 8 bytes ahead
                _, rd, target = item
                item = dp("add", rd, 15, ("#", 4 * (self.labels[target] - i - 2)))
            out.append(item)
        return out


def elf32(words: list[int]) -> bytes:
    """Static little-endian ARM ELF32 with one RWX PT_LOAD at ``BASE``."""
    code = struct.pack(f"<{len(words)}I", *words)
    filesz = _CODE_OFF + len(code)
    header = struct.pack(
        "<4s5B7x2H5I6H", b"\x7fELF", 1, 1, 1, 0, 0,
        2, 40, 1, BASE + _CODE_OFF, 52, 0, 0x5000000, 52, 32, 1, 0, 0, 0)
    phdr = struct.pack("<8I", 1, 0, BASE, BASE, filesz, filesz, 7, 0x1000)
    return (header + phdr).ljust(_CODE_OFF, b"\0") + code


@dataclass(frozen=True)
class Guest:
    name: str
    image: bytes
    exit_code: int
    instructions: int


def exit_guest(rng: random.Random) -> Guest:
    """Three instructions: startup cost only."""
    code = rng.randrange(1, 200)
    p = Program()
    p.emit(mov(0, ("#", code)), mov(7, ("#", 1)), SVC0)
    return Guest("exit", elf32(p.words()), code, 3)


def loop_guest(rng: random.Random, iterations: int) -> Guest:
    """One hot loop with a call: every instruction is reused ``iterations``
    times.  Covers data processing, shifts, mul, word/byte/halfword memory,
    conditional execution, push/pop, bl/bx and a conditional branch."""
    acc0, k = rng.randrange(1, 1 << 16), rng.randrange(3, 250) | 1
    p = Program()
    p.const(4, acc0)
    p.const(5, iterations)
    p.emit(mov(6, ("#", k)))
    prologue = len(p)
    p.label("loop")
    p.emit(
        dp("add", 4, 4, 6),
        dp("eor", 4, 4, 4, ("lsl", 3)),
        mul(7, 4, 6),
        mem("str", 7, 13, -8),
        mem("ldrb", 9, 13, -8),
        mem("strh", 4, 13, -12),
        mem("ldrh", 10, 13, -12),
        dp("add", 4, 4, 9),
        dp("cmp", 0, 9, ("#", 128)),
        dp("add", 4, 4, 10, ("lsr", 2), cond="hi"),
    )
    p.branch("mix", link=True)
    p.emit(dp("sub", 5, 5, ("#", 1), s=True))
    p.branch("loop", cond="ne")
    body = len(p) - prologue
    p.exit_with(4)
    p.label("mix")
    p.emit(push([6, 14]), mov(6, 4, ("lsr", 7)), dp("eor", 4, 4, 6), pop([6, 14]), bx(14))

    acc = acc0
    for _ in range(iterations):
        acc = (acc + k) & M32
        acc = (acc ^ (acc << 3)) & M32
        t = (acc * k) & M32
        b, h = t & 0xFF, acc & 0xFFFF
        acc = (acc + b) & M32
        if b > 128:
            acc = (acc + (h >> 2)) & M32
        acc ^= acc >> 7
    count = prologue + iterations * (body + 5) + 3
    return Guest("loop", elf32(p.words()), acc & 0xFF, count)


def _straight_op(rng: random.Random, r: list[int]) -> list[int]:
    """Words of one random register-to-register step; updates ``r`` in place."""
    rd, rn, rm = rng.randrange(4), rng.randrange(4), rng.randrange(4)
    kind = rng.randrange(5)
    if kind == 0:
        op = rng.choice(["add", "sub", "rsb", "eor", "orr", "and", "bic"])
        imm = rng.randrange(1, 256)
        a = r[rn]
        r[rd] = {"add": a + imm, "sub": a - imm, "rsb": imm - a, "eor": a ^ imm,
                 "orr": a | imm, "and": a & imm, "bic": a & ~imm}[op] & M32
        return [dp(op, rd, rn, ("#", imm))]
    if kind == 1:
        op = rng.choice(["add", "sub", "eor", "orr"])
        a, b = r[rn], r[rm]
        r[rd] = {"add": a + b, "sub": a - b, "eor": a ^ b, "orr": a | b}[op] & M32
        return [dp(op, rd, rn, rm)]
    if kind == 2:
        sh, n = rng.choice(list(SHIFT)), rng.randrange(1, 32)
        v = r[rm]
        if sh == "lsl":
            out = v << n
        elif sh == "lsr":
            out = v >> n
        elif sh == "asr":
            out = (v - (1 << 32) if v >> 31 else v) >> n
        else:
            out = v >> n | v << (32 - n)
        r[rd] = out & M32
        return [mov(rd, rm, (sh, n))]
    if kind == 3:
        rd = (rm + 1 + rng.randrange(3)) % 4  # mul needs rd != rm
        r[rd] = (r[rm] * r[rn]) & M32
        return [mul(rd, rm, rn)]
    # a halfword round trip through the stack
    r[3] = r[rn] & 0xFFFF
    return [mem("strh", rn, 13, -16), mem("ldrh", 3, 13, -16)]


def straight_guest(rng: random.Random, length: int) -> Guest:
    """About ``length`` instructions, each executed once: no reuse at all."""
    regs = [rng.randrange(1 << 32) for _ in range(4)]
    p = Program()
    for i, v in enumerate(regs):
        p.const(i, v)
    while len(p) < length:
        p.emit(*_straight_op(rng, regs))
    p.emit(dp("eor", 0, 0, 1), dp("add", 0, 0, 2), dp("eor", 0, 0, 3))
    result = ((regs[0] ^ regs[1]) + regs[2]) & M32 ^ regs[3]
    count = len(p) + 3
    p.exit_with(0)
    return Guest("straight", elf32(p.words()), result & 0xFF, count)


def selfstore_guest(rng: random.Random, iterations: int) -> Guest:
    """A loop that stores into its own loaded image: a data word and byte
    after the code, and the immediate of an ``add`` it then executes."""
    c = rng.randrange(256)
    patch_word = dp("add", 2, 2, ("#", 0))
    p = Program()
    p.adr(8, "data")
    p.adr(9, "patch")
    p.emit(mov(2, ("#", c)))
    p.const(5, iterations)
    p.const(10, patch_word)
    prologue = len(p)
    p.label("loop")
    p.emit(
        dp("and", 3, 5, ("#", 0xFF)),
        dp("orr", 4, 10, 3),
        mem("str", 4, 9, 0),
        mem("ldr", 6, 8, 0),
        dp("add", 6, 6, 3, ("lsl", 1)),
        mem("str", 6, 8, 0),
        mem("strb", 3, 8, 4),
    )
    p.label("patch")
    p.emit(patch_word, dp("sub", 5, 5, ("#", 1), s=True))
    p.branch("loop", cond="ne")
    body = len(p) - prologue
    p.emit(mem("ldr", 0, 8, 0), mem("ldrb", 1, 8, 4), dp("eor", 0, 0, 2), dp("add", 0, 0, 1))
    p.exit_with(0)
    count = len(p) + (iterations - 1) * body
    p.label("data")
    p.emit(0, 0)

    r2, word, byte = c, 0, 0
    for i in range(iterations, 0, -1):
        byte = i & 0xFF
        word = (word + 2 * byte) & M32
        r2 = (r2 + byte) & M32
    result = ((word ^ r2) + byte) & 0xFF
    return Guest("selfstore", elf32(p.words()), result, count)
