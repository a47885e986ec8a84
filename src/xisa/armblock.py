"""Hot-block translation for ``armvm``: a basic block becomes one Python
function (QEMU's translated block, Bellard, USENIX ATC 2005).

``Cpu.run`` calls ``translate`` when a jump reaches an address for the
``armvm.HOT``-th time, and calls the block it returns on every later arrival that
fits in the remaining budget.  The block is rendered from ``armvm.decode``'s
tuples, so the decoder stays the only one: each form below renders the
handler of the same name with its fields as constants, and a form without a
rendering ends the block with a call to its handler.

A block ends at the first instruction that can write pc (a branch, ``bx``,
``svc``, an undefined word, a data-processing, ``ldr`` or ``ldm`` write to
pc), before any word a store has written (``Memory.patched``), before an
unmapped word, or after ``MAX_LENGTH`` words.  Loads and stores index the
region their base register points into (sp and fp: the stack; any other:
the image) directly and fall back to ``Memory.load``/``store`` elsewhere; a
store falls back as well whenever the target word has a decoded form, so
``Memory.store`` still drops every cached form a store overwrites.  A store
after which ``Memory.translated`` is empty, because it dropped the blocks,
raises ``Stale`` right after itself.  A fault
or exit inside a block leaves at the instruction that raised it:
``unwind`` finds which, from the line of the block's frame.

Renderings are keyed by ``xisa.armvm``'s handlers and operand functions,
built once at import: ``python -m xisa.armvm``, ``runpy`` and a forked step
all run that one module, whose ``__main__`` is a separate file.
"""
from __future__ import annotations

import struct

from . import armvm
from .armvm import Decoded, Memory

MAX_LENGTH = 64  # words; bounds one compile and the budget a block needs
NEVER = (float("inf"), None)  # fits no budget: the loop steps through it
STACK_BASES = (11, 13)  # fp and sp address the stack; other registers the image
# what a block's function binds: nothing that leads back to its ``Memory``,
# so that a ``Memory`` with blocks is freed as soon as its last user lets go
_NAMES = ("M", "S", "I", "U4", "U2", "P4", "P2", "code", "translated", "shift_c",
          "MemoryFault", "UndefinedInstruction", "Stale", "E")
_WORD, _HALF = struct.Struct("<I"), struct.Struct("<H")
# ConditionPassed as Python source, by armvm's test for cond >> 1
_CONDITIONS = dict(zip(armvm._CONDITIONS, (
    "cpu.z", "cpu.c", "cpu.n", "cpu.v", "cpu.c and not cpu.z",
    "cpu.n == cpu.v", "not cpu.z and cpu.n == cpu.v")))
# data processing, by armvm's function for the opcode: the result of each
# logical opcode, and AddWithCarry's (x, y, carry_in) and its flagless
# result for each arithmetic one
_LOGICAL = {armvm._LOGICAL[op]: source for op, source in {
    0x0: "a & b", 0x1: "a ^ b", 0x8: "a & b", 0x9: "a ^ b", 0xC: "a | b",
    0xD: "b", 0xE: "a & (b ^ M)", 0xF: "b ^ M"}.items()}
_ARITHMETIC = {armvm._ARITHMETIC[op]: source for op, source in {
    0x2: ("a", "b ^ M", "1", "a - b & M"), 0x3: ("b", "a ^ M", "1", "b - a & M"),
    0x4: ("a", "b", "0", "a + b & M"), 0x5: ("a", "b", "cpu.c", "a + b + cpu.c & M"),
    0x6: ("a", "b ^ M", "cpu.c", "a - b - 1 + cpu.c & M"),
    0x7: ("b", "a ^ M", "cpu.c", "b - a - 1 + cpu.c & M"),
    0xA: ("a", "b ^ M", "1", None), 0xB: ("a", "b", "0", None)}.items()}
_JUMPS = (armvm._branch, armvm._branch_link, armvm._branch_exchange)


class Stale(Exception):
    """A store dropped translated code: the block stops right after it."""


def _render(entry: Decoded, regions: dict) -> list[str] | None:
    """Source lines for ``entry``, or None if its form has no rendering;
    ``regions`` maps "S" (the stack) and "I" (the image) to (base, size)."""
    render = _RENDERERS.get(entry[0])
    return render(entry, regions) if render else None


def _ends(entry: Decoded) -> bool:
    handler = entry[0]
    if handler is armvm._conditional:
        handler = entry[4][0]
    return handler in _JUMPS


def translate(mem: Memory, start: int) -> tuple:
    """The block at ``start`` as ``(length, function, start, owners)``:
    ``function(cpu)`` runs ``length`` instructions and returns the next pc;
    ``owners[line]`` is the instruction index a source line belongs to.
    ``NEVER`` where no instruction could be rendered."""
    entries, lines, owners = [], [], [0, 0, 0]  # lines 1-2: the header
    regions = {"S": (mem.stack_base, len(mem.stack)), "I": (mem.image_base, len(mem.image))}
    addr, ends = start, False
    while len(entries) < MAX_LENGTH and addr not in mem.patched:
        entry = mem.code.get(addr)
        if entry is None:
            try:
                entry = armvm.decode(mem.load(addr, 4), addr)
            except armvm.MemoryFault:
                break
        body = _render(entry, regions)
        index = len(entries)
        ends = body is None or _ends(entry)
        if body is None:
            body = [f"return E[{index}][0](cpu, E[{index}])"]
        lines += body
        owners += [index] * len(body)
        entries.append(entry)
        addr += 4
        if ends:
            break
    if not ends:
        lines.append(f"return {addr}")
    if not entries or len(entries) == 1 and lines[0].startswith("return E["):
        return NEVER
    for i, entry in enumerate(entries):
        mem.code[start + 4 * i] = entry
        mem.translated.add(start + 4 * i)
    namespace = {"M": armvm.MASK32, "S": mem.stack, "I": mem.image, "U4": _WORD.unpack_from,
                 "U2": _HALF.unpack_from, "P4": _WORD.pack_into, "P2": _HALF.pack_into,
                 "code": mem.code, "translated": mem.translated, "shift_c": armvm._shift_c,
                 "MemoryFault": armvm.MemoryFault,
                 "UndefinedInstruction": armvm.UndefinedInstruction,
                 "Stale": Stale, "E": entries}
    source = "\n    ".join([
        f"def block(cpu, {', '.join(f'{n}={n}' for n in _NAMES)}):", "r = cpu.regs", *lines])
    exec(compile(source, f"<armvm block 0x{start:08x}>", "exec"), namespace)
    return (len(entries), namespace.pop("block"), start, owners)  # no cycle via globals


def unwind(block: tuple, exc: BaseException) -> tuple[int, bool]:
    """Where ``exc``, raised inside ``block``'s function, left the guest:
    the pc to resume or report, and whether the run goes on (``Stale``,
    raised after its store completed) or ``exc`` propagates (raised before
    the instruction it names changed anything)."""
    code, tb = block[1].__code__, exc.__traceback__
    while tb.tb_frame.f_code is not code:
        tb = tb.tb_next
    index = block[3][tb.tb_lineno]
    if isinstance(exc, Stale):
        return block[2] + 4 * (index + 1), True
    return block[2] + 4 * index, False


def _reg(number: int, pc8: int) -> str:
    return str(pc8) if number == 15 else f"r[{number}]"


def _shifted(x: str, stype: int, amount: int) -> str:
    """Shift_C's value for an immediate ``amount`` (1-32)."""
    if stype == 0:
        return f"{x} << {amount} & M"
    if stype == 1:
        return f"{x} >> {amount}"
    if stype == 2:
        return f"({x} ^ 0x80000000) - 0x80000000 >> {amount} & M"
    if stype == 3:
        return f"({x} >> {amount} | {x} << {32 - amount}) & M"
    return f"cpu.c << 31 | {x} >> 1"  # RRX


def _shifter_carry(x: str, stype: int, amount: int) -> str:
    """Shift_C's carry out for an immediate ``amount`` (1-32)."""
    bit = 32 - amount if stype == 0 else amount - 1 if stype <= 3 else 0  # RRX (type 4): bit 0
    return f"{x} >> {bit} & 1 == 1"


def _data_processing(e: Decoded, regions: dict) -> list[str] | None:
    (_, rn, rd, logical, arithmetic, set_flags, rm, rs, stype, amount, b,
     carry, pc8, _nxt, _word, _pc) = e
    if rd == 15:
        return None
    lines = []
    carry = None if carry is None else str(carry)  # None: C stays
    if rm is None:
        lines.append(f"b = {b}")
    else:
        lines.append(f"b = {_reg(rm, pc8)}")
        if rs is not None:
            lines.append(f"b, sc = shift_c(b, {stype}, r[{rs}] & 255, cpu.c)")
            carry = "sc"
        elif amount:
            if logical and set_flags:
                lines.append(f"sc = {_shifter_carry('b', stype, amount)}")
                carry = "sc"
            lines.append(f"b = {_shifted('b', stype, amount)}")
    if not logical or "a" in _LOGICAL[logical]:  # MOV and MVN read no Rn
        lines.insert(0, f"a = {_reg(rn, pc8)}")
    if logical:
        lines.append(f"v = {_LOGICAL[logical]}")
        if set_flags:
            lines.append("cpu.n, cpu.z = v >> 31 == 1, v == 0")
            if carry:
                lines.append(f"cpu.c = {carry}")
    elif set_flags:
        x, y, carry_in, _ = _ARITHMETIC[arithmetic]
        lines += [f"x = {x}", f"y = {y}", f"t = x + y + {carry_in}", "v = t & M",
                  "cpu.n, cpu.z, cpu.c = v >> 31 == 1, v == 0, t > M",
                  "cpu.v = (x ^ v) & (y ^ v) > 0x7FFFFFFF"]
    else:
        lines.append(f"v = {_ARITHMETIC[arithmetic][3]}")
    if rd is not None:
        lines.append(f"r[{rd}] = v")
    return lines


def _multiply(e: Decoded, regions: dict) -> list[str]:
    _, rd, rn, rs, rm, accumulate, set_flags, _nxt = e
    total = f"r[{rm}] * r[{rs}] + r[{rn}]" if accumulate else f"r[{rm}] * r[{rs}]"
    lines = [f"v = r[{rd}] = {total} & M"]
    if set_flags:
        lines.append("cpu.n, cpu.z = v >> 31 == 1, v == 0")
    return lines


def _multiply_long(e: Decoded, regions: dict) -> list[str]:
    _, rdhi, rdlo, rs, rm, signed, accumulate, set_flags, _nxt = e
    lines = [f"x = r[{rm}]", f"y = r[{rs}]"]
    if signed:
        lines += ["x = (x ^ 0x80000000) - 0x80000000", "y = (y ^ 0x80000000) - 0x80000000"]
    total = f"x * y + (r[{rdhi}] << 32 | r[{rdlo}])" if accumulate else "x * y"
    lines += [f"t = {total} & 0xFFFFFFFFFFFFFFFF", f"r[{rdlo}] = t & M", f"r[{rdhi}] = t >> 32"]
    if set_flags:
        lines.append("cpu.n, cpu.z = t >> 63 == 1, t == 0")
    return lines


def _region(regions: dict, rn: int, size: int) -> tuple[str, str]:
    """The region base register ``rn`` points into, and the test that
    ``size`` bytes at ``a`` lie in it, binding their offset to ``o``."""
    buf = "S" if rn in STACK_BASES else "I"
    base, length = regions[buf]
    return buf, f"0 <= (o := a - {base}) <= {length - size}"


def _load(regions: dict, target: str, rn: int, size: int) -> str:
    """``target = `` the ``size``-byte value at ``a``: indexed directly in
    the region ``rn`` points into, else through ``Memory.load``."""
    buf, region = _region(regions, rn, size)
    value = {4: f"U4({buf}, o)[0]", 2: f"U2({buf}, o)[0]", 1: f"{buf}[o]"}[size]
    return f"{target} = {value} if {region} else cpu.mem.load(a, {size})"


def _store(regions: dict, rn: int, size: int, value: str, aligned: bool) -> list[str]:
    """Store ``value`` at ``a`` directly, unless the word has a decoded form
    or the address leaves the region (or, if not ``aligned``, its word)."""
    buf, test = _region(regions, rn, size)
    word = "a" if size == 4 and aligned else "a & -4"
    if not aligned:
        test += " and not a & 3" if size == 4 else " and not a & 1" if size == 2 else ""
    direct = {4: f"P4({buf}, o, {value})", 2: f"P2({buf}, o, {value} & 0xFFFF)",
              1: f"{buf}[o] = {value} & 0xFF"}[size]
    return [f"if {test} and {word} not in code: {direct}",
            f"else: cpu.mem.store(a, {size}, {value})"]


def _transfer(e: Decoded, regions: dict) -> list[str] | None:
    (_, rn, rd, rm, stype, amount, offset, up, pre, writeback, load, size, sign,
     align, pc8, _nxt, _word, _pc) = e
    if load and rd == 15:
        return None
    base = _reg(rn, pc8)
    lines = []
    if rm is None:
        off = str(offset)
    else:
        lines.append(f"o = {_reg(rm, pc8)}")
        if amount:
            lines.append(f"o = {_shifted('o', stype, amount)}")
        off = "o"
    moved = f"{base} {'+' if up else '-'} {off} & M"
    if pre:
        lines.append(f"a = {moved}" if off != "0" else f"a = {base}")
    else:
        lines.append(f"a = {base}")
        if writeback:
            lines.append(f"w = {moved}")
    if align:
        lines.append("if a & 3: raise MemoryFault(a)")
    if load:
        lines.append(_load(regions, "v" if sign else f"r[{rd}]", rn, size))
        if sign:
            lines.append(f"r[{rd}] = v - {sign << 1} & M if v & {sign} else v")
    else:
        lines += _store(regions, rn, size, _reg(rd, pc8), aligned=bool(align))
    if writeback:
        lines.append(f"r[{rn}] = {'a' if pre else 'w'}")
    if not load:
        lines.append("if not translated: raise Stale")
    return lines


def _block_transfer(e: Decoded, regions: dict) -> list[str] | None:
    _, rn, reglist, lowest, final, writeback, load, pc8, _nxt, _word, _pc = e
    if load and 15 in reglist:
        return None
    lines = [f"w = r[{rn}]", f"a = w + {lowest} & M"]
    for n, i in enumerate(reglist):
        if n:
            lines.append("a = a + 4 & M")
        if load:
            lines.append(_load(regions, f"r[{i}]", rn, 4))
        else:
            lines += _store(regions, rn, 4, _reg(i, pc8), aligned=False)
    if writeback:
        lines.append(f"r[{rn}] = w + {final} & M")
    if not load:
        lines.append("if not translated: raise Stale")
    return lines


def _branch(e: Decoded, regions: dict) -> list[str]:
    return [f"return {e[1]}"]


def _branch_link(e: Decoded, regions: dict) -> list[str]:
    return [f"r[14] = {e[2]}", f"return {e[1]}"]


def _branch_exchange(e: Decoded, regions: dict) -> list[str]:
    _, rm, link, pc8, ret, word, pc = e
    lines = [f"t = {_reg(rm, pc8)}", f"if t & 1: raise UndefinedInstruction({word}, {pc})"]
    if link:
        lines.append(f"r[14] = {ret}")
    return lines + ["return t"]


def _conditional(e: Decoded, regions: dict) -> list[str] | None:
    _, test, skip_when, nxt, body = e
    lines = _render(body, regions)
    if lines is None:
        return None
    condition = _CONDITIONS[test]
    if skip_when:
        condition = f"not ({condition})"
    lines = [f"if {condition}:", *("    " + line for line in lines)]
    if _ends(body):
        lines.append(f"return {nxt}")
    return lines


# each renders the armvm handler of the same name
_RENDERERS = {getattr(armvm, render.__name__): render for render in (
    _data_processing, _multiply, _multiply_long, _transfer, _block_transfer,
    _branch, _branch_link, _branch_exchange, _conditional)}
