"""Minimal user-mode ARMv5 interpreter for statically linked ELF binaries.

Covers the instruction subset emitted by -O0 compilers for freestanding
integer C code: the full data-processing class with all condition codes and
shifter operands, multiplies, word/byte/halfword loads and stores, block
transfers, branches, BX, and the EABI exit/write syscalls.  Anything outside
the subset stops execution loudly, never silently misexecutes: ``run``
raises ``GuestFault``, and the command line dies by the fault's real signal
so a harness above can classify the outcome.

The decoder follows the ARM Architecture Reference Manual's pseudocode
helpers, each written once: ConditionPassed (``_CONDITIONS``), DecodeImmShift
and Shift_C (``_imm_shift``, ``_shift_c``) and AddWithCarry (the
``_ARITHMETIC`` operand selectors in ``_data_processing``).

It is a predecoder, QEMU's translation cache at instruction granularity:
``decode(word, pc)`` does the field extraction, the class dispatch and every
undefined/UNPREDICTABLE check once, and returns the word's handler with the
fields it reads.  The decoded form is cached by address in ``Memory.code``
from the word's second fetch on, and ``Memory.store``, which every store
goes through, drops the entry of every word it writes, so code that patches
itself or runs from the stack stays correct.

Intended as the ``emulate`` command of toolchain profiles on machines without
qemu-user; run as ``python -m xisa.armvm BINARY``.
"""
from __future__ import annotations

import argparse
import itertools
import os
import signal
import struct
import sys

STACK_TOP = 0x7FF0_0000
STACK_SIZE = 1 << 20
MASK32 = 0xFFFF_FFFF
RRX = 4  # shift type beside LSL/LSR/ASR/ROR (0-3), as DecodeImmShift returns it


class GuestFault(Exception):
    """A fault that ends the guest.  ``run`` raises it; ``main`` reports it
    and dies by ``signo``, as a user-mode emulator would."""

    signo: signal.Signals


class MemoryFault(GuestFault):
    signo = signal.SIGSEGV

    def __init__(self, addr: int):
        super().__init__(f"Invalid memory access at 0x{addr & MASK32:08x}")
        self.addr = addr


class UndefinedInstruction(GuestFault):
    signo = signal.SIGILL

    def __init__(self, word: int, addr: int):
        super().__init__(
            f"undefined or unsupported instruction 0x{word:08x} at 0x{addr:08x}"
        )


class UnsupportedSyscall(GuestFault):
    signo = signal.SIGSYS

    def __init__(self, number: int):
        super().__init__(f"unsupported syscall {number}")


class BudgetExhausted(GuestFault):
    signo = signal.SIGKILL

    def __init__(self, max_steps: int):
        super().__init__(f"instruction budget of {max_steps} exhausted")


class GuestExit(Exception):
    def __init__(self, code: int):
        self.code = code


# an instruction as ``decode`` returns it: (handler, *fields)
Decoded = tuple

# little-endian unsigned formats and value masks, by transfer size 1, 2 or 4
_FORMATS = (None, struct.Struct("<B"), struct.Struct("<H"), None, struct.Struct("<I"))
_SIZE_MASKS = (0, 0xFF, 0xFFFF, 0, MASK32)


class Memory:
    """Two flat regions, the loaded image and the stack, and ``code``: the
    decoded forms of their words, by word address."""

    def __init__(self, image_base: int, image: bytearray):
        self.image_base = image_base
        self.image = image
        self.stack_base = STACK_TOP - STACK_SIZE
        self.stack = bytearray(STACK_SIZE)
        self.code: dict[int, Decoded] = {}
        self._fetched: set[int] = set()  # addresses fetched once, not cached

    def _locate(self, addr: int, size: int) -> tuple[bytearray, int]:
        off = addr - self.image_base
        if 0 <= off and off + size <= len(self.image):
            return self.image, off
        off = addr - self.stack_base
        if 0 <= off and off + size <= STACK_SIZE:
            return self.stack, off
        raise MemoryFault(addr)

    def load(self, addr: int, size: int) -> int:
        buf, off = self._locate(addr, size)
        return _FORMATS[size].unpack_from(buf, off)[0]

    def fetch(self, pc: int) -> Decoded:
        """Decode the word at ``pc``, which has no entry in ``code``.  The
        entry is cached from the word's second fetch on: code that runs once
        is decoded once and not kept.  (Caching on the first fetch took the
        30k-word straight guest's peak RSS from 19.4 to 25.4 MB and ran it
        16% slower.)"""
        if pc & 3:
            raise MemoryFault(pc)
        decoded = decode(self.load(pc, 4), pc)
        if pc in self._fetched:
            self.code[pc] = decoded
        else:
            self._fetched.add(pc)
        return decoded

    def store(self, addr: int, size: int, value: int) -> None:
        """Write the low ``size`` bytes of ``value``; every store form comes
        here, so this is where a written word's cached decoded form is
        dropped."""
        buf, off = self._locate(addr, size)
        _FORMATS[size].pack_into(buf, off, value & _SIZE_MASKS[size])
        code = self.code
        if code:
            first, last = addr & ~3, (addr + size - 1) & ~3
            code.pop(first, None)
            if last != first:  # an unaligned store straddles two words
                code.pop(last, None)

    def bytes_at(self, addr: int, size: int) -> bytes:
        buf, off = self._locate(addr, size)
        return bytes(buf[off : off + size])


def load_elf(path: str) -> tuple[Memory, int]:
    """Map PT_LOAD segments of a 32-bit LE ARM ELF; returns (memory, entry)."""
    data = open(path, "rb").read()
    if data[:4] != b"\x7fELF":
        raise ValueError(f"{path}: not an ELF file")
    if len(data) < 52:
        raise ValueError(f"{path}: ELF header truncated at {len(data)} of 52 bytes")
    if data[4] != 1 or data[5] != 1:
        raise ValueError(f"{path}: need ELF32 little-endian")
    (e_type, e_machine, _ver, e_entry, e_phoff, _shoff, _flags, _ehsize,
     e_phentsize, e_phnum) = struct.unpack_from("<HHIIIIIHHH", data, 16)
    if e_machine != 40:  # EM_ARM
        raise ValueError(f"{path}: not an ARM binary (e_machine={e_machine})")
    if e_phnum and (e_phentsize < 32 or e_phoff + e_phnum * e_phentsize > len(data)):
        raise ValueError(f"{path}: program header table outside the file")
    segments = []
    for i in range(e_phnum):
        off = e_phoff + i * e_phentsize
        (p_type, p_offset, p_vaddr, _paddr, p_filesz, p_memsz, _pflags,
         _palign) = struct.unpack_from("<IIIIIIII", data, off)
        if p_type == 1 and p_memsz:  # PT_LOAD
            if p_offset + p_filesz > len(data):
                raise ValueError(f"{path}: segment {i} lies outside the file")
            if p_filesz > p_memsz:
                raise ValueError(f"{path}: segment {i} has p_filesz > p_memsz")
            segments.append((p_vaddr, p_offset, p_filesz, p_memsz))
    if not segments:
        raise ValueError(f"{path}: no loadable segments")
    base = min(s[0] for s in segments)
    top = max(s[0] + s[3] for s in segments)
    image = bytearray(top - base)
    for vaddr, offset, filesz, _memsz in segments:
        image[vaddr - base : vaddr - base + filesz] = data[offset : offset + filesz]
    return Memory(base, image), e_entry


# ConditionPassed: the test for cond >> 1; an odd cond negates it
_CONDITIONS = (
    lambda cpu: cpu.z,                              # eq / ne
    lambda cpu: cpu.c,                              # cs / cc
    lambda cpu: cpu.n,                              # mi / pl
    lambda cpu: cpu.v,                              # vs / vc
    lambda cpu: cpu.c and not cpu.z,                # hi / ls
    lambda cpu: cpu.n == cpu.v,                     # ge / lt
    lambda cpu: not cpu.z and cpu.n == cpu.v,       # gt / le
)

# logical opcodes: C comes from the shifter, V is left alone
_LOGICAL = {
    0x0: lambda a, b: a & b,                # AND
    0x1: lambda a, b: a ^ b,                # EOR
    0x8: lambda a, b: a & b,                # TST
    0x9: lambda a, b: a ^ b,                # TEQ
    0xC: lambda a, b: a | b,                # ORR
    0xD: lambda a, b: b,                    # MOV
    0xE: lambda a, b: a & (b ^ MASK32),     # BIC
    0xF: lambda a, b: b ^ MASK32,           # MVN
}

# arithmetic opcodes: the (x, y, carry_in) of AddWithCarry from Rn, the
# shifter operand and C
_ARITHMETIC = {
    0x2: lambda a, b, c: (a, b ^ MASK32, 1),    # SUB
    0x3: lambda a, b, c: (b, a ^ MASK32, 1),    # RSB
    0x4: lambda a, b, c: (a, b, 0),             # ADD
    0x5: lambda a, b, c: (a, b, c),             # ADC
    0x6: lambda a, b, c: (a, b ^ MASK32, c),    # SBC
    0x7: lambda a, b, c: (b, a ^ MASK32, c),    # RSC
    0xA: lambda a, b, c: (a, b ^ MASK32, 1),    # CMP
    0xB: lambda a, b, c: (a, b, 0),             # CMN
}

# extra loads by the sh field: (size, sign bit; 0 zero-extends)
_EXTRA_LOADS = {1: (2, 0), 2: (1, 0x80), 3: (2, 0x8000)}  # LDRH, LDRSB, LDRSH


def _shift_c(value: int, stype: int, amount: int, carry: bool) -> tuple[int, bool]:
    """Shift_C: ``value`` shifted by ``amount`` (0-255), and the carry out;
    ``carry`` is C, which amount 0 keeps and RRX shifts in."""
    if amount == 0:
        return value, carry
    if stype == 0:  # LSL
        wide = value << amount
        return wide & MASK32, bool(wide >> 32 & 1)
    if stype == 1:  # LSR
        return value >> amount, bool(value >> (amount - 1) & 1)
    if stype == 2:  # ASR
        signed = value - (value >> 31 << 32)
        return signed >> amount & MASK32, bool(signed >> (amount - 1) & 1)
    if stype == 3:  # ROR
        amount &= 31
        out = (value >> amount | value << (32 - amount)) & MASK32
        return out, bool(out >> 31)
    return carry << 31 | value >> 1, bool(value & 1)  # RRX


def _imm_shift(word: int) -> tuple[int, int]:
    """DecodeImmShift: the (shift type, amount) of an immediate shift."""
    stype, amount = (word >> 5) & 3, (word >> 7) & 0x1F
    if amount == 0 and stype:  # LSR/ASR #0 mean #32; ROR #0 is RRX
        stype, amount = (RRX, 1) if stype == 3 else (stype, 32)
    return stype, amount


def _decode_operand2(word: int) -> tuple | None:
    """The shifter operand's fields ``(rm, rs, stype, amount, value,
    carry)``: a register ``rm`` shifted by ``stype`` and by ``amount`` or by
    the low byte of ``rs``, or (``rm`` None) the immediate ``value`` with its
    carry out, None for C.  None where the operand is UNPREDICTABLE."""
    if word & (1 << 25):  # rotated immediate (ARMExpandImm_C)
        rotation = (word >> 7) & 0x1E
        if not rotation:
            return None, None, 0, 0, word & 0xFF, None
        value, carry = _shift_c(word & 0xFF, 3, rotation, False)
        return None, None, 0, 0, value, carry
    rm = word & 0xF
    if word & (1 << 4):  # shift by register
        rs = (word >> 8) & 0xF
        if rs == 15:  # UNPREDICTABLE
            return None
        return rm, rs, (word >> 5) & 3, 0, 0, None
    return (rm, None, *_imm_shift(word), 0, None)


# --- decode: one word into its decoded form ---------------------------------
#
# A decoded instruction is a tuple: its handler, then the fields the handler
# reads, extracted once.  ``entry[0](cpu, entry)`` executes the instruction
# and returns the next pc.  Each handler below follows the decoder that
# builds its tuple.


def decode(word: int, pc: int) -> Decoded:
    """The decoded form of ``word`` at address ``pc``.  A word outside the
    subset decodes to a handler that raises, so it faults only when it
    executes and its condition passes."""
    cond = word >> 28
    if cond == 15:  # the unconditional space
        return (_undefined, word, pc)
    body = _decode_class(word, pc)
    if cond == 14:  # al always passes
        return body
    return (_conditional, _CONDITIONS[cond >> 1], cond & 1, (pc + 4) & MASK32, body)


def _conditional(cpu: Cpu, e: Decoded) -> int:
    _, test, skip_when, nxt, body = e
    if test(cpu) == skip_when:
        return nxt
    return body[0](cpu, body)


def _undefined(cpu: Cpu, e: Decoded) -> int:
    raise UndefinedInstruction(e[1], e[2])


def _decode_class(word: int, pc: int) -> Decoded:
    cls = (word >> 25) & 7
    pc8, nxt = (pc + 8) & MASK32, (pc + 4) & MASK32
    if cls < 2:
        if (word & 0x0E000090) == 0x00000090:  # bits 7 and 4 set
            if (word & 0x0FC000F0) == 0x00000090:
                return _decode_multiply(word, pc)
            if (word & 0x0F8000F0) == 0x00800090:
                return _decode_multiply_long(word, pc)
            return _decode_extra_load_store(word, pc)
        if (word & 0x0FFFFFD0) == 0x012FFF10:  # BX, BLX register
            return (_branch_exchange, word & 0xF, word & (1 << 5), pc8, nxt, word, pc)
        if (word & 0x01900000) == 0x01000000:
            # TST/TEQ/CMP/CMN without S: MRS, MSR, CLZ, BKPT, saturating
            # and DSP arithmetic, none of them supported
            return (_undefined, word, pc)
        return _decode_data_processing(word, pc)
    if cls in (2, 3):
        return _decode_load_store(word, pc)
    if cls == 4:
        return _decode_block_transfer(word, pc)
    if cls == 5:
        offset = word & 0x00FFFFFF
        if offset & 0x00800000:
            offset -= 0x01000000
        target = (pc8 + (offset << 2)) & MASK32
        if word & (1 << 24):  # BL
            return (_branch_link, target, nxt)
        return (_branch, target)
    if cls == 7 and (word & 0x0F000000) == 0x0F000000:
        return (_syscall, nxt)
    return (_undefined, word, pc)


def _decode_data_processing(word: int, pc: int) -> Decoded:
    operand = _decode_operand2(word)
    if operand is None:
        return (_undefined, word, pc)
    opcode = (word >> 21) & 0xF
    rd = None if 8 <= opcode <= 11 else (word >> 12) & 0xF  # TST/TEQ/CMP/CMN
    return (_data_processing, (word >> 16) & 0xF, rd, _LOGICAL.get(opcode),
            _ARITHMETIC.get(opcode), word & (1 << 20), *operand,
            (pc + 8) & MASK32, (pc + 4) & MASK32, word, pc)


def _data_processing(cpu: Cpu, e: Decoded) -> int:
    (_, rn, rd, logical, arithmetic, set_flags, rm, rs, stype, amount, b,
     shifter_carry, pc8, nxt, word, pc) = e
    regs = cpu.regs
    if rm is None:  # an immediate
        if shifter_carry is None:
            shifter_carry = cpu.c
    else:
        b = regs[rm] if rm != 15 else pc8
        if rs is not None:
            amount = regs[rs] & 0xFF
        if amount:
            b, shifter_carry = _shift_c(b, stype, amount, cpu.c)
        else:  # Shift_C by 0 keeps the value and C
            shifter_carry = cpu.c
    a = regs[rn] if rn != 15 else pc8
    if logical:
        result = logical(a, b)
        if set_flags:  # C from the shifter, V left alone
            cpu.n, cpu.z, cpu.c = bool(result >> 31), result == 0, shifter_carry
    else:  # AddWithCarry
        x, y, carry_in = arithmetic(a, b, cpu.c)
        total = x + y + carry_in
        result = total & MASK32
        if set_flags:
            cpu.n, cpu.z, cpu.c = bool(result >> 31), result == 0, total > MASK32
            cpu.v = bool((x ^ result) & (y ^ result) & (1 << 31))
    if rd is None:  # TST/TEQ/CMP/CMN write no register
        return nxt
    if rd == 15:
        if set_flags:
            raise UndefinedInstruction(word, pc)
        return result & ~1
    regs[rd] = result
    return nxt


def _decode_multiply(word: int, pc: int) -> Decoded:
    accumulate = bool(word & (1 << 21))
    rd = (word >> 16) & 0xF
    rn = (word >> 12) & 0xF
    rs = (word >> 8) & 0xF
    rm = word & 0xF
    if 15 in (rd, rs, rm) or accumulate and rn == 15:  # UNPREDICTABLE
        return (_undefined, word, pc)
    return (_multiply, rd, rn, rs, rm, accumulate, word & (1 << 20), (pc + 4) & MASK32)


def _multiply(cpu: Cpu, e: Decoded) -> int:
    _, rd, rn, rs, rm, accumulate, set_flags, nxt = e
    regs = cpu.regs
    result = regs[rm] * regs[rs]
    if accumulate:
        result += regs[rn]
    result &= MASK32
    regs[rd] = result
    if set_flags:
        cpu.n = bool(result >> 31)
        cpu.z = result == 0
    return nxt


def _decode_multiply_long(word: int, pc: int) -> Decoded:
    rdhi = (word >> 16) & 0xF
    rdlo = (word >> 12) & 0xF
    rs = (word >> 8) & 0xF
    rm = word & 0xF
    if 15 in (rdhi, rdlo, rs, rm):  # UNPREDICTABLE
        return (_undefined, word, pc)
    return (_multiply_long, rdhi, rdlo, rs, rm, word & (1 << 22), word & (1 << 21),
            word & (1 << 20), (pc + 4) & MASK32)


def _multiply_long(cpu: Cpu, e: Decoded) -> int:
    _, rdhi, rdlo, rs, rm, signed, accumulate, set_flags, nxt = e
    regs = cpu.regs
    a, b = regs[rm], regs[rs]
    if signed:
        a, b = a - (a >> 31 << 32), b - (b >> 31 << 32)
    product = a * b
    if accumulate:
        product += (regs[rdhi] << 32) | regs[rdlo]
    product &= (1 << 64) - 1
    regs[rdlo] = product & MASK32
    regs[rdhi] = (product >> 32) & MASK32
    if set_flags:
        cpu.n = bool(product >> 63)
        cpu.z = product == 0
    return nxt


def _transfer_entry(word: int, pc: int, rm: int | None, stype: int, amount: int,
                    offset: int, size: int, sign: int) -> Decoded:
    """A single load/store's tuple: the offset is ``rm`` shifted by ``stype``
    and ``amount`` or, with ``rm`` None, the immediate ``offset``; a load of
    ``size`` bytes sign-extends from bit ``sign`` (0: zero-extends)."""
    rn = (word >> 16) & 0xF
    pre = word & (1 << 24)
    writeback = not pre or word & (1 << 21)  # post-indexed always writes back
    if writeback and rn == 15:  # UNPREDICTABLE
        return (_undefined, word, pc)
    align = 3 if size == 4 else 0  # word transfers fault when unaligned
    return (_transfer, rn, (word >> 12) & 0xF, rm, stype, amount, offset,
            word & (1 << 23), pre, writeback, word & (1 << 20), size, sign, align,
            (pc + 8) & MASK32, (pc + 4) & MASK32, word, pc)


def _decode_load_store(word: int, pc: int) -> Decoded:
    size = 1 if word & (1 << 22) else 4
    if not word & (1 << 25):  # immediate offset
        return _transfer_entry(word, pc, None, 0, 0, word & 0xFFF, size, 0)
    if word & (1 << 4):
        return (_undefined, word, pc)
    return _transfer_entry(word, pc, word & 0xF, *_imm_shift(word), 0, size, 0)


def _decode_extra_load_store(word: int, pc: int) -> Decoded:
    rd, rm = (word >> 12) & 0xF, word & 0xF
    immediate = word & (1 << 22)
    sh = (word >> 5) & 3
    # rd or a register offset in r15: UNPREDICTABLE; only LDRH, LDRSB,
    # LDRSH and STRH exist here
    if (rd == 15 or not immediate and rm == 15
            or (sh not in _EXTRA_LOADS if word & (1 << 20) else sh != 1)):
        return (_undefined, word, pc)
    size, sign = _EXTRA_LOADS[sh]
    if immediate:
        return _transfer_entry(word, pc, None, 0, 0, ((word >> 4) & 0xF0) | rm, size, sign)
    return _transfer_entry(word, pc, rm, 0, 0, 0, size, sign)


def _transfer(cpu: Cpu, e: Decoded) -> int:
    (_, rn, rd, rm, stype, amount, offset, up, pre, writeback, load, size, sign,
     align, pc8, nxt, word, pc) = e
    regs = cpu.regs
    base = regs[rn] if rn != 15 else pc8
    if rm is not None:
        offset = regs[rm] if rm != 15 else pc8
        if amount:
            offset = _shift_c(offset, stype, amount, cpu.c)[0]
    moved = (base + offset if up else base - offset) & MASK32
    addr = moved if pre else base
    if addr & align:
        raise MemoryFault(addr)
    new_pc = nxt
    if load:
        value = cpu.mem.load(addr, size)
        if rd == 15:
            if value & 1:
                raise UndefinedInstruction(word, pc)
            new_pc = value & ~1
        else:
            regs[rd] = (value - (sign << 1)) & MASK32 if value & sign else value
    else:
        cpu.mem.store(addr, size, regs[rd] if rd != 15 else pc8)
    if writeback:
        regs[rn] = moved
    return new_pc


def _decode_block_transfer(word: int, pc: int) -> Decoded:
    pre = bool(word & (1 << 24))
    rn = (word >> 16) & 0xF
    # S bit: user-mode banked transfer; base r15: UNPREDICTABLE
    if word & (1 << 22) or rn == 15:
        return (_undefined, word, pc)
    reglist = tuple(i for i in range(16) if word >> i & 1)
    span = 4 * len(reglist)
    if word & (1 << 23):  # up
        lowest, final = (4 if pre else 0), span
    else:
        lowest, final = -span + (0 if pre else 4), -span
    return (_block_transfer, rn, reglist, lowest, final, word & (1 << 21),
            word & (1 << 20), (pc + 8) & MASK32, (pc + 4) & MASK32, word, pc)


def _block_transfer(cpu: Cpu, e: Decoded) -> int:
    _, rn, reglist, lowest, final, writeback, load, pc8, nxt, word, pc = e
    regs, mem = cpu.regs, cpu.mem
    base = regs[rn]
    new_pc = nxt
    addr = (base + lowest) & MASK32
    for i in reglist:
        if load:
            value = mem.load(addr, 4)
            if i == 15:
                if value & 1:
                    raise UndefinedInstruction(word, pc)
                new_pc = value & ~1
            else:
                regs[i] = value
        else:
            mem.store(addr, 4, regs[i] if i != 15 else pc8)
        addr = (addr + 4) & MASK32
    if writeback:
        regs[rn] = (base + final) & MASK32
    return new_pc


def _branch(cpu: Cpu, e: Decoded) -> int:
    return e[1]


def _branch_link(cpu: Cpu, e: Decoded) -> int:
    _, target, ret = e
    cpu.regs[14] = ret
    return target


def _branch_exchange(cpu: Cpu, e: Decoded) -> int:
    _, rm, link, pc8, ret, word, pc = e
    target = cpu.regs[rm] if rm != 15 else pc8
    if target & 1:
        raise UndefinedInstruction(word, pc)  # no Thumb support
    if link:
        cpu.regs[14] = ret
    return target & ~1


def _syscall(cpu: Cpu, e: Decoded) -> int:
    regs = cpu.regs
    number = regs[7]
    if number in (1, 248):  # exit, exit_group
        raise GuestExit(regs[0] & 0xFF)
    if number == 4:  # write
        fd, buf, length = regs[0], regs[1], regs[2]
        if fd not in (1, 2):
            raise UnsupportedSyscall(number)
        data = cpu.mem.bytes_at(buf, length)
        os.write(fd, data)
        regs[0] = length
        return e[1]
    raise UnsupportedSyscall(number)


class Cpu:
    def __init__(self, mem: Memory, entry: int):
        self.mem = mem
        self.regs = [0] * 16
        self.n = self.z = self.c = self.v = False
        self.pc = entry & ~1
        self.regs[13] = STACK_TOP - 64
        # empty argc/argv block, matching a bare kernel process start
        mem.store(self.regs[13], 4, 0)

    def run(self, max_steps: int = 0) -> int:
        """Execute from ``pc``; returns the guest exit code.  A fault, an
        exhausted budget of ``max_steps`` instructions included, propagates
        as ``GuestFault``; 0 means no budget.  ``pc`` is written back on
        every way out: the faulting instruction, or the next one."""
        if max_steps < 0:
            raise ValueError(f"negative instruction budget {max_steps}")
        cached, fetch = self.mem.code.get, self.mem.fetch
        pc = self.pc
        ticks = itertools.repeat(None, max_steps) if max_steps else itertools.repeat(None)
        try:
            for _ in ticks:
                decoded = cached(pc) or fetch(pc)
                pc = decoded[0](self, decoded)
            raise BudgetExhausted(max_steps)
        except GuestExit as exit_info:
            return exit_info.code
        finally:
            self.pc = pc


def run(path: str, max_steps: int = 0) -> int:
    """Execute the binary; returns the guest exit code (see ``Cpu.run``)."""
    return Cpu(*load_elf(path)).run(max_steps)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="xisa-armvm", description="run a static ARMv5 ELF binary"
    )
    parser.add_argument("binary")
    parser.add_argument("guest_args", nargs="*", help="ignored; guests take no argv")
    parser.add_argument("--max-steps", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        return run(args.binary, max_steps=args.max_steps)
    except GuestFault as fault:
        print(f"armvm: {fault}", file=sys.stderr)
        sys.stderr.flush()
        os.kill(os.getpid(), fault.signo)
        raise AssertionError("unreachable") from fault
    except (ValueError, OSError) as exc:
        print(f"armvm: {exc}", file=sys.stderr)
        return 125


if __name__ == "__main__":
    sys.exit(main())
