"""Minimal user-mode ARMv5 interpreter for statically linked ELF binaries.

Covers the instruction subset emitted by -O0 compilers for freestanding
integer C code: the full data-processing class with all condition codes and
shifter operands, multiplies, word/byte/halfword loads and stores, block
transfers, branches, BX, and the EABI exit/write syscalls.  Anything outside
the subset stops execution loudly with a real signal so a harness above can
classify the outcome, never silently misexecutes.

The decoder follows the ARM Architecture Reference Manual's pseudocode
helpers, each written once: ConditionPassed (``_CONDITIONS``), DecodeImmShift
and Shift_C (``Cpu._imm_shift``, ``Cpu._shift``) and AddWithCarry (the
``_ARITHMETIC`` operand selectors in ``Cpu._data_processing``).

Intended as the ``emulate`` command of toolchain profiles on machines without
qemu-user; run as ``python -m xisa.armvm BINARY``.
"""
from __future__ import annotations

import argparse
import os
import signal
import struct
import sys

STACK_TOP = 0x7FF0_0000
STACK_SIZE = 1 << 20
MASK32 = 0xFFFF_FFFF
RRX = 4  # shift type beside LSL/LSR/ASR/ROR (0-3), as DecodeImmShift returns it


class GuestFault(Exception):
    """A fault that ends the guest: ``run`` reports it and dies by ``signo``."""

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


class Memory:
    """Two flat regions: the loaded image and the stack."""

    def __init__(self, image_base: int, image: bytearray):
        self.image_base = image_base
        self.image = image
        self.stack_base = STACK_TOP - STACK_SIZE
        self.stack = bytearray(STACK_SIZE)

    def _locate(self, addr: int, size: int) -> tuple[bytearray, int]:
        if self.image_base <= addr and addr + size <= self.image_base + len(self.image):
            return self.image, addr - self.image_base
        if self.stack_base <= addr and addr + size <= STACK_TOP:
            return self.stack, addr - self.stack_base
        raise MemoryFault(addr)

    def load(self, addr: int, size: int) -> int:
        buf, off = self._locate(addr, size)
        return int.from_bytes(buf[off : off + size], "little")

    def store(self, addr: int, size: int, value: int) -> None:
        buf, off = self._locate(addr, size)
        buf[off : off + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"
        )

    def bytes_at(self, addr: int, size: int) -> bytes:
        buf, off = self._locate(addr, size)
        return bytes(buf[off : off + size])


def load_elf(path: str) -> tuple[Memory, int]:
    """Map PT_LOAD segments of a 32-bit LE ARM ELF; returns (memory, entry)."""
    data = open(path, "rb").read()
    if data[:4] != b"\x7fELF":
        raise ValueError(f"{path}: not an ELF file")
    if data[4] != 1 or data[5] != 1:
        raise ValueError(f"{path}: need ELF32 little-endian")
    (e_type, e_machine, _ver, e_entry, e_phoff, _shoff, _flags, _ehsize,
     e_phentsize, e_phnum) = struct.unpack_from("<HHIIIIIHHH", data, 16)
    if e_machine != 40:  # EM_ARM
        raise ValueError(f"{path}: not an ARM binary (e_machine={e_machine})")
    segments = []
    for i in range(e_phnum):
        off = e_phoff + i * e_phentsize
        (p_type, p_offset, p_vaddr, _paddr, p_filesz, p_memsz, _pflags,
         _palign) = struct.unpack_from("<IIIIIIII", data, off)
        if p_type == 1 and p_memsz:  # PT_LOAD
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
    lambda cpu: True,                               # al (step skips the test)
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


class Cpu:
    def __init__(self, mem: Memory, entry: int):
        self.mem = mem
        self.regs = [0] * 16
        self.n = self.z = self.c = self.v = False
        self.pc = entry & ~1
        self.regs[13] = STACK_TOP - 64
        # empty argc/argv block, matching a bare kernel process start
        mem.store(self.regs[13], 4, 0)
        self.steps = 0

    # --- register access (r15 reads as current pc + 8) ----------------------

    def rread(self, i: int) -> int:
        if i == 15:
            return (self.pc + 8) & MASK32
        return self.regs[i]

    # --- shifter operand ----------------------------------------------------

    def _shift(self, value: int, stype: int, amount: int) -> tuple[int, bool]:
        """Shift_C: ``value`` shifted by ``amount`` (0-255), and the carry out."""
        if amount == 0:
            return value, self.c
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
        return self.c << 31 | value >> 1, bool(value & 1)  # RRX

    def _imm_shift(self, word: int) -> tuple[int, bool]:
        """Rm shifted by an immediate (DecodeImmShift, then Shift_C)."""
        stype, amount = (word >> 5) & 3, (word >> 7) & 0x1F
        if amount == 0 and stype:  # LSR/ASR #0 mean #32; ROR #0 is RRX
            stype, amount = (RRX, 1) if stype == 3 else (stype, 32)
        return self._shift(self.rread(word & 0xF), stype, amount)

    def operand2(self, word: int) -> tuple[int, bool]:
        if word & (1 << 25):  # rotated immediate (ARMExpandImm_C)
            return self._shift(word & 0xFF, 3, (word >> 7) & 0x1E)
        if word & (1 << 4):  # shift by register
            rs = (word >> 8) & 0xF
            if rs == 15:  # UNPREDICTABLE
                raise UndefinedInstruction(word, self.pc)
            amount = self.regs[rs] & 0xFF
            return self._shift(self.rread(word & 0xF), (word >> 5) & 3, amount)
        return self._imm_shift(word)

    # --- instruction classes --------------------------------------------------

    def _data_processing(self, word: int) -> int | None:
        opcode = (word >> 21) & 0xF
        set_flags = word & (1 << 20)  # always set for TST/TEQ/CMP/CMN
        b, shifter_carry = self.operand2(word)
        a = self.rread((word >> 16) & 0xF)
        logical = _LOGICAL.get(opcode)
        if logical:
            result = logical(a, b)
            carry, overflow = shifter_carry, self.v
        else:  # AddWithCarry
            x, y, carry_in = _ARITHMETIC[opcode](a, b, self.c)
            total = x + y + carry_in
            result = total & MASK32
            carry = total > MASK32
            overflow = bool((x ^ result) & (y ^ result) & (1 << 31))
        if set_flags:
            self.n, self.z, self.c, self.v = bool(result >> 31), result == 0, carry, overflow
        if 8 <= opcode <= 11:  # TST/TEQ/CMP/CMN write no register
            return None
        rd = (word >> 12) & 0xF
        if rd == 15:
            if set_flags:
                raise UndefinedInstruction(word, self.pc)
            return result & ~1
        self.regs[rd] = result
        return None

    def _multiply(self, word: int) -> None:
        accumulate = bool(word & (1 << 21))
        set_flags = bool(word & (1 << 20))
        rd = (word >> 16) & 0xF
        rn = (word >> 12) & 0xF
        rs = (word >> 8) & 0xF
        rm = word & 0xF
        if 15 in (rd, rs, rm) or accumulate and rn == 15:  # UNPREDICTABLE
            raise UndefinedInstruction(word, self.pc)
        result = self.regs[rm] * self.regs[rs]
        if accumulate:
            result += self.regs[rn]
        result &= MASK32
        self.regs[rd] = result
        if set_flags:
            self.n = bool(result >> 31)
            self.z = result == 0

    def _multiply_long(self, word: int) -> None:
        signed = bool(word & (1 << 22))
        accumulate = bool(word & (1 << 21))
        set_flags = bool(word & (1 << 20))
        rdhi = (word >> 16) & 0xF
        rdlo = (word >> 12) & 0xF
        rs = (word >> 8) & 0xF
        rm = word & 0xF
        if 15 in (rdhi, rdlo, rs, rm):  # UNPREDICTABLE
            raise UndefinedInstruction(word, self.pc)
        a, b = self.regs[rm], self.regs[rs]
        if signed:
            a, b = a - (a >> 31 << 32), b - (b >> 31 << 32)
        product = a * b
        if accumulate:
            product += (self.regs[rdhi] << 32) | self.regs[rdlo]
        product &= (1 << 64) - 1
        self.regs[rdlo] = product & MASK32
        self.regs[rdhi] = (product >> 32) & MASK32
        if set_flags:
            self.n = bool(product >> 63)
            self.z = product == 0

    def _address(self, word: int, offset: int) -> tuple[int, int | None]:
        """The transfer address of a load/store, and the base to write back
        after the transfer (None: no writeback)."""
        rn = (word >> 16) & 0xF
        base = self.rread(rn)
        moved = (base + offset if word & (1 << 23) else base - offset) & MASK32
        if not word & (1 << 24):  # post-indexed: always writes back
            addr, writeback = base, moved
        else:
            addr, writeback = moved, moved if word & (1 << 21) else None
        if writeback is not None and rn == 15:  # UNPREDICTABLE
            raise UndefinedInstruction(word, self.pc)
        return addr, writeback

    def _load_store(self, word: int) -> int | None:
        byte = bool(word & (1 << 22))
        rd = (word >> 12) & 0xF
        if word & (1 << 25):
            if word & (1 << 4):
                raise UndefinedInstruction(word, self.pc)
            offset = self._imm_shift(word)[0]
        else:
            offset = word & 0xFFF
        addr, writeback = self._address(word, offset)
        size = 1 if byte else 4
        if not byte and addr & 3:
            raise MemoryFault(addr)
        new_pc: int | None = None
        if word & (1 << 20):  # load
            value = self.mem.load(addr, size)
            if rd == 15:
                if value & 1:
                    raise UndefinedInstruction(word, self.pc)
                new_pc = value & ~1
            else:
                self.regs[rd] = value
        else:
            self.mem.store(addr, size, self.rread(rd))
        if writeback is not None:
            self.regs[(word >> 16) & 0xF] = writeback
        return new_pc

    def _extra_load_store(self, word: int) -> None:
        rd = (word >> 12) & 0xF
        sh = (word >> 5) & 3
        if rd == 15 or not word & (1 << 22) and word & 0xF == 15:  # UNPREDICTABLE
            raise UndefinedInstruction(word, self.pc)
        if word & (1 << 22):  # immediate offset
            offset = ((word >> 4) & 0xF0) | (word & 0xF)
        else:
            offset = self.regs[word & 0xF]
        addr, writeback = self._address(word, offset)
        if word & (1 << 20):  # load
            if sh == 1:  # LDRH
                self.regs[rd] = self.mem.load(addr, 2)
            elif sh == 2:  # LDRSB
                v = self.mem.load(addr, 1)
                self.regs[rd] = (v - 0x100 if v & 0x80 else v) & MASK32
            elif sh == 3:  # LDRSH
                v = self.mem.load(addr, 2)
                self.regs[rd] = (v - 0x10000 if v & 0x8000 else v) & MASK32
            else:
                raise UndefinedInstruction(word, self.pc)
        else:
            if sh != 1:  # only STRH exists here
                raise UndefinedInstruction(word, self.pc)
            self.mem.store(addr, 2, self.rread(rd))
        if writeback is not None:
            self.regs[(word >> 16) & 0xF] = writeback

    def _block_transfer(self, word: int) -> int | None:
        pre = bool(word & (1 << 24))
        up = bool(word & (1 << 23))
        if word & (1 << 22):  # S bit: user-mode banked transfer
            raise UndefinedInstruction(word, self.pc)
        writeback = bool(word & (1 << 21))
        load = bool(word & (1 << 20))
        rn = (word >> 16) & 0xF
        if rn == 15:  # UNPREDICTABLE
            raise UndefinedInstruction(word, self.pc)
        reglist = word & 0xFFFF
        count = bin(reglist).count("1")
        base = self.regs[rn]
        if up:
            lowest = base + (4 if pre else 0)
            final = base + 4 * count
        else:
            lowest = base - 4 * count + (0 if pre else 4)
            final = base - 4 * count
        new_pc: int | None = None
        addr = lowest & MASK32
        for i in range(16):
            if not (reglist >> i) & 1:
                continue
            if load:
                value = self.mem.load(addr, 4)
                if i == 15:
                    if value & 1:
                        raise UndefinedInstruction(word, self.pc)
                    new_pc = value & ~1
                else:
                    self.regs[i] = value
            else:
                self.mem.store(addr, 4, self.rread(i))
            addr = (addr + 4) & MASK32
        if writeback:
            self.regs[rn] = final & MASK32
        return new_pc

    def _syscall(self) -> None:
        number = self.regs[7]
        if number in (1, 248):  # exit, exit_group
            raise GuestExit(self.regs[0] & 0xFF)
        if number == 4:  # write
            fd, buf, length = self.regs[0], self.regs[1], self.regs[2]
            if fd not in (1, 2):
                raise UnsupportedSyscall(number)
            data = self.mem.bytes_at(buf, length)
            os.write(fd, data)
            self.regs[0] = length
            return
        raise UnsupportedSyscall(number)

    # --- main loop ------------------------------------------------------------

    def step(self) -> None:
        pc = self.pc
        if pc & 3:
            raise MemoryFault(pc)
        word = self.mem.load(pc, 4)
        self.steps += 1
        cond = word >> 28
        if cond != 14:  # al always passes
            if cond == 15:  # the unconditional space
                raise UndefinedInstruction(word, pc)
            if _CONDITIONS[cond >> 1](self) == (cond & 1):
                self.pc = (pc + 4) & MASK32
                return
        cls = (word >> 25) & 7
        new_pc: int | None = None
        if cls < 2:
            if (word & 0x0E000090) == 0x00000090:  # bits 7 and 4 set
                if (word & 0x0FC000F0) == 0x00000090:
                    self._multiply(word)
                elif (word & 0x0F8000F0) == 0x00800090:
                    self._multiply_long(word)
                else:
                    self._extra_load_store(word)
            elif (word & 0x0FFFFFD0) == 0x012FFF10:  # BX, BLX register
                target = self.rread(word & 0xF)
                if target & 1:
                    raise UndefinedInstruction(word, pc)  # no Thumb support
                if word & (1 << 5):
                    self.regs[14] = (pc + 4) & MASK32
                new_pc = target & ~1
            elif (word & 0x01900000) == 0x01000000:
                # TST/TEQ/CMP/CMN without S: MRS, MSR, CLZ, BKPT, saturating
                # and DSP arithmetic, none of them supported
                raise UndefinedInstruction(word, pc)
            else:
                new_pc = self._data_processing(word)
        elif cls in (2, 3):
            new_pc = self._load_store(word)
        elif cls == 4:
            new_pc = self._block_transfer(word)
        elif cls == 5:
            offset = word & 0x00FFFFFF
            if offset & 0x00800000:
                offset -= 0x01000000
            if word & (1 << 24):  # BL
                self.regs[14] = (pc + 4) & MASK32
            new_pc = (pc + 8 + (offset << 2)) & MASK32
        elif cls == 7 and (word & 0x0F000000) == 0x0F000000:
            self._syscall()
        else:
            raise UndefinedInstruction(word, pc)
        self.pc = (pc + 4) & MASK32 if new_pc is None else new_pc


def run(path: str, max_steps: int = 0) -> int:
    """Execute the binary; returns the guest exit code.  Faults kill the
    process with the corresponding real signal, mirroring user-mode emulators.
    """
    mem, entry = load_elf(path)
    cpu = Cpu(mem, entry)
    try:
        while True:
            cpu.step()
            if max_steps and cpu.steps >= max_steps:
                raise BudgetExhausted(max_steps)
    except GuestExit as exit_info:
        return exit_info.code
    except GuestFault as fault:
        print(f"armvm: {fault}", file=sys.stderr)
        sys.stderr.flush()
        os.kill(os.getpid(), fault.signo)
    raise AssertionError("unreachable")


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
    except (ValueError, OSError) as exc:
        print(f"armvm: {exc}", file=sys.stderr)
        return 125


if __name__ == "__main__":
    sys.exit(main())
