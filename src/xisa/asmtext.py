"""Parse compiler-emitted assembly into structured units and normalize it.

Parsing is total: no input text fails.  Operands that match none of the
recognized shapes become catch-all Other operands and bump the unit's
``parse_fallbacks`` counter so grammar gaps are visible to callers.
Recognized-but-unstructured shapes (register lists, shift specifiers,
relocation functions like ``%hi(sym)``) are Other operands too, but do not
count as fallbacks.

Only x86 AT&T syntax is parsed on the x86 side; Intel syntax is out of scope.
"""
from __future__ import annotations

import functools
import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from types import MappingProxyType

from .core import Isa, IsaName, SyntaxFamily, get_isa


class LineKind(Enum):
    INSTRUCTION = "instruction"
    LABEL = "label"
    DIRECTIVE = "directive"
    COMMENT = "comment"
    BLANK = "blank"


class OperandKind(Enum):
    REGISTER = "register"
    IMMEDIATE = "immediate"
    MEMORY = "memory"
    LABEL_REF = "label_ref"
    OTHER = "other"


@dataclass(frozen=True)
class Operand:
    kind: OperandKind
    text: str
    register: str | None = None
    value: int | None = None
    base: str | None = None
    offset: int | None = None
    index: str | None = None
    scale_or_shift: str | None = None
    recognized: bool = True


@dataclass(frozen=True)
class Instruction:
    mnemonic: str
    operands: tuple[Operand, ...]
    label_refs: frozenset[str]


@dataclass(frozen=True)
class Line:
    kind: LineKind
    text_normalized: str
    instruction: Instruction | None = None

    def __post_init__(self) -> None:
        if (self.kind is LineKind.INSTRUCTION) != (self.instruction is not None):
            raise ValueError("instruction present iff kind is INSTRUCTION")


@dataclass(frozen=True)
class FunctionSpan:
    name: str
    start_line: int  # 0-based index into AssemblyUnit.lines, inclusive
    end_line: int  # exclusive


@dataclass(frozen=True)
class AssemblyUnit:
    isa: IsaName
    source_id: str
    raw_text: str
    lines: tuple[Line, ...]
    functions: tuple[FunctionSpan, ...]
    parse_fallbacks: int = 0


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*|\d+):(.*)$")
_INT_RE = re.compile(r"^[+-]?(0[xX][0-9a-fA-F]+|\d+)$")
_SYMBOL_RE = re.compile(r"^[A-Za-z_.$][\w.$+\-]*$")
_ATT_MEM_RE = re.compile(
    r"^(?P<disp>[^(),]*)\((?P<body>%?[\w.$]*(?:,[^)]*)?)\)(?P<tail>.*)$"
)
_REGLIST_RE = re.compile(r"^\{[^}]*\}\^?$")
_SHIFT_RE = re.compile(
    r"^(lsl|lsr|asr|ror|rrx|uxtb|uxth|uxtw|sxtb|sxth|sxtw|lsl\s+#?\d+)\b.*$",
    re.IGNORECASE,
)
_RELOC_RE = re.compile(r"^%\w+\(.*\)$")
_LOCAL_LABEL_RE = re.compile(r"^\d+[bf]$")  # 1b, 2f: nearest numeric label
_RISCV_MEM_RE = re.compile(r"^(?P<disp>.*)\((?P<base>[\w$.]+)\)$")


def _parse_int(text: str) -> int | None:
    if not _INT_RE.match(text):
        return None
    try:
        return int(text, 0)
    except ValueError:  # leading-zero decimals such as 08 or 010
        return None


def _squeeze(text: str) -> str:
    return " ".join(text.split())


# a double-quoted string, quotes included: inside it a backslash escapes the
# next character, as GNU as reads it, and an unterminated string runs to the end
_STRING = r'"(?:[^"\\]|\\.)*(?:"|\\?\Z)'
_OPERAND_TOKEN_RE = re.compile(rf"(?s){_STRING}|[,()\[\]{{}}]")
_DEPTH = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}


@functools.cache
def _comment_re(leaders: tuple[str, ...]) -> re.Pattern[str]:
    return re.compile("(?s)" + "|".join([_STRING, *map(re.escape, leaders)]))


def _strip_comment(text: str, leaders: tuple[str, ...]) -> tuple[str, bool]:
    """Remove a trailing line comment.  Returns (code part, had_comment)."""
    for m in _comment_re(leaders).finditer(text):
        if m[0][0] != '"':  # the first leader outside a string
            return text[: m.start()], True
    return text, False


def _split_operands(text: str) -> list[str]:
    """Split on top-level commas, respecting (), [], {} and quotes."""
    parts: list[str] = []
    depth = start = 0
    for m in _OPERAND_TOKEN_RE.finditer(text):
        if m[0] != ",":
            depth += _DEPTH.get(m[0], 0)  # a string moves no depth
        elif depth == 0:
            parts.append(text[start : m.start()].strip())
            start = m.end()
    parts.append(text[start:].strip())
    return parts


def _att_operand(text: str, isa: Isa) -> Operand:
    if text.startswith("%"):
        name = text[1:].lower()
        if name in isa.registers:
            return Operand(OperandKind.REGISTER, text, register=name)
        return Operand(OperandKind.OTHER, text)  # register-shaped, unknown name
    if text.startswith("$"):
        value = _parse_int(text[1:])
        if value is not None:
            return Operand(OperandKind.IMMEDIATE, text, value=value)
        return Operand(OperandKind.OTHER, text)  # $symbol address immediate
    if text.startswith("*"):
        return Operand(OperandKind.OTHER, text)  # indirect call/jump target
    m = _ATT_MEM_RE.match(text)
    if m and not m.group("tail"):
        disp = m.group("disp").strip()
        body = [b.strip() for b in m.group("body").split(",")]
        base = index = None
        scale = None
        ok = True
        if body and body[0]:
            if body[0].startswith("%") and body[0][1:].lower() in isa.registers:
                base = body[0][1:].lower()
            else:
                ok = False
        if len(body) >= 2 and body[1]:
            if body[1].startswith("%") and body[1][1:].lower() in isa.registers:
                index = body[1][1:].lower()
            else:
                ok = False
        if len(body) >= 3 and body[2]:
            scale = body[2]
        offset = _parse_int(disp) if disp else None
        if ok and (offset is not None or not disp or _SYMBOL_RE.match(disp)):
            return Operand(
                OperandKind.MEMORY,
                text,
                base=base,
                offset=offset,
                index=index,
                scale_or_shift=scale,
            )
        return Operand(OperandKind.OTHER, text)
    value = _parse_int(text)
    if value is not None:
        return Operand(OperandKind.OTHER, text)  # bare literal (directive context)
    if _SYMBOL_RE.match(text) or _LOCAL_LABEL_RE.match(text):
        return Operand(OperandKind.LABEL_REF, text)
    return Operand(OperandKind.OTHER, text, recognized=False)


def _arm_memory(text: str, isa: Isa) -> Operand:
    inner = text[1:].rsplit("]", 1)[0]
    parts = [p.strip() for p in inner.split(",")]
    base = index = None
    offset = None
    scale = None
    ok = bool(parts) and parts[0].lower() in isa.registers
    if ok:
        base = parts[0].lower()
        rest = parts[1:]
        if rest:
            first = rest[0]
            if first.startswith("#"):
                offset = _parse_int(first[1:])
                ok = offset is not None and len(rest) == 1
            elif first.lower().lstrip("+-") in isa.registers:
                index = first.lower().lstrip("+-")
                if len(rest) == 2:
                    scale = rest[1]
                    ok = bool(_SHIFT_RE.match(scale))
                else:
                    ok = len(rest) == 1
            else:
                ok = False
    if ok:
        return Operand(
            OperandKind.MEMORY,
            text,
            base=base,
            offset=offset,
            index=index,
            scale_or_shift=scale,
        )
    return Operand(OperandKind.OTHER, text)


def _arm_operand(text: str, isa: Isa) -> Operand:
    low = text.lower()
    if low in isa.registers:
        return Operand(OperandKind.REGISTER, text, register=low)
    if low.endswith("!") and low[:-1] in isa.registers:
        return Operand(OperandKind.REGISTER, text, register=low[:-1])  # writeback
    if text.startswith("#"):
        value = _parse_int(text[1:])
        if value is not None:
            return Operand(OperandKind.IMMEDIATE, text, value=value)
        return Operand(OperandKind.OTHER, text)  # #:lower16: relocations etc.
    if text.startswith("["):
        return _arm_memory(text, isa)
    if _REGLIST_RE.match(text):
        return Operand(OperandKind.OTHER, text)  # register list
    if _SHIFT_RE.match(text):
        return Operand(OperandKind.OTHER, text, scale_or_shift=text)
    if text.startswith("="):
        return Operand(OperandKind.OTHER, text)  # ldr =constant pseudo operand
    if low in ("cpsr", "spsr", "apsr", "fpscr") or low.startswith(("cpsr_", "spsr_")):
        return Operand(OperandKind.OTHER, text)
    value = _parse_int(text)
    if value is not None:
        return Operand(OperandKind.IMMEDIATE, text, value=value)
    if _SYMBOL_RE.match(text) or _LOCAL_LABEL_RE.match(text):
        return Operand(OperandKind.LABEL_REF, text)
    return Operand(OperandKind.OTHER, text, recognized=False)


def _riscv_operand(text: str, isa: Isa) -> Operand:
    low = text.lower()
    if low in isa.registers:
        return Operand(OperandKind.REGISTER, text, register=low)
    value = _parse_int(text)
    if value is not None:
        return Operand(OperandKind.IMMEDIATE, text, value=value)
    m = _RISCV_MEM_RE.match(text)
    if m and m.group("base").lower() in isa.registers:
        disp = m.group("disp").strip()
        offset = _parse_int(disp) if disp else None
        if offset is not None or not disp or _RELOC_RE.match(disp):
            return Operand(
                OperandKind.MEMORY, text, base=m.group("base").lower(), offset=offset
            )
        return Operand(OperandKind.OTHER, text)
    if _RELOC_RE.match(text):
        return Operand(OperandKind.OTHER, text)  # %hi(sym) style relocation
    if _SYMBOL_RE.match(text) or _LOCAL_LABEL_RE.match(text):
        return Operand(OperandKind.LABEL_REF, text)
    return Operand(OperandKind.OTHER, text, recognized=False)


_OPERAND_PARSERS = {
    SyntaxFamily.ATT: _att_operand,
    SyntaxFamily.ARM_UAL: _arm_operand,
    SyntaxFamily.RISCV_STD: _riscv_operand,
}


def _scan(
    text: str, isa: Isa | IsaName | str
) -> Iterator[tuple[LineKind, str, list[str] | str | None]]:
    """Every text rule of parsing, one line of ``text`` at a time.

    Yields (kind, normalized text, detail): ``detail`` is an instruction's
    operand texts, a bare label's name, or None.
    """
    leaders = (isa if isinstance(isa, Isa) else get_isa(isa)).comment_leaders
    for raw in text.splitlines():
        code, had_comment = _strip_comment(raw, leaders)
        code = _squeeze(code)  # every rule below reads collapsed whitespace
        if not code:
            if had_comment:
                yield LineKind.COMMENT, _squeeze(raw), None
            else:
                yield LineKind.BLANK, "", None
            continue
        label_match = _LABEL_RE.match(code)
        if label_match:  # with trailing code on its line, a label has no name
            yield LineKind.LABEL, code, None if label_match.group(2) else label_match.group(1)
        elif code.startswith("."):
            yield LineKind.DIRECTIVE, code, None
        else:
            mnemonic, _, rest = code.partition(" ")
            if rest:
                operands = _split_operands(rest)
                yield LineKind.INSTRUCTION, f"{mnemonic.lower()} {', '.join(operands)}", operands
            else:
                yield LineKind.INSTRUCTION, mnemonic.lower(), []


_FUNC_TYPE_RE = re.compile(
    r"^\.type\s+([\w.$]+)\s*,\s*[@%]function", re.IGNORECASE
)


def parse_assembly(
    text: str, isa: Isa | IsaName | str, source_id: str = ""
) -> AssemblyUnit:
    """Parse assembly text into a structured unit.  Never raises on content."""
    isa_obj = isa if isinstance(isa, Isa) else get_isa(isa)
    operand_parser = _OPERAND_PARSERS[isa_obj.syntax_family]
    lines: list[Line] = []
    fallbacks = 0
    pending_functions: list[tuple[str, int]] = []  # (name, start index)
    spans: list[FunctionSpan] = []
    declared: set[str] = set()  # .type name,@function seen, awaiting label

    for idx, (kind, normalized, detail) in enumerate(_scan(text, isa_obj)):
        insn = None
        if kind is LineKind.INSTRUCTION:
            operands = tuple(operand_parser(raw, isa_obj) for raw in detail)
            fallbacks += not all(op.recognized for op in operands)
            label_refs = frozenset(
                op.text for op in operands if op.kind is OperandKind.LABEL_REF
            )
            insn = Instruction(normalized.partition(" ")[0], operands, label_refs)
        elif kind is LineKind.LABEL:
            if detail is None:  # label with trailing code: text kept, gap flagged
                fallbacks += 1
            elif detail in declared:
                if pending_functions:
                    prev_name, prev_start = pending_functions.pop()
                    spans.append(FunctionSpan(prev_name, prev_start, idx))
                pending_functions.append((detail, idx))
                declared.remove(detail)
        elif kind is LineKind.DIRECTIVE:
            type_match = _FUNC_TYPE_RE.match(normalized)
            if type_match:
                declared.add(type_match.group(1))
        lines.append(Line(kind, normalized, insn))

    if pending_functions:
        name, start = pending_functions.pop()
        spans.append(FunctionSpan(name, start, len(lines)))

    return AssemblyUnit(
        isa=isa_obj.name,
        source_id=source_id,
        raw_text=text,
        lines=tuple(lines),
        functions=tuple(spans),
        parse_fallbacks=fallbacks,
    )


# directives that name the source file and the compiler, not the code
VOLATILE_DIRECTIVES = frozenset({".file", ".ident"})


def normalize(
    source: AssemblyUnit | str, raw: bool = False, isa: Isa | IsaName | str | None = None
) -> str:
    """Deterministic text for edit distance / exact match.

    Comments stripped, blank lines dropped, whitespace canonicalized, volatile
    directives (.file/.ident) removed.  Labels, other directives and
    instruction text survive byte-for-byte after whitespace canonicalization.
    ``raw`` keeps every line; only whitespace is canonicalized.

    ``source`` is a parsed unit, or a text with its ``isa``.  A text gives
    what its parsed unit would, rendered straight from the line scanner
    without building the unit.
    """
    if isinstance(source, AssemblyUnit):
        lines = ((line.kind, line.text_normalized) for line in source.lines)
    else:
        lines = (line[:2] for line in _scan(source, isa))
    out = [
        text
        for kind, text in lines
        if raw
        or kind is LineKind.INSTRUCTION
        or kind is LineKind.LABEL
        or (kind is LineKind.DIRECTIVE and text.split(None, 1)[0] not in VOLATILE_DIRECTIVES)
    ]
    if not out:
        return ""
    return "\n".join(out) + "\n"


# --- static register liveness profile ---------------------------------------

@dataclass
class RegisterProfile:
    # 1-based lines whose write to the register no path reads
    overwrite_without_read_lines: list[int] = field(default_factory=list)


def canonical_register(name: str, isa: Isa | IsaName) -> str:
    """The register ``name`` names; unknown names come back lowercased."""
    isa_obj = isa if isinstance(isa, Isa) else get_isa(isa)
    name = name.lower()
    return isa_obj.registers.get(name, name)


@functools.cache
def load_role_table(isa: IsaName | str) -> Mapping[str, tuple[tuple[int, ...], bool]]:
    """Load the per-ISA operand role table: mnemonic -> (written operand
    positions, pure), where pure means the written operands are not also read.

    File format, one entry per line: ``mnemonic writes=<comma separated
    indices> [pure]`` where -1 means the last operand.  Blank lines and ``#``
    comments are ignored.
    """
    name = f"roles_{IsaName(isa).value}.txt"
    table: dict[str, tuple[tuple[int, ...], bool]] = {}
    text = resources.files("xisa.data").joinpath(name).read_text(encoding="utf-8")
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        mnemonic, *spec = fields
        if not spec or not spec[0].startswith("writes=") or spec[1:] not in ([], ["pure"]):
            raise ValueError(f"{name}: bad role line {raw!r}")
        indices = tuple(int(i) for i in spec[0][len("writes="):].split(",") if i)
        table[mnemonic.lower()] = (indices, len(spec) == 2)
    return MappingProxyType(table)  # cached: shared by every caller


def _operand_registers(op: Operand, isa: Isa) -> list[str]:
    regs: list[str] = []
    if op.kind is OperandKind.REGISTER and op.register:
        regs.append(canonical_register(op.register, isa))
    elif op.kind is OperandKind.MEMORY:
        if op.base:
            regs.append(canonical_register(op.base, isa))
        if op.index:
            regs.append(canonical_register(op.index, isa))
    elif op.kind is OperandKind.OTHER and op.text.startswith("{"):
        for piece in op.text.strip("{}^ ").split(","):
            name = piece.strip().lower()
            if "-" in name:  # range like r4-r6
                lo, _, hi = name.partition("-")
                lo_c = canonical_register(lo.strip(), isa)
                hi_c = canonical_register(hi.strip(), isa)
                if lo_c[1:].isdigit() and hi_c[1:].isdigit():
                    prefix = lo_c[0]
                    for i in range(int(lo_c[1:]), int(hi_c[1:]) + 1):
                        regs.append(f"{prefix}{i}")
                continue
            if name:
                regs.append(canonical_register(name, isa))
    return regs


def _effects(insn: Instruction, isa: Isa, bit: dict[str, int]) -> tuple[int, int]:
    """The registers ``insn`` reads and writes, by the ISA's role table, as
    masks over ``bit`` (register -> its bit), which grows by each new register.
    A register operand written back with ``!`` (``ldmia r0!, {r1, r2}``) is
    read and written.  So is the base of an ARM memory operand written back:
    pre-indexed with ``!`` (``str r0, [r1, #4]!``) or post-indexed, followed
    by its offset (``ldr fp, [sp], #4``).
    """
    # an unlisted mnemonic reads every register it names and writes none of
    # its operands: a missed write costs a flag, a guessed one a false flag
    positions, pure = load_role_table(isa.name).get(insn.mnemonic, ((), False))
    n_ops = len(insn.operands)
    arm = isa.syntax_family is SyntaxFamily.ARM_UAL
    reads = writes = 0
    for i, op in enumerate(insn.operands):
        mask = 0
        for reg in _operand_registers(op, isa):
            mask |= bit.setdefault(reg, 1 << len(bit))
        written = i in positions or i - n_ops in positions
        if written and (op.kind is OperandKind.REGISTER or op.text.startswith("{")):
            writes |= mask  # a register, or a pop-style register list
            if not pure:
                reads |= mask
        else:
            reads |= mask
            if op.kind is OperandKind.REGISTER and op.text.endswith("!"):
                writes |= mask
            elif op.kind is OperandKind.MEMORY and arm and (
                op.text.endswith("!") or i < n_ops - 1
            ):
                writes |= bit[canonical_register(op.base, isa)]
    return reads, writes


def static_register_profile(unit: AssemblyUnit) -> dict[str, RegisterProfile]:
    """Dead writes, by backward liveness (Aho, Lam, Sethi, Ullman, *Compilers*,
    9.2.5), with an entry for every register the unit reads or writes.

    Each function span is analysed on its own, or the whole unit if it
    declares none.  An instruction flows to the next line and to every label
    of its function that it names.  Every register is live at the end of the
    function and after a branch that leaves it: a branch mnemonic with no
    local target (return, call, tail call, indirect jump) or a write to pc.
    A write whose register is not live after it is dead; its 1-based line is
    listed under that register.
    """
    isa = get_isa(unit.isa)
    bit: dict[str, int] = {}
    dead: list[tuple[int, int]] = []  # (1-based line, registers it writes dead)
    starts = sorted({0, *(span.start_line for span in unit.functions)})
    for lo, hi in zip(starts, [*starts[1:], len(unit.lines)]):
        labels: dict[str, int] = {}  # label -> index of the next instruction
        nodes: list[tuple[int, Instruction, int, int]] = []
        for lineno in range(lo, hi):
            line = unit.lines[lineno]
            if line.kind is LineKind.LABEL:
                labels[line.text_normalized.rstrip(":")] = len(nodes)
            elif line.instruction is not None:
                effects = _effects(line.instruction, isa, bit)
                nodes.append((lineno + 1, line.instruction, *effects))
        every = (1 << len(bit)) - 1
        pc = bit.get(isa.registers.get("pc", ""), 0)
        successors: list[tuple[int, ...] | None] = []  # None: leaves the function
        for k, (_, insn, _, writes) in enumerate(nodes):
            targets = tuple(labels[ref] for ref in insn.label_refs if ref in labels)
            leaves = writes & pc or (insn.mnemonic in isa.branch_mnemonics and not targets)
            successors.append(None if leaves else (k + 1, *targets))
        live_in = [0] * len(nodes) + [every]
        live_out = [every] * len(nodes)
        changed = True
        while changed:
            changed = False
            for k in reversed(range(len(nodes))):
                if successors[k] is not None:
                    live_out[k] = 0
                    for t in successors[k]:
                        live_out[k] |= live_in[t]
                _, _, reads, writes = nodes[k]
                new = reads | (live_out[k] & ~writes)
                if new != live_in[k]:
                    live_in[k], changed = new, True
        for (lineno, _, _, writes), out in zip(nodes, live_out):
            if writes & ~out:
                dead.append((lineno, writes & ~out))
    return {
        reg: RegisterProfile([lineno for lineno, mask in dead if mask & b])
        for reg, b in bit.items()
    }
