"""Pluggable transpiler backends.

Backends implement one mapping: x86-64 assembly text in, target-ISA assembly
candidates out.  Three are built in:

* ``identity``: returns the source unchanged (plumbing tests).
* ``replay``: returns the ground-truth target for known sources (harness
  self-test oracle).
* ``rule``: deterministic template translation of a small integer x86 subset
  to ARMv5; exists to validate the full transpile/assemble/emulate path
  without any model.
* ``remote``: HTTP client for completion-serving inference servers.

All backends are deterministic: equal requests yield equal candidate text.
"""
from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

from .asmtext import AssemblyUnit, LineKind, Operand, OperandKind, parse_assembly
from .core import DEFAULT_PROMPT_PREAMBLE, GenerationParams, IsaName
from .dataset import TranspilePair
from .errors import (
    BackendRefused,
    BackendUnavailable,
    ContextOverflow,
    UnsupportedInstruction,
)
from .tokenizer import TokenizerSpec, token_count


@dataclass(frozen=True)
class TranspileRequest:
    source_text: str  # always x86_64
    target_isa: IsaName
    params: GenerationParams = field(default_factory=GenerationParams)

    def __post_init__(self) -> None:
        # x86_64 is a valid target too: self-translation needs only gcc
        object.__setattr__(self, "target_isa", IsaName(self.target_isa))


@dataclass(frozen=True)
class Candidate:
    text: str


@dataclass(frozen=True)
class TranspileResponse:
    candidates: tuple[Candidate, ...]
    backend_id: str


class Backend:
    """Shared transpile template: context check and beam clamping."""

    backend_id = "base"

    def __init__(self, tokenizer_spec: TokenizerSpec | None = None):
        self.tokenizer_spec = tokenizer_spec

    def transpile(self, req: TranspileRequest) -> TranspileResponse:
        if self.tokenizer_spec is not None:
            n = token_count(req.source_text, self.tokenizer_spec)
            if n > req.params.context_window:
                raise ContextOverflow(n, req.params.context_window)
        candidates = self._generate(req)
        if not candidates:
            raise BackendRefused(f"{self.backend_id}: no candidates returned")
        clamped = tuple(candidates[: req.params.num_beams])
        return TranspileResponse(clamped, self.backend_id)

    def _generate(self, req: TranspileRequest) -> list[Candidate]:
        raise NotImplementedError


class IdentityBackend(Backend):
    backend_id = "identity"

    def _generate(self, req: TranspileRequest) -> list[Candidate]:
        return [Candidate(req.source_text)]


class ReplayBackend(Backend):
    """Returns the stored ground-truth target for each known x86 source."""

    backend_id = "replay"

    def __init__(
        self,
        pairs: list[TranspilePair],
        tokenizer_spec: TokenizerSpec | None = None,
    ):
        super().__init__(tokenizer_spec)
        self._by_source = {p.x86.normalized_text: p.target.normalized_text for p in pairs}

    def _generate(self, req: TranspileRequest) -> list[Candidate]:
        target = self._by_source.get(req.source_text)
        if target is None:
            raise BackendRefused("replay: unknown source text")
        return [Candidate(target)]


# --- rule-based x86 -> ARMv5 translation -------------------------------------

#: Fixed register map.  x86-64 SysV argument registers map positionally onto
#: the ARM argument registers so calls keep working; eax shares r0 with the
#: first argument, matching both ABIs' return slot.
RULE_REGISTER_MAP = {
    "eax": "r0",
    "edi": "r0",
    "esi": "r1",
    "edx": "r2",
    "ecx": "r3",
    "ebx": "r4",
    "ebp": "fp",
    "esp": "sp",
}

_SCRATCH = "ip"  # r12: ARM intra-procedure-call scratch
_SLOT_SCRATCH = "r5"  # scratch while ip holds a stack-slot destination

_JUMP_MAP = {
    "jmp": "b",
    "je": "beq",
    "jne": "bne",
    "jl": "blt",
    "jg": "bgt",
    "jle": "ble",
    "jge": "bge",
    "js": "bmi",
    "jns": "bpl",
}

_SKIPPED = {"endbr64", "nop", "leave"}

#: Two-operand x86 mnemonics and the ARM instruction each lowers to.
_RULE_OPS = {
    "movl": "mov",
    "addl": "add",
    "subl": "sub",
    "andl": "and",
    "orl": "orr",
    "xorl": "eor",
    "cmpl": "cmp",
    "imull": "mul",
    "sall": "lsl",
    "shll": "lsl",
    "sarl": "asr",
    "shrl": "lsr",
}

_SHIFTS = {"lsl", "asr", "lsr"}

#: The operation that takes a negative immediate's magnitude instead.
_FLIPPED = {"add": "sub", "sub": "add", "cmp": "cmn"}


def _arm_imm_ok(value: int) -> bool:
    v = value & 0xFFFFFFFF
    if value < 0:
        return False
    for rot in range(0, 32, 2):
        if ((v << rot) | (v >> (32 - rot))) & 0xFFFFFFFF < 256:
            return True
    return False


class _NoRule(Exception):
    """An operand shape outside the rule subset."""


def _is_stack_slot(op: Operand) -> bool:
    return (
        op.kind is OperandKind.MEMORY
        and op.base in ("rbp", "ebp")
        and op.offset is not None
        and op.offset < 0
        and op.index is None
    )


def _reg(op: Operand) -> str | None:
    if op.kind is OperandKind.REGISTER and op.register in RULE_REGISTER_MAP:
        return RULE_REGISTER_MAP[op.register]
    return None


def _slot(op: Operand) -> str:
    return f"[fp, #{op.offset}]"


class _FnTranslator:
    """Per-function output plus the two operand lowerings every rule uses."""

    def __init__(self, lines_out: list[str]):
        self.out = lines_out

    def emit(self, text: str) -> None:
        self.out.append("\t" + text)

    def load(self, reg: str, op: Operand) -> str:
        """Put ``op`` into ``reg``: a mapped register, an immediate or a stack slot."""
        src, value = _reg(op), op.value or 0
        if src:
            if src != reg:
                self.emit(f"mov {reg}, {src}")
        elif _is_stack_slot(op):
            self.emit(f"ldr {reg}, {_slot(op)}")
        elif op.kind is not OperandKind.IMMEDIATE:
            raise _NoRule
        elif _arm_imm_ok(value):
            self.emit(f"mov {reg}, #{value}")
        elif value < 0 and _arm_imm_ok(~value & 0xFFFFFFFF):
            self.emit(f"mvn {reg}, #{~value & 0xFFFFFFFF}")
        else:
            self.emit(f"ldr {reg}, ={value}")
        return reg

    def operand(self, arm: str, op: Operand, scratch: str) -> tuple[str, str]:
        """The data-processing instruction ``arm`` and its shifter operand for ``op``.

        A mapped register or a modified immediate is used as is; a negative
        immediate flips add/sub/cmp to sub/add/cmn; anything else is loaded
        into ``scratch``.
        """
        reg = _reg(op)
        if reg:
            return arm, reg
        if op.kind is OperandKind.IMMEDIATE:
            value = op.value or 0
            if _arm_imm_ok(value):
                return arm, f"#{value}"
            if arm in _FLIPPED and _arm_imm_ok(-value):
                return _FLIPPED[arm], f"#{-value}"
        return arm, self.load(scratch, op)


def rule_translate(unit: AssemblyUnit) -> str:
    """Translate a parsed x86-64 -O0 unit to ARMv5 text.

    Supports integer scalar code: mov/add/sub/imul/and/or/xor/neg/shift with
    register, immediate and frame-slot operands, cmp, direct jumps and
    conditional jumps, call/ret, and the standard frame prologue/epilogue
    (absorbed into fixed ARM templates).  Anything else raises
    UnsupportedInstruction so callers report coverage instead of guessing.
    """
    out: list[str] = ["\t.text"]
    globl_names = {
        line.text_normalized.split()[-1]
        for line in unit.lines
        if line.kind is LineKind.DIRECTIVE
        and line.text_normalized.startswith((".globl ", ".global "))
    }

    for span in unit.functions:
        fn = _FnTranslator(out)
        body = unit.lines[span.start_line : span.end_line]

        # frame size: widest stack slot used anywhere in the function
        max_slot = 0
        for line in body:
            if line.instruction:
                for op in line.instruction.operands:
                    if _is_stack_slot(op):
                        max_slot = max(max_slot, -op.offset)  # type: ignore[operator]
        frame = (max_slot + 7) & ~7

        if span.name in globl_names:
            out.append(f"\t.globl {span.name}")
        out.append(f"\t.type {span.name}, %function")
        out.append(f"{span.name}:")
        fn.emit("push {r4, r5, fp, lr}")
        fn.emit("mov fp, sp")
        if frame:
            fn.emit(f"sub sp, sp, #{frame}")

        for offset_in_fn, line in enumerate(body):
            if line.kind is LineKind.LABEL and offset_in_fn > 0:
                out.append(line.text_normalized)
                continue
            if line.kind is not LineKind.INSTRUCTION:
                continue
            insn = line.instruction
            assert insn is not None
            try:
                _translate_instruction(fn, insn.mnemonic, insn.operands)
            except _NoRule:
                lineno = span.start_line + offset_in_fn + 1
                raise UnsupportedInstruction(insn.mnemonic, lineno) from None

    return "\n".join(out) + "\n"


def _translate_instruction(fn: _FnTranslator, m: str, ops: tuple[Operand, ...]) -> None:
    if m in _SKIPPED:
        return
    # frame saves are absorbed: the fixed ARM prologue already stores fp/lr
    # and the callee-saved r4 (= ebx)
    if m == "pushq" and len(ops) == 1 and ops[0].register in ("rbp", "rbx"):
        return
    if m == "popq" and len(ops) == 1 and ops[0].register in ("rbp", "rbx"):
        return
    if m == "movq" and len(ops) == 2 and ops[0].register == "rsp" and ops[1].register == "rbp":
        return
    if m == "movq" and len(ops) == 2 and (
        (ops[1].register == "rbx" and _is_stack_slot(ops[0]))
        or (ops[0].register == "rbx" and _is_stack_slot(ops[1]))
    ):
        return  # callee-save spill/restore of rbx; the prologue handles r4
    if m in ("subq", "addq") and len(ops) == 2 and ops[1].register == "rsp":
        return  # frame allocation is recomputed from slot usage
    if m == "ret":
        fn.emit("mov sp, fp")
        fn.emit("pop {r4, r5, fp, pc}")
        return
    if m == "call" and len(ops) == 1 and ops[0].kind is OperandKind.LABEL_REF:
        fn.emit(f"bl {ops[0].text}")
        return
    if m in _JUMP_MAP and len(ops) == 1 and ops[0].kind is OperandKind.LABEL_REF:
        fn.emit(f"{_JUMP_MAP[m]} {ops[0].text}")
        return
    if m == "negl" and len(ops) == 1 and (reg := _reg(ops[0])):
        fn.emit(f"rsb {reg}, {reg}, #0")
        return

    arm = _RULE_OPS.get(m)
    if arm == "mul" and len(ops) == 3 and ops[0].kind is OperandKind.IMMEDIATE:
        imm, src, dst = ops
        dreg = _reg(dst)
        if not dreg or src.kind is OperandKind.IMMEDIATE:
            raise _NoRule
        sreg = _reg(src) or fn.load(dreg, src)
        fn.load(_SCRATCH, imm)
        fn.emit(f"mul {dreg}, {_SCRATCH}, {sreg}")
        return
    if arm is None or len(ops) != 2:
        raise _NoRule
    src, dst = ops  # AT&T order: cmp computes dst - src
    dreg = _reg(dst)
    if not dreg and (
        arm == "mul" or arm in _SHIFTS or not _is_stack_slot(dst) or _is_stack_slot(src)
    ):
        raise _NoRule  # x86 has no memory-to-memory form either
    if arm == "mov":
        if dreg:
            fn.load(dreg, src)
        else:
            sreg = _reg(src) or fn.load(_SCRATCH, src)
            fn.emit(f"str {sreg}, {_slot(dst)}")
    elif arm == "mul":
        # no immediate form, and ARMv5 wants Rd != Rm: a source that is the
        # destination is copied to the scratch register first
        sreg = _reg(src)
        rm = sreg if sreg not in (None, dreg) else fn.load(_SCRATCH, src)
        fn.emit(f"mul {dreg}, {rm}, {rm if sreg == dreg else dreg}")
    elif arm in _SHIFTS:
        if src.kind is not OperandKind.IMMEDIATE:
            raise _NoRule
        # x86 masks a 32-bit shift count to 5 bits; a count of 0 changes nothing
        if count := (src.value or 0) & 31:
            fn.emit(f"{arm} {dreg}, {dreg}, #{count}")
    else:
        # a stack-slot destination is read into ip, modified and written
        # back, so its operand's scratch register is r5
        rd = dreg or fn.load(_SCRATCH, dst)
        arm, operand = fn.operand(arm, src, _SCRATCH if dreg else _SLOT_SCRATCH)
        if arm in ("cmp", "cmn"):
            fn.emit(f"{arm} {rd}, {operand}")
        else:
            fn.emit(f"{arm} {rd}, {rd}, {operand}")
            if not dreg:
                fn.emit(f"str {rd}, {_slot(dst)}")


class RuleBackend(Backend):
    backend_id = "rule"
    target_isa = IsaName.ARMV5  # the one ISA its rules emit

    def _generate(self, req: TranspileRequest) -> list[Candidate]:
        if req.target_isa is not self.target_isa:
            raise BackendRefused(f"rule backend only targets {self.target_isa.value}")
        unit = parse_assembly(req.source_text, IsaName.X86_64, source_id="rule-input")
        return [Candidate(rule_translate(unit))]


_MAX_IN_FLIGHT = 4  # concurrent requests per RemoteBackend


class RemoteBackend(Backend):
    """HTTP JSON completions client for any served model.

    POST {endpoint}/v1/completions with {prompt, max_tokens, temperature, n},
    temperature always 0; expects {"choices": [{"text": ...}, ...]}.  Retries
    are bounded and safe because decoding is deterministic.
    """

    backend_id = "remote"

    def __init__(
        self,
        endpoint: str,
        tokenizer_spec: TokenizerSpec | None = None,
        preamble: str = DEFAULT_PROMPT_PREAMBLE,
        timeout_s: float = 120.0,
        max_retries: int = 3,
    ):
        super().__init__(tokenizer_spec)
        self.endpoint = endpoint.rstrip("/")
        self.preamble = preamble
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self._gate = threading.Semaphore(_MAX_IN_FLIGHT)

    def _generate(self, req: TranspileRequest) -> list[Candidate]:
        payload = {
            "prompt": f"{self.preamble}\n{req.source_text}",
            "max_tokens": req.params.max_new_tokens,
            "temperature": 0.0,
            "n": req.params.num_beams,
        }
        # imported here: only remote runs pay for the HTTP client
        import http.client
        import urllib.error
        import urllib.request

        url = f"{self.endpoint}/v1/completions"
        data = json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            try:
                request = urllib.request.Request(
                    url, data=data, headers={"Content-Type": "application/json"}
                )
                with self._gate, urllib.request.urlopen(
                    request, timeout=self.timeout_s
                ) as response:
                    status, raw = response.status, response.read()
            except urllib.error.HTTPError as exc:
                with exc:
                    raw = exc.read()
                raise BackendRefused(
                    f"server returned {exc.code}: {raw.decode('utf-8', 'replace')[:400]}"
                ) from exc
            except (OSError, http.client.HTTPException) as exc:
                # URLError, TimeoutError, refused or reset connections, a body
                # cut short (IncompleteRead), a reply that is not HTTP
                last_error = exc
                time.sleep(min(2**attempt, 8) * 0.1)
                continue
            except ValueError as exc:  # an endpoint urllib cannot parse
                raise BackendUnavailable(f"bad endpoint {url!r}: {exc}") from exc
            if status != 200:
                raise BackendRefused(
                    f"server returned {status}: {raw.decode('utf-8', 'replace')[:400]}"
                )
            try:
                choices = json.loads(raw)["choices"]
                return [Candidate(c["text"]) for c in choices]
            except (ValueError, KeyError, TypeError) as exc:
                raise BackendRefused(f"malformed completion body: {exc}") from exc
        raise BackendUnavailable(
            f"no response from {url} after {self.max_retries} attempts: "
            f"{type(last_error).__name__}: {last_error}"
        )


def check_target(name: str, target: IsaName) -> None:
    """Raise ``ValueError`` where backend ``name`` can never emit ``target``:
    a usage error, found before any pair compiles."""
    if name == RuleBackend.backend_id and target is not RuleBackend.target_isa:
        raise ValueError(f"rule backend only targets {RuleBackend.target_isa.value}")


def make_backend(
    name: str,
    pairs: list[TranspilePair] | None = None,
    endpoint: str | None = None,
    tokenizer_spec: TokenizerSpec | None = None,
    preamble: str = DEFAULT_PROMPT_PREAMBLE,
) -> Backend:
    if name == "identity":
        return IdentityBackend(tokenizer_spec)
    if name == "replay":
        return ReplayBackend(pairs or [], tokenizer_spec)
    if name == "rule":
        return RuleBackend(tokenizer_spec)
    if name == "remote":
        if not endpoint:
            raise ValueError("remote backend needs an endpoint")
        return RemoteBackend(endpoint, tokenizer_spec, preamble=preamble)
    raise ValueError(f"unknown backend {name!r}")
