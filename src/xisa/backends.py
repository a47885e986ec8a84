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

All backends are deterministic when sampling is disabled: equal requests
yield equal candidate text.
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
    source_text: str
    target_isa: IsaName
    source_isa: IsaName = IsaName.X86_64
    params: GenerationParams = field(default_factory=GenerationParams)

    def __post_init__(self) -> None:
        if self.source_isa is not IsaName.X86_64:
            raise ValueError("only x86_64 sources are supported")
        # x86_64 is a valid target too: self-translation needs only gcc
        object.__setattr__(self, "target_isa", IsaName(self.target_isa))


@dataclass(frozen=True)
class Candidate:
    text: str
    score: float | None = None


@dataclass(frozen=True)
class TranspileResponse:
    candidates: tuple[Candidate, ...]
    backend_id: str
    latency_ms: float


class Backend:
    """Shared transpile template: context check, timing, beam clamping."""

    backend_id = "base"

    def __init__(self, tokenizer_spec: TokenizerSpec | None = None):
        self.tokenizer_spec = tokenizer_spec

    def transpile(self, req: TranspileRequest) -> TranspileResponse:
        if self.tokenizer_spec is not None:
            n = token_count(req.source_text, self.tokenizer_spec)
            if n > req.params.context_window:
                raise ContextOverflow(n, req.params.context_window)
        start = time.perf_counter()
        candidates = self._generate(req)
        latency_ms = (time.perf_counter() - start) * 1000.0
        if not candidates:
            raise BackendRefused(f"{self.backend_id}: no candidates returned")
        clamped = tuple(candidates[: req.params.num_beams])
        return TranspileResponse(clamped, self.backend_id, latency_ms)

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

_ARITH_MAP = {
    "addl": "add",
    "subl": "sub",
    "andl": "and",
    "orl": "orr",
    "xorl": "eor",
}

_SHIFT_MAP = {"sall": "lsl", "shll": "lsl", "sarl": "asr", "shrl": "lsr"}


def _arm_imm_ok(value: int) -> bool:
    v = value & 0xFFFFFFFF
    if value < 0:
        return False
    for rot in range(0, 32, 2):
        if ((v << rot) | (v >> (32 - rot))) & 0xFFFFFFFF < 256:
            return True
    return False


class _FnTranslator:
    """Per-function template translation state."""

    def __init__(self, name: str, lines_out: list[str]):
        self.name = name
        self.out = lines_out

    def emit(self, text: str) -> None:
        self.out.append("\t" + text)

    def emit_label(self, text: str) -> None:
        self.out.append(text)

    def load_imm(self, reg: str, value: int) -> None:
        if _arm_imm_ok(value):
            self.emit(f"mov {reg}, #{value}")
        elif value < 0 and _arm_imm_ok(~value & 0xFFFFFFFF):
            self.emit(f"mvn {reg}, #{~value & 0xFFFFFFFF}")
        else:
            self.emit(f"ldr {reg}, ={value}")

    def slot(self, op: Operand) -> str:
        assert op.offset is not None
        return f"[fp, #{op.offset}]"


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
        fn = _FnTranslator(span.name, out)
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
        fn.emit_label(f"{span.name}:")
        fn.emit("push {r4, r5, fp, lr}")
        fn.emit("mov fp, sp")
        if frame:
            fn.emit(f"sub sp, sp, #{frame}")

        for offset_in_fn, line in enumerate(body):
            lineno = span.start_line + offset_in_fn + 1
            if line.kind is LineKind.LABEL and offset_in_fn > 0:
                fn.emit_label(line.text_normalized)
                continue
            if line.kind is not LineKind.INSTRUCTION:
                continue
            _translate_instruction(fn, line.instruction, lineno)  # type: ignore[arg-type]

    return "\n".join(out) + "\n"


def _translate_instruction(fn: _FnTranslator, insn, lineno: int) -> None:
    m = insn.mnemonic
    ops = insn.operands

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

    if m == "movl" and len(ops) == 2:
        src, dst = ops
        dreg = _reg(dst)
        sreg = _reg(src)
        if sreg and dreg:
            if sreg != dreg:
                fn.emit(f"mov {dreg}, {sreg}")
            return
        if src.kind is OperandKind.IMMEDIATE and dreg:
            fn.load_imm(dreg, src.value)  # type: ignore[arg-type]
            return
        if _is_stack_slot(src) and dreg:
            fn.emit(f"ldr {dreg}, {fn.slot(src)}")
            return
        if sreg and _is_stack_slot(dst):
            fn.emit(f"str {sreg}, {fn.slot(dst)}")
            return
        if src.kind is OperandKind.IMMEDIATE and _is_stack_slot(dst):
            fn.load_imm(_SCRATCH, src.value)  # type: ignore[arg-type]
            fn.emit(f"str {_SCRATCH}, {fn.slot(dst)}")
            return
        raise UnsupportedInstruction(m, lineno)

    if m in _ARITH_MAP and len(ops) == 2:
        arm = _ARITH_MAP[m]
        src, dst = ops
        dreg = _reg(dst)
        sreg = _reg(src)
        if sreg and dreg:
            fn.emit(f"{arm} {dreg}, {dreg}, {sreg}")
            return
        if src.kind is OperandKind.IMMEDIATE and dreg:
            value = src.value or 0
            if _arm_imm_ok(value):
                fn.emit(f"{arm} {dreg}, {dreg}, #{value}")
            elif value < 0 and arm in ("add", "sub") and _arm_imm_ok(-value):
                flipped = "sub" if arm == "add" else "add"
                fn.emit(f"{flipped} {dreg}, {dreg}, #{-value}")
            else:
                fn.load_imm(_SCRATCH, value)
                fn.emit(f"{arm} {dreg}, {dreg}, {_SCRATCH}")
            return
        if _is_stack_slot(src) and dreg:
            fn.emit(f"ldr {_SCRATCH}, {fn.slot(src)}")
            fn.emit(f"{arm} {dreg}, {dreg}, {_SCRATCH}")
            return
        if (sreg or src.kind is OperandKind.IMMEDIATE) and _is_stack_slot(dst):
            fn.emit(f"ldr {_SCRATCH}, {fn.slot(dst)}")
            if sreg:
                fn.emit(f"{arm} {_SCRATCH}, {_SCRATCH}, {sreg}")
            else:
                fn.emit(f"{arm} {_SCRATCH}, {_SCRATCH}, #{src.value}")
            fn.emit(f"str {_SCRATCH}, {fn.slot(dst)}")
            return
        raise UnsupportedInstruction(m, lineno)

    if m == "imull":
        return _translate_imul(fn, ops, lineno)

    if m == "negl" and len(ops) == 1:
        dreg = _reg(ops[0])
        if dreg:
            fn.emit(f"rsb {dreg}, {dreg}, #0")
            return
        raise UnsupportedInstruction(m, lineno)

    if m in _SHIFT_MAP and len(ops) == 2:
        src, dst = ops
        dreg = _reg(dst)
        if src.kind is OperandKind.IMMEDIATE and dreg:
            fn.emit(f"{_SHIFT_MAP[m]} {dreg}, {dreg}, #{src.value}")
            return
        raise UnsupportedInstruction(m, lineno)

    if m == "cmpl" and len(ops) == 2:
        src, dst = ops  # AT&T: computes dst - src
        dreg = _reg(dst)
        sreg = _reg(src)
        if sreg and dreg:
            fn.emit(f"cmp {dreg}, {sreg}")
            return
        if src.kind is OperandKind.IMMEDIATE and dreg:
            value = src.value or 0
            if _arm_imm_ok(value):
                fn.emit(f"cmp {dreg}, #{value}")
            elif value < 0 and _arm_imm_ok(-value):
                fn.emit(f"cmn {dreg}, #{-value}")
            else:
                fn.load_imm(_SCRATCH, value)
                fn.emit(f"cmp {dreg}, {_SCRATCH}")
            return
        if _is_stack_slot(src) and dreg:
            fn.emit(f"ldr {_SCRATCH}, {fn.slot(src)}")
            fn.emit(f"cmp {dreg}, {_SCRATCH}")
            return
        if _is_stack_slot(dst) and (sreg or src.kind is OperandKind.IMMEDIATE):
            fn.emit(f"ldr {_SCRATCH}, {fn.slot(dst)}")
            if sreg:
                fn.emit(f"cmp {_SCRATCH}, {sreg}")
            else:
                fn.emit(f"cmp {_SCRATCH}, #{src.value}")
            return
        raise UnsupportedInstruction(m, lineno)

    raise UnsupportedInstruction(m, lineno)


def _translate_imul(fn: _FnTranslator, ops, lineno: int) -> None:
    # ARMv5 requires Rd != Rm in mul; rotate through the scratch register
    # whenever source and destination collide.
    if len(ops) == 2:
        src, dst = ops
        dreg = _reg(dst)
        sreg = _reg(src)
        if sreg and dreg:
            if sreg == dreg:
                fn.emit(f"mov {_SCRATCH}, {sreg}")
                fn.emit(f"mul {dreg}, {_SCRATCH}, {_SCRATCH}")
            else:
                fn.emit(f"mul {dreg}, {sreg}, {dreg}")
            return
        if _is_stack_slot(src) and dreg:
            fn.emit(f"ldr {_SCRATCH}, {fn.slot(src)}")
            fn.emit(f"mul {dreg}, {_SCRATCH}, {dreg}")
            return
        if src.kind is OperandKind.IMMEDIATE and dreg:
            fn.load_imm(_SCRATCH, src.value or 0)
            fn.emit(f"mul {dreg}, {_SCRATCH}, {dreg}")
            return
    if len(ops) == 3:
        imm, src, dst = ops
        dreg = _reg(dst)
        sreg = _reg(src)
        if imm.kind is OperandKind.IMMEDIATE and dreg and (sreg or _is_stack_slot(src)):
            if _is_stack_slot(src):
                fn.emit(f"ldr {dreg}, {fn.slot(src)}")
                sreg = dreg
            fn.load_imm(_SCRATCH, imm.value or 0)
            fn.emit(f"mul {dreg}, {_SCRATCH}, {sreg}")
            return
    raise UnsupportedInstruction("imull", lineno)


class RuleBackend(Backend):
    backend_id = "rule"

    def _generate(self, req: TranspileRequest) -> list[Candidate]:
        if req.target_isa is not IsaName.ARMV5:
            raise BackendRefused("rule backend only targets armv5")
        unit = parse_assembly(req.source_text, IsaName.X86_64, source_id="rule-input")
        return [Candidate(rule_translate(unit))]


_MAX_IN_FLIGHT = 4  # concurrent requests per RemoteBackend


class RemoteBackend(Backend):
    """HTTP JSON completions client for any served model.

    POST {endpoint}/v1/completions with {prompt, max_tokens, temperature, n};
    expects {"choices": [{"text": ...}, ...]}.  Retries are bounded and safe
    because decoding is deterministic.
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
            "temperature": 1.0 if req.params.sampling_enabled else 0.0,
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
                return [Candidate(c["text"], c.get("score")) for c in choices]
            except (ValueError, KeyError, TypeError) as exc:
                raise BackendRefused(f"malformed completion body: {exc}") from exc
        raise BackendUnavailable(
            f"no response from {url} after {self.max_retries} attempts: "
            f"{type(last_error).__name__}: {last_error}"
        )


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
