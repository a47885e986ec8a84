"""Shared domain types: ISA registry, toolchain configuration, generation
parameters, and the one writer and one reader of every file the harness keeps.

The toolchain config is a plain INI file, one section per ISA, holding command
templates with ``{input}``/``{output}`` style placeholders.  Nothing here runs
a tool; existence of the referenced executables is checked lazily at first use.
"""
from __future__ import annotations

import configparser
import contextlib
import json
import os
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import TypeVar

from .errors import ConfigError, MalformedRecord


class IsaName(str, Enum):
    X86_64 = "x86_64"
    ARMV5 = "armv5"
    ARMV8 = "armv8"
    RISCV64 = "riscv64"

    def __str__(self) -> str:  # argparse/logging friendliness
        return self.value


class SyntaxFamily(str, Enum):
    ATT = "att"
    ARM_UAL = "arm_ual"
    RISCV_STD = "riscv_std"


@dataclass(frozen=True)
class Isa:
    name: IsaName
    syntax_family: SyntaxFamily
    comment_leaders: tuple[str, ...]
    # every register name the assembler accepts -> the register it names
    registers: Mapping[str, str] = field(hash=False, compare=False)
    branch_mnemonics: frozenset[str]

    def __post_init__(self) -> None:
        if not self.registers:
            raise ValueError(f"{self.name}: register table is empty")
        if not self.comment_leaders:
            raise ValueError(f"{self.name}: no comment leaders")


def _x86_registers() -> dict[str, str]:
    base = ("rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi")
    regs: dict[str, str] = {}
    for names in (
        base,
        ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"),
        ("ax", "cx", "dx", "bx", "sp", "bp", "si", "di"),
        ("al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil"),
        ("ah", "ch", "dh", "bh"),
    ):
        regs.update(zip(names, base))
    for i in range(8, 16):
        regs.update(dict.fromkeys((f"r{i}", f"r{i}d", f"r{i}w", f"r{i}b"), f"r{i}"))
    regs["rip"] = "rip"
    return regs


def _armv5_registers() -> dict[str, str]:
    regs = {f"r{i}": f"r{i}" for i in range(16)}
    regs.update(fp="r11", ip="r12", sp="r13", lr="r14", pc="r15")
    return regs


def _armv8_registers() -> dict[str, str]:
    regs = {f"{w}{i}": f"x{i}" for w in "xw" for i in range(31)}
    regs.update(sp="sp", wsp="wsp", xzr="xzr", wzr="wzr", fp="x29", lr="x30")
    return regs


def _riscv_registers() -> dict[str, str]:
    abi = (
        "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1",
        *(f"a{i}" for i in range(8)),
        *(f"s{i}" for i in range(2, 12)),
        "t3", "t4", "t5", "t6",
    )
    regs = {f"x{i}": f"x{i}" for i in range(32)}
    regs.update((name, f"x{i}") for i, name in enumerate(abi))
    regs["fp"] = "x8"
    return regs


_ARM_CONDITIONS = (
    "eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc",
    "hi", "ls", "ge", "lt", "gt", "le", "al",
)

_REGISTRY: dict[IsaName, Isa] = {
    IsaName.X86_64: Isa(
        name=IsaName.X86_64,
        syntax_family=SyntaxFamily.ATT,
        comment_leaders=("#",),
        registers=MappingProxyType(_x86_registers()),
        branch_mnemonics=frozenset(
            {"jmp", "call", "ret"}
            | {
                "j" + cc
                for cc in (
                    "e", "ne", "z", "nz", "l", "g", "le", "ge", "a", "b",
                    "ae", "be", "s", "ns", "o", "no", "c", "nc", "p", "np",
                )
            }
        ),
    ),
    IsaName.ARMV5: Isa(
        name=IsaName.ARMV5,
        syntax_family=SyntaxFamily.ARM_UAL,
        comment_leaders=("@", "//"),
        registers=MappingProxyType(_armv5_registers()),
        branch_mnemonics=frozenset(
            {"b", "bl", "bx", "blx"} | {"b" + cc for cc in _ARM_CONDITIONS}
        ),
    ),
    IsaName.ARMV8: Isa(
        name=IsaName.ARMV8,
        syntax_family=SyntaxFamily.ARM_UAL,
        comment_leaders=("//", "@"),
        registers=MappingProxyType(_armv8_registers()),
        branch_mnemonics=frozenset(
            {"b", "bl", "br", "blr", "ret", "cbz", "cbnz", "tbz", "tbnz"}
            | {"b." + cc for cc in _ARM_CONDITIONS}
        ),
    ),
    IsaName.RISCV64: Isa(
        name=IsaName.RISCV64,
        syntax_family=SyntaxFamily.RISCV_STD,
        comment_leaders=("#",),
        registers=MappingProxyType(_riscv_registers()),
        branch_mnemonics=frozenset(
            {
                "beq", "bne", "blt", "bge", "bltu", "bgeu",
                "beqz", "bnez", "blez", "bgez", "bltz", "bgtz",
                "j", "jal", "jalr", "jr", "call", "tail", "ret",
            }
        ),
    ),
}


def get_isa(name: IsaName | str) -> Isa:
    return _REGISTRY[IsaName(name)]


@dataclass(frozen=True)
class GenerationParams:
    """Decoding knobs forwarded to transpiler backends.

    Decoding is deterministic: a conforming backend must return identical
    candidate text for identical requests.
    """

    num_beams: int = 1
    max_new_tokens: int = 8192
    context_window: int = 16384

    def __post_init__(self) -> None:
        if self.num_beams < 1:
            raise ValueError("num_beams must be >= 1")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.context_window < 1:
            raise ValueError("context_window must be >= 1")


@dataclass(frozen=True)
class IsaCommands:
    """Command templates for one ISA.

    ``compile`` turns a C file into assembly ({input}, {output}, {opt}).
    ``assemble_link`` is a sequence of commands that turns a candidate .s plus
    the test driver source into a runnable binary ({candidate}, {test_src},
    {output}, {tmpdir}, {data}, {python}, {opt}).  A step's placeholders
    decide what its failure means: a step naming {candidate} is the
    candidate's assemble error, one naming {output} its link error, and any
    other step is an infrastructure fault.  So {candidate} gets a step of its
    own, naming neither {test_src} nor {output}; ``parse_config`` enforces it.
    The steps that name neither {candidate} nor {output} are the driver
    build: they run first, in order, in a {tmpdir} of their own, once per
    distinct input in a process, and read only the files named on their
    command lines or written by earlier driver steps; the other steps follow
    in order.
    ``emulate`` runs the binary ({input}); a bare ``{input}`` means native
    execution.
    """

    compile: str = ""
    assemble_link: tuple[str, ...] = ()
    emulate: str = ""


_GLOBAL_SECTION = "global"
_KNOWN_GLOBAL_KEYS = {
    "opt_level",
    "timeout_compile",
    "timeout_run",
    "prompt_preamble",
}
_KNOWN_ISA_KEYS = {"compile", "assemble_link", "emulate"}

DEFAULT_PROMPT_PREAMBLE = (
    "Translate the following x86-64 assembly into equivalent assembly for the "
    "target architecture. Reply with assembly only."
)


@dataclass(frozen=True)
class ToolchainConfig:
    """Validated per-ISA toolchain command set plus run parameters."""

    entries: dict[IsaName, IsaCommands] = field(default_factory=dict)
    optimization_level: str = "-O0"
    timeout_compile: float = 30.0
    timeout_run: float = 10.0
    prompt_preamble: str = DEFAULT_PROMPT_PREAMBLE

    def __post_init__(self) -> None:
        for name in ("timeout_compile", "timeout_run"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")

    def commands(self, isa: IsaName | str) -> IsaCommands:
        name = IsaName(isa)
        try:
            return self.entries[name]
        except KeyError:
            raise ConfigError(f"no toolchain entry for ISA {name.value!r}") from None

    def require(self, isa: IsaName | str, *fields_needed: str) -> IsaCommands:
        """Fetch commands for ``isa`` insisting the named fields are non-empty."""
        cmds = self.commands(isa)
        for f in fields_needed:
            value = getattr(cmds, f)
            if not value:
                raise ConfigError(
                    f"toolchain entry for {IsaName(isa).value!r} lacks {f!r}"
                )
        return cmds


def parse_config(text: str) -> ToolchainConfig:
    """Parse config text.  Environment variables in commands are expanded."""
    cp = configparser.RawConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    if not cp.sections():
        raise ConfigError("config parse failure: empty config")

    opt_level = "-O0"
    timeouts: dict[str, float] = {}
    preamble = DEFAULT_PROMPT_PREAMBLE
    if cp.has_section(_GLOBAL_SECTION):
        for key in cp.options(_GLOBAL_SECTION):
            if key not in _KNOWN_GLOBAL_KEYS:
                raise ConfigError(f"unknown key {key!r} in [global]")
        opt_level = cp.get(_GLOBAL_SECTION, "opt_level", fallback=opt_level)
        preamble = cp.get(_GLOBAL_SECTION, "prompt_preamble", fallback=preamble)
        for key in ("timeout_compile", "timeout_run"):
            raw = cp.get(_GLOBAL_SECTION, key, fallback=None)
            if raw is not None:
                try:
                    timeouts[key] = float(raw)
                except ValueError:
                    raise ConfigError(f"{key} is not a number: {raw!r}") from None

    entries: dict[IsaName, IsaCommands] = {}
    for section in cp.sections():
        if section == _GLOBAL_SECTION:
            continue
        try:
            isa = IsaName(section)
        except ValueError:
            raise ConfigError(f"unknown ISA section [{section}]") from None
        for key in cp.options(section):
            if key not in _KNOWN_ISA_KEYS:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
        compile_cmd = os.path.expandvars(cp.get(section, "compile", fallback="")).strip()
        al_raw = os.path.expandvars(cp.get(section, "assemble_link", fallback=""))
        assemble_link = tuple(
            line.strip() for line in al_raw.splitlines() if line.strip()
        )
        for step in assemble_link:
            if "{candidate}" in step and ("{test_src}" in step or "{output}" in step):
                raise ConfigError(
                    f"[{section}] assemble_link step names {{candidate}} together "
                    f"with {{test_src}} or {{output}}; give the candidate a step "
                    f"of its own: {step}"
                )
        emulate = os.path.expandvars(cp.get(section, "emulate", fallback="")).strip()
        entries[isa] = IsaCommands(
            compile=compile_cmd, assemble_link=assemble_link, emulate=emulate
        )

    return ToolchainConfig(
        entries=entries,
        optimization_level=opt_level,
        prompt_preamble=preamble,
        **timeouts,
    )


def load_config(path: str | Path) -> ToolchainConfig:
    """Load and validate a toolchain config file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    if not text.strip():
        raise ConfigError(f"config parse failure: {p} is empty")
    return parse_config(text)


# --- files ------------------------------------------------------------------

T = TypeVar("T")


def atomic_write(path: str | Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``<path>.tmp`` and rename it into place, so a file
    that exists is complete.  A write that fails part way removes the tmp."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def write_records(path: str | Path, records: Iterable[dict]) -> None:
    """Newline-delimited JSON with sorted keys, one record a line, streamed
    from ``records`` through ``atomic_write``."""
    atomic_write(path, (json.dumps(r, sort_keys=True) + "\n" for r in records))


def read_records(
    path: str | Path,
    schema: str,
    decode: Callable[[dict], T],
) -> Iterator[T]:
    """``decode(record)`` for every record of an ndjson file, in file order.
    Every line but a blank one must be a ``schema`` record: any other line
    raises MalformedRecord naming ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise MalformedRecord(f"{path}:{number}: not JSON ({exc})") from None
            kind = record.get("schema") if isinstance(record, dict) else None
            if kind != schema:
                raise MalformedRecord(f"{path}:{number}: schema {kind!r}, expected {schema!r}")
            try:
                value = decode(record)
            except (KeyError, ValueError, TypeError) as exc:
                raise MalformedRecord(f"{path}:{number}: bad {schema} record: {exc!r}") from None
            yield value
