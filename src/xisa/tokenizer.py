"""Assembly-aware tokenizer: extended vocabulary over a one-character fallback.

The extended vocabulary holds frequent mnemonics and register names so that
instruction atoms like ``ldr`` or ``r1`` stay single tokens.  Matching is
greedy longest-match, constrained to token boundaries: an identifier-edged
entry never matches inside a longer identifier run (``ldr`` does not split
``ldrb``).  Any other character is a token of its own.  Tokenization is
lossless: the concatenation of the emitted tokens always equals the input text.

This models tokenization effects only; it does not integrate with any neural
model's vocabulary.
"""
from __future__ import annotations

import hashlib
import re
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .asmtext import AssemblyUnit, OperandKind
from .core import atomic_write

_IDENT_CLASS = "[A-Za-z0-9_.]"


def _sorted_entries(entries: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(set(entries), key=lambda e: (-len(e), e)))


@dataclass(frozen=True)
class TokenizerSpec:
    """Extended vocabulary in greedy longest-match order."""

    isa_scope: frozenset[str] = frozenset()
    extended_entries: tuple[str, ...] = ()
    version: str = "empty"
    pattern: re.Pattern[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for e in self.extended_entries:
            if not e:
                raise ValueError("empty vocabulary entry")
            if any(c.isspace() for c in e):
                raise ValueError(f"vocabulary entry contains whitespace: {e!r}")
        if len(set(self.extended_entries)) != len(self.extended_entries):
            raise ValueError("duplicate vocabulary entries")
        if self.extended_entries != _sorted_entries(self.extended_entries):
            raise ValueError("entries not in greedy longest-match order")
        alternatives = [_entry_pattern(e) for e in self.extended_entries]
        pattern = re.compile("|".join([*alternatives, "."]), re.DOTALL)
        object.__setattr__(self, "pattern", pattern)


def _entry_pattern(entry: str) -> str:
    """One alternative of the spec's pattern, with its boundary checks.

    The lookbehind follows the first literal, so that sre can still skip the
    alternative by its first character; it then looks at that character and
    the one before it.
    """
    head, tail = re.escape(entry[0]), re.escape(entry[1:])
    if re.fullmatch(_IDENT_CLASS, entry[0]):
        head += f"(?<!{_IDENT_CLASS}.)"
    if re.fullmatch(_IDENT_CLASS, entry[-1]):
        tail += f"(?!{_IDENT_CLASS})"
    return head + tail


@dataclass(frozen=True)
class TokenStream:
    tokens: tuple[str, ...]


def make_spec(
    entries: Iterable[str],
    isa_scope: Iterable[str] = (),
    version: str | None = None,
) -> TokenizerSpec:
    """Build a spec from entries, sorting them into match order."""
    ordered = _sorted_entries(entries)
    if version is None:
        digest = hashlib.sha256("\n".join(ordered).encode()).hexdigest()[:8]
        version = f"v1-{digest}"
    return TokenizerSpec(
        isa_scope=frozenset(isa_scope),
        extended_entries=ordered,
        version=version,
    )


def build_vocab(corpus: Iterable[AssemblyUnit], top_k: int) -> TokenizerSpec:
    """Vocabulary of the top_k most frequent mnemonics plus all observed registers.

    Counts are aggregated over the whole corpus before selection, so the
    result does not depend on corpus order.  Frequency ties break
    lexicographically.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    mnemonic_counts: Counter[str] = Counter()
    registers: set[str] = set()
    isa_scope: set[str] = set()
    seen_any = False
    for unit in corpus:
        seen_any = True
        isa_scope.add(unit.isa.value)
        for line in unit.lines:
            if line.instruction is None:
                continue
            mnemonic_counts[line.instruction.mnemonic] += 1
            for op in line.instruction.operands:
                if op.kind is OperandKind.REGISTER and op.register:
                    registers.add(op.register)
    if not seen_any:
        raise ValueError("empty corpus")
    ranked = sorted(mnemonic_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    picked = {name for name, _ in ranked[:top_k]}
    return make_spec(picked | registers, isa_scope=isa_scope)


def tokenize(text: str, spec: TokenizerSpec) -> TokenStream:
    """Tokenize text under the spec; pure and lossless."""
    return TokenStream(tokens=tuple(spec.pattern.findall(text)))


def token_count(text: str, spec: TokenizerSpec) -> int:
    return len(tokenize(text, spec).tokens)


def token_reduction_ratio(
    corpus: Iterable[str], base: TokenizerSpec, extended: TokenizerSpec
) -> float:
    """1 - (mean tokens under extended / mean tokens under base)."""
    base_counts: list[int] = []
    ext_counts: list[int] = []
    for text in corpus:
        base_counts.append(token_count(text, base))
        ext_counts.append(token_count(text, extended))
    if not base_counts:
        raise ValueError("empty corpus")
    mean_base = sum(base_counts) / len(base_counts)
    mean_ext = sum(ext_counts) / len(ext_counts)
    if mean_base == 0:
        return 0.0
    return 1.0 - mean_ext / mean_base


_HEADER_PREFIX = "# xisa vocab"


def save_vocab(spec: TokenizerSpec, path: str | Path) -> None:
    """Write the newline-delimited vocabulary file, renamed into place."""
    lines = [
        f"{_HEADER_PREFIX} v1",
        f"version = {spec.version}",
        f"isa_scope = {','.join(sorted(spec.isa_scope))}",
        "fallback = byte",
        "---",
    ]
    lines.extend(spec.extended_entries)
    atomic_write(path, ["\n".join(lines) + "\n"])


def load_vocab(path: str | Path) -> TokenizerSpec:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise ValueError(f"{path}: not a vocabulary file")
    meta: dict[str, str] = {}
    body_start = None
    for i, line in enumerate(lines[1:], start=1):
        if line.strip() == "---":
            body_start = i + 1
            break
        key, _, value = line.partition("=")
        meta[key.strip()] = value.strip()
    if body_start is None:
        raise ValueError(f"{path}: missing --- separator")
    if meta.get("fallback", "byte") != "byte":
        raise ValueError(f"{path}: unsupported fallback {meta['fallback']!r}")
    entries = [ln for ln in lines[body_start:] if ln]
    scope = frozenset(s for s in meta.get("isa_scope", "").split(",") if s)
    return TokenizerSpec(
        isa_scope=scope,
        extended_entries=_sorted_entries(entries),
        version=meta.get("version", "unknown"),
    )


#: Base spec used as the no-vocabulary reference point.
BYTE_BASELINE = TokenizerSpec(version="byte-baseline")
