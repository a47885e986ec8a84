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
from .core import read_records, write_records
from .errors import MalformedRecord

_IDENT_CLASS = "[A-Za-z0-9_.]"

VOCAB_SCHEMA = "xisa.vocab/v1"


@dataclass(frozen=True)
class TokenizerSpec:
    """Extended vocabulary in greedy longest-match order.

    Takes any iterable of entries, and keeps each once, longest first, ties
    by text.  Without a version, the version is ``v1-`` and the first 8 hex
    digits of the SHA-256 of the ordered entries.
    """

    extended_entries: tuple[str, ...] = ()
    version: str = ""
    pattern: re.Pattern[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        entries = list(self.extended_entries)
        for e in entries:
            if not isinstance(e, str):
                raise ValueError(f"vocabulary entry is not a string: {e!r}")
            if not e:
                raise ValueError("empty vocabulary entry")
            if any(c.isspace() for c in e):
                raise ValueError(f"vocabulary entry contains whitespace: {e!r}")
        ordered = tuple(sorted(set(entries), key=lambda e: (-len(e), e)))
        object.__setattr__(self, "extended_entries", ordered)
        if not self.version:
            digest = hashlib.sha256("\n".join(ordered).encode()).hexdigest()[:8]
            object.__setattr__(self, "version", f"v1-{digest}")
        alternatives = [_entry_pattern(e) for e in ordered]
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
    seen_any = False
    for unit in corpus:
        seen_any = True
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
    return TokenizerSpec(picked | registers)


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


def save_vocab(spec: TokenizerSpec, path: str | Path) -> None:
    """Write the vocabulary as one ``xisa.vocab/v1`` record."""
    record = {"schema": VOCAB_SCHEMA, "version": spec.version, "entries": spec.extended_entries}
    write_records(path, [record])


def record_to_spec(record: dict) -> TokenizerSpec:
    entries, version = record["entries"], record["version"]
    if not isinstance(entries, list) or not isinstance(version, str):
        raise ValueError("entries must be a list and version a string")
    return TokenizerSpec(entries, version)


def load_vocab(path: str | Path) -> TokenizerSpec:
    """The spec of a vocabulary file, which holds exactly one record."""
    specs = list(read_records(path, VOCAB_SCHEMA, record_to_spec))
    if len(specs) != 1:
        raise MalformedRecord(f"{path}: {len(specs)} {VOCAB_SCHEMA} records, expected 1")
    return specs[0]


#: Base spec used as the no-vocabulary reference point.
BYTE_BASELINE = TokenizerSpec(version="byte-baseline")
