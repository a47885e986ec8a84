"""Split long assembly functions into token-budgeted, block-aligned windows.

Basic blocks are approximated by label-delimited regions of the flat text.
Whole blocks are packed greedily into segments that respect the token budget;
only a single block that alone exceeds the budget is split at instruction
granularity, and every segment produced that way carries a violation flag.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .asmtext import AssemblyUnit, Line, LineKind
from .tokenizer import TokenizerSpec, token_count

END_MARKER = "<end>"
ENTRY_MARKER = "<entry>"


@dataclass(frozen=True)
class Segment:
    function_name: str
    index: int
    lines: tuple[Line, ...]
    token_count: int
    boundary_labels: tuple[str, str]
    budget_violation: bool = False


def segment_text(lines: tuple[Line, ...]) -> str:
    if not lines:
        return ""
    return "\n".join(line.text_normalized for line in lines) + "\n"


def _leading_label(lines: Sequence[Line]) -> str:
    if lines and lines[0].kind is LineKind.LABEL:
        return lines[0].text_normalized.rstrip(":")
    return ENTRY_MARKER


def segment_unit(
    unit: AssemblyUnit, spec: TokenizerSpec, budget: int
) -> list[Segment]:
    """Per function, pack label-delimited blocks greedily under the budget.

    Each line is costed once, with its newline.  Entries hold no whitespace,
    so no token spans a line end, and the costs of a run of lines sum to the
    token count of its ``segment_text``.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    segments: list[Segment] = []
    for span in unit.functions:
        blocks: list[list[tuple[Line, int]]] = []
        for line in unit.lines[span.start_line : span.end_line]:
            if line.kind is LineKind.LABEL or not blocks:
                blocks.append([])
            blocks[-1].append((line, token_count(line.text_normalized + "\n", spec)))

        # runs of [lines, tokens, owner]: owner is None for a run of whole
        # blocks, or the index of the oversized block whose lines it holds
        packed: list[list] = []
        for b, block in enumerate(blocks):
            tokens = sum(cost for _, cost in block)
            if tokens <= budget:
                pieces = [([line for line, _ in block], tokens, None)]
            else:  # oversized block: fall back to instruction granularity
                pieces = [([line], cost, b) for line, cost in block]
            for lines, cost, owner in pieces:
                if packed and packed[-1][2] == owner and packed[-1][1] + cost <= budget:
                    packed[-1][0] += lines
                    packed[-1][1] += cost
                else:
                    packed.append([lines, cost, owner])

        for index, (seg_lines, tokens, owner) in enumerate(packed):
            trailing = END_MARKER
            if index + 1 < len(packed):
                trailing = _leading_label(packed[index + 1][0])
            segments.append(
                Segment(
                    function_name=span.name,
                    index=index,
                    lines=tuple(seg_lines),
                    token_count=tokens,
                    boundary_labels=(_leading_label(seg_lines), trailing),
                    budget_violation=owner is not None,
                )
            )
    return segments

