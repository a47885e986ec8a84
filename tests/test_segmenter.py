from __future__ import annotations

import pytest

from xisa.asmtext import LineKind, parse_assembly
from xisa.core import IsaName
from xisa.segmenter import (
    END_MARKER,
    segment_text,
    segment_unit,
)
from xisa.tokenizer import BYTE_BASELINE, build_vocab, token_count


def make_unit(body: str, name: str = "f"):
    text = f"\t.type {name}, %function\n{name}:\n{body}"
    return parse_assembly(text, IsaName.ARMV5)


def block_of(chars: int, label: str | None = None) -> list[str]:
    """Lines whose normalized segment text totals ~chars bytes (byte tokens)."""
    lines = []
    if label:
        lines.append(f"{label}:")
        chars -= len(label) + 2  # "label:" plus newline
    while chars > 0:
        width = min(chars, 50)
        if width < 12:
            width = 12
        body = "mov r0, r0" + ", r0" * max(0, (width - 11) // 4)
        lines.append("\t" + body)
        chars -= len(body) + 1
    return lines


def test_single_segment_when_under_budget():
    unit = make_unit("\tmov r0, #1\n\tbx lr\n")
    segments = segment_unit(unit, BYTE_BASELINE, budget=1024)
    assert len(segments) == 1
    seg = segments[0]
    assert seg.function_name == "f"
    assert seg.index == 0
    assert not seg.budget_violation
    assert seg.boundary_labels == ("f", END_MARKER)


def test_three_blocks_pack_two_plus_one():
    # three ~400-token blocks with a 1024 budget: first two fit, third spills
    b1 = block_of(390)
    b2 = block_of(390, label=".L1")
    b3 = block_of(390, label=".L2")
    unit = make_unit("\n".join(b1 + b2 + b3) + "\n")
    segments = segment_unit(unit, BYTE_BASELINE, budget=1024)
    assert len(segments) == 2
    first, second = segments
    assert first.token_count <= 1024 and second.token_count <= 1024
    assert not first.budget_violation and not second.budget_violation
    assert first.boundary_labels == ("f", ".L2")
    assert second.boundary_labels == (".L2", END_MARKER)
    # the second label's block stayed whole inside the first segment
    assert any(".L1:" == ln.text_normalized for ln in first.lines)


def test_oversized_block_splits_with_violation_flag():
    lines = block_of(1500)
    unit = make_unit("\n".join(lines) + "\n")
    segments = segment_unit(unit, BYTE_BASELINE, budget=1024)
    assert len(segments) == 2
    assert all(seg.budget_violation for seg in segments)
    assert all(seg.token_count <= 1024 for seg in segments)


def test_reconstruction_property(arm_corpus_units):
    for unit in arm_corpus_units:
        segments = segment_unit(unit, BYTE_BASELINE, budget=256)
        by_fn: dict[str, list] = {}
        for seg in segments:
            by_fn.setdefault(seg.function_name, []).append(seg)
        for span in unit.functions:
            segs = sorted(by_fn.get(span.name, []), key=lambda s: s.index)
            rebuilt = tuple(line for seg in segs for line in seg.lines)
            assert rebuilt == unit.lines[span.start_line : span.end_line]


def test_budget_respected_unless_flagged(arm_corpus_units):
    for unit in arm_corpus_units:
        for budget in (64, 256, 1024):
            for seg in segment_unit(unit, BYTE_BASELINE, budget=budget):
                if not seg.budget_violation:
                    assert seg.token_count <= budget


def test_segmentation_deterministic(arm_corpus_units):
    unit = arm_corpus_units[0]
    assert segment_unit(unit, BYTE_BASELINE, 128) == segment_unit(
        unit, BYTE_BASELINE, 128
    )


def test_segment_text_roundtrip():
    unit = make_unit("\tmov r0, #1\n\tbx lr\n")
    seg = segment_unit(unit, BYTE_BASELINE, 1024)[0]
    assert segment_text(seg.lines) == "f:\nmov r0, #1\nbx lr\n"


def oracle_packing(unit, spec, budget):
    """Whole-text packer: re-tokenizes every run it tries.

    Returns (function, lines, violation) per segment, in order.
    """
    def cost(lines):
        return token_count(segment_text(tuple(lines)), spec)

    out = []
    for span in unit.functions:
        blocks = []
        for line in unit.lines[span.start_line : span.end_line]:
            if line.kind is LineKind.LABEL or not blocks:
                blocks.append([])
            blocks[-1].append(line)
        current = []
        for block in blocks:
            if current and cost(current + block) > budget:
                out.append((span.name, tuple(current), False))
                current = []
            if not current and cost(block) > budget:
                chunk = []
                for line in block:
                    if chunk and cost(chunk + [line]) > budget:
                        out.append((span.name, tuple(chunk), True))
                        chunk = []
                    chunk.append(line)
                if chunk:
                    out.append((span.name, tuple(chunk), True))
                continue
            current.extend(block)
        if current:
            out.append((span.name, tuple(current), False))
    return out


@pytest.mark.parametrize("budget", [64, 256, 1024])
@pytest.mark.parametrize("vocab", ["byte", "top64"])
def test_per_line_costs_match_whole_text_packer(arm_corpus_units, vocab, budget):
    spec = BYTE_BASELINE if vocab == "byte" else build_vocab(arm_corpus_units, top_k=64)
    for unit in arm_corpus_units:
        segments = segment_unit(unit, spec, budget)
        got = [(s.function_name, s.lines, s.budget_violation) for s in segments]
        assert got == oracle_packing(unit, spec, budget)
        for seg in segments:
            assert seg.token_count == token_count(segment_text(seg.lines), spec)
