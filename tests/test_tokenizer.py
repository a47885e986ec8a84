from __future__ import annotations

import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xisa.asmtext import parse_assembly
from xisa.core import IsaName
from xisa.errors import MalformedRecord
from xisa.tokenizer import (
    BYTE_BASELINE,
    TokenizerSpec,
    build_vocab,
    load_vocab,
    save_vocab,
    token_reduction_ratio,
    tokenize,
)

TABLE1_SPEC = TokenizerSpec(["ldr", "r1", "r2", "mov", "str", "add"])


def test_extended_tokenizer_keeps_instruction_atoms():
    stream = tokenize("ldr r1, r2", TABLE1_SPEC)
    assert list(stream.tokens) == ["ldr", " ", "r1", ",", " ", "r2"]
    assert len(stream.tokens) == 6


def test_byte_fallback_degenerate():
    stream = tokenize("ldr r1, r2", BYTE_BASELINE)
    assert len(stream.tokens) == 10
    assert all(len(t) == 1 for t in stream.tokens)


def test_boundary_rule_blocks_prefix_match():
    spec = TokenizerSpec(["ldr", "r3", "r2"])
    stream = tokenize("ldrb r3, [r2]", spec)
    assert "ldr" not in stream.tokens  # ldrb must not split as ldr + b
    assert "r3" in stream.tokens
    assert "".join(stream.tokens) == "ldrb r3, [r2]"


def brute_force_tokens(text: str, entries: list[str]) -> list[str]:
    """Independent greedy segmenter honoring the boundary rule."""
    ident = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.")
    ordered = sorted(set(entries), key=lambda e: (-len(e), e))
    out = []
    i = 0
    while i < len(text):
        hit = None
        for e in ordered:
            if not text.startswith(e, i):
                continue
            if e[0] in ident and i > 0 and text[i - 1] in ident:
                continue
            j = i + len(e)
            if e[-1] in ident and j < len(text) and text[j] in ident:
                continue
            hit = e
            break
        if hit is None:
            out.append(text[i])
            i += 1
        else:
            out.append(hit)
            i += len(hit)
    return out


@pytest.mark.parametrize(
    "text",
    ["ldrb r3, [r2]", "ldr r1, r2", "add r1, r2, r3", "ldr ldrb ldr", "r2r2 r2"],
)
def test_matches_brute_force_segmenter(text):
    entries = ["ldr", "r3", "r2", "add", "r1"]
    spec = TokenizerSpec(entries)
    assert list(tokenize(text, spec).tokens) == brute_force_tokens(text, entries)


def test_build_vocab_frequency_ordering():
    text_a = "\n".join(["mov r0, r1"] * 100 + ["ldr r0, [r1]"] * 80)
    unit = parse_assembly(text_a, IsaName.ARMV5)
    spec = build_vocab([unit], top_k=1)
    assert "mov" in spec.extended_entries
    assert "ldr" not in spec.extended_entries
    assert "r0" in spec.extended_entries and "r1" in spec.extended_entries


def test_build_vocab_order_independent(arm_corpus_units):
    spec_sorted = build_vocab(arm_corpus_units, top_k=16)
    shuffled = list(arm_corpus_units)
    random.Random(5).shuffle(shuffled)
    spec_shuffled = build_vocab(shuffled, top_k=16)
    assert spec_sorted == spec_shuffled


def test_build_vocab_on_frozen_corpus(arm_corpus_units):
    # expected set derived from an independent one-line frequency count over
    # the checked-in fixtures:
    #   grep -hE '^\s+[a-z]' tests/fixtures/arm_corpus/*.s | awk '{print $1}'
    #   | sort | uniq -c | sort -rn
    # -> ldr=187 str=129 b=96 add=46 sub=33 cmp=33 mov=29 bx=25 ...
    spec = build_vocab(arm_corpus_units, top_k=32)
    assert {"mov", "ldr", "str", "add", "sub", "cmp", "bl"} <= set(
        spec.extended_entries
    )
    assert spec.version == "v1-b806d092"  # pair stores carry it as tokenizer_version
    top5 = build_vocab(arm_corpus_units, top_k=5)
    mnemonics_only = {
        e for e in top5.extended_entries if e in {"ldr", "str", "b", "add", "cmp", "sub", "mov"}
    }
    # tie at count 33 between cmp and sub breaks lexicographically: cmp wins
    assert mnemonics_only == {"ldr", "str", "b", "add", "cmp"}


def test_build_vocab_rejects_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocab([], top_k=8)


def test_reduction_ratio_table1_case():
    ratio = token_reduction_ratio(["ldr r1, r2"], BYTE_BASELINE, TABLE1_SPEC)
    assert ratio == pytest.approx(0.40)


def test_reduction_ratio_identity_is_zero():
    assert token_reduction_ratio(["ldr r1, r2"], TABLE1_SPEC, TABLE1_SPEC) == 0.0


def test_reduction_ratio_positive_on_fixture_corpus(arm_corpus_units):
    spec = build_vocab(arm_corpus_units, top_k=512)
    texts = [unit.raw_text for unit in arm_corpus_units]
    ratio = token_reduction_ratio(texts, BYTE_BASELINE, spec)
    assert ratio > 0.0


def test_reduction_ratio_empty_corpus_rejected():
    with pytest.raises(ValueError):
        token_reduction_ratio([], BYTE_BASELINE, TABLE1_SPEC)


def test_spec_invariants_enforced():
    spec = TokenizerSpec(["a", "ab", "b", "a"])
    assert spec.extended_entries == ("ab", "a", "b")
    assert spec == TokenizerSpec(iter(["b", "a", "ab"]))
    assert spec.version == TokenizerSpec(["ab", "a", "b"]).version
    assert TokenizerSpec(["a"], version="mine").version == "mine"
    for bad in ("has space", "", 3):
        with pytest.raises(ValueError):
            TokenizerSpec(["ok", bad])
    # the version pair stores carry as tokenizer_version
    assert TokenizerSpec().version == "v1-e3b0c442"
    assert TokenizerSpec(["r1", "mov"]).version == "v1-" + hashlib.sha256(b"mov\nr1").hexdigest()[:8]


def test_vocab_save_load_roundtrip(tmp_path, arm_corpus_units):
    spec = build_vocab(arm_corpus_units, top_k=32)
    path = tmp_path / "vocab.ndjson"
    save_vocab(spec, path)
    [record] = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(record) == {
        "schema": "xisa.vocab/v1", "version": spec.version, "entries": list(spec.extended_entries),
    }
    again = load_vocab(path)
    assert again == spec
    assert tokenize("ldrb r3, [r2]", again) == tokenize("ldrb r3, [r2]", spec)


@pytest.mark.parametrize("text,message", [
    ("# xisa vocab v1\n---\nldr\n", ":1: not JSON"),
    ('{"schema": "xisa.vocab/v1", "version": "v", "entries": [1]}\n', ":1: bad xisa.vocab/v1"),
    ('{"schema": "xisa.vocab/v1", "entries": []}\n', ":1: bad xisa.vocab/v1"),
    ('{"schema": "xisa.vocab/v1", "version": "v", "entries": "ldr"}\n', ":1: bad xisa.vocab/v1"),
    ('{"schema": "xisa.vocab/v1", "version": 7, "entries": []}\n', ":1: bad xisa.vocab/v1"),
    ("", "0 xisa.vocab/v1 records, expected 1"),
    ('{"schema": "xisa.vocab/v1", "version": "v", "entries": []}\n' * 2,
     "2 xisa.vocab/v1 records, expected 1"),
])
def test_load_vocab_reads_exactly_one_vocab_record(tmp_path, text, message):
    path = tmp_path / "vocab.ndjson"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedRecord, match=re.escape(message)):
        load_vocab(path)


ident_entries = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.", min_size=1, max_size=6
    ),
    min_size=0,
    max_size=12,
)
asm_like_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.,#[]%$-():;@ \t\n",
    max_size=120,
)


@settings(max_examples=1000, deadline=None)
@given(text=st.text(max_size=120), entries=ident_entries)
def test_losslessness_property(text, entries):
    spec = TokenizerSpec(entries)
    assert "".join(tokenize(text, spec).tokens) == text


@settings(max_examples=1000, deadline=None)
@given(text=asm_like_text, entries=ident_entries, extra=ident_entries)
def test_monotonicity_property(text, entries, extra):
    # adding identifier-shaped entries never increases the token count
    small = TokenizerSpec(entries)
    large = TokenizerSpec(list(entries) + list(extra))
    assert len(tokenize(text, large).tokens) <= len(tokenize(text, small).tokens)


# entries that mix identifier and punctuation edges, so that every
# combination of boundary checks shows up
mixed_entries = st.lists(
    st.text(alphabet="abr01._,#[]%", min_size=1, max_size=5), max_size=12
)


@settings(max_examples=1000, deadline=None)
@given(text=asm_like_text, entries=mixed_entries)
def test_matches_brute_force_property(text, entries):
    spec = TokenizerSpec(entries)
    assert list(tokenize(text, spec).tokens) == brute_force_tokens(text, entries)


@given(text=asm_like_text, entries=ident_entries)
def test_determinism_property(text, entries):
    spec = TokenizerSpec(entries)
    assert tokenize(text, spec) == tokenize(text, spec)
