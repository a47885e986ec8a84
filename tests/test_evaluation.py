from __future__ import annotations

import collections
import dataclasses
import json
import shutil
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIGS, FIXTURES, X86_PROFILES, needs_gcc, needs_lite
from xisa import evaluation, toolrun
from xisa.asmtext import parse_assembly
from xisa.backends import Backend, Candidate, IdentityBackend, ReplayBackend
from xisa.core import GenerationParams, IsaName, parse_config
from xisa.dataset import AsmSide, TranspilePair, compile_pair
from xisa.errors import MismatchedSuites, ToolchainError
from xisa.evaluation import (
    ErrorClass,
    EvalResult,
    OutcomeStatus,
    TestOutcome,
    build_driver,
    classify_error,
    confusion_matrix,
    evaluate_pair,
    evaluate_suite,
    levenshtein,
    load_classifier_rules,
    read_results,
    record_to_result,
    result_to_record,
    run_functional,
    score_syntactic,
    summarize,
)


# --- levenshtein --------------------------------------------------------------

def oracle_levenshtein(a: str, b: str) -> int:
    """Independent recursive-on-suffixes oracle."""

    @lru_cache(maxsize=None)
    def rec(x: str, y: str) -> int:
        if not x:
            return len(y)
        if not y:
            return len(x)
        best = rec(x[1:], y[1:]) + (x[0] != y[0])
        insert = rec(x, y[1:]) + 1
        if insert < best:
            best = insert
        delete = rec(x[1:], y) + 1
        if delete < best:
            best = delete
        return best

    return rec(a, b)


def dp_levenshtein(a, b) -> int:
    """Two-row dynamic-programming oracle, for inputs too long to recurse on."""
    row = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        diag, row[0] = row[0], i
        for j, cb in enumerate(b, 1):
            diag, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, diag + (ca != cb))
    return row[-1]


def test_levenshtein_identity():
    for s in ("", "a", "assembly text", "mov r0, #0\n"):
        assert levenshtein(s, s) == 0


def test_levenshtein_insertions():
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3


def test_levenshtein_kitten_sitting():
    assert oracle_levenshtein("kitten", "sitting") == 3  # oracle agrees
    assert levenshtein("kitten", "sitting") == 3


def test_levenshtein_line_granularity():
    a = ["mov r0, #1", "bx lr"]
    b = ["mov r0, #2", "bx lr"]
    assert levenshtein(a, b) == 1


@settings(max_examples=300, deadline=None)
@given(
    a=st.text(alphabet="abc", max_size=8),
    b=st.text(alphabet="abc", max_size=8),
    c=st.text(alphabet="abc", max_size=8),
)
def test_levenshtein_metric_axioms(a, b, c):
    d_ab = levenshtein(a, b)
    assert d_ab == levenshtein(b, a)
    assert (d_ab == 0) == (a == b)
    assert d_ab <= levenshtein(a, c) + levenshtein(c, b)


def test_dp_oracle_agrees_with_recursive_oracle():
    assert dp_levenshtein("kitten", "sitting") == 3
    for a, b in (("", "ab"), ("abc", ""), ("flaw", "lawn"), ("abcb", "bcab")):
        assert dp_levenshtein(a, b) == oracle_levenshtein(a, b)


def _edited(draw, base: list, alphabet) -> list:
    out = list(base)
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        pos = draw(st.integers(min_value=0, max_value=len(out)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        atom = draw(st.sampled_from(alphabet))
        if op == "insert":
            out.insert(pos, atom)
        elif out and pos < len(out):
            if op == "delete":
                del out[pos]
            else:
                out[pos] = atom
    return out


@st.composite
def _word_boundary_pairs(draw):
    """A string of 1, 63, 64, 65 or a few hundred atoms and an edited copy,
    so the bit-vector column ends on either side of a machine word."""
    n = draw(st.sampled_from([1, 63, 64, 65, 128, 129, 300]))
    base = draw(st.text(alphabet="abcd", min_size=n, max_size=n))
    other = "".join(_edited(draw, base, "abcde"))
    return (base, other) if draw(st.booleans()) else (other, base)


@settings(max_examples=100, deadline=None)
@given(pair=_word_boundary_pairs())
def test_levenshtein_matches_dp_across_word_boundaries(pair):
    a, b = pair
    assert levenshtein(a, b) == dp_levenshtein(a, b)


@settings(max_examples=150, deadline=None)
@given(
    a=st.text(alphabet="ab", min_size=60, max_size=70),
    b=st.text(alphabet="ab", min_size=0, max_size=140),
)
def test_levenshtein_matches_dp_on_unrelated_strings(a, b):
    assert levenshtein(a, b) == dp_levenshtein(a, b)


_LINES = ["mov r0, #1", "mov r0, #2", "ldr r3, [fp, #-8]", "bx lr", "add r1, r2, r3", ""]


@st.composite
def _line_list_pairs(draw):
    base = draw(st.lists(st.sampled_from(_LINES), max_size=90))
    return base, _edited(draw, base, _LINES + ["nop"])


@settings(max_examples=150, deadline=None)
@given(pair=_line_list_pairs())
def test_levenshtein_line_atoms_match_dp(pair):
    a, b = pair
    assert levenshtein(a, b) == dp_levenshtein(a, b)


@settings(max_examples=150, deadline=None)
@given(
    prefix=st.text(alphabet="abc", max_size=80),
    suffix=st.text(alphabet="abc", max_size=80),
    a=st.text(alphabet="abc", max_size=12),
    b=st.text(alphabet="abc", max_size=12),
)
def test_levenshtein_shared_prefix_and_suffix(prefix, suffix, a, b):
    x, y = prefix + a + suffix, prefix + b + suffix
    assert levenshtein(x, y) == dp_levenshtein(x, y)
    assert levenshtein(x, y) == levenshtein(a, b)


# --- syntactic scoring ----------------------------------------------------------

def test_exact_match_despite_comments():
    truth = "mov r0, #0\nbx lr\n"
    candidate = "@ generated\nmov r0, #0 @ return zero\n\nbx lr\n"
    distance, exact = score_syntactic(candidate, truth, IsaName.ARMV5)
    assert (distance, exact) == (0, True)


def test_single_immediate_difference_is_distance_one():
    truth = "asr r2, r2, #2\n"
    candidate = "asr r2, r2, #1\n"
    distance, exact = score_syntactic(candidate, truth, IsaName.ARMV5)
    assert (distance, exact) == (1, False)


def test_commutative_reorder_scores_nonzero():
    truth = "add r1, r2, r3\n"
    candidate = "add r1, r3, r2\n"
    distance, exact = score_syntactic(candidate, truth, IsaName.ARMV5)
    assert distance > 0 and exact is False


def test_raw_policy_counts_comments():
    truth = "mov r0, #0\n"
    candidate = "@ c\nmov r0, #0\n"
    distance, exact = score_syntactic(candidate, truth, IsaName.ARMV5, raw=True)
    assert distance > 0 and exact is False


# --- outcome and result invariants ----------------------------------------------

def test_eval_result_invariants():
    with pytest.raises(ValueError):
        EvalResult(
            pair_id="p",
            backend_id="b",
            edit_distance=3,
            exact_match=True,
            outcome=TestOutcome.passed(),
            error_class=None,
            candidate_index_used=0,
        )
    with pytest.raises(ValueError):
        EvalResult(
            pair_id="p",
            backend_id="b",
            edit_distance=0,
            exact_match=True,
            outcome=TestOutcome.passed(),
            error_class=ErrorClass.OTHER,
            candidate_index_used=0,
        )
    with pytest.raises(ValueError):
        EvalResult(
            pair_id="p",
            backend_id="b",
            edit_distance=1,
            exact_match=False,
            outcome=TestOutcome.test_failed(1),
            error_class=None,
            candidate_index_used=0,
        )


def _result(pair_id: str, passed: bool, distance: int = 0) -> EvalResult:
    return EvalResult(
        pair_id=pair_id,
        backend_id="synthetic",
        edit_distance=distance,
        exact_match=distance == 0,
        outcome=TestOutcome.passed() if passed else TestOutcome.test_failed(1),
        error_class=None if passed else ErrorClass.OTHER,
        candidate_index_used=0,
    )


def test_summary_rate_arithmetic_matches_hand_computation():
    # 130 of 164 passing must round to 79.27%
    results = [_result(f"p{i:03d}", i < 130) for i in range(164)]
    summary = summarize(results)
    assert summary.n == 164
    assert summary.test_accuracy == pytest.approx(130 / 164)
    assert round(summary.test_accuracy * 100, 2) == 79.27
    assert Fraction(130, 164) == Fraction(65, 82)


def test_summary_recompute_idempotent():
    results = [_result(f"p{i}", i % 3 != 0, distance=i) for i in range(30)]
    first = summarize(results)
    again = summarize(results)
    assert first == again


def test_confusion_matrix_unique_failure_arithmetic():
    # 164 programs, 15 fail only on A, 23 fail only on B -> agreement 126/164
    a_results = []
    b_results = []
    for i in range(164):
        a_fail_only = i < 15
        b_fail_only = 15 <= i < 38
        a_results.append(_result(f"p{i:03d}", passed=not a_fail_only))
        b_results.append(_result(f"p{i:03d}", passed=not b_fail_only))
    counts = confusion_matrix(a_results, b_results)
    assert counts.a_only_fail == 15
    assert counts.b_only_fail == 23
    assert counts.both_pass == 126
    assert counts.agreement_exact == Fraction(126, 164)
    assert round(counts.agreement * 100, 1) == 76.8


def test_confusion_matrix_identical_lists():
    results = [_result(f"p{i}", i % 2 == 0) for i in range(10)]
    counts = confusion_matrix(results, results)
    assert counts.agreement == 1.0
    assert counts.a_only_fail == counts.b_only_fail == 0


def test_confusion_matrix_mismatched_ids():
    a = [_result("p1", True)]
    b = [_result("p2", True)]
    with pytest.raises(MismatchedSuites):
        confusion_matrix(a, b)


# --- error classifier ------------------------------------------------------------

def _classify_fixture(record: dict) -> ErrorClass:
    outcome = TestOutcome(
        OutcomeStatus(record["outcome"]["status"]),
        failed_count=record["outcome"].get("failed_count", 0),
        signal_name=record["outcome"].get("signal_name", ""),
    )
    unit = parse_assembly(record["candidate_asm"], IsaName.ARMV5)
    return classify_error(outcome, record["logs"], unit)


def test_classifier_fixture_corpus_fully_correct():
    fixture_files = sorted((FIXTURES / "classifier").glob("*.json"))
    assert len(fixture_files) >= 12
    by_class: dict[str, int] = {}
    for path in fixture_files:
        record = json.loads(path.read_text())
        got = _classify_fixture(record)
        assert got.value == record["expected"], path.name
        by_class[record["expected"]] = by_class.get(record["expected"], 0) + 1
    assert by_class["addressing"] >= 4
    assert by_class["register_allocation"] >= 4
    assert by_class["other"] >= 4


def test_classifier_spec_examples():
    unit = parse_assembly("mov r0, #0\nbx lr\n", IsaName.ARMV5)
    assert (
        classify_error(
            TestOutcome.crash("SIGSEGV"), "Invalid address 0x10", unit
        )
        is ErrorClass.ADDRESSING
    )
    assert (
        classify_error(TestOutcome.crash("SIGFPE"), "", unit) is ErrorClass.OTHER
    )
    clobber = parse_assembly(
        "str r0, [fp, #-8]\nmov r0, #1\nldr r0, [fp, #-8]\nbx lr\n", IsaName.ARMV5
    )
    assert (
        classify_error(TestOutcome.test_failed(2), "", clobber)
        is ErrorClass.REGISTER_ALLOCATION
    )


def test_classifier_total_and_deterministic():
    unit = parse_assembly("mov r0, #0\n", IsaName.ARMV5)
    for outcome in (
        TestOutcome.test_failed(1),
        TestOutcome(OutcomeStatus.ASSEMBLE_ERROR),
        TestOutcome(OutcomeStatus.LINK_ERROR),
        TestOutcome(OutcomeStatus.TIMEOUT),
        TestOutcome.crash("SIGKILL"),
    ):
        first = classify_error(outcome, "no patterns here", unit)
        assert first is classify_error(outcome, "no patterns here", unit)
    with pytest.raises(ValueError):
        classify_error(TestOutcome.passed(), "", unit)
    assert load_classifier_rules() is load_classifier_rules()  # read once


# --- functional execution ---------------------------------------------------------

@needs_lite
def test_ground_truth_replay_passes(mini_pairs, lite_cfg):
    pair = mini_pairs[0]
    outcome, logs = run_functional(pair.target.normalized_text, pair, lite_cfg)
    assert outcome.is_pass, logs


@needs_lite
def test_failing_candidate_reports_test_failed(mini_pairs, lite_cfg):
    pair = next(p for p in mini_pairs if "sum_upto" in p.pair_id)
    wrong = "\t.globl sum_upto\nsum_upto:\n\tmov r0, #1\n\tbx lr\n"
    outcome, _ = run_functional(wrong, pair, lite_cfg)
    assert outcome.status is OutcomeStatus.TEST_FAILED
    assert outcome.failed_count >= 1


@needs_lite
def test_garbage_candidate_is_assemble_error(mini_pairs, lite_cfg):
    pair = mini_pairs[0]
    outcome, logs = run_functional("this is not assembly at all\n", pair, lite_cfg)
    assert outcome.status is OutcomeStatus.ASSEMBLE_ERROR
    assert "error" in logs.lower()


@needs_lite
def test_corrupted_label_outcomes(mini_pairs, lite_cfg):
    # observed outcomes, recorded once: renaming the function label breaks the
    # .size expression at assembly time; dropping the symbol entirely leaves a
    # clean object whose missing definition surfaces at link time
    pair = next(p for p in mini_pairs if "sum_upto" in p.pair_id)
    renamed = pair.target.normalized_text.replace("sum_upto:", "not_the_name:")
    outcome, _ = run_functional(renamed, pair, lite_cfg)
    assert outcome.status is OutcomeStatus.ASSEMBLE_ERROR

    missing = "\t.text\n\t.globl unrelated\nunrelated:\n\tbx lr\n"
    outcome, logs = run_functional(missing, pair, lite_cfg)
    assert outcome.status is OutcomeStatus.LINK_ERROR
    assert "sum_upto" in logs


@needs_lite
def test_infinite_loop_times_out(mini_pairs, lite_cfg):
    fast_cfg = dataclasses.replace(lite_cfg, timeout_run=2.0)
    pair = next(p for p in mini_pairs if "sum_upto" in p.pair_id)
    spin = "\t.globl sum_upto\nsum_upto:\n.Lspin:\n\tb .Lspin\n"
    outcome, logs = run_functional(spin, pair, fast_cfg)
    assert outcome.status is OutcomeStatus.TIMEOUT
    assert "timed out" in logs


@needs_lite
def test_segfault_candidate_crashes_and_classifies(mini_pairs, lite_cfg):
    pair = next(p for p in mini_pairs if "sum_upto" in p.pair_id)
    crash = (
        "\t.globl sum_upto\nsum_upto:\n"
        "\tmov r3, #68\n\tldr r0, [r3]\n\tbx lr\n"
    )
    outcome, logs = run_functional(crash, pair, lite_cfg)
    assert outcome.status is OutcomeStatus.RUNTIME_CRASH
    assert outcome.signal_name == "SIGSEGV"
    unit = parse_assembly(crash, IsaName.ARMV5)
    assert classify_error(outcome, logs, unit) is ErrorClass.ADDRESSING


@needs_gcc
def test_missing_toolchain_is_loud_infrastructure_error(mini_pairs_x86):
    broken = parse_config(
        "[x86_64]\n"
        "compile = gcc -S {input} -o {output}\n"
        "assemble_link =\n"
        "    xisa-no-such-assembler -c {candidate} -o {tmpdir}/candidate.o\n"
        "    gcc -c {test_src} -o {tmpdir}/test.o\n"
        "    gcc {tmpdir}/candidate.o {tmpdir}/test.o -o {output}\n"
        "emulate = {input}\n"
    )
    with pytest.raises(ToolchainError, match="xisa-no-such-assembler"):
        run_functional("\tret\n", mini_pairs_x86[0], broken)


# --- suite evaluation -------------------------------------------------------------

@needs_lite
def test_identity_backend_on_degenerate_self_pairs(lite_cfg, tmp_path):
    # pairs whose x86 side already holds the target-ISA ground truth text:
    # the identity backend must then score perfectly
    func = tmp_path / "func.c"
    func.write_text("int f7(void) { return 7; }\n")
    test = tmp_path / "test.c"
    test.write_text("int f7(void);\nint main(void){return f7() == 7 ? 0 : 1;}\n")
    real = compile_pair(func, IsaName.ARMV5, lite_cfg, test_source_path=str(test))
    degenerate = TranspilePair(
        pair_id=real.pair_id,
        c_source_path=real.c_source_path,
        target_isa=real.target_isa,
        x86=AsmSide(real.target.raw_text, real.target.normalized_text),
        target=real.target,
        opt_level=real.opt_level,
        tokenizer_version=real.tokenizer_version,
        token_count_x86=real.token_count_target,
        token_count_target=real.token_count_target,
        test_source_path=real.test_source_path,
    )
    results, summary = evaluate_suite(
        [degenerate], IdentityBackend(), GenerationParams(), lite_cfg
    )
    assert summary.test_accuracy == 1.0
    assert summary.avg_edit_distance == 0.0
    assert results[0].exact_match


@needs_lite
def test_replay_backend_full_marks_and_parallel_agreement(mini_pairs, lite_cfg):
    backend = ReplayBackend(mini_pairs)
    serial, summary = evaluate_suite(
        mini_pairs[:4], backend, GenerationParams(), lite_cfg
    )
    parallel, _ = evaluate_suite(
        mini_pairs[:4], backend, GenerationParams(), lite_cfg, jobs=4
    )
    assert summary.exact_match_rate == 1.0
    assert summary.test_accuracy == 1.0
    strip = lambda r: {  # noqa: E731
        k: v
        for k, v in result_to_record(r).items()
        if k != "logs"
    }
    assert [strip(r) for r in serial] == [strip(r) for r in parallel]


@needs_lite
def test_backend_error_becomes_other_failure(mini_pairs, lite_cfg):
    backend = ReplayBackend(mini_pairs[:1])  # knows only the first pair
    results, summary = evaluate_suite(
        mini_pairs[:2], backend, GenerationParams(), lite_cfg
    )
    failed = [r for r in results if not r.outcome.is_pass]
    assert len(failed) == 1
    assert failed[0].error_class is ErrorClass.OTHER
    assert "backend error" in failed[0].logs


def test_result_record_roundtrip():
    result = EvalResult(
        pair_id="p1",
        backend_id="rule",
        edit_distance=4,
        exact_match=False,
        outcome=TestOutcome.crash("SIGSEGV"),
        error_class=ErrorClass.ADDRESSING,
        candidate_index_used=1,
        logs="...",
    )
    assert record_to_result(result_to_record(result)) == result


def test_read_results_roundtrip(tmp_path):
    from xisa.evaluation import summary_to_record

    results = [_result(f"p{i}", i != 1, distance=i) for i in range(3)]
    written = summary_to_record(summarize(results))
    path = tmp_path / "r.ndjson"
    lines = [json.dumps(result_to_record(r)) for r in results]
    lines.append(json.dumps(written))
    path.write_text("\n".join(lines) + "\n")
    back = read_results(path)
    assert back == results
    # the summary is computed from the results, to the record it was written as
    assert summary_to_record(summarize(back)) == written


@needs_lite
def test_first_passing_beam_selected(mini_pairs, lite_cfg):
    from xisa.backends import Backend, Candidate

    pair = next(p for p in mini_pairs if "sum_upto" in p.pair_id)
    wrong = "\t.globl sum_upto\nsum_upto:\n\tmov r0, #1\n\tbx lr\n"

    class TwoBeam(Backend):
        backend_id = "two_beam"

        def _generate(self, request):
            return [Candidate(wrong), Candidate(pair.target.normalized_text)]

    from xisa.evaluation import evaluate_pair

    result = evaluate_pair(
        pair, TwoBeam(), GenerationParams(num_beams=2), lite_cfg
    )
    assert result.outcome.is_pass
    assert result.candidate_index_used == 1
    # syntactic metrics stay pinned to beam 0
    assert result.edit_distance > 0
    assert result.exact_match is False


class FixedBeams(Backend):
    backend_id = "fixed_beams"

    def __init__(self, beams: list[str]):
        super().__init__()
        self.beams = beams

    def _generate(self, request):
        return [Candidate(text) for text in self.beams]


X86_SUM_UPTO_WRONG = "\t.globl sum_upto\nsum_upto:\n\tmovl $1, %eax\n\tret\n"
X86_SUM_UPTO_UNASSEMBLABLE = "\t.globl sum_upto\nsum_upto:\n\tfrobl %eax\n\tret\n"


@needs_gcc
def test_first_passing_beam_selected_gcc_only(mini_pairs_x86, lite_cfg):
    pair = next(p for p in mini_pairs_x86 if "sum_upto" in p.pair_id)
    backend = FixedBeams([X86_SUM_UPTO_WRONG, pair.target.normalized_text])
    result = evaluate_pair(pair, backend, GenerationParams(num_beams=2), lite_cfg)
    assert result.outcome.is_pass
    assert result.candidate_index_used == 1
    # syntactic metrics stay pinned to beam 0
    assert result.edit_distance > 0
    assert result.exact_match is False


@needs_gcc
def test_all_beams_failing_reports_beam_0_gcc_only(mini_pairs_x86, lite_cfg):
    pair = next(p for p in mini_pairs_x86 if "sum_upto" in p.pair_id)
    backend = FixedBeams([X86_SUM_UPTO_WRONG, X86_SUM_UPTO_UNASSEMBLABLE])
    result = evaluate_pair(pair, backend, GenerationParams(num_beams=2), lite_cfg)
    assert result.candidate_index_used == 0
    # beam 1 would have been an assemble error
    assert result.outcome.status is OutcomeStatus.TEST_FAILED
    assert result.error_class is not None


@needs_gcc
def test_raw_policy_scores_against_raw_ground_truth_gcc_only(mini_pairs_x86, lite_cfg):
    # the stored normalized_text has comments and directives stripped under
    # the default policy, so --policy raw must score against raw_text
    pair = next(p for p in mini_pairs_x86 if "sum_upto" in p.pair_id)
    backend = FixedBeams([pair.target.raw_text])
    for raw in (True, False):
        result = evaluate_pair(pair, backend, GenerationParams(), lite_cfg, raw)
        assert (result.edit_distance, result.exact_match) == (0, True)
        assert result.outcome.is_pass


def _x86_broken(pair: TranspilePair, kind: str) -> str:
    """sum_upto broken one way per outcome, from gcc's ground truth."""
    truth = pair.target.normalized_text
    return {
        "unknown_mnemonic": X86_SUM_UPTO_UNASSEMBLABLE,
        "renamed_global": truth.replace("sum_upto", "sum_upto_renamed"),
        "null_load": "\t.globl sum_upto\nsum_upto:\n\txorl %eax, %eax\n"
                     "\tmovl (%rax), %eax\n\tret\n",
        "off_by_one": truth.replace("popq %rbp\nret", "addl $1, %eax\npopq %rbp\nret"),
        "infinite_loop": "\t.globl sum_upto\nsum_upto:\n.Lspin:\n\tjmp .Lspin\n",
    }[kind]


@needs_gcc
@pytest.mark.parametrize("kind,expected", [
    ("unknown_mnemonic", "assemble_error"),
    ("renamed_global", "link_error"),
    ("null_load", "runtime_crash(SIGSEGV)"),
    ("off_by_one", "test_failed(1)"),
    ("infinite_loop", "timeout"),
])
def test_one_broken_candidate_per_outcome_gcc_only(mini_pairs_x86, kind, expected):
    pair = next(p for p in mini_pairs_x86 if "sum_upto" in p.pair_id)
    candidate = _x86_broken(pair, kind)
    # only the memory fault is addressing; no candidate names a register conflict
    error_class = ErrorClass.ADDRESSING if kind == "null_load" else ErrorClass.OTHER
    for profile in X86_PROFILES:
        shipped = (CONFIGS / f"{profile}.cfg").read_text(encoding="utf-8")
        assert shipped.count("timeout_run = 10\n") == 1
        cfg = parse_config(shipped.replace("timeout_run = 10\n", "timeout_run = 1\n"))
        outcome, logs = run_functional(candidate, pair, cfg)
        assert outcome.describe() == expected, (profile, logs)
        unit = parse_assembly(candidate, IsaName.X86_64)
        assert classify_error(outcome, logs, unit) is error_class, profile


@needs_gcc
def test_off_by_one_candidates_are_other_gcc_only(mini_pairs_x86, lite_cfg):
    # gcc's correct code with every return value off by one names no register
    # conflict, so the README taxonomy files it under other
    assert len(mini_pairs_x86) == 12
    classes = {}
    for pair in mini_pairs_x86:
        truth = pair.target.normalized_text
        candidate = truth.replace("popq %rbp\nret\n", "addl $1, %eax\npopq %rbp\nret\n")
        assert candidate != truth, pair.pair_id
        outcome, logs = run_functional(candidate, pair, lite_cfg)
        unit = parse_assembly(candidate, IsaName.X86_64)
        classes[pair.pair_id] = (outcome.describe(), classify_error(outcome, logs, unit))
    assert classes == {p.pair_id: ("test_failed(1)", ErrorClass.OTHER) for p in mini_pairs_x86}


@needs_gcc
def test_link_error_records_are_deterministic_gcc_only(mini_pairs_x86, x86_profiles):
    pair = next(p for p in mini_pairs_x86 if "sum_upto" in p.pair_id)
    backend = FixedBeams([_x86_broken(pair, "renamed_global")])
    for profile, cfg in x86_profiles.items():
        records = []
        for _ in range(2):
            records.append(result_to_record(evaluate_pair(pair, backend, GenerationParams(), cfg)))
        assert records[0]["outcome"] == "link_error", profile
        assert "sum_upto" in records[0]["logs"], profile
        assert records[0] == records[1], profile


# cstr_len through libc's strlen
X86_CSTR_LEN_VIA_LIBC = ("\t.globl cstr_len\ncstr_len:\n\tsubq $8, %rsp\n"
                         "\tcall strlen\n\taddq $8, %rsp\n\tret\n")


@needs_gcc
def test_libc_call_links_only_hosted_gcc_only(mini_pairs_x86, x86_profiles):
    # clang-lite links freestanding, cross-gnu against a static libc
    pair = next(p for p in mini_pairs_x86 if "strlen" in p.pair_id)
    outcome, logs = run_functional(X86_CSTR_LEN_VIA_LIBC, pair, x86_profiles["clang-lite"])
    assert outcome.describe() == "link_error", logs
    assert "strlen" in logs
    outcome, logs = run_functional(X86_CSTR_LEN_VIA_LIBC, pair, x86_profiles["cross-gnu"])
    assert outcome.is_pass, logs


@needs_gcc
def test_broken_test_driver_is_toolchain_error_gcc_only(mini_pairs_x86, x86_profiles, tmp_path):
    pair = next(p for p in mini_pairs_x86 if "sum_upto" in p.pair_id)
    broken = tmp_path / "test.c"
    broken.write_text("int main(void) { return sum_upto(1) != 1 }\n")  # no ';'
    broken_pair = dataclasses.replace(pair, test_source_path=str(broken))
    for cfg in x86_profiles.values():
        with pytest.raises(ToolchainError, match="test-driver build failed"):
            run_functional(pair.target.normalized_text, broken_pair, cfg)


# --- driver build cache ----------------------------------------------------------

X86_DRIVER_STEP = "gcc {opt} -c {test_src} -o {tmpdir}/test.o"


@pytest.fixture
def commands(monkeypatch):
    """Counts ``toolrun.run_command`` calls by template, from an empty cache."""
    calls: collections.Counter[str] = collections.Counter()
    real = toolrun.run_command

    def counting(template, mapping, timeout):
        calls[template] += 1
        return real(template, mapping, timeout)

    monkeypatch.setattr(toolrun, "run_command", counting)
    build_driver.cache_clear()
    return calls


def _sum_upto_with_driver(mini_pairs_x86, tmp_path, name="test.c") -> TranspilePair:
    """The sum_upto pair with a copy of its test driver under tmp_path."""
    pair = next(p for p in mini_pairs_x86 if "sum_upto" in p.pair_id)
    driver = tmp_path / name
    shutil.copyfile(pair.test_source_path, driver)
    return dataclasses.replace(pair, test_source_path=str(driver))


@needs_gcc
def test_driver_compiled_once_for_three_beams_gcc_only(mini_pairs_x86, lite_cfg, commands):
    pair = next(p for p in mini_pairs_x86 if "sum_upto" in p.pair_id)
    truth = pair.target.normalized_text
    backend = FixedBeams([X86_SUM_UPTO_WRONG, _x86_broken(pair, "off_by_one"), truth])
    result = evaluate_pair(pair, backend, GenerationParams(num_beams=3), lite_cfg)
    assert result.outcome.is_pass
    assert result.candidate_index_used == 2
    assert commands["gcc -c {candidate} -o {tmpdir}/candidate.o"] == 3
    assert commands[X86_DRIVER_STEP] == 1


@needs_gcc
@pytest.mark.parametrize("kind,expected", [
    ("truth", "pass"),
    ("unknown_mnemonic", "assemble_error"),
    ("renamed_global", "link_error"),
    ("null_load", "runtime_crash(SIGSEGV)"),
    ("off_by_one", "test_failed(1)"),
])
def test_cold_and_warm_cache_give_equal_results_gcc_only(
    mini_pairs_x86, x86_profiles, commands, kind, expected
):
    pair = next(p for p in mini_pairs_x86 if "sum_upto" in p.pair_id)
    truth = pair.target.normalized_text
    candidate = truth if kind == "truth" else _x86_broken(pair, kind)
    for profile, cfg in x86_profiles.items():
        build_driver.cache_clear()
        cold = run_functional(candidate, pair, cfg)
        run_functional(truth, pair, cfg)  # warms the cache for every kind
        compiled = commands[X86_DRIVER_STEP]
        warm = run_functional(candidate, pair, cfg)
        assert commands[X86_DRIVER_STEP] == compiled, profile
        assert cold[0].describe() == expected, (profile, cold[1])
        assert warm == cold, profile


@needs_gcc
def test_rewritten_driver_is_rebuilt_gcc_only(mini_pairs_x86, lite_cfg, tmp_path, commands):
    pair = _sum_upto_with_driver(mini_pairs_x86, tmp_path)
    truth = pair.target.normalized_text
    assert run_functional(truth, pair, lite_cfg)[0].is_pass
    driver = Path(pair.test_source_path)
    driver.write_text(driver.read_text().replace("!= 55) return 3", "!= 56) return 3"))
    outcome, _logs = run_functional(truth, pair, lite_cfg)
    assert outcome.describe() == "test_failed(3)"
    assert commands[X86_DRIVER_STEP] == 2


@needs_gcc
def test_failing_driver_build_is_never_cached_gcc_only(mini_pairs_x86, lite_cfg, tmp_path, commands):
    pair = _sum_upto_with_driver(mini_pairs_x86, tmp_path)
    Path(pair.test_source_path).write_text("int main(void) { return sum_upto(1) != 1 }\n")
    for _ in range(2):
        with pytest.raises(ToolchainError, match="test-driver build failed"):
            run_functional(pair.target.normalized_text, pair, lite_cfg)
    assert commands[X86_DRIVER_STEP] == 2
    assert build_driver.cache_info().currsize == 0


# a step that reads the candidate's object without naming {candidate}
COPY_STEP = "cp {tmpdir}/candidate.o {tmpdir}/copy.o"
COPY_PROFILE = f"""
[x86_64]
assemble_link =
    gcc -c {{candidate}} -o {{tmpdir}}/candidate.o
    {COPY_STEP}
    gcc {{opt}} -c {{test_src}} -o {{tmpdir}}/test.o
    gcc {{tmpdir}}/copy.o {{tmpdir}}/test.o -o {{output}}
emulate = {{input}}
"""


@needs_gcc
def test_driver_step_reading_a_candidate_file_is_toolchain_error_gcc_only(
    mini_pairs_x86, commands
):
    pair = next(p for p in mini_pairs_x86 if "sum_upto" in p.pair_id)
    cfg = parse_config(COPY_PROFILE)
    # the driver build runs in a directory of its own, with no candidate.o
    for _ in range(2):
        with pytest.raises(ToolchainError, match="test-driver build failed"):
            run_functional(pair.target.normalized_text, pair, cfg)
    assert commands[COPY_STEP] == 2
    assert commands[X86_DRIVER_STEP] == 0
    assert build_driver.cache_info().currsize == 0


MKDIR_STEP = "mkdir {tmpdir}/objs"
MKDIR_PROFILE = f"""
[x86_64]
assemble_link =
    gcc -c {{candidate}} -o {{tmpdir}}/candidate.o
    {MKDIR_STEP}
    gcc {{opt}} -c {{test_src}} -o {{tmpdir}}/objs/test.o
    gcc {{tmpdir}}/candidate.o {{tmpdir}}/objs/test.o -o {{output}}
emulate = {{input}}
"""


@needs_gcc
def test_driver_step_making_a_directory_is_cached_gcc_only(mini_pairs_x86, commands):
    pair = next(p for p in mini_pairs_x86 if "sum_upto" in p.pair_id)
    cfg = parse_config(MKDIR_PROFILE)
    results = [run_functional(pair.target.normalized_text, pair, cfg) for _ in range(2)]
    assert results[0][0].is_pass, results[0][1]
    assert results[1] == results[0]
    assert commands[MKDIR_STEP] == 1
    assert commands["gcc {opt} -c {test_src} -o {tmpdir}/objs/test.o"] == 1


FAILING_DRIVER_STEP = "false {test_src}"
SPLIT_DRIVER_PROFILE = f"""
[x86_64]
assemble_link =
    {X86_DRIVER_STEP}
    gcc -c {{candidate}} -o {{tmpdir}}/candidate.o
    {FAILING_DRIVER_STEP}
    gcc {{tmpdir}}/candidate.o {{tmpdir}}/test.o -o {{output}}
emulate = {{input}}
"""


@needs_gcc
def test_later_driver_step_fails_before_the_candidate_assembles_gcc_only(
    mini_pairs_x86, commands
):
    pair = next(p for p in mini_pairs_x86 if "sum_upto" in p.pair_id)
    cfg = parse_config(SPLIT_DRIVER_PROFILE)
    # the whole driver build runs at its first step, ahead of the candidate
    with pytest.raises(ToolchainError, match="test-driver build failed"):
        run_functional(X86_SUM_UPTO_UNASSEMBLABLE, pair, cfg)
    assert commands[FAILING_DRIVER_STEP] == 1
    assert commands["gcc -c {candidate} -o {tmpdir}/candidate.o"] == 0


@needs_gcc
def test_build_cache_entry_bound_holds_gcc_only(
    mini_pairs_x86, lite_cfg, tmp_path, commands, monkeypatch
):
    bounded = lru_cache(maxsize=2)(build_driver.__wrapped__)
    monkeypatch.setattr(evaluation, "build_driver", bounded)
    pairs = []
    for i in range(3):
        pair = _sum_upto_with_driver(mini_pairs_x86, tmp_path, f"test{i}.c")
        with open(pair.test_source_path, "a", encoding="utf-8") as fh:
            fh.write(f"/* driver {i} */\n")  # three distinct keys
        pairs.append(pair)
    truth = pairs[0].target.normalized_text
    for pair in pairs:
        assert run_functional(truth, pair, lite_cfg)[0].is_pass
    assert bounded.cache_info().currsize == 2
    assert commands[X86_DRIVER_STEP] == 3
    run_functional(truth, pairs[1], lite_cfg)  # cached, now the most recent
    assert commands[X86_DRIVER_STEP] == 3
    run_functional(truth, pairs[0], lite_cfg)  # evicted; evicts pairs[2]
    assert commands[X86_DRIVER_STEP] == 4
    run_functional(truth, pairs[1], lite_cfg)
    assert commands[X86_DRIVER_STEP] == 4
    assert bounded.cache_info().currsize == 2


# --- the step outcome table, without a toolchain ---------------------------------

PY_OK = "{python} -c pass"
PY_EXIT_1 = '{python} -c "import sys; sys.exit(1)"'
PY_EXIT_3 = '{python} -c "import sys; sys.exit(3)"'
PY_SEGV = '{python} -c "import os, signal; os.kill(os.getpid(), signal.SIGSEGV)"'
PY_SLEEP = '{python} -c "import time; time.sleep(30)"'  # killed at the 1 s timeout


def _python_profile(driver=PY_OK, candidate=PY_OK, link=PY_OK, emulate=PY_OK):
    """An x86_64 profile whose four step roles each run one Python command."""
    return parse_config(f"""
[global]
timeout_compile = 1
timeout_run = 1

[x86_64]
assemble_link =
    {driver} {{test_src}}
    {candidate} {{candidate}}
    {link} {{output}}
emulate = {emulate} {{input}}
""")


@pytest.fixture
def python_pair(tmp_path) -> TranspilePair:
    """A hand-made pair whose test driver no step compiles."""
    test_src = tmp_path / "test.c"
    test_src.write_text("int main(void) { return 0; }\n")
    side = AsmSide("", "")
    return TranspilePair("p00_python", str(tmp_path / "func.c"), IsaName.X86_64,
                         side, side, "-O0", "byte-v1", 0, 0, str(test_src))


@pytest.mark.parametrize("role,command,expected", [
    pytest.param(None, None, "pass", id="pass"),
    pytest.param("candidate", PY_EXIT_1, "assemble_error", id="candidate-exit"),
    pytest.param("candidate", PY_SLEEP, "assemble_error", id="candidate-timeout"),
    pytest.param("link", PY_EXIT_1, "link_error", id="link-exit"),
    pytest.param("emulate", PY_EXIT_3, "test_failed(3)", id="emulate-exit"),
    pytest.param("emulate", PY_SEGV, "runtime_crash(SIGSEGV)", id="emulate-signal"),
    pytest.param("emulate", PY_SLEEP, "timeout", id="emulate-timeout"),
])
def test_step_outcome_table(python_pair, role, command, expected):
    cfg = _python_profile(**({role: command} if role else {}))
    outcome, logs = run_functional("", python_pair, cfg)
    assert outcome.describe() == expected, logs
    if command is PY_SLEEP:  # every timed-out step logs its timeout alike
        assert logs.endswith("\n(timed out after 1.0s)"), logs


@pytest.mark.parametrize("role,command,match", [
    pytest.param("link", PY_SLEEP, "build step timed out", id="link-timeout"),
    pytest.param("driver", PY_SLEEP, "build step timed out", id="driver-timeout"),
    pytest.param("driver", PY_EXIT_1, r"test-driver build failed \(1\)", id="driver-exit"),
])
def test_step_outcome_table_infrastructure_faults(python_pair, role, command, match):
    build_driver.cache_clear()
    with pytest.raises(ToolchainError, match=match):
        run_functional("", python_pair, _python_profile(**{role: command}))
    if role == "driver":  # a failed driver build is never cached
        assert build_driver.cache_info().currsize == 0


@needs_lite
def test_context_overflow_marks_pair_as_other_failure(mini_pairs, lite_cfg):
    from xisa.backends import IdentityBackend
    from xisa.tokenizer import make_spec

    backend = IdentityBackend(tokenizer_spec=make_spec([]))
    params = GenerationParams(context_window=8)  # every source overflows
    results, summary = evaluate_suite(
        mini_pairs[:2], backend, params, lite_cfg
    )
    assert summary.test_accuracy == 0.0
    assert all(r.error_class is ErrorClass.OTHER for r in results)
    assert all("backend error" in r.logs for r in results)
