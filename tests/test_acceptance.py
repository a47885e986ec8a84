"""Acceptance suite.

One test per criterion; each prints a PASS line on success (run with -s or
-rA to see them).  Toolchain-dependent criteria run under the clang-lite
profile (clang cross codegen, lld static linking, bundled ARMv5 interpreter);
when a GNU cross toolchain plus qemu-user is installed the same criteria run
under that profile as well.
"""
from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import CONFIGS, FIXTURES, HAVE_CROSS_GNU, needs_gcc, needs_lite
from xisa.asmtext import parse_assembly
from xisa.backends import ReplayBackend, RuleBackend
from xisa.bench import bench_run, compare_modes, geomean
from xisa.cli import main as cli_main
from xisa.core import GenerationParams, IsaName
from xisa.dataset import load_eval_suite
from xisa.evaluation import (
    ErrorClass,
    OutcomeStatus,
    TestOutcome,
    build_driver,
    classify_error,
    confusion_matrix,
    evaluate_suite,
    levenshtein,
    summarize,
)
from xisa.segmenter import segment_unit
from xisa.tokenizer import BYTE_BASELINE, build_vocab, make_spec, token_reduction_ratio, tokenize

PASS = "ACCEPTANCE {}: PASS — {}"


# --- 1. edit-distance oracle equivalence ---------------------------------------

def test_criterion_1_levenshtein_oracle_equivalence():
    start = time.perf_counter()

    universe = [""]
    for length in range(1, 7):
        universe.extend("".join(p) for p in itertools.product("abc", repeat=length))
    # recursive suffix recurrence, memoized bottom-up: an implementation
    # independent of the bit-vector algorithm it checks
    memo: dict[tuple[str, str], int] = {}
    by_len = sorted(universe, key=len)
    for a in by_len:
        for b in by_len:
            if not a:
                memo[(a, b)] = len(b)
            elif not b:
                memo[(a, b)] = len(a)
            else:
                best = memo[(a[1:], b[1:])] + (a[0] != b[0])
                insert = memo[(a, b[1:])] + 1
                if insert < best:
                    best = insert
                delete = memo[(a[1:], b)] + 1
                if delete < best:
                    best = delete
                memo[(a, b)] = best

    assert len(memo) == 1093 * 1093
    for (a, b), expected in memo.items():
        assert levenshtein(a, b) == expected, (a, b)

    @lru_cache(maxsize=None)
    def oracle(x: str, y: str) -> int:
        if not x:
            return len(y)
        if not y:
            return len(x)
        best = oracle(x[1:], y[1:]) + (x[0] != y[0])
        insert = oracle(x, y[1:]) + 1
        if insert < best:
            best = insert
        delete = oracle(x[1:], y) + 1
        return min(best, delete)

    rng = random.Random(20240131)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 50)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 50)))
        oracle.cache_clear()
        assert levenshtein(a, b) == oracle(a, b)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"
    print(PASS.format(1, f"levenshtein matches oracle on 1,194,649 + 1,000 pairs in {elapsed:.1f}s"))


# --- 2. tokenizer fixture -------------------------------------------------------

def test_criterion_2_tokenizer_fixture():
    spec = make_spec(["ldr", "r1", "r2"])
    extended = tokenize("ldr r1, r2", spec)
    assert list(extended.tokens) == ["ldr", " ", "r1", ",", " ", "r2"]
    baseline = tokenize("ldr r1, r2", BYTE_BASELINE)
    assert len(baseline.tokens) > len(extended.tokens)
    print(PASS.format(2, "extended tokenizer emits the 6 instruction atoms; byte baseline is strictly longer"))


# --- 3. token reduction qualitative ----------------------------------------------

def test_criterion_3_token_reduction_positive(arm_corpus_units):
    spec = build_vocab(arm_corpus_units, top_k=512)
    texts = [unit.raw_text for unit in arm_corpus_units]
    ratio = token_reduction_ratio(texts, BYTE_BASELINE, spec)
    assert ratio > 0.0
    print(PASS.format(3, f"extended vocabulary reduces mean token count by {ratio * 100.0:.2f}% on the fixture corpus"))


# --- 4. harness self-test: ground-truth replay ------------------------------------

def _replay_suite(cfg, results_sink: list, target: IsaName = IsaName.ARMV5) -> None:
    pairs = load_eval_suite(FIXTURES / "mini_suite", target, cfg)
    assert len(pairs) >= 10
    results, summary = evaluate_suite(
        pairs, ReplayBackend(pairs), GenerationParams(), cfg, jobs=4
    )
    assert summary.exact_match_rate == 1.0
    assert summary.avg_edit_distance == 0.0
    assert summary.test_accuracy == 1.0
    results_sink.extend(results)


@needs_lite
def test_criterion_4_ground_truth_replay(lite_cfg, _result_log):
    start = time.perf_counter()
    _replay_suite(lite_cfg, _result_log)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(PASS.format(4, f"ground-truth replay scores 1.0/0/1.0 over the mini-suite under emulation in {elapsed:.0f}s"))


@needs_gcc
def test_criterion_4_gcc_only_ground_truth_replay(x86_profiles, _result_log):
    # x86_64 self-translation: the same harness path with only gcc installed,
    # under each shipped profile's [x86_64] section
    for cfg in x86_profiles.values():
        _replay_suite(cfg, _result_log, IsaName.X86_64)
    print(PASS.format(4, "x86_64 ground-truth replay scores 1.0/0/1.0 over the mini-suite with gcc only, under both profiles"))


@pytest.mark.skipif(not HAVE_CROSS_GNU, reason="GNU cross toolchain + qemu not installed")
def test_criterion_4_ground_truth_replay_cross_gnu(cross_gnu_cfg, _result_log):
    _replay_suite(cross_gnu_cfg, _result_log)
    print(PASS.format(4, "ground-truth replay also passes under the GNU cross + qemu profile"))


# --- 5. rule backend end-to-end ----------------------------------------------------

@needs_lite
def test_criterion_5_rule_backend_end_to_end(lite_cfg, rule_pairs, _result_log):
    assert len(rule_pairs) >= 10
    results, summary = evaluate_suite(
        rule_pairs, RuleBackend(), GenerationParams(), lite_cfg, jobs=4
    )
    failures = [
        (r.pair_id, r.outcome.describe(), r.logs[-300:])
        for r in results
        if not r.outcome.is_pass
    ]
    assert summary.test_accuracy == 1.0, failures
    _result_log.extend(results)
    print(PASS.format(5, f"rule backend translates, assembles, links and passes {summary.n}/{summary.n} programs"))


# --- 6. metric arithmetic vs reported numbers ---------------------------------------

def test_criterion_6_rate_and_agreement_arithmetic():
    passing = [_mk_result(f"p{i:03d}", i < 130) for i in range(164)]
    summary = summarize(passing)
    assert Fraction(sum(r.outcome.is_pass for r in passing), summary.n) == Fraction(130, 164)
    assert round(summary.test_accuracy * 100, 2) == 79.27

    a_results, b_results = [], []
    for i in range(164):
        a_results.append(_mk_result(f"p{i:03d}", not i < 15))
        b_results.append(_mk_result(f"p{i:03d}", not (15 <= i < 38)))
    counts = confusion_matrix(a_results, b_results)
    assert (counts.a_only_fail, counts.b_only_fail) == (15, 23)
    assert counts.agreement_exact == Fraction(126, 164)
    assert round(counts.agreement * 100, 1) == 76.8
    print(PASS.format(6, "130/164 rounds to 79.27% and 15/23 unique failures give agreement 126/164 = 76.8%"))


def _mk_result(pair_id: str, passed: bool):
    from xisa.evaluation import EvalResult

    return EvalResult(
        pair_id=pair_id,
        backend_id="synthetic",
        edit_distance=0 if passed else 7,
        exact_match=passed,
        outcome=TestOutcome.passed() if passed else TestOutcome.test_failed(1),
        error_class=None if passed else ErrorClass.OTHER,
        candidate_index_used=0,
    )


# --- 7. invariant suite ---------------------------------------------------------------

@pytest.fixture(scope="module")
def _result_log() -> list:
    return []


def test_criterion_7_invariant_suite(arm_corpus_units, _result_log):
    # exact_match implies zero distance on every result evaluated this session
    for result in _result_log:
        if result.exact_match:
            assert result.edit_distance == 0

    rng = random.Random(7)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_. ,#[]()\n"
    entry_chars = "abcdefghijklmnopqrstuvwxyz0123456789_."
    checked = 0
    for _ in range(1000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        entries = [
            "".join(rng.choice(entry_chars) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(0, 8))
        ]
        spec = make_spec(entries)
        stream = tokenize(text, spec)
        assert "".join(stream.tokens) == text  # losslessness
        bigger = make_spec(
            entries
            + ["".join(rng.choice(entry_chars) for _ in range(rng.randint(1, 5)))]
        )
        assert len(tokenize(text, bigger).tokens) <= len(stream.tokens)  # monotonic
        checked += 1
    assert checked == 1000

    for unit in arm_corpus_units:  # segmenter reconstruction
        segments = segment_unit(unit, BYTE_BASELINE, budget=200)
        by_fn: dict[str, list] = {}
        for seg in segments:
            by_fn.setdefault(seg.function_name, []).append(seg)
        for span in unit.functions:
            segs = sorted(by_fn.get(span.name, []), key=lambda s: s.index)
            rebuilt = tuple(line for seg in segs for line in seg.lines)
            assert rebuilt == unit.lines[span.start_line : span.end_line]

    for _ in range(1000):  # geomean scale + permutation
        xs = [rng.uniform(1e-6, 1e6) for _ in range(rng.randint(1, 12))]
        k = rng.uniform(1e-3, 1e3)
        scaled = geomean([k * x for x in xs])
        assert abs(scaled - k * geomean(xs)) <= 1e-9 * max(scaled, 1.0)
        shuffled = xs[:]
        rng.shuffle(shuffled)
        assert abs(geomean(shuffled) - geomean(xs)) <= 1e-12 * max(geomean(xs), 1.0)

    print(PASS.format(7, "zero violations: match-implies-zero-distance, tokenizer losslessness + monotonicity (1,000 each), segmenter reconstruction, geomean properties"))


# --- 8. error-classifier fixtures -------------------------------------------------------

def test_criterion_8_classifier_fixtures():
    fixture_files = sorted((FIXTURES / "classifier").glob("*.json"))
    assert len(fixture_files) >= 12
    per_class: dict[str, int] = {}
    for path in fixture_files:
        record = json.loads(path.read_text())
        outcome = TestOutcome(
            OutcomeStatus(record["outcome"]["status"]),
            failed_count=record["outcome"].get("failed_count", 0),
            signal_name=record["outcome"].get("signal_name", ""),
        )
        unit = parse_assembly(record["candidate_asm"], IsaName.ARMV5)
        got = classify_error(outcome, record["logs"], unit)
        assert got.value == record["expected"], path.name
        per_class[record["expected"]] = per_class.get(record["expected"], 0) + 1
    assert min(per_class.get(c.value, 0) for c in ErrorClass) >= 4
    print(PASS.format(8, f"{len(fixture_files)} labeled failure fixtures classified with 100% accuracy under rules-v1"))


# --- 9. bench sanity ----------------------------------------------------------------------

def test_criterion_9_bench_sanity(tmp_path):
    assert geomean([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([3.0, 9.0, 27.0]) == pytest.approx(9.0)

    import stat
    import sys

    sleeper = tmp_path / "sleeper"
    sleeper.write_text(f"#!{sys.executable}\nimport time; time.sleep(0.01)\n")
    sleeper.chmod(sleeper.stat().st_mode | stat.S_IEXEC)
    summary = bench_run(str(sleeper), runs=5, warmup=1, mode="sleep", timeout=10)
    assert 0.010 <= summary.geomean_time <= 2.0  # interpreter startup dominates

    from xisa.bench import BenchSummary

    rows = compare_modes(
        [
            BenchSummary("dynamic_translation", 100, 0, 1.0, 2.49),
            BenchSummary("transpiled", 100, 0, 1.0, 1.034),
        ],
        baseline_mode="dynamic_translation",
    )
    ratio = {r.mode: r for r in rows}["transpiled"].memory_ratio
    assert round(ratio, 2) == 2.41
    print(PASS.format(9, "geomean closed forms exact, sleep timing within tolerance, 2.49/1.034 = 2.41x"))


# --- 10. determinism -------------------------------------------------------------------------

@needs_lite
def test_criterion_10_eval_runs_byte_identical(tmp_path):
    suite = tmp_path / "suite"
    for pid, expr, check in (
        ("d1", "x + 3", "f(1) == 4"),
        ("d2", "x * x", "f(3) == 9"),
        ("d3", "x - 9", "f(9) == 0"),
    ):
        d = suite / pid
        d.mkdir(parents=True)
        (d / "func.c").write_text(f"int f(int x) {{ return {expr}; }}\n")
        (d / "test.c").write_text(
            f"int f(int x);\nint main(void) {{ return {check} ? 0 : 1; }}\n"
        )
    build_driver.cache_clear()  # the first run builds cold, the second from the cache
    outputs = []
    for name in ("a.ndjson", "b.ndjson"):
        out = tmp_path / name
        rc = cli_main(
            ["eval", "run", "--suite", str(suite), "--backend", "replay",
             "--target", "armv5", "--config", str(CONFIGS / "clang-lite.cfg"),
             "--out", str(out)]
        )
        assert rc == 0
        outputs.append(out)

    assert comparable_bytes(outputs[0]) == comparable_bytes(outputs[1])
    print(PASS.format(10, "two eval runs produce byte-identical result records (run timestamps excluded)"))


def comparable_bytes(path: Path) -> bytes:
    kept = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("schema") == "xisa.run/v1":
            continue  # run records carry timestamps by design
        kept.append(json.dumps(record, sort_keys=True))
    return "\n".join(kept).encode()


@needs_gcc
def test_criterion_10_gcc_only_jobs_invariant(tmp_path):
    build_driver.cache_clear()  # the first run builds cold, the second from the cache
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.ndjson"
        rc = cli_main(
            ["eval", "run", "--suite", str(FIXTURES / "mini_suite"), "--backend", "replay",
             "--target", "x86_64", "--config", str(CONFIGS / "clang-lite.cfg"),
             "--jobs", jobs, "--out", str(out)]
        )
        assert rc == 0
        outputs.append(out)

    assert comparable_bytes(outputs[0]) == comparable_bytes(outputs[1])
    print(PASS.format(10, "gcc-only eval records identical over --jobs 1 and 2 (run timestamps excluded)"))
