"""Score candidate translations: edit distance, exact match, functional runs.

Functional correctness follows the cross-compile-and-emulate recipe: the
candidate text is assembled and linked against the pair's compiled test
driver using the configured toolchain, then executed under the configured
emulator.  Exit status maps onto TestOutcome; non-Pass outcomes are sorted
into a three-class error taxonomy by a rule cascade.
"""
from __future__ import annotations

import configparser
import functools
import hashlib
import os
import signal as signal_module
import subprocess
import tempfile
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import toolrun
from .asmtext import AssemblyUnit, normalize, parse_assembly, static_register_profile
from .backends import Backend, TranspileRequest
from .core import GenerationParams, IsaName, ToolchainConfig, read_records
from .dataset import TranspilePair
from .errors import BackendRefused, MismatchedSuites, ToolchainError

RESULT_SCHEMA = "xisa.eval_result/v1"


# --- Levenshtein -------------------------------------------------------------

def levenshtein(a: Sequence, b: Sequence) -> int:
    """Minimum single-element insert/delete/substitute count.

    Works on strings (character granularity) and on lists of lines (line
    granularity): any hashable atom will do.  After the shared prefix and
    suffix are stripped, the shorter side of length m becomes a bit vector and
    the longer side of length n is scanned once, for O(ceil(m/w)*n) machine-word
    operations (w bits to a word).  This is Myers' bit-vector algorithm
    (G. Myers, "A fast bit-vector algorithm for approximate string matching
    based on dynamic programming", JACM 46(3), 1999) in the Levenshtein
    formulation of H. Hyyrö ("A bit-vector algorithm for computing Levenshtein
    and Damerau edit distances", Nordic Journal of Computing 10(1), 2003).
    One Python integer holds a whole DP column as vertical +1/-1 deltas.
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la < lb:
        a, b, la, lb = b, a, lb, la
    # shared prefixes and suffixes never change the distance
    start = 0
    while start < lb and a[start] == b[start]:
        start += 1
    if start == lb:
        return la - lb
    while a[la - 1] == b[lb - 1]:
        la -= 1
        lb -= 1
        if lb == start:
            return la - lb
    # bit i of peq[atom] is set where b[start + i] == atom
    peq: dict = {}
    get = peq.get
    bit = 1
    for atom in b[start:lb]:
        peq[atom] = get(atom, 0) | bit
        bit <<= 1
    mask = bit - 1
    # Bit i of pv/mv: D[i+1][j] - D[i][j] is +1/-1 in the current column j.
    # d0: rows whose diagonal step is 0; ph and d0 & pv: rows whose step from
    # column j-1 is +1 and -1 (ph already shifted down a row).  "^ mask" stands
    # in for "~" so every vector stays a non-negative int; bits above m - 1
    # are don't-cares, and masking pv alone keeps them from piling up.  mv
    # stays below bit m: a carry into d0's bit m needs pv's bit m - 1 set,
    # and ph's bit m needs it clear.
    pv, mv = mask, 0
    for atom in a[start:la]:
        eq = get(atom, 0)
        d0 = (((eq & pv) + pv) ^ pv) | eq | mv
        ph = (mv | (d0 | pv) ^ mask) << 1 | 1
        pv = ((d0 & pv) << 1 | (d0 | ph) ^ mask) & mask
        mv = ph & d0
    # the last column's deltas sum from D[0][n] = n down to D[m][n]
    return la - start + pv.bit_count() - mv.bit_count()


# --- outcome types -----------------------------------------------------------

class OutcomeStatus(str, Enum):
    PASS = "pass"
    TEST_FAILED = "test_failed"
    ASSEMBLE_ERROR = "assemble_error"
    LINK_ERROR = "link_error"
    RUNTIME_CRASH = "runtime_crash"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class TestOutcome:
    __test__ = False  # not a pytest class, despite the name

    status: OutcomeStatus
    failed_count: int = 0
    signal_name: str = ""

    @property
    def is_pass(self) -> bool:
        return self.status is OutcomeStatus.PASS

    @classmethod
    def passed(cls) -> "TestOutcome":
        return cls(OutcomeStatus.PASS)

    @classmethod
    def test_failed(cls, failed_count: int) -> "TestOutcome":
        return cls(OutcomeStatus.TEST_FAILED, failed_count=failed_count)

    @classmethod
    def crash(cls, signal_name: str) -> "TestOutcome":
        return cls(OutcomeStatus.RUNTIME_CRASH, signal_name=signal_name)

    def describe(self) -> str:
        if self.status is OutcomeStatus.TEST_FAILED:
            return f"test_failed({self.failed_count})"
        if self.status is OutcomeStatus.RUNTIME_CRASH:
            return f"runtime_crash({self.signal_name})"
        return self.status.value


class ErrorClass(str, Enum):
    REGISTER_ALLOCATION = "register_allocation"
    ADDRESSING = "addressing"
    OTHER = "other"


@dataclass(frozen=True)
class EvalResult:
    pair_id: str
    backend_id: str
    edit_distance: int
    exact_match: bool
    outcome: TestOutcome
    error_class: ErrorClass | None
    candidate_index_used: int
    logs: str = ""

    def __post_init__(self) -> None:
        if self.exact_match and self.edit_distance != 0:
            raise ValueError("exact_match requires edit_distance == 0")
        if self.outcome.is_pass != (self.error_class is None):
            raise ValueError("error_class present iff outcome is not Pass")


@dataclass(frozen=True)
class SuiteSummary:
    n: int
    avg_edit_distance: float
    exact_match_rate: float
    test_accuracy: float
    error_class_histogram: dict[str, int] = field(default_factory=dict)


def summarize(results: Sequence[EvalResult]) -> SuiteSummary:
    n = len(results)
    if n == 0:
        return SuiteSummary(0, 0.0, 0.0, 0.0, {})
    histogram: dict[str, int] = {}
    for r in results:
        if r.error_class is not None:
            histogram[r.error_class.value] = histogram.get(r.error_class.value, 0) + 1
    return SuiteSummary(
        n=n,
        avg_edit_distance=sum(r.edit_distance for r in results) / n,
        exact_match_rate=sum(r.exact_match for r in results) / n,
        test_accuracy=sum(r.outcome.is_pass for r in results) / n,
        error_class_histogram=dict(sorted(histogram.items())),
    )


# --- syntactic scoring -------------------------------------------------------

def score_syntactic(
    candidate: str,
    ground_truth: str,
    isa: IsaName | str,
    raw: bool = False,
    line_level: bool = False,
) -> tuple[int, bool]:
    """Normalize both texts alike (see ``normalize``), then edit distance + equality.

    Character granularity by default; ``line_level`` computes the distance
    over normalized lines as atoms instead (reported separately, never mixed).
    """
    isa_name = IsaName(isa)
    cand_norm = normalize(candidate, raw, isa_name)
    truth_norm = normalize(ground_truth, raw, isa_name)
    if line_level:
        distance = levenshtein(cand_norm.splitlines(), truth_norm.splitlines())
    else:
        distance = levenshtein(cand_norm, truth_norm)
    return distance, cand_norm == truth_norm


# --- functional execution ----------------------------------------------------

def _signal_name(code: int) -> str:
    try:
        return signal_module.Signals(code).name
    except ValueError:
        return f"SIG{code}"


# The assemble_link steps that name neither {candidate} nor {output} (the test
# driver, start stubs) are the pair's driver build.  It gives the same files
# for the same inputs, so each distinct one runs once per process.
BUILD_CACHE_ENTRIES = 256


def _step_role(step: str) -> str:
    """An assemble_link step's role, by its placeholders (see ``IsaCommands``)."""
    if "{candidate}" in step:
        return "candidate"
    return "output" if "{output}" in step else "driver"


def _step_outcome(
    role: str, step: str, proc: subprocess.CompletedProcess | None
) -> TestOutcome | None:
    """The TestOutcome of a step's exit by its role, or None to go on to the
    next step; ``proc`` is None after a timeout.  A driver step that fails or
    times out, and an {output} step that times out, raise ToolchainError."""
    if role == "emulate":
        if proc is None:
            return TestOutcome(OutcomeStatus.TIMEOUT)
        rc = proc.returncode
        if rc < 0:
            return TestOutcome.crash(_signal_name(-rc))
        return TestOutcome.test_failed(rc) if rc else TestOutcome.passed()
    if proc is not None and proc.returncode == 0:
        return None
    if role == "candidate":
        return TestOutcome(OutcomeStatus.ASSEMBLE_ERROR)
    if proc is None:
        raise ToolchainError(f"build step timed out: {step}", command=step)
    if role == "output":
        return TestOutcome(OutcomeStatus.LINK_ERROR)
    raise ToolchainError(
        f"test-driver build failed ({proc.returncode}): "
        f"{(proc.stderr + proc.stdout)[:400]}",
        command=step,
    )


def _run_step(
    role: str, step: str, mapping: dict[str, str], timeout: float, td: str
) -> tuple[TestOutcome | None, str]:
    """Run one build or run step: its ``_step_outcome`` and its log line, where
    the run's directory ``td`` reads {tmpdir} so records stay deterministic."""
    try:
        proc = toolrun.run_command(step, mapping, timeout)
        line = f"$ {step}\n{proc.stdout}{proc.stderr}".rstrip().replace(td, "{tmpdir}")
    except subprocess.TimeoutExpired:
        proc, line = None, f"$ {step}\n(timed out after {timeout}s)"
    return _step_outcome(role, step, proc), line


@functools.lru_cache(maxsize=BUILD_CACHE_ENTRIES)
def build_driver(
    steps: tuple[str, ...], test_src: str, opt: str, timeout: float, digests: tuple
) -> tuple[tuple[str, ...], tuple[tuple[str, int, bytes | None], ...]]:
    """Run the driver steps in order in a {tmpdir} of their own.

    Returns each step's log line, with that directory written as {tmpdir},
    and the (relative path, mode, bytes) of everything the steps left there,
    bytes None for a directory.  ``digests`` (the SHA-256 of each file the
    steps' command lines name) only keys the cache.  A failing or timed-out
    step raises ToolchainError, which is never cached.
    """
    lines = []
    with tempfile.TemporaryDirectory(prefix="xisa-driver-") as td:
        mapping = {"test_src": test_src, "opt": opt, "tmpdir": td}
        for step in steps:
            lines.append(_run_step("driver", step, mapping, timeout, td)[1])
        files = tuple(
            (path.relative_to(td).as_posix(), path.stat().st_mode & 0o7777,
             None if path.is_dir() else path.read_bytes())
            for path in sorted(Path(td).rglob("*"))
        )
    return tuple(lines), files


def _driver_key(steps: tuple[str, ...], pair: TranspilePair, cfg: ToolchainConfig) -> tuple:
    """``build_driver``'s arguments: the steps, {test_src}, {opt},
    timeout_compile, and the SHA-256 of each file the steps' command lines
    name when rendered without {tmpdir} (None for a token naming none)."""
    mapping = {"test_src": pair.test_source_path, "opt": cfg.optimization_level}
    digests = tuple(
        hashlib.sha256(Path(tok).read_bytes()).hexdigest() if os.path.isfile(tok) else None
        for step in steps
        for tok in toolrun.render_command(step, mapping)
    )
    return steps, pair.test_source_path, cfg.optimization_level, cfg.timeout_compile, digests


def run_functional(
    candidate_text: str,
    pair: TranspilePair,
    cfg: ToolchainConfig,
) -> tuple[TestOutcome, str]:
    """Assemble + link the candidate with the pair's test driver, then run it.

    Candidate faults map to TestOutcome; broken infrastructure (missing tools,
    failing test-driver builds) raises ToolchainError instead so harness bugs
    are never scored as translation failures.  A failing build step's
    placeholders alone decide which (see ``IsaCommands``).  First
    ``build_driver`` runs every step that names neither {candidate} nor
    {output}, in order, in a directory of their own, or returns what it built
    before for the same key; their files are copied into this run's {tmpdir}
    and their log lines open the logs.  Then the other steps run in config
    order, then the emulator.  So a driver step may read only files named on
    its command line or written by earlier driver steps, never a candidate
    step's output.
    """
    if not pair.test_source_path:
        raise ValueError(f"pair {pair.pair_id} has no test program")
    cmds = cfg.require(pair.target_isa, "assemble_link", "emulate")
    steps = [(_step_role(s), s) for s in cmds.assemble_link]
    driver = tuple(s for role, s in steps if role == "driver")
    others = [(role, s) for role, s in steps if role != "driver"]
    driver_lines, files = build_driver(*_driver_key(driver, pair, cfg))
    logs = list(driver_lines)

    with tempfile.TemporaryDirectory(prefix="xisa-run-") as td:
        for rel, mode, data in files:
            path = Path(td) / rel
            if data is None:
                path.mkdir(exist_ok=True)
            else:
                path.write_bytes(data)
            path.chmod(mode)
        candidate_path = Path(td) / "candidate.s"
        text = candidate_text if candidate_text.endswith("\n") else candidate_text + "\n"
        candidate_path.write_text(text, encoding="utf-8")
        binary_path = Path(td) / "prog"
        mapping = {
            "candidate": str(candidate_path),
            "test_src": pair.test_source_path,
            "output": str(binary_path),
            "tmpdir": td,
            "opt": cfg.optimization_level,
        }

        for role, step in others:
            outcome, line = _run_step(role, step, mapping, cfg.timeout_compile, td)
            logs.append(line)
            if outcome is not None:
                return outcome, "\n".join(logs)

        outcome, line = _run_step(
            "emulate", cmds.emulate, {"input": str(binary_path)}, cfg.timeout_run, td
        )
        logs.append(line)
        return outcome, "\n".join(logs)


# --- error taxonomy ----------------------------------------------------------

@dataclass(frozen=True)
class ClassifierRules:
    addressing_signals: frozenset[str]
    addressing_patterns: tuple[str, ...]
    regalloc_patterns: tuple[str, ...]


@functools.cache
def load_classifier_rules() -> ClassifierRules:
    text = (
        resources.files("xisa.data").joinpath("error_patterns.cfg").read_text("utf-8")
    )
    cp = configparser.RawConfigParser()
    cp.read_string(text)
    split_lines = lambda s: tuple(  # noqa: E731
        line.strip().lower() for line in s.splitlines() if line.strip()
    )
    return ClassifierRules(
        addressing_signals=frozenset(cp.get("addressing", "signals").split()),
        addressing_patterns=split_lines(cp.get("addressing", "log_patterns")),
        regalloc_patterns=split_lines(cp.get("register_allocation", "log_patterns")),
    )


def classify_error(
    outcome: TestOutcome,
    logs: str,
    candidate: AssemblyUnit,
) -> ErrorClass:
    """Rule cascade over a non-Pass outcome.

    1. memory-fault crash signal or addressing text in the logs -> ADDRESSING
    2. a dead write in the candidate's register profile, or an
       assembler diagnostic naming a register conflict -> REGISTER_ALLOCATION
    3. everything else (bad constants, FP exceptions, wrong results,
       timeouts) -> OTHER
    """
    if outcome.is_pass:
        raise ValueError("classify_error is defined for non-Pass outcomes only")
    rules = load_classifier_rules()
    lowered = logs.lower()

    if outcome.status is OutcomeStatus.RUNTIME_CRASH:
        if outcome.signal_name in rules.addressing_signals:
            return ErrorClass.ADDRESSING
    if any(pat in lowered for pat in rules.addressing_patterns):
        return ErrorClass.ADDRESSING

    if any(pat in lowered for pat in rules.regalloc_patterns):
        return ErrorClass.REGISTER_ALLOCATION
    profile = static_register_profile(candidate)
    if any(p.overwrite_without_read_lines for p in profile.values()):
        return ErrorClass.REGISTER_ALLOCATION

    return ErrorClass.OTHER


# --- suite evaluation ----------------------------------------------------------

def evaluate_pair(
    pair: TranspilePair,
    backend: Backend,
    params: GenerationParams,
    cfg: ToolchainConfig,
    raw: bool = False,
    line_level: bool = False,
) -> EvalResult:
    """Score one pair.  A backend's refusal scores as an empty beam 0 that
    failed its test, in class OTHER; every other error propagates."""
    try:
        response = backend.transpile(
            TranspileRequest(
                source_text=pair.x86.normalized_text,
                target_isa=pair.target_isa,
                params=params,
            )
        )
    except BackendRefused as exc:
        candidates = [""]
        outcome, logs = TestOutcome.test_failed(0), f"backend error: {exc}"
        error_class = ErrorClass.OTHER
    else:
        candidates = [c.text for c in response.candidates]
        outcome, logs = run_functional(candidates[0], pair, cfg)
        error_class = None
    distance, exact = score_syntactic(
        candidates[0], pair.target.raw_text, pair.target_isa, raw, line_level
    )

    # beam 0 is reported unless a later beam passes
    chosen_index = 0
    if not outcome.is_pass:
        for index, text in enumerate(candidates[1:], start=1):
            later, later_logs = run_functional(text, pair, cfg)
            if later.is_pass:
                outcome, logs, chosen_index = later, later_logs, index
                break

    if not outcome.is_pass and error_class is None:
        unit = parse_assembly(candidates[chosen_index], pair.target_isa)
        error_class = classify_error(outcome, logs, unit)

    return EvalResult(
        pair_id=pair.pair_id,
        backend_id=backend.backend_id,
        edit_distance=distance,
        exact_match=exact,
        outcome=outcome,
        error_class=error_class,
        candidate_index_used=chosen_index,
        logs=logs,
    )


def evaluate_suite(
    pairs: Sequence[TranspilePair],
    backend: Backend,
    params: GenerationParams,
    cfg: ToolchainConfig,
    raw: bool = False,
    jobs: int = 1,
    line_level: bool = False,
) -> tuple[list[EvalResult], SuiteSummary]:
    """Evaluate every pair; results come back sorted by pair_id."""
    if not pairs:
        raise ValueError("empty suite")
    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        results = list(
            pool.map(
                lambda p: evaluate_pair(p, backend, params, cfg, raw, line_level),
                pairs,
            )
        )
    results.sort(key=lambda r: r.pair_id)
    return results, summarize(results)


# --- cross-architecture agreement ---------------------------------------------

@dataclass(frozen=True)
class ConfusionCounts:
    both_pass: int
    both_fail: int
    a_only_fail: int
    b_only_fail: int

    @property
    def n(self) -> int:
        return self.both_pass + self.both_fail + self.a_only_fail + self.b_only_fail

    @property
    def agreement_exact(self) -> Fraction:
        if self.n == 0:
            return Fraction(0)
        return Fraction(self.both_pass + self.both_fail, self.n)

    @property
    def agreement(self) -> float:
        return float(self.agreement_exact)


def confusion_matrix(
    results_a: Sequence[EvalResult], results_b: Sequence[EvalResult]
) -> ConfusionCounts:
    a_by_id = {r.pair_id: r for r in results_a}
    b_by_id = {r.pair_id: r for r in results_b}
    if set(a_by_id) != set(b_by_id):
        only_a = sorted(set(a_by_id) - set(b_by_id))[:5]
        only_b = sorted(set(b_by_id) - set(a_by_id))[:5]
        raise MismatchedSuites(
            f"pair_id sets differ (a-only: {only_a}, b-only: {only_b})"
        )
    both_pass = both_fail = a_only = b_only = 0
    for pair_id, ra in a_by_id.items():
        rb = b_by_id[pair_id]
        if ra.outcome.is_pass and rb.outcome.is_pass:
            both_pass += 1
        elif not ra.outcome.is_pass and not rb.outcome.is_pass:
            both_fail += 1
        elif not ra.outcome.is_pass:
            a_only += 1
        else:
            b_only += 1
    return ConfusionCounts(both_pass, both_fail, a_only, b_only)


# --- record serialization -------------------------------------------------------

def result_to_record(result: EvalResult) -> dict:
    return {
        "schema": RESULT_SCHEMA,
        "pair_id": result.pair_id,
        "backend_id": result.backend_id,
        "edit_distance": result.edit_distance,
        "exact_match": result.exact_match,
        "outcome": result.outcome.status.value,
        "failed_count": result.outcome.failed_count,
        "signal_name": result.outcome.signal_name,
        "error_class": result.error_class.value if result.error_class else None,
        "candidate_index_used": result.candidate_index_used,
        "logs": result.logs,
    }


def record_to_result(record: dict) -> EvalResult:
    return EvalResult(
        pair_id=record["pair_id"],
        backend_id=record["backend_id"],
        edit_distance=record["edit_distance"],
        exact_match=record["exact_match"],
        outcome=TestOutcome(
            OutcomeStatus(record["outcome"]),
            failed_count=record["failed_count"],
            signal_name=record["signal_name"],
        ),
        error_class=ErrorClass(record["error_class"]) if record["error_class"] else None,
        candidate_index_used=record["candidate_index_used"],
        logs=record["logs"],
    )


def read_results(path: str | Path) -> list[EvalResult]:
    """The records of a results file; its summary is ``summarize`` of them."""
    return list(read_records(path, RESULT_SCHEMA, record_to_result))
