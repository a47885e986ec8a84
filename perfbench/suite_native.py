"""``suite-native``: gcc-only self-translation (x86_64 -> x86_64), end to end.

Per cycle: ``xisa dataset build`` over ``c_corpus`` through ``xisa.cli.main``;
``load_eval_suite`` over ``mini_suite`` and ``rule_suite``; then each problem's
seeded beam list is evaluated with the steps of ``evaluate_pair``, applied
here because ``evaluate_pair`` refuses an x86_64 target:
``score_syntactic`` on beam 0, ``run_functional`` on each beam until the
first pass, ``classify_error`` on the candidate chosen.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import subprocess
from pathlib import Path

import mutate
import refdist
from common import CONFIG, FIXTURES, Cycle, Stopwatch, rng_for

SUITES = ("mini_suite", "rule_suite")
C_CORPUS = FIXTURES / "c_corpus"


class SuiteNative:
    main_stage = "eval"
    ingest_stage = "load"
    # this workload's own names: seconds per item of each stage, and the tail
    stage_names = {"build_s_per_pair": "build", "load_s_per_pair": "load",
                   "eval_s_per_pair": "eval"}
    tail_name = "eval_tail_s"
    reference_nominal_s = 0.15

    def reference(self) -> None:
        """Fixed toolchain work without xisa: gcc builds and runs one fixture."""
        problem = FIXTURES / "mini_suite" / "p01_sum_upto"
        binary = self.work / "reference"
        for _ in range(3):
            subprocess.run(["gcc", "-O0", str(problem / "func.c"), str(problem / "test.c"),
                            "-o", str(binary)], check=True)
            subprocess.run([str(binary)], check=True)

    def __init__(self, seed: int, work: Path, jobs: int):
        self.seed = seed
        self.work = work
        self.jobs = jobs
        self._golden: dict[tuple[str, str], tuple[int, bool]] = {}
        self._expected_store: dict[str, str] | None = None

    def setup(self) -> None:
        from xisa import core

        self.cfg = core.load_config(CONFIG)
        self.problems = sorted(
            p.name for s in SUITES for p in (FIXTURES / s).iterdir() if p.is_dir())
        self.plan = mutate.beam_plan(self.problems, rng_for(self.seed, "plan"))

    # --- timed stages -----------------------------------------------------------

    def cycle(self, tracer=None) -> Cycle:
        from xisa import asmtext, cli, dataset, evaluation

        out = Cycle()
        store = self.work / "pairs.ndjson"
        argv = ["dataset", "build", "--src", str(C_CORPUS), "--target", "x86_64",
                "--jobs", str(self.jobs), "--config", str(CONFIG), "--out", str(store)]
        watch = Stopwatch()
        with contextlib.redirect_stdout(io.StringIO()), watch:
            with (tracer.span("cli.main", "cli", "build") if tracer else contextlib.nullcontext()):
                status = cli.main(argv)
        out.add("build", watch.seconds, len(list(C_CORPUS.glob("*.c"))))
        out.attempted += 1
        if status != 0:
            out.failed += 1
        else:
            out.wrong += self._check_store(store, out)

        pairs = []
        watch = Stopwatch()
        for suite in SUITES:
            out.attempted += 1
            try:
                with watch:
                    pairs += dataset.load_eval_suite(FIXTURES / suite, "x86_64", self.cfg)
            except Exception:  # noqa: BLE001 - counted, the run goes on
                out.failed += 1
        out.add("load", watch.seconds, len(self.problems))
        out.wrong += self._check_pairs(pairs)

        mismatches = 0
        for pair in pairs:
            kinds = self.plan[pair.pair_id]
            truth = pair.target.normalized_text
            beams = [mutate.mutate(truth, k, rng_for(self.seed, pair.pair_id, i, k))
                     for i, k in enumerate(kinds)]
            if tracer:
                tracer.trace_id, tracer.tag = "pair:" + pair.pair_id, "suite"
            out.attempted += 1
            watch = Stopwatch()
            try:
                with watch:
                    distance, exact = evaluation.score_syntactic(beams[0], truth, "x86_64")
                    runs = []
                    for text in beams:
                        runs.append(evaluation.run_functional(text, pair, self.cfg))
                        if runs[-1][0].is_pass:
                            break
                    chosen = len(runs) - 1 if runs[-1][0].is_pass else 0
                    outcome, logs = runs[chosen]
                    error_class = None
                    if not outcome.is_pass:
                        unit = asmtext.parse_assembly(beams[chosen], pair.target_isa)
                        error_class = evaluation.classify_error(outcome, logs, unit)
            except Exception:  # noqa: BLE001 - counted, the run goes on
                out.failed += 1
                continue
            out.add("eval", watch.seconds)
            out.samples.append(watch.seconds)
            out.counts["functional_runs"] = out.counts.get("functional_runs", 0) + len(runs)
            out.wrong += self._check_eval(kinds, beams, truth, distance, exact, runs, chosen)
            if error_class is not None and \
                    error_class.value != mutate.EXPECTED_CLASS[kinds[chosen]]:
                mismatches += 1
        out.counts["class_mismatches"] = mismatches
        return out

    # --- checks, outside the timed stages -------------------------------------

    def _expected_records(self) -> dict[str, str]:
        """pair_id -> gcc's x86 assembly, computed without xisa."""
        if self._expected_store is None:
            import configparser

            cp = configparser.RawConfigParser()
            cp.read(CONFIG)
            template = cp.get("x86_64", "compile")
            opt = cp.get("global", "opt_level")
            expected = {}
            for c in sorted(C_CORPUS.glob("*.c")):
                asm = self.work / "expected.s"
                argv = [t.format(opt=opt, input=c, output=asm) for t in shlex.split(template)]
                subprocess.run(argv, check=True, capture_output=True)
                pid = f"{c.stem}-{hashlib.sha256(c.read_bytes()).hexdigest()[:10]}"
                expected[pid] = asm.read_text(encoding="utf-8")
            self._expected_store = expected
        return self._expected_store

    def _check_store(self, store: Path, out: Cycle) -> int:
        """The store as a set of records.  Its line order follows thread
        completion today, so order is recorded, not counted as wrong."""
        expected = self._expected_records()
        records = [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()]
        ids = [r["pair_id"] for r in records]
        out.counts["store_unsorted"] = out.counts.get("store_unsorted", 0) + (ids != sorted(ids))
        out.counts["store_bytes"] = store.stat().st_size
        wrong = abs(len(records) - len(expected))
        for r in records:
            ok = (expected.get(r["pair_id"]) == r["x86_raw"] == r["target_raw"]
                  and r["target_isa"] == "x86_64"
                  and r["token_count_x86"] == len(r["x86_normalized"]))
            wrong += not ok
        return wrong

    def _check_pairs(self, pairs) -> int:
        ids = [p.pair_id for p in pairs]
        wrong = int(ids != self.problems)
        for p in pairs:
            src = Path(p.c_source_path)
            wrong += not (p.x86.raw_text == p.target.raw_text
                          and p.test_source_path == str(src.parent / "test.c"))
        return wrong

    def _check_eval(self, kinds, beams, truth, distance, exact, runs, chosen) -> int:
        from xisa import asmtext

        wrong = 0
        for kind, (outcome, _logs) in zip(kinds, runs):
            wrong += outcome.status.value != mutate.EXPECTED_STATUS[kind]
            if kind == mutate.NULLDEREF:
                wrong += outcome.signal_name != "SIGSEGV"
        expected_runs = kinds.index(mutate.TRUTH) + 1 if mutate.TRUTH in kinds else len(kinds)
        wrong += len(runs) != expected_runs
        wrong += chosen != (expected_runs - 1 if mutate.TRUTH in kinds else 0)
        key = (beams[0], truth)
        if key not in self._golden:
            norm = [asmtext.normalize(asmtext.parse_assembly(t, "x86_64")) for t in key]
            self._golden[key] = (refdist.edit_distance(*norm), norm[0] == norm[1])
        wrong += (distance, exact) != self._golden[key]
        return wrong
