"""``corpus-text``: the in-process text layers, with no subprocess.

Inputs: the 20 frozen ``arm_corpus`` units, gcc's x86 output for the 20
``c_corpus`` files (compiled during set-up), and long units: each set dealt
by the seed into four concatenations.

- prep: ``parse_assembly`` + ``normalize`` + ``build_vocab``; byte and
  extended ``tokenize``; ``segment_unit`` at several budgets;
  ``static_register_profile``.
- score: ``RuleBackend`` translation of each x86 unit, scored by
  ``score_syntactic`` at character and line level against the frozen ARM
  ground truth, plus seeded ARM pairs in three size classes.
"""
from __future__ import annotations

from pathlib import Path

import refdist
from common import CONFIG, FIXTURES, Cycle, Stopwatch, python_reference, rng_for

BUDGETS = (64, 256, 1024)
VOCAB_TOP_K = 64
LONG_UNITS = 4  # per ISA, each concatenating a quarter of that ISA's units
# size class -> (pairs per cycle, characters per text); the sizes are exact,
# so every seed asks for the same work
SIZE_CLASSES = {"tiny": (40, 0), "mid": (4, 1000), "large": (4, 2000)}
TINY_BATCH = 20  # tiny pairs timed together: one sample is one batch


class CorpusText:
    main_stage = "score"
    ingest_stage = "prep"
    stage_names = {"prep_s_per_unit": "prep", "score_s_per_pair": "score"}
    tail_name = "score_tail_s"
    reference_nominal_s = 0.16

    @staticmethod
    def reference() -> None:
        python_reference()

    def __init__(self, seed: int, work: Path, jobs: int):
        self.seed = seed
        self.work = work
        self._golden: dict[tuple[str, str], tuple[int, bool, int]] = {}

    def setup(self) -> None:
        from xisa import core, toolrun

        cfg = core.load_config(CONFIG)
        compile_cmd = cfg.commands("x86_64").compile
        self.arm = {p.stem: p.read_text(encoding="utf-8")
                    for p in sorted((FIXTURES / "arm_corpus").glob("*.s"))}
        self.x86 = {}
        for c in sorted((FIXTURES / "c_corpus").glob("*.c")):
            asm = self.work / f"{c.stem}.s"
            proc = toolrun.run_command(
                compile_cmd, {"input": str(c), "output": str(asm),
                              "opt": cfg.optimization_level}, cfg.timeout_compile)
            if proc.returncode != 0:
                raise RuntimeError(f"gcc failed on {c}: {proc.stderr}")
            self.x86[c.stem] = asm.read_text(encoding="utf-8")
        rng = rng_for(self.seed, "units")
        self.units = [(f"arm:{k}", "armv5", v) for k, v in self.arm.items()]
        self.units += [(f"x86:{k}", "x86_64", v) for k, v in self.x86.items()]
        for isa, texts in (("armv5", self.arm), ("x86_64", self.x86)):
            # every unit lands in exactly one long unit: the same text per seed
            names = sorted(texts)
            rng.shuffle(names)
            for i in range(LONG_UNITS):
                parts = names[i::LONG_UNITS]
                self.units.append((f"long:{isa}:{i}", isa, "".join(texts[p] for p in parts)))
        self.pairs = self._sized_pairs(rng_for(self.seed, "pairs"))

    def _sized_pairs(self, rng) -> list[tuple[str, str, str]]:
        """(class, candidate, truth) ARM text pairs of exact sizes."""
        lines = [ln.strip() for text in self.arm.values() for ln in text.splitlines()
                 if ln.startswith("\t") and not ln.strip().startswith((".", "@"))]
        registers = [f"r{i}" for i in range(13)] + ["sp", "lr"]

        def text_of(n_chars: int) -> str:
            out = []
            while sum(map(len, out)) + len(out) < n_chars:
                out.append(rng.choice(lines))
            return "\n".join(out)[:n_chars]

        def edited(text: str) -> str:
            # about one edit per 40 characters, spread over the whole text
            chars = list(text)
            for _ in range(max(1, len(chars) // 40)):
                at = rng.randrange(len(chars))
                chars[at] = rng.choice("rx0123456789, #[]")
            return "".join(chars)

        pairs = []
        for _ in range(SIZE_CLASSES["tiny"][0]):
            a = rng.choice(lines)
            b = a.replace(rng.choice(registers), rng.choice(registers), 1)
            pairs.append(("tiny", b, a))
        for _ in range(SIZE_CLASSES["mid"][0]):
            truth = text_of(SIZE_CLASSES["mid"][1])
            pairs.append(("mid", edited(truth), truth))
        for _ in range(SIZE_CLASSES["large"][0]):
            size = SIZE_CLASSES["large"][1]
            pairs.append(("large", text_of(size), text_of(size)))
        return pairs

    # --- timed stages -----------------------------------------------------------

    def cycle(self, tracer=None) -> Cycle:
        from xisa import asmtext, backends, evaluation, segmenter, tokenizer
        from xisa.core import GenerationParams, IsaName
        from xisa.errors import UnsupportedInstruction

        out = Cycle()
        prepped = []
        watch = Stopwatch()
        with watch:
            for uid, isa, raw in self.units:
                if tracer:
                    tracer.trace_id = "unit:" + uid
                unit = asmtext.parse_assembly(raw, isa, source_id=uid)
                prepped.append((uid, unit, asmtext.normalize(unit)))
            if tracer:
                tracer.trace_id = "vocab"
            vocab = tokenizer.build_vocab([u for _, u, _ in prepped], VOCAB_TOP_K)
            results = []
            for uid, unit, norm in prepped:
                if tracer:
                    tracer.trace_id = "unit:" + uid
                streams = [tokenizer.tokenize(norm, spec)
                           for spec in (tokenizer.BYTE_BASELINE, vocab)]
                segments = [segmenter.segment_unit(unit, vocab, b) for b in BUDGETS]
                asmtext.static_register_profile(unit)
                results.append((unit, norm, streams, segments))
        out.add("prep", watch.seconds, len(self.units))
        out.attempted += len(self.units)
        out.wrong += sum(self._check_prep(*r) for r in results)

        x86_norm = {uid.split(":", 1)[1]: norm for uid, unit, norm in prepped
                    if uid.startswith("x86:")}
        backend = backends.RuleBackend()
        params = GenerationParams()
        refused = 0
        for stem, source in sorted(x86_norm.items()):
            if tracer:
                tracer.trace_id, tracer.tag = "rule:" + stem, "rule"
            out.attempted += 1
            watch = Stopwatch()
            try:
                with watch:
                    try:
                        response = backend.transpile(backends.TranspileRequest(
                            source_text=source, target_isa=IsaName.ARMV5, params=params))
                    except UnsupportedInstruction:
                        response = None
                    if response is not None:
                        cand = response.candidates[0].text
                        char = evaluation.score_syntactic(cand, self.arm[stem], "armv5")
                        line = evaluation.score_syntactic(
                            cand, self.arm[stem], "armv5", line_level=True)
            except Exception:  # noqa: BLE001 - counted, the run goes on
                out.failed += 1
                continue
            if response is None:
                refused += 1
                continue
            out.add("score", watch.seconds)
            out.samples.append(watch.seconds)
            out.wrong += self._check_score(cand, self.arm[stem], char, line)

        tiny_s, tiny_done = 0.0, 0
        for i, (cls, cand, truth) in enumerate(self.pairs):
            if tracer:
                tracer.trace_id, tracer.tag = f"pair:{cls}:{i}", cls
            out.attempted += 1
            watch = Stopwatch()
            try:
                with watch:
                    char = evaluation.score_syntactic(cand, truth, "armv5")
            except Exception:  # noqa: BLE001 - counted, the run goes on
                out.failed += 1
                continue
            out.add("score", watch.seconds)
            if cls == "tiny":
                tiny_s += watch.seconds
                tiny_done += 1
                if tiny_done % TINY_BATCH == 0:
                    out.samples.append(tiny_s / TINY_BATCH)
                    tiny_s = 0.0
            else:
                out.samples.append(watch.seconds)
            out.wrong += self._check_score(cand, truth, char, None)
        out.counts["rule_refused"] = refused
        return out

    # --- checks, outside the timed stages -------------------------------------

    @staticmethod
    def _check_prep(unit, norm, streams, segment_sets) -> int:
        wrong = sum("".join(s.tokens) != norm for s in streams)
        wrong += len(streams[0].tokens) != len(norm)  # byte baseline: one per char
        body = [ln for span in unit.functions
                for ln in unit.lines[span.start_line:span.end_line]]
        for segs in segment_sets:
            wrong += [ln for s in segs for ln in s.lines] != body
        return wrong

    def _check_score(self, cand, truth, char, line) -> int:
        from xisa import asmtext

        key = (cand, truth)
        if key not in self._golden:
            a, b = (asmtext.normalize(asmtext.parse_assembly(t, "armv5")) for t in key)
            self._golden[key] = (refdist.edit_distance(a, b), a == b,
                                 refdist.edit_distance(a.splitlines(), b.splitlines()))
        dist, exact, line_dist = self._golden[key]
        wrong = char != (dist, exact)
        if line is not None:
            wrong += line != (line_dist, exact)
        return wrong
