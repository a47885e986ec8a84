"""``armvm``: hand-encoded ARMv5 guests run through the ``emulate`` template
of ``clang-lite.cfg`` with ``toolrun.run_command``, the call
``run_functional`` makes.  No ARM binary can be built without an ARM
toolchain, so the guests come from ``armenc``.

The four shapes sit on different sides of a predecoding interpreter: a
3-instruction exit (startup only), a hot loop (heavy reuse), straight-line
code (every instruction runs once) and a loop storing into its own image,
code included (stores beside instruction fetch).
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import armenc
from common import CONFIG, Cycle, Stopwatch, rng_for

LOOP_ITERATIONS = 7000
STRAIGHT_LENGTH = 30000
SELFSTORE_ITERATIONS = 12000
# runs per cycle: the hot loop is the most common, so the tail sits in it
MIX = ("exit", "straight", "selfstore", "loop", "loop", "loop")


class ArmvmGuests:
    main_stage = "emulate"
    ingest_stage = "startup"
    stage_names = {"startup_s_per_run": "startup", "emulate_s_per_run": "emulate"}
    tail_name = "emulate_tail_s"
    reference_nominal_s = 0.16

    @staticmethod
    def reference() -> None:
        """Fixed work shaped like a guest run, without xisa: a fresh Python
        process running a plain-Python loop."""
        code = "from common import python_reference\npython_reference(3)"
        subprocess.run([sys.executable, "-c", code], check=True,
                       cwd=Path(__file__).resolve().parent)

    def __init__(self, seed: int, work: Path, jobs: int):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        from xisa import core

        cfg = core.load_config(CONFIG)
        self.emulate = cfg.require("armv5", "emulate").emulate
        self.timeout = cfg.timeout_run
        rng = rng_for(self.seed, "guests")
        guests = [armenc.exit_guest(rng),
                  armenc.loop_guest(rng, LOOP_ITERATIONS),
                  armenc.straight_guest(rng, STRAIGHT_LENGTH),
                  armenc.selfstore_guest(rng, SELFSTORE_ITERATIONS)]
        self.guests = {}
        for g in guests:
            path = self.work / f"{g.name}.elf"
            path.write_bytes(g.image)
            self.guests[g.name] = (g, path)

    def cycle(self, tracer=None) -> Cycle:
        from xisa import toolrun

        out = Cycle()
        for i, name in enumerate(MIX):
            guest, path = self.guests[name]
            if tracer:
                tracer.trace_id = f"guest:{name}:{i}"
            out.attempted += 1
            watch = Stopwatch()
            try:
                with watch:
                    proc = toolrun.run_command(self.emulate, {"input": str(path)}, self.timeout)
            except Exception:  # noqa: BLE001 - counted, the run goes on
                out.failed += 1
                continue
            out.add("emulate", watch.seconds)
            out.samples.append(watch.seconds)
            if name == "exit":
                out.add("startup", watch.seconds)
            out.wrong += proc.returncode != guest.exit_code or bool(proc.stderr)
        return out

    def probe(self, tracer, scale: float) -> dict[str, float]:
        """In-process ``load_elf`` and ``run`` per guest shape, traced, with
        the guests' own instruction counts: the armvm per-layer metrics.
        Seconds are multiplied by ``scale``, to reference speed."""
        from xisa import armvm

        instructions, first = 0, len(tracer.spans)
        for name, (guest, path) in self.guests.items():
            tracer.trace_id = f"probe:{name}"
            if armvm.run(str(path)) != guest.exit_code:
                raise RuntimeError(f"in-process armvm run of {name} exited wrongly")
            instructions += guest.instructions
        totals = tracer.summarize(first, len(tracer.spans))
        run_s = totals["armvm.run.s"] * scale
        return {
            "armvm.load_elf.s": totals["armvm.load_elf.s"] * scale,
            "armvm.run.s": run_s,
            "armvm.guest_instr": instructions,
            "armvm.minstr_per_s": instructions / run_s / 1e6,
        }
