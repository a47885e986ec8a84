"""Paths, the per-cycle record and small helpers shared by the workloads."""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
CONFIG = ROOT / "configs" / "clang-lite.cfg"


@dataclass
class Cycle:
    """One pass over a workload's inputs.

    ``stages`` holds timed seconds and ``items`` the operations each stage
    did; ``samples`` are the per-operation seconds of the workload's main
    stage.  ``wrong`` counts outputs that differ from the expected value and
    ``failed`` operations that raised or hit an infrastructure error.
    """

    stages: dict[str, float] = field(default_factory=dict)
    items: dict[str, int] = field(default_factory=dict)
    samples: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, stage: str, seconds: float, items: int = 1) -> None:
        self.stages[stage] = self.stages.get(stage, 0.0) + seconds
        self.items[stage] = self.items.get(stage, 0) + items


class Stopwatch:
    """``with watch:`` adds the block's wall time to ``watch.seconds``."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds += time.perf_counter() - self._t


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


_REF_A = "".join(chr(97 + (i * 7) % 13) for i in range(300))
_REF_B = "".join(chr(97 + (i * 5) % 11) for i in range(300))


def python_reference(rounds: int = 5) -> None:
    """Fixed interpreter-bound work that uses no xisa code: a plain two-row
    edit-distance DP over two constant strings."""
    for _ in range(rounds):
        row = list(range(len(_REF_B) + 1))
        for i, ca in enumerate(_REF_A, 1):
            diag, row[0] = row[0], i
            for j in range(1, len(_REF_B) + 1):
                up = row[j]
                cost = diag if ca == _REF_B[j - 1] else diag + 1
                cost = min(cost, row[j - 1] + 1, up + 1)
                row[j], diag = cost, up


def rng_for(seed: int, *parts: object) -> random.Random:
    """Independent deterministic stream per (seed, parts)."""
    return random.Random("/".join(map(str, (seed, *parts))))


def command_stage(cfg):
    """Map a command template to its build stage for the toolrun spans."""
    from xisa.core import IsaName

    kinds = {}
    for isa in IsaName:
        cmds = cfg.entries.get(isa)
        if cmds is None:
            continue
        kinds[cmds.compile] = "compile"
        kinds[cmds.emulate] = "exec"
        for step in cmds.assemble_link:
            kinds[step] = "link" if "{output}" in step else "assemble"

    def classify(template: str) -> str:
        return kinds.get(template, "other")

    return classify
