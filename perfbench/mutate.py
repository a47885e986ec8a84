"""Candidate mutator for the ``suite-native`` workload.

Each mutant kind breaks gcc -O0 x86-64 ground truth in one way whose
functional outcome is known by construction, so the benchmark can check the
outcome ``run_functional`` reports without asking xisa what to expect.  None
of them can time out: a timeout costs ``timeout_run`` and its outcome depends
on machine speed.
"""
from __future__ import annotations

import random
import re

TRUTH = "truth"
MNEMONIC = "mnemonic"  # one instruction gets a mnemonic gas does not know
SYMBOL = "symbol"  # every global symbol renamed: the test driver cannot link
NULLDEREF = "nullderef"  # a load through a null pointer at each function entry
WRONG = "wrong"  # every return value off by one: the test driver's checks fail
MUTANTS = (MNEMONIC, SYMBOL, NULLDEREF, WRONG)

#: Outcome status of each kind, by construction.
EXPECTED_STATUS = {
    TRUTH: "pass",
    MNEMONIC: "assemble_error",
    SYMBOL: "link_error",
    NULLDEREF: "runtime_crash",
    WRONG: "test_failed",
}

#: Error class the README taxonomy assigns to each failing kind: memory faults
#: are ``addressing``; an unknown mnemonic, an unresolved symbol and a wrong
#: result name no register conflict, so they are ``other``.
EXPECTED_CLASS = {
    MNEMONIC: "other",
    SYMBOL: "other",
    NULLDEREF: "addressing",
    WRONG: "other",
}

_GLOBL = re.compile(r"^\.globl\s+([\w.$]+)$")


def _is_instruction(line: str) -> bool:
    return bool(line) and not line.startswith(".") and not line.endswith(":")


def mutate(truth: str, kind: str, rng: random.Random) -> str:
    """``truth`` is normalized AT&T text, one statement per line."""
    lines = truth.splitlines()
    globals_ = [m.group(1) for m in map(_GLOBL.match, lines) if m]
    if kind == TRUTH:
        return truth
    if kind == MNEMONIC:
        at = rng.choice([i for i, line in enumerate(lines) if _is_instruction(line)])
        mnemonic, _, rest = lines[at].partition(" ")
        lines[at] = f"bad_{mnemonic} {rest}".rstrip()
    elif kind == SYMBOL:
        suffix = f"_r{rng.randrange(1000)}"
        pattern = re.compile(r"\b(" + "|".join(map(re.escape, globals_)) + r")\b")
        lines = [pattern.sub(lambda m: m.group(1) + suffix, line) for line in lines]
    elif kind == NULLDEREF:
        out = []
        for line in lines:
            out.append(line)
            if line.endswith(":") and line[:-1] in globals_:
                out += ["movq $0, %r11", "movl (%r11), %r11d"]
        lines = out
    elif kind == WRONG:
        out = []
        for line in lines:
            if line == "ret":
                out.append("addl $1, %eax")
            out.append(line)
        lines = out
    else:
        raise ValueError(f"unknown mutant kind {kind!r}")
    return "\n".join(lines) + "\n"


#: Beam lists per suite pass.  The seed deals them to problems, orders the
#: mutants inside each list and places each mutation; the multiset stays
#: fixed, so every seed asks for the same work.  The ground truth, when
#: present, is last: every candidate of a list is run.
BEAM_TEMPLATES = (
    [(TRUTH,)] * 5
    + [(k, TRUTH) for k in MUTANTS] + [(MNEMONIC, TRUTH)]
    + [(a, b, TRUTH) for a, b in
       ((MNEMONIC, SYMBOL), (NULLDEREF, WRONG), (MNEMONIC, WRONG),
        (SYMBOL, NULLDEREF), (MNEMONIC, NULLDEREF))]
    + [MUTANTS] * 5
    + [(k,) for k in MUTANTS] + [(MNEMONIC,)]
)


def beam_plan(problem_ids: list[str], rng: random.Random) -> dict[str, tuple[str, ...]]:
    """Seeded beam kinds per problem; needs exactly one problem per template."""
    if len(problem_ids) != len(BEAM_TEMPLATES):
        raise ValueError(
            f"{len(problem_ids)} problems for {len(BEAM_TEMPLATES)} beam templates")
    templates = list(BEAM_TEMPLATES)
    rng.shuffle(templates)
    plan = {}
    for pid, kinds in zip(sorted(problem_ids), templates):
        mutants = [k for k in kinds if k != TRUTH]
        rng.shuffle(mutants)
        plan[pid] = tuple(mutants) + ((TRUTH,) if TRUTH in kinds else ())
    return plan
