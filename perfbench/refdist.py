"""Reference Levenshtein distance for the benchmark's correctness checks.

Myers' bit-vector algorithm in Hyyro's formulation (G. Myers, JACM 1999;
H. Hyyro, 2003): one Python integer holds a whole DP column, so golden values
for multi-thousand-character pairs cost milliseconds.  It is independent of
``xisa.evaluation.levenshtein``, which it checks.  Atoms may be characters or
lines; ``peq`` is a dict, so any hashable atom works.
"""
from __future__ import annotations

from collections.abc import Sequence


def edit_distance(a: Sequence, b: Sequence) -> int:
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    peq: dict = {}
    for i, atom in enumerate(b):
        peq[atom] = peq.get(atom, 0) | 1 << i
    pv, mv, score = mask, 0, m
    for atom in a:
        eq = peq.get(atom, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score
