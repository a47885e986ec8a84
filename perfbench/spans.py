"""In-memory spans around calls into xisa's layers, recorded from outside.

``install_xisa`` replaces public functions, and the module-level names
other xisa modules call them through, with wrappers that record a span:
name, layer, trace id, start, end, parent and numeric attributes.  Spans stay
in memory; ``write`` dumps them once the run is over.  ``uninstall`` puts the
original functions back, so untraced cycles run the program unchanged.
"""
from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        # each span: [name, layer, trace_id, start, end, parent, attrs]
        self.spans: list[list] = []
        self.trace_id = ""
        self.tag = ""  # size class of the pair being scored, set by the caller
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str, layer: str, trace_id: str | None) -> list:
        stack = self._stack()
        # a worker thread's outermost span belongs to the main thread's
        # innermost open span, which submitted the work
        parent_stack = stack or self._main_stack
        parent = parent_stack[-1] if parent_stack else -1
        if trace_id is None:
            trace_id = self.spans[parent][2] if parent >= 0 else self.trace_id
        span = [name, layer, trace_id, time.perf_counter(), 0.0, parent, {}]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, layer: str, trace_id: str | None = None):
        sp = self._open(name, layer, trace_id)
        try:
            yield sp[6]
        finally:
            self._close(sp)

    # --- wrapping -------------------------------------------------------------

    def wrap(self, owners, attr: str, name, layer: str, observe=None, key=None):
        """Wrap ``attr`` on every object in ``owners`` (one shared original).

        ``name`` is a string or ``name(args, kwargs)``; ``observe(attrs, args,
        kwargs, result)`` adds counts after the span closes; ``key(args,
        kwargs)`` gives the span its own trace id.
        """
        original = getattr(owners[0], attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            sp = self._open(label, layer, key(args, kwargs) if key else None)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                sp[6]["error." + type(exc).__name__] = 1
                raise
            finally:
                self._close(sp)
            if observe:
                observe(sp[6], args, kwargs, result)
            return result

        for owner in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- analysis -------------------------------------------------------------

    def summarize(self, first: int, last: int) -> dict[str, float]:
        """Totals over spans ``first..last-1``: ``<name>.s`` (seconds),
        ``<name>.n`` (calls), ``<name>.<attr>`` (summed counts) and
        ``self.<layer>.s``, a layer's span time minus the part its child
        spans cover."""
        out: dict[str, float] = defaultdict(float)
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for i in range(first, last):
            name, layer, _tid, start, end, parent, attrs = self.spans[i]
            out[name + ".s"] += end - start
            out[name + ".n"] += 1
            for k, v in attrs.items():
                out[f"{name}.{k}"] += v
            if parent >= first:
                children[parent].append((start, end))
        for i in range(first, last):
            _name, layer, _tid, start, end, _parent, _attrs = self.spans[i]
            covered, reach = 0.0, start
            for s, e in sorted(children.get(i, ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            out[f"self.{layer}.s"] += end - start - covered
        return out

    def write(self, fh) -> None:
        """One JSON object per span, in start order, to a text file."""
        keys = ("name", "layer", "trace_id", "start", "end", "parent", "attrs")
        for span in self.spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def install_xisa(tracer: Tracer, classify_command) -> None:
    """Wrap the xisa functions named by the per-layer metrics.

    ``classify_command(template)`` names the build stage of a command
    template: compile, assemble, link or exec.
    """
    from xisa import (armvm, asmtext, backends, dataset, evaluation, segmenter,
                      tokenizer, toolrun)

    def parsed(attrs, args, kwargs, unit):
        attrs["lines"] = len(unit.lines)
        attrs["fallbacks"] = unit.parse_fallbacks

    def flags(attrs, args, kwargs, profile):
        attrs["flags"] = sum(len(p.overwrite_without_read_lines) for p in profile.values())

    def tokens(attrs, args, kwargs, stream):
        attrs["tokens"] = len(stream.tokens)

    def segments(attrs, args, kwargs, segs):
        attrs["segments"] = len(segs)
        attrs["violations"] = sum(s.budget_violation for s in segs)

    def cells(attrs, args, kwargs, _distance):
        a, b = args[0], args[1]
        # DP cells left once the shared prefix and suffix are stripped
        start = 0
        while start < len(a) and start < len(b) and a[start] == b[start]:
            start += 1
        end_a, end_b = len(a), len(b)
        while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
            end_a -= 1
            end_b -= 1
        attrs["cells"] = (end_a - start) * (end_b - start)

    def lev_name(args, kwargs):
        if isinstance(args[0], str):
            return f"evaluation.levenshtein.char.{tracer.tag or 'other'}"
        return "evaluation.levenshtein.line"

    w = tracer.wrap
    w([asmtext, evaluation, dataset, backends], "parse_assembly", "asmtext.parse", "asmtext", parsed)
    w([asmtext, evaluation, dataset], "normalize", "asmtext.normalize", "asmtext")
    w([asmtext, evaluation], "static_register_profile", "asmtext.profile", "asmtext", flags)
    w([tokenizer], "tokenize",
      lambda a, k: "tokenizer.byte" if not a[1].extended_entries else "tokenizer.extended",
      "tokenizer", tokens)
    w([tokenizer], "build_vocab", "tokenizer.build_vocab", "tokenizer")
    w([segmenter], "token_count", "segmenter.tokenize_call", "tokenizer")
    w([segmenter], "segment_unit", "segmenter.segment", "segmenter", segments)
    w([evaluation], "levenshtein", lev_name, "evaluation", cells)
    w([evaluation], "score_syntactic", "evaluation.score", "evaluation")
    w([evaluation], "run_functional", "evaluation.functional", "evaluation")
    w([evaluation], "classify_error", "evaluation.classify", "evaluation")
    w([toolrun, dataset], "run_command",
      lambda a, k: "toolrun." + classify_command(a[0]), "toolrun")
    w([dataset], "tool_version_line", "toolrun.version", "toolrun")
    w([dataset], "compile_pair", "dataset.compile_pair", "dataset",
      key=lambda a, k: "pair:" + (k.get("pair_id") or Path(a[0]).stem))
    w([dataset], "build_corpus", "dataset.build_corpus", "dataset")
    w([dataset], "load_eval_suite", "dataset.load_eval_suite", "dataset")
    # a refusal shows as the count "backends.rule.error.UnsupportedInstruction"
    w([backends.RuleBackend], "transpile", "backends.rule", "backends")
    w([armvm], "load_elf", "armvm.load_elf", "armvm")
    w([armvm], "run", "armvm.run", "armvm")
