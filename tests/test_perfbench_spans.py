"""perfbench/spans.py's tracer still finds every xisa name it wraps (no gcc
needed): a renamed or unimported name would end every traced benchmark run."""
from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_SPEC = importlib.util.spec_from_file_location("spans", _PATH)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def test_install_xisa_wraps_each_original_and_uninstall_restores_it():
    tracer = spans.Tracer()
    try:
        spans.install_xisa(tracer, lambda template: "exec")
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr).__wrapped__ is original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)
