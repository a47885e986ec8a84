"""Run configured command templates against the local toolchain."""
from __future__ import annotations

import shlex
import subprocess
import sys
from pathlib import Path

from .errors import ToolchainError


class _SafeMap(dict):
    def __missing__(self, key: str) -> str:
        return "{" + key + "}"


# filesystem path of the shipped package data (start stubs, role tables)
DATA_DIR = str(Path(__file__).resolve().parent / "data")


def render_command(template: str, mapping: dict[str, str]) -> list[str]:
    """Split a command template and substitute {placeholder} tokens."""
    filled = _SafeMap({"python": sys.executable, "data": DATA_DIR, **mapping})
    return [tok.format_map(filled) for tok in shlex.split(template)]


def run_command(
    template: str, mapping: dict[str, str], timeout: float
) -> subprocess.CompletedProcess:
    """Run a rendered template.  A missing executable is an infrastructure
    error; non-zero exits and timeouts are the caller's to interpret."""
    argv = render_command(template, mapping)
    if not argv:
        raise ToolchainError("empty command template", command=template)
    try:
        return subprocess.run(
            argv, capture_output=True, text=True, timeout=timeout, check=False
        )
    except FileNotFoundError as exc:
        raise ToolchainError(
            f"missing tool {argv[0]!r}: {exc}", command=shlex.join(argv)
        ) from exc


def tool_version_line(template: str) -> str:
    """First line of `tool --version`, or 'unavailable' when it cannot run."""
    argv = shlex.split(template)
    if not argv:
        return "unavailable"
    tool = argv[0]
    try:
        proc = subprocess.run(
            [tool, "--version"], capture_output=True, text=True, timeout=10
        )
    except (FileNotFoundError, subprocess.TimeoutExpired):
        return "unavailable"
    stream = proc.stdout or proc.stderr
    return stream.splitlines()[0].strip() if stream.strip() else "unavailable"
