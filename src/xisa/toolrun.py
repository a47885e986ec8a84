"""Run configured command templates against the local toolchain."""
from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

from .errors import ToolchainError


# filesystem path of the shipped package data (start stubs, role tables)
DATA_DIR = str(Path(__file__).resolve().parent / "data")
_PLACEHOLDER = re.compile(r"\{(\w+)\}")


def render_command(template: str, mapping: dict[str, str]) -> list[str]:
    """Split a command template and substitute each ``{name}`` whose name is
    ``python``, ``data`` or a key of ``mapping``; every other brace, such as
    ``find``'s ``{}`` or an unknown ``{word}``, stays as it is."""
    values = {"python": sys.executable, "data": DATA_DIR, **mapping}
    return [_PLACEHOLDER.sub(lambda m: values.get(m[1], m[0]), tok) for tok in shlex.split(template)]


def run_command(
    template: str, mapping: dict[str, str], timeout: float
) -> subprocess.CompletedProcess:
    """Run a rendered template.  A missing executable is an infrastructure
    error; non-zero exits and timeouts are the caller's to interpret.  A
    step that runs this interpreter on ``-m MODULE`` or ``-c CODE`` runs in
    a child forked from a warm interpreter (``forkserver``), with the same
    result."""
    argv = render_command(template, mapping)
    if not argv:
        raise ToolchainError("empty command template", command=template)
    if len(argv) > 2 and argv[0] == sys.executable and argv[1] in ("-m", "-c"):
        from . import forkserver  # imports socket and select: only when first needed

        proc = forkserver.run(argv, timeout)
        if proc is not None:
            return proc
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
