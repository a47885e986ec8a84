"""Exception types shared across the harness.

Candidate-level failures (a translation that does not assemble or run) are
*not* exceptions: they become TestOutcome values.  Exceptions here mean the
harness itself cannot proceed (bad config, missing tool, malformed input file).
"""
from __future__ import annotations


class XisaError(Exception):
    """Base class for all harness errors."""


class ConfigError(XisaError):
    """Malformed or invalid toolchain configuration; names the offending field."""


class ToolchainError(XisaError):
    """Infrastructure failure: a configured tool is missing or misbehaving."""

    def __init__(self, message: str, command: str = ""):
        super().__init__(message)
        self.command = command


class CompileFailed(XisaError):
    def __init__(self, isa: str, returncode: int, stderr: str):
        super().__init__(
            f"compiler for {isa} exited {returncode}: {stderr.strip()[:400]}"
        )
        self.isa = isa
        self.returncode = returncode
        self.stderr = stderr


class ToolTimeout(XisaError):
    def __init__(self, isa: str, seconds: float):
        super().__init__(f"tool for {isa} timed out after {seconds}s")
        self.isa = isa
        self.seconds = seconds


class NoSources(XisaError):
    """Corpus build asked for a directory with no .c files."""


class MalformedRecord(XisaError):
    """A line of an ndjson file is not one of the records its reader reads."""


class LayoutError(XisaError):
    """Eval-suite directory does not follow the <id>/func.c + <id>/test.c layout."""

    def __init__(self, entry: str, reason: str):
        super().__init__(f"{entry}: {reason}")
        self.entry = entry


class BackendUnavailable(XisaError):
    """Transport-level failure talking to a transpiler backend."""


class BackendRefused(XisaError):
    """The backend answered with an error body."""


class ContextOverflow(XisaError):
    def __init__(self, tokens: int, window: int):
        super().__init__(f"source is {tokens} tokens, exceeds context window {window}")
        self.tokens = tokens
        self.window = window


class UnsupportedInstruction(XisaError):
    def __init__(self, mnemonic: str, line: int):
        super().__init__(f"line {line}: mnemonic {mnemonic!r} outside the rule subset")
        self.mnemonic = mnemonic
        self.line = line


class MismatchedSuites(XisaError):
    """Confusion matrix over result lists with different pair_id sets."""


class AllRunsFailed(XisaError):
    """Every benchmark run exited non-zero."""
