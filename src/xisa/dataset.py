"""Build paired transpilation corpora from C sources.

Each record pairs the x86 assembly of a C file with the same file cross
compiled to a RISC target at the same optimization level.  Records persist as
newline-delimited JSON, one self-contained object per pair.  A store is written
to a temporary file and renamed into place, so a store that exists is complete.
"""
from __future__ import annotations

import hashlib
import logging
import random
import subprocess
import tempfile
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import tokenizer as tok
from .asmtext import normalize, parse_assembly
from .core import IsaName, ToolchainConfig, read_records, write_records
from .errors import CompileFailed, LayoutError, NoSources, ToolTimeout
from .toolrun import run_command, tool_version_line

log = logging.getLogger(__name__)

PAIR_SCHEMA = "xisa.pair/v1"


@dataclass(frozen=True)
class AsmSide:
    raw_text: str
    normalized_text: str


@dataclass(frozen=True)
class TranspilePair:
    pair_id: str
    c_source_path: str
    target_isa: IsaName
    x86: AsmSide
    target: AsmSide
    opt_level: str
    tokenizer_version: str
    token_count_x86: int
    token_count_target: int
    test_source_path: str | None = None
    build_log: str = ""


def _pair_id(c_path: Path) -> str:
    digest = hashlib.sha256(c_path.read_bytes()).hexdigest()[:10]
    return f"{c_path.stem}-{digest}"


def _compile_to_asm(
    c_path: Path, isa: IsaName, cfg: ToolchainConfig, out_path: Path
) -> str:
    """Run the configured compiler; returns captured stderr."""
    cmds = cfg.require(isa, "compile")
    mapping = {
        "input": str(c_path),
        "output": str(out_path),
        "opt": cfg.optimization_level,
    }
    try:
        proc = run_command(cmds.compile, mapping, timeout=cfg.timeout_compile)
    except subprocess.TimeoutExpired:
        raise ToolTimeout(isa.value, cfg.timeout_compile) from None
    if proc.returncode != 0 or not out_path.exists():
        raise CompileFailed(isa.value, proc.returncode, proc.stderr)
    return proc.stderr


def compile_pair(
    c_path: str | Path,
    target_isa: IsaName | str,
    cfg: ToolchainConfig,
    tokenizer_spec: tok.TokenizerSpec = tok.BYTE_BASELINE,
    test_source_path: str | None = None,
    pair_id: str | None = None,
) -> TranspilePair:
    """Compile one C file to x86 and the target ISA, parse and normalize both.

    Each distinct ISA is compiled once: an x86_64 target shares the x86 side.
    """
    c_path = Path(c_path)
    target = IsaName(target_isa)
    if pair_id is None:
        pair_id = _pair_id(c_path)
    sides: dict[IsaName, tuple[AsmSide, int]] = {}
    build_log = ""
    with tempfile.TemporaryDirectory(prefix="xisa-pair-") as td:
        for isa in dict.fromkeys((IsaName.X86_64, target)):
            asm_path = Path(td) / f"{isa.value}.s"
            build_log += _compile_to_asm(c_path, isa, cfg, asm_path)
            raw = asm_path.read_text(encoding="utf-8", errors="replace")
            norm = normalize(parse_assembly(raw, isa, source_id=pair_id))
            sides[isa] = AsmSide(raw, norm), tok.token_count(norm, tokenizer_spec)
    (x86, count_x86), (tgt, count_tgt) = sides[IsaName.X86_64], sides[target]
    return TranspilePair(
        pair_id=pair_id,
        c_source_path=str(c_path),
        target_isa=target,
        x86=x86,
        target=tgt,
        opt_level=cfg.optimization_level,
        tokenizer_version=tokenizer_spec.version,
        token_count_x86=count_x86,
        token_count_target=count_tgt,
        test_source_path=test_source_path,
        build_log=build_log.strip(),
    )


def pair_to_record(pair: TranspilePair) -> dict:
    return {
        "schema": PAIR_SCHEMA,
        "pair_id": pair.pair_id,
        "c_source_path": pair.c_source_path,
        "target_isa": pair.target_isa.value,
        "opt_level": pair.opt_level,
        "tokenizer_version": pair.tokenizer_version,
        "x86_raw": pair.x86.raw_text,
        "x86_normalized": pair.x86.normalized_text,
        "target_raw": pair.target.raw_text,
        "target_normalized": pair.target.normalized_text,
        "token_count_x86": pair.token_count_x86,
        "token_count_target": pair.token_count_target,
        "test_source_path": pair.test_source_path,
        "build_log": pair.build_log,
    }


def record_to_pair(record: dict) -> TranspilePair:
    return TranspilePair(
        pair_id=record["pair_id"],
        c_source_path=record["c_source_path"],
        target_isa=IsaName(record["target_isa"]),
        x86=AsmSide(record["x86_raw"], record["x86_normalized"]),
        target=AsmSide(record["target_raw"], record["target_normalized"]),
        opt_level=record["opt_level"],
        tokenizer_version=record["tokenizer_version"],
        token_count_x86=record["token_count_x86"],
        token_count_target=record["token_count_target"],
        test_source_path=record["test_source_path"],
        build_log=record["build_log"],
    )


def read_store(path: str | Path) -> Iterator[TranspilePair]:
    return read_records(path, PAIR_SCHEMA, record_to_pair)


def toolchain_fingerprints(
    cfg: ToolchainConfig, isas: list[IsaName]
) -> dict[str, str]:
    """Command template plus reported tool version, per distinct ISA."""
    out: dict[str, str] = {}
    for isa in dict.fromkeys(isas):
        template = cfg.commands(isa).compile
        out[isa.value] = f"{template} :: {tool_version_line(template)}"
    return out


def build_corpus(
    src_dir: str | Path,
    target_isa: IsaName | str,
    cfg: ToolchainConfig,
    store_path: str | Path,
    sample: int | None = None,
    seed: int = 0,
    tokenizer_spec: tok.TokenizerSpec = tok.BYTE_BASELINE,
    jobs: int = 1,
) -> int:
    """Compile a (seeded, sorted) sample of src_dir/*.c into the pair store.

    Files that fail to compile are logged and skipped; returns the number of
    pairs written.
    """
    target = IsaName(target_isa)
    src = Path(src_dir)
    files = sorted(src.glob("*.c"))
    if not files:
        raise NoSources(f"no .c files under {src}")
    if sample is not None:
        if sample < len(files):
            files = random.Random(seed).sample(files, sample)
            files.sort()
        elif sample > len(files):
            log.warning(
                "sample %d exceeds available %d files; compiling all", sample, len(files)
            )

    written = 0

    def compile_or_skip(path: Path) -> TranspilePair | None:
        try:
            return compile_pair(path, target, cfg, tokenizer_spec)
        except (CompileFailed, ToolTimeout) as exc:
            log.warning("skipping %s: %s", path, exc)
            return None

    def records() -> Iterator[dict]:
        nonlocal written
        with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
            # written in submission order (sorted paths), not completion
            # order, so the store is the same bytes for every jobs value;
            # each pair is dropped once written
            for pair in pool.map(compile_or_skip, files):
                if pair is not None:
                    written += 1
                    yield pair_to_record(pair)

    write_records(store_path, records())
    return written


def load_eval_suite(
    suite_dir: str | Path,
    target_isa: IsaName | str,
    cfg: ToolchainConfig,
    tokenizer_spec: tok.TokenizerSpec = tok.BYTE_BASELINE,
    jobs: int = 1,
) -> list[TranspilePair]:
    """Load a <id>/func.c + <id>/test.c benchmark directory, ascending by id,
    compiling up to ``jobs`` entries at a time."""
    suite = Path(suite_dir)
    if not suite.is_dir():
        raise LayoutError(str(suite), "not a directory")
    entries = sorted(p for p in suite.iterdir() if not p.name.startswith("."))
    if not entries:
        raise LayoutError(str(suite), "empty suite directory")
    # check the whole layout before compiling anything
    for entry in entries:
        if not entry.is_dir():
            raise LayoutError(entry.name, "stray non-directory entry")
        if not (entry / "func.c").is_file():
            raise LayoutError(entry.name, "missing func.c")
        if not (entry / "test.c").is_file():
            raise LayoutError(entry.name, "missing test.c")
    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        # map yields in submission order, so the list is sorted for every jobs;
        # when an entry raises, map cancels the entries no worker has started
        return list(pool.map(
            lambda entry: compile_pair(
                entry / "func.c",
                target_isa,
                cfg,
                tokenizer_spec,
                test_source_path=str(entry / "test.c"),
                pair_id=entry.name,
            ),
            entries,
        ))
