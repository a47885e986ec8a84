"""Build paired transpilation corpora from C sources.

Each record pairs the x86 assembly of a C file with the same file cross
compiled to a RISC target at the same optimization level.  Records persist as
newline-delimited JSON, one self-contained object per pair, with a manifest
written after the store so readers can trust the record count.
"""
from __future__ import annotations

import datetime
import hashlib
import json
import logging
import os
import random
import subprocess
import tempfile
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import tokenizer as tok
from .asmtext import normalize, parse_assembly
from .core import IsaName, ToolchainConfig
from .errors import CompileFailed, LayoutError, NoSources, StoreWriteFailed, ToolTimeout
from .toolrun import run_command, tool_version_line

log = logging.getLogger(__name__)

PAIR_SCHEMA = "xisa.pair/v1"
MANIFEST_SCHEMA = "xisa.manifest/v1"


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


@dataclass(frozen=True)
class CorpusManifest:
    records: int
    target_isa: str
    opt_level: str
    tokenizer_version: str
    toolchain_fingerprints: dict[str, str]
    created_at: str


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
    """Compile one C file to x86 and the target ISA, parse and normalize both."""
    c_path = Path(c_path)
    target = IsaName(target_isa)
    if pair_id is None:
        pair_id = _pair_id(c_path)
    with tempfile.TemporaryDirectory(prefix="xisa-pair-") as td:
        x86_s = Path(td) / "x86.s"
        tgt_s = Path(td) / "target.s"
        log_x86 = _compile_to_asm(c_path, IsaName.X86_64, cfg, x86_s)
        log_tgt = _compile_to_asm(c_path, target, cfg, tgt_s)
        x86_raw = x86_s.read_text(encoding="utf-8", errors="replace")
        tgt_raw = tgt_s.read_text(encoding="utf-8", errors="replace")

    x86_unit = parse_assembly(x86_raw, IsaName.X86_64, source_id=pair_id)
    tgt_unit = parse_assembly(tgt_raw, target, source_id=pair_id)
    x86_norm = normalize(x86_unit)
    tgt_norm = normalize(tgt_unit)
    return TranspilePair(
        pair_id=pair_id,
        c_source_path=str(c_path),
        target_isa=target,
        x86=AsmSide(x86_raw, x86_norm),
        target=AsmSide(tgt_raw, tgt_norm),
        opt_level=cfg.optimization_level,
        tokenizer_version=tokenizer_spec.version,
        token_count_x86=tok.token_count(x86_norm, tokenizer_spec),
        token_count_target=tok.token_count(tgt_norm, tokenizer_spec),
        test_source_path=test_source_path,
        build_log=(log_x86 + log_tgt).strip(),
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
    if record.get("schema") != PAIR_SCHEMA:
        raise StoreWriteFailed(f"unexpected record schema {record.get('schema')!r}")
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
        test_source_path=record.get("test_source_path"),
        build_log=record.get("build_log", ""),
    )


def read_store(path: str | Path) -> Iterator[TranspilePair]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield record_to_pair(json.loads(line))


def read_manifest(path: str | Path) -> CorpusManifest:
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    if record.get("schema") != MANIFEST_SCHEMA:
        raise StoreWriteFailed(f"unexpected manifest schema {record.get('schema')!r}")
    return CorpusManifest(
        records=record["records"],
        target_isa=record["target_isa"],
        opt_level=record["opt_level"],
        tokenizer_version=record["tokenizer_version"],
        toolchain_fingerprints=record["toolchain_fingerprints"],
        created_at=record["created_at"],
    )


def manifest_path_for(store_path: str | Path) -> Path:
    return Path(str(store_path) + ".manifest.json")


def toolchain_fingerprints(
    cfg: ToolchainConfig, isas: list[IsaName]
) -> dict[str, str]:
    """Command template plus reported tool version, per ISA."""
    out: dict[str, str] = {}
    for isa in isas:
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
) -> CorpusManifest:
    """Compile a (seeded, sorted) sample of src_dir/*.c into the pair store.

    Files that fail to compile are logged and skipped; the manifest is written
    last and records the number of pairs actually persisted.
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

    store_path = Path(store_path)
    tmp_path = store_path.with_suffix(store_path.suffix + ".tmp")
    written = 0
    try:
        with open(tmp_path, "w", encoding="utf-8") as fh:
            with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
                # written in submission order (sorted paths), not completion
                # order, so the store is the same bytes for every jobs value
                futures = [
                    (path, pool.submit(compile_pair, path, target, cfg, tokenizer_spec))
                    for path in files
                ]
                for path, future in futures:
                    try:
                        pair = future.result()
                    except (CompileFailed, ToolTimeout) as exc:
                        log.warning("skipping %s: %s", path, exc)
                        continue
                    fh.write(json.dumps(pair_to_record(pair), sort_keys=True) + "\n")
                    written += 1
    except OSError as exc:
        raise StoreWriteFailed(f"cannot write store {store_path}: {exc}") from exc
    os.replace(tmp_path, store_path)

    manifest = CorpusManifest(
        records=written,
        target_isa=target.value,
        opt_level=cfg.optimization_level,
        tokenizer_version=tokenizer_spec.version,
        toolchain_fingerprints=toolchain_fingerprints(cfg, [IsaName.X86_64, target]),
        created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    mpath = manifest_path_for(store_path)
    record = {"schema": MANIFEST_SCHEMA, **manifest.__dict__}
    mpath.write_text(json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    return manifest


def load_eval_suite(
    suite_dir: str | Path,
    target_isa: IsaName | str,
    cfg: ToolchainConfig,
    tokenizer_spec: tok.TokenizerSpec = tok.BYTE_BASELINE,
) -> list[TranspilePair]:
    """Load a <id>/func.c + <id>/test.c benchmark directory, ascending by id."""
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
    return [
        compile_pair(
            entry / "func.c",
            target_isa,
            cfg,
            tokenizer_spec,
            test_source_path=str(entry / "test.c"),
            pair_id=entry.name,
        )
        for entry in entries
    ]
