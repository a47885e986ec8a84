from __future__ import annotations

import importlib.util
import os
import shutil
import sys
from pathlib import Path

import pytest

from xisa.asmtext import parse_assembly
from xisa.core import IsaName, ToolchainConfig, load_config
from xisa.dataset import TranspilePair, load_eval_suite

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
CONFIGS = ROOT / "configs"

# pyproject.toml puts src/ on this process's import path; child processes
# such as ``python -m xisa.armvm`` find the same checkout through PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
)


def _load_armenc():
    """The benchmark's ARMv5 encoder, loaded by path: perfbench is no package."""
    spec = importlib.util.spec_from_file_location(
        "armenc", ROOT / "perfbench" / "armenc.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


armenc = _load_armenc()


def have(tool: str) -> bool:
    return shutil.which(tool) is not None

HAVE_LITE_TOOLCHAIN = have("gcc") and have("clang") and have("ld.lld")
HAVE_CROSS_GNU = have("arm-linux-gnueabi-gcc") and have("qemu-arm")

needs_gcc = pytest.mark.skipif(not have("gcc"), reason="needs gcc")
needs_lite = pytest.mark.skipif(
    not HAVE_LITE_TOOLCHAIN, reason="needs gcc + clang + ld.lld"
)
needs_cross_gnu = pytest.mark.skipif(
    not HAVE_CROSS_GNU, reason="needs arm-linux-gnueabi-gcc + qemu-arm"
)


@pytest.fixture(scope="session")
def lite_cfg() -> ToolchainConfig:
    return load_config(CONFIGS / "clang-lite.cfg")


@pytest.fixture(scope="session")
def cross_gnu_cfg() -> ToolchainConfig:
    return load_config(CONFIGS / "cross-gnu.cfg")


# both shipped profiles have an [x86_64] section that needs only gcc
X86_PROFILES = ("clang-lite", "cross-gnu")


@pytest.fixture(scope="session")
def x86_profiles() -> dict[str, ToolchainConfig]:
    return {name: load_config(CONFIGS / f"{name}.cfg") for name in X86_PROFILES}


@pytest.fixture(scope="session")
def arm_corpus_units():
    units = []
    for path in sorted((FIXTURES / "arm_corpus").glob("*.s")):
        units.append(
            parse_assembly(
                path.read_text(encoding="utf-8"), IsaName.ARMV5, source_id=path.name
            )
        )
    assert len(units) == 20
    return units


@pytest.fixture(scope="session")
def mini_pairs(lite_cfg) -> list[TranspilePair]:
    if not HAVE_LITE_TOOLCHAIN:
        pytest.skip("needs gcc + clang + ld.lld")
    return load_eval_suite(FIXTURES / "mini_suite", IsaName.ARMV5, lite_cfg)


@pytest.fixture(scope="session")
def mini_pairs_x86(lite_cfg) -> list[TranspilePair]:
    """mini_suite as x86_64 self-translation pairs, which need only gcc."""
    if not have("gcc"):
        pytest.skip("needs gcc")
    return load_eval_suite(FIXTURES / "mini_suite", IsaName.X86_64, lite_cfg)


@pytest.fixture(scope="session")
def rule_pairs(lite_cfg) -> list[TranspilePair]:
    if not HAVE_LITE_TOOLCHAIN:
        pytest.skip("needs gcc + clang + ld.lld")
    return load_eval_suite(FIXTURES / "rule_suite", IsaName.ARMV5, lite_cfg)


@pytest.fixture
def arm_elf(tmp_path):
    """``write(words)`` puts ``armenc.elf32(words)`` under tmp_path and
    returns its path: an ARM binary without an ARM toolchain."""

    def write(words: list[int]) -> Path:
        path = tmp_path / "prog.elf"
        path.write_bytes(armenc.elf32(words))
        return path

    return write
