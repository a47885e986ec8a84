from __future__ import annotations

import os
import shutil
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
