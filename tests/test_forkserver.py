"""Python steps forked from one warm interpreter: the parity and lifetime
rules of ``xisa.forkserver``, toolchain-free, on ``armenc`` guests."""
from __future__ import annotations

import ast
import concurrent.futures
import os
import random
import subprocess
import sys
import time

import pytest

from conftest import armenc
from armenc import SVC0, bx, dp, mem, mov  # loaded by conftest
from xisa import armvm, forkserver, toolrun
from xisa.errors import ToolchainError

ARMVM = "{python} -m xisa.armvm {input}"
PY_OK = "{python} -c pass"
PY_CODE = "{python} -c {code}"
# prints its pid, then outlives any timeout below
PY_SLEEPER = "import os, sys, time; print(os.getpid(), flush=True); time.sleep(30)"


@pytest.fixture
def forked(monkeypatch) -> list:
    """The argv of every step that ran in a child of the server."""
    calls = []
    real = forkserver.Server.run

    def counting(self, argv, *rest):
        calls.append(argv)
        return real(self, argv, *rest)

    monkeypatch.setattr(forkserver.Server, "run", counting)
    return calls


def fresh(template: str, mapping: dict) -> subprocess.CompletedProcess:
    """The step in a fresh interpreter, as toolrun ran every step before."""
    argv = toolrun.render_command(template, mapping)
    return subprocess.run(argv, capture_output=True, text=True, timeout=60)


def fields(proc: subprocess.CompletedProcess) -> tuple:
    return proc.returncode, proc.stdout, proc.stderr


def guest_steps(tmp_path) -> list[tuple[str, dict]]:
    """``python -m xisa.armvm`` on each guest shape, a fault, a budget stop,
    a usage error and a missing file."""
    rng = random.Random(0)
    images = {g.name: g.image for g in (
        armenc.exit_guest(rng), armenc.loop_guest(rng, armvm.HOT + 72),
        armenc.straight_guest(rng, 300), armenc.selfstore_guest(rng, 200))}
    images["segv"] = armenc.elf32([mov(1, ("#", 68)), mem("ldr", 0, 1, 0), bx(14)])
    images["write"] = armenc.elf32([  # "O" to stdout from below sp, then exit 0
        mov(1, ("#", 79)), mem("strb", 1, 13, -8), mov(0, ("#", 1)), dp("sub", 1, 13, ("#", 8)),
        mov(2, ("#", 1)), mov(7, ("#", 4)), SVC0, mov(0, ("#", 0)), mov(7, ("#", 1)), SVC0])
    steps = []
    for name, image in images.items():
        path = tmp_path / f"{name}.elf"
        path.write_bytes(image)
        steps.append((ARMVM, {"input": str(path)}))
    loop = str(tmp_path / "loop.elf")
    steps += [
        ("{python} -m xisa.armvm {input} --max-steps 10", {"input": loop}),
        ("{python} -m xisa.armvm", {}),
        (ARMVM, {"input": str(tmp_path / "missing.elf")}),
    ]
    return steps


CODE_STEPS = [
    "import sys; sys.stdout.write('a\\r\\nb\\rc'); sys.stderr.write('d\\r\\n')",
    "1 / 0",
    "x =",
    "raise SystemExit('no')",
    "import sys; sys.exit(300)",
    "import sys; print(sys.argv, repr(sys.path[0]), sys.orig_argv[1:])",
    "print(sorted(vars()))",
    "import atexit; atexit.register(print, 'at exit')",
    "import sys; print('closed'); sys.stdout.close()",
    "raise KeyboardInterrupt",
    "import os; print(sorted(os.listdir('/proc/self/fd')))",
]


def test_armvm_steps_match_a_fresh_interpreter(tmp_path, forked):
    steps = guest_steps(tmp_path)
    for template, mapping in steps:
        assert fields(toolrun.run_command(template, mapping, 60)) == fields(
            fresh(template, mapping)), (template, mapping)
    assert len(forked) == len(steps)
    codes = [toolrun.run_command(t, m, 60).returncode for t, m in steps[-5:]]
    assert codes == [-11, 0, -9, 2, 125]  # fault, write, budget, usage, missing file


@pytest.mark.parametrize("code", CODE_STEPS)
def test_code_steps_match_a_fresh_interpreter(code, forked):
    step = (PY_CODE, {"code": code})
    assert fields(toolrun.run_command(*step, 60)) == fields(fresh(*step))
    assert forked


def test_children_find_armvm_and_armblock_imported(forked):
    code = "import sys; print('xisa.armvm' in sys.modules, 'xisa.armblock' in sys.modules)"
    assert fields(toolrun.run_command(PY_CODE, {"code": code}, 60)) == (0, "True True\n", "")
    assert forked


def test_a_server_that_cannot_import_armvm_matches_a_fresh_interpreter(
        tmp_path, monkeypatch, forked):
    # no src on the path: the server's preload fails, and so does the step
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "exit.elf"
    path.write_bytes(armenc.exit_guest(random.Random(0)).image)
    for step in [(ARMVM, {"input": str(path)}), (PY_OK, {})]:
        assert fields(toolrun.run_command(*step, 60)) == fields(fresh(*step)), step
    assert len(forked) == 2


def test_module_steps_see_a_fresh_main(tmp_path):
    # -m finds modules in the working directory: a harness that runs there
    (tmp_path / "probe.py").write_text(
        "import os, sys\nprint(sys.argv[1:], sys.path[0] == os.getcwd())\n"
        "print(sorted(vars(sys.modules['__main__'])))\nraise KeyError('x')\n")
    routed, same, stdout = ast.literal_eval(harness(
        "import subprocess\n"
        "from xisa import forkserver, toolrun\n"
        "step = ('{python} -m probe one two', {})\n"
        "forked = toolrun.run_command(*step, 60)\n"
        "fresh = subprocess.run(toolrun.render_command(*step), capture_output=True, text=True)\n"
        "fields = lambda proc: (proc.returncode, proc.stdout, proc.stderr)\n"
        "print((forkserver._server is not None, fields(forked) == fields(fresh), forked.stdout))\n",
        cwd=tmp_path))
    assert routed and same
    assert stdout == (
        "['one', 'two'] True\n['__annotations__', '__builtins__', '__cached__', '__doc__', "
        "'__file__', '__loader__', '__name__', '__package__', '__spec__', 'os', 'sys']\n")


def test_timeout_kills_the_child_and_raises(forked):
    start = time.perf_counter()
    with pytest.raises(subprocess.TimeoutExpired) as info:
        toolrun.run_command(PY_CODE, {"code": PY_SLEEPER}, 0.5)
    assert time.perf_counter() - start < 5
    pid = int(info.value.output)
    assert not os.path.exists(f"/proc/{pid}")  # killed and reaped before the raise
    assert forked


def test_timeouts_that_race_the_exit_leave_the_server_working():
    for timeout in (0.001, 0.002, 0.004, 0.008) * 5:
        try:
            assert toolrun.run_command(PY_OK, {}, timeout).returncode == 0
        except subprocess.TimeoutExpired:
            pass
    step = (PY_CODE, {"code": "import sys; sys.exit(3)"})
    assert toolrun.run_command(*step, 60).returncode == 3


def test_a_reaped_child_is_never_signalled():
    # the server signals through a pidfd, which names the child itself: once
    # it is reaped, its pid may name another process, which no kill reaches
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    run = forkserver._Run(child.pid, None)
    child.wait()
    run.kill()  # no error, no signal
    os.close(run.pidfd)


def test_another_environment_or_directory_gets_a_server_of_its_own(tmp_path, monkeypatch):
    toolrun.run_command(PY_OK, {}, 60)
    servers = [forkserver._server]
    monkeypatch.setenv("XISA_FORKSERVER_PROBE", "set")
    step = (PY_CODE, {"code": "import os; print(os.environ['XISA_FORKSERVER_PROBE'])"})
    assert toolrun.run_command(*step, 60).stdout == "set\n"
    servers.append(forkserver._server)
    monkeypatch.chdir(tmp_path)
    step = (PY_CODE, {"code": "import os; print(os.getcwd())"})
    assert toolrun.run_command(*step, 60).stdout == f"{tmp_path}\n"
    servers.append(forkserver._server)
    assert len(set(servers)) == 3
    assert [s.process.poll() is None for s in servers] == [False, False, True]  # idle: closed


def test_a_dead_server_raises_toolchain_error_then_is_replaced():
    toolrun.run_command(PY_OK, {}, 60)
    server = forkserver._server
    server.process.kill()
    server.process.wait()
    with pytest.raises(ToolchainError, match="python step server"):
        toolrun.run_command(PY_OK, {}, 60)
    assert toolrun.run_command(PY_OK, {}, 60).returncode == 0
    assert forkserver._server is not server


def test_concurrent_calls_match_serial_calls(tmp_path, forked):
    steps = guest_steps(tmp_path) + [(PY_CODE, {"code": code}) for code in CODE_STEPS]
    serial = [fields(toolrun.run_command(t, m, 60)) for t, m in steps]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(toolrun.run_command, *step, 60) for step in steps * 2]
            threaded = [fields(future.result(timeout=120)) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 2
    assert len(forked) == 3 * len(steps)
    assert forkserver._server.users == 0


def test_a_server_retired_while_busy_closes_after_its_last_step(monkeypatch):
    toolrun.run_command(PY_OK, {}, 60)
    old = forkserver._server
    step = (PY_CODE, {"code": "import time; time.sleep(0.5)"}, 60)
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(toolrun.run_command, *step) for _ in range(4)]
        deadline = time.monotonic() + 10
        while old.users < 4 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert old.users == 4
        monkeypatch.setenv("XISA_FORKSERVER_PROBE", "set")
        assert toolrun.run_command(PY_OK, {}, 60).returncode == 0  # on a new server
        assert old.retired and old.process.poll() is None  # still running the four
        assert [future.result(timeout=60).returncode for future in futures] == [0] * 4
    assert old.users == 0 and old.process.poll() is not None


def gone(pid: int, within: float = 10.0) -> bool:
    """Whether ``pid`` names no live process (none, or a zombie) in time."""
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                if stat.read().rpartition(")")[2].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        time.sleep(0.05)
    return False


def harness(code: str, cwd=None) -> str:
    """Run ``code`` as a harness process of its own; its stdout."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True, cwd=cwd).stdout


def test_the_harness_reaps_its_server_at_exit():
    pid = int(harness(
        "from xisa import forkserver, toolrun\n"
        "toolrun.run_command('{python} -c pass', {}, 60)\n"
        "print(forkserver._server.process.pid)\n"))
    assert not os.path.exists(f"/proc/{pid}")  # reaped, not even a zombie


def test_the_server_kills_its_children_when_the_harness_dies(tmp_path):
    # no atexit: the server reads EOF on its control socket and cleans up
    output = tmp_path / "child.out"
    code = PY_SLEEPER.replace("print(os.getpid(), flush=True)",
                              f"open({str(output)!r}, 'w').write(str(os.getpid()))")
    pid = int(harness(
        "import os, threading, time\n"
        "from xisa import forkserver, toolrun\n"
        f"step = ({PY_CODE!r}, {{'code': {code!r}}}, 60)\n"
        "threading.Thread(target=toolrun.run_command, args=step, daemon=True).start()\n"
        f"while not (os.path.exists({str(output)!r}) and os.path.getsize({str(output)!r})):\n"
        "    time.sleep(0.01)\n"
        "print(forkserver._server.process.pid, flush=True)\n"
        "os._exit(0)\n"))
    assert gone(int(output.read_text()))
    assert gone(pid)
