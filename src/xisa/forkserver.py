"""Run ``{python} -m MODULE …`` and ``{python} -c CODE …`` steps in children
forked from one warm interpreter, in place of a fresh interpreter each.

A fresh interpreter spends most of a short step starting up (``site`` and
the ``.pth`` files of site-packages), and the ARMv5 profiles run one per
candidate: ``python -m xisa.armvm``.  ``toolrun.run_command`` hands such a
step to ``run``, which starts a server on first use, with the caller's
working directory and environment, and starts another when either has
changed since.  The server runs this file; it is single-threaded and only
forks a child per request, waits for it and reports its status.  The
harness itself never forks: ``evaluate_suite`` runs pairs in threads.

A child runs the step as the interpreter would run that command line: the
same ``sys.argv``, ``sys.path[0]`` and fresh ``__main__``, stdout and stderr
on the request's files, every other descriptor but stdin closed, a traceback
printed by ``sys.excepthook``, and the exit status of ``SystemExit``.
``run`` decodes the output as ``subprocess.run(..., text=True)`` does, so
returncode, stdout and stderr are those of a fresh interpreter.  Unlike a
fresh interpreter's, a child's ``sys.modules`` holds what the server
imported: its own modules and ``PRELOAD`` (``xisa.armvm`` and
``xisa.armblock`` as they were on disk when the server started).  A preload
that fails is skipped, and the step then fails in the child as it would in
a fresh interpreter.

Protocol: the harness holds one end of a ``SOCK_SEQPACKET`` pair, the
server the other (its control socket).  A request is one message, the argv
joined by NUL bytes, carrying three descriptors: one end of a new pair for
this request, and the stdout and stderr files.  The server answers on that
pair with the returncode in ASCII, or ``!`` and a reason if it could not
fork.  The harness shutting its end of that pair (on a timeout) or closing
it asks the server to kill the child, which it does only while the child
is unreaped.  At EOF
on its control socket the server kills and reaps every child and exits.
"""
from __future__ import annotations

import atexit
import builtins
import functools
import io
import os
import runpy
import select
import shlex
import signal
import socket
import subprocess
import sys
import threading
import types
from importlib.machinery import BuiltinImporter

MAX_REQUEST = 1 << 16  # bytes of argv; a longer command line runs as a subprocess
# what the bundled profiles' python steps import, loaded once in the server:
# without cached bytecode (``PYTHONDONTWRITEBYTECODE``) compiling armvm cost
# each guest run 8 ms on a 2-vCPU Xeon.  ``xisa.armvm`` is a package, so
# runpy runs its ``__main__`` without warning that it is imported already.
PRELOAD = ("xisa.armvm", "xisa.armblock")

_lock = threading.Lock()
_server: Server | None = None  # the server new requests go to


def run(argv: list[str], timeout: float) -> subprocess.CompletedProcess | None:
    """Run ``argv`` (``sys.executable``, then ``-m`` or ``-c``) in a child of
    the server, as ``subprocess.run(argv, capture_output=True, text=True,
    timeout=timeout)`` would; None if it must run as a subprocess: the
    kernel has no pidfds, or the command line is too long or holds a NUL
    (which ``subprocess`` rejects)."""
    args = [os.fsencode(arg) for arg in argv]
    payload = b"\0".join(args)
    if len(payload) > MAX_REQUEST or any(b"\0" in arg for arg in args) or not _have_pidfds():
        return None
    server = _acquire()
    try:
        return server.run(argv, payload, timeout)
    finally:
        _release(server)


@functools.cache
def _have_pidfds() -> bool:
    try:
        os.close(os.pidfd_open(os.getpid()))
    except (AttributeError, OSError):  # not Linux, or a kernel before 5.3
        return False
    return True


def _acquire() -> Server:
    """The server started in this process's current state, started on
    demand.  A broken server, or one started in another state, is retired:
    it takes no new request and closes when its last one ends."""
    global _server
    state, idle = _state(), None
    with _lock:
        if _server is None:
            atexit.register(_close)
        elif _server.broken or _server.state != state:
            _server.retired = True
            idle = None if _server.users else _server
        if _server is None or _server.retired:
            _server = Server(state)
        _server.users += 1
        server = _server
    if idle:
        idle.close()
    return server


def _release(server: Server) -> None:
    with _lock:
        server.users -= 1
        idle = server.retired and not server.users
    if idle:
        server.close()


def _close() -> None:
    """At exit: close the current server; retired ones closed when idle."""
    if _server is not None:
        _server.close()


def _state() -> tuple:
    """What a step's process inherits from the harness besides its argv."""
    return os.getpid(), os.getcwd(), dict(os.environ)


class Server:
    """The harness's side of one server process."""

    def __init__(self, state: tuple):
        self.state = state
        self.broken = self.retired = False
        self.users = 0  # requests in flight
        self.control, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        boot = "import runpy, sys; runpy.run_path(sys.argv.pop(1), run_name='__main__')"
        with theirs:
            self.process = subprocess.Popen(
                [sys.executable, "-c", boot, __file__, str(theirs.fileno())],
                pass_fds=[theirs.fileno()], stdout=subprocess.DEVNULL)

    def run(self, argv: list[str], payload: bytes, timeout: float) -> subprocess.CompletedProcess:
        outputs = [os.memfd_create(name, os.MFD_CLOEXEC) for name in ("stdout", "stderr")]
        mine, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        try:
            with theirs:
                try:
                    socket.send_fds(self.control, [payload], [theirs.fileno(), *outputs])
                except OSError as exc:
                    self._fail(argv, f"cannot reach it: {exc}")
            mine.settimeout(timeout)
            try:
                reply = self._receive(argv, mine)
            except TimeoutError:
                mine.settimeout(None)
                mine.shutdown(socket.SHUT_WR)  # asks for the kill
                self._receive(argv, mine)  # the child is dead and reaped
                raise subprocess.TimeoutExpired(
                    argv, timeout, output=_read(outputs[0]), stderr=_read(outputs[1])
                ) from None
            if reply.startswith(b"!"):
                self._fail(argv, reply[1:].decode(), broken=False)
            stdout, stderr = (_text(_read(fd)) for fd in outputs)
            return subprocess.CompletedProcess(argv, int(reply), stdout, stderr)
        finally:
            mine.close()
            for fd in outputs:
                os.close(fd)

    def _receive(self, argv: list[str], conn: socket.socket) -> bytes:
        """The server's reply on ``conn``; ``TimeoutError`` propagates."""
        try:
            reply = conn.recv(64)
        except TimeoutError:
            raise
        except OSError:
            reply = b""
        if not reply:
            self._fail(argv, "it exited")
        return reply

    def _fail(self, argv: list[str], reason: str, broken: bool = True) -> None:
        """A server that is gone or broken, or cannot fork, is an
        infrastructure fault, never the step's outcome; after a broken one
        the next call starts a new one."""
        from .errors import ToolchainError  # not at the top: the server runs this file

        self.broken |= broken
        raise ToolchainError(f"python step server: {reason}", command=shlex.join(argv))

    def close(self) -> None:
        """Close the control socket and reap the server, which kills and
        reaps its children when it reads EOF there."""
        self.control.close()
        try:
            self.process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def _read(fd: int) -> bytes:
    return os.pread(fd, os.fstat(fd).st_size, 0)


def _text(data: bytes) -> str:
    """``data`` decoded as ``subprocess.run(..., text=True)`` decodes it:
    with a default ``TextIOWrapper``'s encoding and errors, then universal
    newlines."""
    wrapper = io.TextIOWrapper(io.BytesIO())
    text = data.decode(wrapper.encoding, wrapper.errors)
    return text.replace("\r\n", "\n").replace("\r", "\n")


# --- the server process -------------------------------------------------------


class _Run:
    """One request in flight: its child, by pid and pidfd, and the socket
    its reply goes to."""

    def __init__(self, pid: int, conn: socket.socket):
        self.pid = pid
        self.pidfd = os.pidfd_open(pid)
        self.conn = conn

    def kill(self) -> None:
        """SIGKILL the child through its pidfd, which names this process
        alone even once its pid is free; every caller holds it unreaped."""
        try:
            signal.pidfd_send_signal(self.pidfd, signal.SIGKILL)
        except ProcessLookupError:
            pass  # it has exited; the reap is pending

    def reap(self) -> None:
        """Wait for the child and send its returncode."""
        status = os.waitpid(self.pid, 0)[1]
        _reply(self.conn, str(os.waitstatus_to_exitcode(status)).encode())
        os.close(self.pidfd)
        self.conn.close()


def serve(control: socket.socket) -> None:
    """Fork a child per request, reap it and report its returncode, until
    EOF on ``control``; then kill and reap every child left."""
    poller = select.poll()
    poller.register(control, select.POLLIN)
    runs: dict[int, _Run] = {}  # by pidfd and by reply socket descriptor
    while True:
        ready = [fd for fd, _events in poller.poll()]
        for fd in ready:
            run = runs.get(fd)
            if run is None:  # the control socket, or a run reaped in this batch
                continue
            if fd == run.pidfd:  # the child ended
                for owned in (run.pidfd, run.conn.fileno()):
                    del runs[owned]
                    try:
                        poller.unregister(owned)
                    except KeyError:
                        pass  # a timed-out run's socket, unregistered below
                run.reap()
            else:  # the harness timed out or hung up: kill, then reap as above
                run.kill()
                poller.unregister(fd)
        # requests last: a descriptor reaped above is never read as a new run's
        if control.fileno() in ready:
            payload, fds, _flags, _addr = socket.recv_fds(control, MAX_REQUEST, 3)
            if not payload:  # EOF: the harness is gone
                for run in set(runs.values()):
                    run.kill()
                    os.waitpid(run.pid, 0)
                return
            run = _start(payload, fds)
            if run:
                for owned in (run.pidfd, run.conn.fileno()):
                    runs[owned] = run
                    poller.register(owned, select.POLLIN)


def _reply(conn: socket.socket, message: bytes) -> None:
    try:
        conn.send(message)
    except OSError:
        pass  # the harness gave up on this request


def _start(payload: bytes, fds: list[int]) -> _Run | None:
    """Fork the child for one request; None if that failed (and was reported)."""
    conn = socket.socket(fileno=fds[0])
    out, err = fds[1:]
    try:
        pid = os.fork()
    except OSError as exc:
        _reply(conn, f"!cannot fork: {exc}".encode())
        conn.close()
        pid = None
    if pid == 0:
        _child([os.fsdecode(arg) for arg in payload.split(b"\0")], out, err)
    os.close(out)
    os.close(err)
    return _Run(pid, conn) if pid else None


def _child(argv: list[str], out: int, err: int) -> None:
    """Become the step's process: stdout and stderr on ``out`` and ``err``,
    no other descriptor but stdin, then exit with the step's status."""
    status = 1
    try:
        os.dup2(out, 1)
        os.dup2(err, 2)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        status = _execute(argv)
    finally:
        os._exit(status)


def _execute(argv: list[str]) -> int:
    """Run ``python -m MODULE …`` or ``python -c CODE …`` in this process as
    the interpreter runs that command line; returns its exit status."""
    flag, target, *args = argv[1:]
    main = types.ModuleType("__main__")
    main.__dict__.update(__loader__=BuiltinImporter, __annotations__={}, __builtins__=builtins)
    sys.modules["__main__"] = main
    sys.orig_argv = list(argv)
    sys.argv = [flag, *args]  # -m: runpy puts the module's path first
    if not getattr(sys.flags, "safe_path", False):  # -P, since Python 3.11
        sys.path[0] = os.getcwd() if flag == "-m" else ""
    interrupted = False
    try:
        if flag == "-m":
            runpy._run_module_as_main(target)  # what ``python -m`` calls
        else:
            exec(compile(target, "<string>", "exec"), main.__dict__)
        status = 0
    except SystemExit as exc:
        status = _exit_status(exc.code)
    except BaseException as exc:  # noqa: BLE001 - reported as the interpreter reports it
        exc.with_traceback(exc.__traceback__.tb_next)  # without this frame
        sys.excepthook(type(exc), exc, exc.__traceback__)
        status, interrupted = 1, isinstance(exc, KeyboardInterrupt)
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None and not stream.closed:
            stream.flush()
    if interrupted:  # the interpreter dies by SIGINT after an uncaught KeyboardInterrupt
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
    return status


def _exit_status(code: object) -> int:
    """The exit status of ``SystemExit(code)``: None is 0, an int its low
    byte; anything else is printed to stderr and is 1."""
    if code is None:
        return 0
    if isinstance(code, int):
        return code & 0xFF
    print(code, file=sys.stderr)
    return 1


if __name__ == "__main__":
    for name in PRELOAD:
        try:
            __import__(name)
        except Exception:  # noqa: BLE001 - the step fails in the child as in a fresh interpreter
            pass
    serve(socket.socket(fileno=int(sys.argv[1])))
