from __future__ import annotations

import json
import socket
import subprocess
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from conftest import needs_lite
from xisa.asmtext import parse_assembly
from xisa.backends import (
    Candidate,
    IdentityBackend,
    RemoteBackend,
    ReplayBackend,
    RuleBackend,
    TranspileRequest,
    make_backend,
    rule_translate,
)
from xisa.core import GenerationParams, IsaName
from xisa.errors import (
    BackendRefused,
    BackendUnavailable,
    ContextOverflow,
    UnsupportedInstruction,
)
from xisa.evaluation import run_functional
from xisa.tokenizer import make_spec


def req(source: str, beams: int = 1, target: IsaName = IsaName.ARMV5, **kw):
    return TranspileRequest(
        source_text=source,
        target_isa=target,
        params=GenerationParams(num_beams=beams, **kw),
    )


def test_request_validation():
    with pytest.raises(ValueError):
        TranspileRequest(source_text="x", target_isa="mips")
    with pytest.raises(ValueError):
        TranspileRequest(
            source_text="x", target_isa=IsaName.ARMV5, source_isa=IsaName.ARMV5
        )
    # self-translation: x86_64 is a target like any other ISA
    assert TranspileRequest(source_text="x", target_isa="x86_64").target_isa is IsaName.X86_64


def test_identity_backend_returns_source():
    backend = IdentityBackend()
    response = backend.transpile(req("movl $1, %eax\n"))
    assert [c.text for c in response.candidates] == ["movl $1, %eax\n"]
    assert response.backend_id == "identity"


def test_identity_deterministic():
    backend = IdentityBackend()
    r = req("anything")
    assert backend.transpile(r).candidates == backend.transpile(r).candidates


def test_replay_backend_maps_known_sources(mini_pairs):
    backend = ReplayBackend(mini_pairs)
    pair = mini_pairs[0]
    response = backend.transpile(req(pair.x86.normalized_text))
    assert response.candidates[0].text == pair.target.normalized_text
    with pytest.raises(BackendRefused):
        backend.transpile(req("never seen before\n"))


def test_context_overflow_before_any_work():
    spec = make_spec([])  # byte fallback: one token per char
    backend = IdentityBackend(tokenizer_spec=spec)
    long_source = "x" * 64
    with pytest.raises(ContextOverflow):
        backend.transpile(
            TranspileRequest(
                source_text=long_source,
                target_isa=IsaName.ARMV5,
                params=GenerationParams(context_window=32),
            )
        )


def test_candidates_clamped_to_beam_count():
    class Many(IdentityBackend):
        def _generate(self, request):
            return [Candidate(f"c{i}") for i in range(8)]

    response = Many().transpile(req("s", beams=3))
    assert len(response.candidates) == 3


# --- rule backend -------------------------------------------------------------

def test_rule_backend_spec_examples():
    unit = parse_assembly(
        "\t.globl f\n\t.type f, @function\nf:\n"
        "\taddl %ebx, %eax\n\tret\n",
        IsaName.X86_64,
    )
    arm = rule_translate(unit)
    assert "add r0, r0, r4" in arm
    assert "pop {r4, r5, fp, pc}" in arm  # template return restores pc from lr slot


def test_rule_backend_const_return():
    unit = parse_assembly(
        "\t.type f, @function\nf:\n"
        "\tpushq %rbp\n\tmovq %rsp, %rbp\n\tmovl $5, %eax\n\tpopq %rbp\n\tret\n",
        IsaName.X86_64,
    )
    arm = rule_translate(unit)
    assert "mov r0, #5" in arm


def test_rule_backend_rejects_unknown_mnemonic():
    unit = parse_assembly(
        "\t.type f, @function\nf:\n\tcvtsi2sd %eax, %xmm0\n\tret\n",
        IsaName.X86_64,
    )
    with pytest.raises(UnsupportedInstruction) as excinfo:
        rule_translate(unit)
    assert excinfo.value.mnemonic == "cvtsi2sd"


def test_rule_backend_refuses_non_arm_target():
    backend = RuleBackend()
    with pytest.raises(BackendRefused):
        backend.transpile(req("movl $1, %eax", target=IsaName.RISCV64))
    with pytest.raises(BackendRefused):
        backend.transpile(req("movl $1, %eax", target=IsaName.X86_64))


@needs_lite
def test_rule_output_parses_and_assembles(rule_pairs, tmp_path):
    backend = RuleBackend()
    for pair in rule_pairs:
        response = backend.transpile(req(pair.x86.normalized_text))
        text = response.candidates[0].text
        unit = parse_assembly(text, IsaName.ARMV5)
        assert unit.parse_fallbacks == 0, pair.pair_id
        asm_file = tmp_path / f"{pair.pair_id}.s"
        asm_file.write_text(text)
        proc = subprocess.run(
            [
                "clang", "--target=armv5te-linux-gnueabi", "-c",
                str(asm_file), "-o", str(tmp_path / "out.o"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, f"{pair.pair_id}: {proc.stderr}"


@needs_lite
def test_rule_backend_const_ret_passes_unit_test(lite_cfg, tmp_path):
    func = tmp_path / "func.c"
    func.write_text("int const_ret(void) { return 5; }\n")
    test = tmp_path / "test.c"
    test.write_text(
        "int const_ret(void);\nint main(void){ return const_ret() == 5 ? 0 : 1; }\n"
    )
    from xisa.dataset import compile_pair

    pair = compile_pair(func, IsaName.ARMV5, lite_cfg, test_source_path=str(test))
    response = RuleBackend().transpile(req(pair.x86.normalized_text))
    assert "mov r0, #5" in response.candidates[0].text
    outcome, logs = run_functional(response.candidates[0].text, pair, lite_cfg)
    assert outcome.is_pass, logs


# --- remote backend -----------------------------------------------------------

class _StubHandler(BaseHTTPRequestHandler):
    canned: list[dict] = [{"text": "mov r0, #5\nbx lr\n"}]
    status = 200
    raw_body: bytes | None = None  # sent as is with a 200 when set
    truncate = False  # close the connection partway through the body
    requests_seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append({"path": self.path, "body": body})
        if self.status != 200:
            self.send_response(self.status)
            self.end_headers()
            self.wfile.write(b"backend exploded")
            return
        n = body.get("n", 1)
        payload = self.raw_body
        if payload is None:
            payload = json.dumps({"choices": self.canned[:n] or self.canned}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if self.truncate:
            payload = payload[: len(payload) // 2]
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    _StubHandler.status = 200
    _StubHandler.raw_body = None
    _StubHandler.truncate = False
    _StubHandler.requests_seen = []
    _StubHandler.canned = [{"text": "mov r0, #5\nbx lr\n"}]
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def test_remote_backend_canned_completion(stub_server):
    backend = RemoteBackend(stub_server, max_retries=2, timeout_s=5)
    response = backend.transpile(req("movl $5, %eax\nret\n"))
    assert response.candidates[0].text == "mov r0, #5\nbx lr\n"
    seen = _StubHandler.requests_seen[0]
    assert seen["path"] == "/v1/completions"
    assert seen["body"]["temperature"] == 0.0
    assert seen["body"]["n"] == 1
    assert seen["body"]["prompt"].endswith("movl $5, %eax\nret\n")


def test_remote_backend_deterministic(stub_server):
    backend = RemoteBackend(stub_server, max_retries=2, timeout_s=5)
    r = req("movl $5, %eax\nret\n")
    assert (
        backend.transpile(r).candidates == backend.transpile(r).candidates
    )


def test_remote_backend_server_error(stub_server):
    _StubHandler.status = 500
    backend = RemoteBackend(stub_server, max_retries=2, timeout_s=5)
    with pytest.raises(BackendRefused, match="500"):
        backend.transpile(req("x"))


def test_remote_backend_malformed_body(stub_server):
    _StubHandler.raw_body = b"<html>not json</html>"
    backend = RemoteBackend(stub_server, max_retries=2, timeout_s=5)
    with pytest.raises(BackendRefused, match="malformed completion body"):
        backend.transpile(req("x"))
    assert len(_StubHandler.requests_seen) == 1  # refused, not retried


def test_remote_backend_success_status_other_than_200(stub_server):
    _StubHandler.status = 202
    backend = RemoteBackend(stub_server, max_retries=2, timeout_s=5)
    with pytest.raises(BackendRefused, match="202: backend exploded"):
        backend.transpile(req("x"))


def test_remote_backend_unreachable():
    backend = RemoteBackend("http://127.0.0.1:9", max_retries=2, timeout_s=0.2)
    with pytest.raises(BackendUnavailable):
        backend.transpile(req("x"))


def test_remote_backend_body_cut_short(stub_server):
    _StubHandler.truncate = True
    backend = RemoteBackend(stub_server, max_retries=2, timeout_s=5)
    with pytest.raises(BackendUnavailable, match="IncompleteRead"):
        backend.transpile(req("x"))
    assert len(_StubHandler.requests_seen) == 2  # retried, then given up


def test_remote_backend_reply_not_http():
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def garble():
        for _ in range(2):  # one per attempt
            conn, _ = server.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"garbage\r\n\r\n")

    thread = threading.Thread(target=garble, daemon=True)
    thread.start()
    try:
        backend = RemoteBackend(f"http://127.0.0.1:{port}", max_retries=2, timeout_s=5)
        with pytest.raises(BackendUnavailable, match="BadStatusLine"):
            backend.transpile(req("x"))
    finally:
        thread.join(timeout=5)
        server.close()


def test_remote_backend_endpoint_without_scheme():
    backend = RemoteBackend("127.0.0.1", max_retries=2, timeout_s=0.2)
    with pytest.raises(BackendUnavailable, match="bad endpoint"):
        backend.transpile(req("x"))


def test_make_backend_factory(mini_pairs):
    assert make_backend("identity").backend_id == "identity"
    assert make_backend("rule").backend_id == "rule"
    assert make_backend("replay", pairs=mini_pairs).backend_id == "replay"
    assert make_backend("remote", endpoint="http://h").backend_id == "remote"
    with pytest.raises(ValueError):
        make_backend("nonsense")
    with pytest.raises(ValueError):
        make_backend("remote")


def test_rule_backend_deterministic():
    source = (
        "\t.type f, @function\nf:\n"
        "\tpushq %rbp\n\tmovq %rsp, %rbp\n\tmovl $7, %eax\n\tpopq %rbp\n\tret\n"
    )
    backend = RuleBackend()
    first = backend.transpile(req(source))
    second = backend.transpile(req(source))
    assert first.candidates == second.candidates
