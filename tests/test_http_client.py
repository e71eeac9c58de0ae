"""Transport behavior against a local OpenAI-compatible mock server."""
import json
import socket
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from gridprompt.llm_protocol import (
    AuthError,
    EndpointConfig,
    ProtocolError,
    TransportError,
    build_sequence,
    complete,
)


class MockHandler(BaseHTTPRequestHandler):
    script: list = []          # per-test plan: list of status codes / "ok"
    requests_seen: list = []
    reply_content = "mock reply"
    redirect_to = None         # Location sent with every error status

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        MockHandler.requests_seen.append(
            {"path": self.path, "body": body, "auth": self.headers.get("Authorization")}
        )
        step = MockHandler.script.pop(0) if MockHandler.script else "ok"
        if step == "ok":
            payload = {
                "choices": [{"message": {"role": "assistant",
                                         "content": MockHandler.reply_content}}]
            }
            data = json.dumps(payload).encode()
            self.send_response(200)
        elif step == "garbage":
            data = b"not json at all"
            self.send_response(200)
        elif step == "short":  # the connection closes before the promised body is sent
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b"{}")
            return
        else:
            data = json.dumps({"error": f"status {step}"}).encode()
            self.send_response(int(step))
            if MockHandler.redirect_to:
                self.send_header("Location", MockHandler.redirect_to)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_server():
    server = HTTPServer(("127.0.0.1", 0), MockHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    MockHandler.script = []
    MockHandler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


@pytest.fixture
def silent_server():
    """A server that accepts connections and never answers: its URL and what it accepted."""
    srv = socket.create_server(("127.0.0.1", 0))
    srv.settimeout(0.02)
    accepted, stop = [], threading.Event()

    def serve():
        while not stop.is_set():
            try:
                accepted.append(srv.accept()[0])
            except TimeoutError:
                pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{srv.getsockname()[1]}", accepted
    finally:
        stop.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        for conn in accepted:
            conn.close()
        srv.close()


def cfg(base_url, retries=3, timeout_s=5.0):
    return EndpointConfig(
        base_url=base_url, model="mock-model", max_retries=retries,
        timeout_s=timeout_s, backoff_base_s=0.01,
    )


def test_success_path(mock_server):
    seq = build_sequence([("g", "s")], "q")
    out = complete(seq, cfg(mock_server))
    assert out == "mock reply"
    sent = MockHandler.requests_seen[0]
    assert sent["path"] == "/chat/completions"
    assert sent["body"]["model"] == "mock-model"
    assert sent["body"]["temperature"] == 0.0
    assert [m["role"] for m in sent["body"]["messages"]] == [
        "system", "user", "assistant", "user",
    ]


def test_429_retry_then_success(mock_server):
    MockHandler.script = ["429", "429", "ok"]
    out = complete(build_sequence([], "q"), cfg(mock_server))
    assert out == "mock reply"
    assert len(MockHandler.requests_seen) == 3


def test_truncated_reply_is_retried(mock_server):
    MockHandler.script = ["short", "ok"]
    assert complete(build_sequence([], "q"), cfg(mock_server)) == "mock reply"
    assert len(MockHandler.requests_seen) == 2


def test_500_exhaustion(mock_server):
    MockHandler.script = ["500"] * 10
    with pytest.raises(TransportError, match="4 attempts"):
        complete(build_sequence([], "q"), cfg(mock_server, retries=3))
    assert len(MockHandler.requests_seen) == 4


def test_401_no_retry(mock_server):
    MockHandler.script = ["401", "ok"]
    with pytest.raises(AuthError):
        complete(build_sequence([], "q"), cfg(mock_server))
    assert len(MockHandler.requests_seen) == 1


def test_404_is_protocol_error_without_retry(mock_server):
    MockHandler.script = ["404", "ok"]
    with pytest.raises(ProtocolError, match='^unexpected HTTP 404: {"error": "status 404"}$'):
        complete(build_sequence([], "q"), cfg(mock_server))
    assert len(MockHandler.requests_seen) == 1


@pytest.mark.parametrize("status", ["301", "302", "303", "307", "308"])
def test_redirect_is_refused_without_leaving_the_host(mock_server, silent_server,
                                                      monkeypatch, status):
    """The request, and the token in it, never reach a redirect's Location."""
    elsewhere, accepted = silent_server
    monkeypatch.setenv("GRIDPROMPT_API_KEY", "sk-test-123")
    monkeypatch.setattr(MockHandler, "redirect_to", elsewhere + "/chat/completions")
    MockHandler.script = [status, "ok"]
    with pytest.raises(ProtocolError, match=f"^unexpected HTTP {status}: "):
        complete(build_sequence([], "q"), cfg(mock_server, timeout_s=0.5))
    assert len(MockHandler.requests_seen) == 1
    assert accepted == []


def test_silent_server_times_out_every_attempt(silent_server):
    url, accepted = silent_server
    with pytest.raises(TransportError, match=r"^gave up after 3 attempts \(request timed out\)$"):
        complete(build_sequence([], "q"), cfg(url, retries=2, timeout_s=0.2))
    assert len(accepted) == 3


def test_timeout_while_sending_is_a_timeout(monkeypatch):
    """urllib reports a timeout before the response as a URLError whose reason it is."""
    def timing_out(opener, request, timeout):
        raise urllib.error.URLError(TimeoutError("timed out"))

    monkeypatch.setattr(urllib.request.OpenerDirector, "open", timing_out)
    with pytest.raises(TransportError, match=r"^gave up after 2 attempts \(request timed out\)$"):
        complete(build_sequence([], "q"), cfg("http://127.0.0.1:1", retries=1))


def test_closed_port_is_a_connection_failure():
    with socket.create_server(("127.0.0.1", 0)) as srv:
        port = srv.getsockname()[1]  # free once closed
    with pytest.raises(TransportError, match=r"^gave up after 2 attempts \(connection failed: "):
        complete(build_sequence([], "q"), cfg(f"http://127.0.0.1:{port}", retries=1))


def test_non_json_reply_is_protocol_error(mock_server):
    MockHandler.script = ["garbage"]
    with pytest.raises(ProtocolError):
        complete(build_sequence([], "q"), cfg(mock_server))


def test_non_string_content_is_protocol_error(mock_server, monkeypatch):
    monkeypatch.setattr(MockHandler, "reply_content", None)
    with pytest.raises(ProtocolError, match="malformed completion payload"):
        complete(build_sequence([], "q"), cfg(mock_server))
    assert len(MockHandler.requests_seen) == 1


def test_auth_header_from_environment(mock_server, monkeypatch):
    monkeypatch.setenv("GRIDPROMPT_API_KEY", "sk-test-123")
    complete(build_sequence([], "q"), cfg(mock_server))
    assert MockHandler.requests_seen[0]["auth"] == "Bearer sk-test-123"


def test_deterministic_against_fixed_mock(mock_server):
    seq = build_sequence([("g", "s")], "q")
    before = tuple(seq.messages)
    a = complete(seq, cfg(mock_server))
    b = complete(seq, cfg(mock_server))
    assert a == b
    assert seq.messages == before  # sequence not mutated


@pytest.mark.parametrize("field, value", [
    ("backoff_base_s", -0.5), ("backoff_base_s", float("nan")), ("backoff_base_s", float("inf")),
    ("max_output_tokens", 0), ("max_output_tokens", -1),
    ("max_retries", -1), ("timeout_s", 0.0), ("timeout_s", float("nan")),
    ("timeout_s", float("inf")),
])
def test_config_refuses_values_that_would_fail_mid_run(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        EndpointConfig(base_url="http://127.0.0.1:1", model="m", **{field: value})


@pytest.mark.parametrize("base_url", ["localhost:8000", "file:///etc", "ftp://127.0.0.1", ""])
def test_config_refuses_a_base_url_that_is_not_http(base_url):
    with pytest.raises(ValueError, match="^base_url must be an http:// or https:// URL"):
        EndpointConfig(base_url=base_url, model="m")


def test_zero_backoff_and_one_token_are_accepted():
    cfg = EndpointConfig(base_url="http://127.0.0.1:1", model="m",
                         backoff_base_s=0.0, max_output_tokens=1)
    assert cfg.backoff_base_s == 0.0 and cfg.max_output_tokens == 1
