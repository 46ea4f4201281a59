"""Generator clients, the response cache, and reward composition."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import resource
import sqlite3
import sys
import threading
import time
from contextlib import closing, contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
import tablehelm.cli as cli
from tablehelm.cli import EXIT_BACKEND
from tablehelm.errors import (
    AuthError,
    EmptyEvidenceError,
    EndpointNotFoundError,
    MalformedResponseError,
    NoTableFoundError,
    RateLimitError,
    SchemaError,
    TransportError,
)
from tablehelm.feedback import (
    SEARCH_SAMPLING,
    CacheScope,
    CountingClient,
    EchoClient,
    FixedClient,
    HttpClient,
    ResponseCache,
    RoleSettings,
    SamplingConfig,
    cached_generate,
    echo_oracle_generate,
    feedback_reward,
)
from tablehelm.evidence_lab import LabeledSample, greedy_search, merge_labels
from tablehelm.table_core import Evidence, Table
from tablehelm.transforms import subtable
from tablehelm.prompting import build_summarizer_prompt


def reply(status: int, body: object = None) -> tuple[int, bytes]:
    """A transport's answer: the status and `body` as JSON (empty for None)."""
    return status, b"" if body is None else json.dumps(body).encode("utf-8")


def ok(text: str) -> tuple[int, bytes]:
    return reply(200, {"choices": [{"message": {"content": text}}]})


class ScriptedTransport:
    """Returns (or raises) one scripted outcome per post call."""

    def __init__(self, outcomes) -> None:
        self.outcomes = list(outcomes)
        self.requests: list[dict] = []

    def post(self, body, headers, timeout):
        self.requests.append({"body": body, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def make_http(outcomes, **kwargs):
    transport = ScriptedTransport(outcomes)
    sleeps: list[float] = []
    client = HttpClient(
        "https://api.test/v1/chat",
        "test-model",
        transport=transport,
        sleep=sleeps.append,
        **kwargs,
    )
    return client, transport, sleeps


class RecordingClient:
    model_id = "recorder"

    def __init__(self, text: str = "out") -> None:
        self.text = text
        self.seen: list[tuple[str, SamplingConfig]] = []

    def generate(self, prompt: str, cfg: SamplingConfig) -> str:
        self.seen.append((prompt, cfg))
        return self.text


class RecordingHandler(BaseHTTPRequestHandler):
    """Answers every POST with one completion after the server's `delay_s`,
    and every CONNECT (a proxy tunnel request) with 403; records what it
    saw: the method, the request target and the credential header
    (`Authorization` for a POST, `Proxy-Authorization` for a CONNECT), plus
    each request's headers, each POST's body and each connection's peer
    address. Replies go out in one write, so Nagle's algorithm adds no
    delay."""

    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        super().setup()
        self.server.peers.append(self.client_address)

    def _reply(self, status: int, payload: bytes) -> None:
        head = f"HTTP/1.1 {status} X\r\nContent-Length: {len(payload)}\r\n\r\n"
        self.wfile.write(head.encode("ascii") + payload)

    def do_POST(self) -> None:
        self.server.bodies.append(self.rfile.read(int(self.headers.get("Content-Length", "0"))))
        self.server.seen.append(
            ("POST", self.path, self.headers.get("Authorization"))
        )
        self.server.headers.append(dict(self.headers))
        time.sleep(self.server.delay_s)
        self._reply(200, json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode())

    def do_CONNECT(self) -> None:
        self.server.seen.append(
            ("CONNECT", self.path, self.headers.get("Proxy-Authorization"))
        )
        self.server.headers.append(dict(self.headers))
        self._reply(403, b"")

    def log_message(self, *args) -> None:
        pass


class SilentlyClosingHandler(RecordingHandler):
    """Replies as if the connection stayed open, then closes it."""

    def do_POST(self) -> None:
        super().do_POST()
        self.close_connection = True


class LoneSurrogateHandler(RecordingHandler):
    """Answers with valid JSON whose completion holds a lone surrogate."""

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self._reply(200, b'{"choices": [{"message": {"content": "bad \\ud800 text"}}]}')


class ChatPathHandler(RecordingHandler):
    """Serves `/v1/chat` only: a POST to any other path gets a 404, as a
    chat server answers a wrong path."""

    def do_POST(self) -> None:
        if self.path == "/v1/chat":
            super().do_POST()
            return
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self.server.seen.append(("POST", self.path, None))
        self._reply(404, b'{"error": "not found"}')


class MovedHandler(RecordingHandler):
    """Answers every POST with a 301 to another path."""

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self.server.seen.append(("POST", self.path, None))
        head = "HTTP/1.1 301 X\r\nLocation: /v1/moved\r\nContent-Length: 0\r\n\r\n"
        self.wfile.write(head.encode("ascii"))


class RecordingServer(ThreadingHTTPServer):
    # Room for every connection of the concurrency test at once; the default
    # backlog of 5 drops the rest, which then reconnect a second later.
    request_queue_size = 64

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        self.closed.release()


@contextmanager
def serving(delay_s: float = 0.0, handler=RecordingHandler):
    """A `handler` server on 127.0.0.1; yields (server, base URL). The
    server's `closed` semaphore is released as each connection is closed."""
    server = RecordingServer(("127.0.0.1", 0), handler)
    server.seen = []
    server.headers = []
    server.bodies = []
    server.peers = []
    server.closed = threading.Semaphore(0)
    server.delay_s = delay_s
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


PROXY_VARIABLES = [
    name
    for base in ("http_proxy", "https_proxy", "all_proxy", "no_proxy")
    for name in (base, base.upper())
]


@pytest.fixture
def plain_environment(monkeypatch, tmp_path):
    """No proxy variables, no netrc, and an empty home directory."""
    for name in PROXY_VARIABLES + ["NETRC", "REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"]:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    return monkeypatch


class TestSamplingConfig:
    def test_defaults(self):
        cfg = SamplingConfig()
        assert (cfg.nucleus_p, cfg.temperature, cfg.max_new_tokens) == (0.9, 0.1, 256)

    def test_presets(self):
        assert SEARCH_SAMPLING == SamplingConfig(nucleus_p=1.0, temperature=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nucleus_p": 0.0},
            {"nucleus_p": 1.2},
            {"temperature": -0.1},
            {"temperature": float("nan")},
            {"temperature": float("inf")},
            {"nucleus_p": float("nan")},
            {"max_new_tokens": 0},
        ],
    )
    def test_invalid_values_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SamplingConfig(**kwargs)


class TestHttpClient:
    def test_success_sends_a_chat_completions_payload(self):
        client, transport, sleeps = make_http([ok("hello")], api_key="secret")
        cfg = SamplingConfig(nucleus_p=0.8, temperature=0.3, max_new_tokens=99)
        assert client.generate("a prompt", cfg) == "hello"
        assert len(transport.requests) == 1
        assert sleeps == []
        [request] = transport.requests
        assert request["timeout"] == 60.0
        assert request["headers"]["Authorization"] == "Bearer secret"
        assert request["headers"]["Content-Type"] == "application/json"
        assert json.loads(request["body"]) == {
            "model": "test-model",
            "messages": [{"role": "user", "content": "a prompt"}],
            "temperature": 0.3,
            "top_p": 0.8,
            "max_tokens": 99,
        }

    def test_api_key_falls_back_to_the_environment(self, monkeypatch):
        monkeypatch.setenv("HELM_API_KEY", "env-key")
        client, transport, _ = make_http([ok("x")])
        client.generate("p", SamplingConfig())
        assert transport.requests[0]["headers"]["Authorization"] == "Bearer env-key"

    def test_no_key_sends_no_auth_header(self):
        client, transport, _ = make_http([ok("x")])
        client.generate("p", SamplingConfig())
        assert "Authorization" not in transport.requests[0]["headers"]

    @pytest.mark.parametrize(
        "endpoint",
        ["http://", "http://host:notaport/v1", "http://:8080/v1", "ftp://host/v1"],
    )
    def test_malformed_endpoints_are_rejected_at_construction(self, endpoint):
        with pytest.raises(SchemaError) as excinfo:
            HttpClient(endpoint, "m", transport=ScriptedTransport([]))
        assert excinfo.value.field == "endpoint"

    @pytest.mark.parametrize("status", [401, 403])
    def test_auth_failures_are_immediate(self, status):
        client, transport, sleeps = make_http([reply(status)])
        with pytest.raises(AuthError):
            client.generate("p", SamplingConfig())
        assert len(transport.requests) == 1
        assert sleeps == []

    def test_rate_limits_are_retried_with_backoff(self):
        client, transport, sleeps = make_http(
            [reply(429), reply(429), ok("eventually")]
        )
        assert client.generate("p", SamplingConfig()) == "eventually"
        assert len(transport.requests) == 3
        assert sleeps == [0.5, 1.0]

    def test_persistent_rate_limit_raises_after_max_attempts(self):
        client, transport, sleeps = make_http([reply(429)] * 5)
        with pytest.raises(RateLimitError):
            client.generate("p", SamplingConfig())
        assert len(transport.requests) == 5
        assert sleeps == [0.5, 1.0, 2.0, 4.0]

    def test_server_errors_exhaust_into_transport_error(self):
        client, _, _ = make_http([reply(500)] * 5)
        with pytest.raises(TransportError, match="gave up after 5 attempts"):
            client.generate("p", SamplingConfig())

    def test_last_failure_kind_names_the_final_error(self):
        client, _, _ = make_http([reply(500)] * 4 + [reply(429)])
        with pytest.raises(RateLimitError):
            client.generate("p", SamplingConfig())
        client, _, _ = make_http([reply(429)] * 4 + [reply(503)])
        with pytest.raises(TransportError):
            client.generate("p", SamplingConfig())

    def test_other_client_errors_are_immediate(self):
        client, transport, _ = make_http([reply(404)])
        with pytest.raises(TransportError, match="HTTP 404"):
            client.generate("p", SamplingConfig())
        assert len(transport.requests) == 1

    def test_other_client_errors_stay_per_prompt(self):
        client, transport, _ = make_http([reply(400)])
        with pytest.raises(TransportError) as excinfo:
            client.generate("p", SamplingConfig())
        assert not isinstance(excinfo.value, EndpointNotFoundError)
        assert len(transport.requests) == 1

    @pytest.mark.parametrize("status", [301, 302, 307, 308])
    def test_redirects_are_not_followed_or_retried(self, status):
        client, transport, sleeps = make_http([reply(status)])
        with pytest.raises(TransportError, match=f"HTTP {status}"):
            client.generate("p", SamplingConfig())
        assert len(transport.requests) == 1
        assert sleeps == []

    def test_connection_failures_are_retried(self):
        client, transport, sleeps = make_http(
            [ConnectionError("refused"), ok("recovered")]
        )
        assert client.generate("p", SamplingConfig()) == "recovered"
        assert len(transport.requests) == 2
        assert sleeps == [0.5]

    def test_connection_failures_exhaust_into_transport_error(self):
        client, _, _ = make_http([ConnectionError("refused")] * 5)
        with pytest.raises(TransportError, match="connection failure"):
            client.generate("p", SamplingConfig())

    def test_non_json_success_body_is_malformed(self):
        client, transport, _ = make_http([(200, b"<html>busy</html>")])
        with pytest.raises(MalformedResponseError):
            client.generate("p", SamplingConfig())
        assert len(transport.requests) == 1

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"choices": []},
            {"choices": [{"message": {}}]},
            {"choices": [{"message": {"content": 5}}]},
            {"choices": [{"message": {"content": "bad \ud800 text"}}]},
        ],
    )
    def test_unexpected_shapes_are_malformed(self, body):
        client, _, _ = make_http([reply(200, body)])
        with pytest.raises(MalformedResponseError):
            client.generate("p", SamplingConfig())

    def test_backoff_base_is_configurable(self):
        client, _, sleeps = make_http(
            [reply(500), ok("x")], backoff_base=0.125
        )
        client.generate("p", SamplingConfig())
        assert sleeps == [0.125]

    def test_timeout_is_forwarded(self):
        client, transport, _ = make_http([ok("x")], timeout=7.5)
        client.generate("p", SamplingConfig())
        assert transport.requests[0]["timeout"] == 7.5

    def test_debug_lines_name_each_attempt_by_the_prompt_digest(self, caplog):
        client, _, _ = make_http([reply(503), ConnectionError("refused"), ok("x")])
        with caplog.at_level(logging.DEBUG, logger="tablehelm.feedback"):
            assert client.generate("prompt \u00e9", SamplingConfig()) == "x"
        digest = hashlib.sha256("prompt \u00e9".encode("utf-8")).hexdigest()[:12]
        assert [r.getMessage() for r in caplog.records] == [
            f"prompt {digest} attempt 1: HTTP 503",
            f"prompt {digest} attempt 2: refused",
            f"prompt {digest} attempt 3: HTTP 200",
        ]

    def test_the_prompt_is_not_digested_unless_debug_is_on(self, caplog, monkeypatch):
        def no_digest(prompt):
            raise AssertionError("digested with debug logging off")

        monkeypatch.setattr("tablehelm.feedback._prompt_digest", no_digest)
        client, _, _ = make_http([reply(500), ok("x")])
        with caplog.at_level(logging.INFO, logger="tablehelm.feedback"):
            assert client.generate("p", SamplingConfig()) == "x"
        assert caplog.records == []


class TestHttpClientSession:
    """The client's own transport, against servers on 127.0.0.1."""

    def test_the_api_key_is_sent_even_with_a_netrc_entry(self, plain_environment, tmp_path):
        netrc = tmp_path / ".netrc"
        netrc.write_text("machine 127.0.0.1 login someone password hunter2\n")
        netrc.chmod(0o600)
        with serving() as (server, base):
            client = HttpClient(f"{base}/v1/chat", "m", api_key="SECRET")
            assert client.generate("p", SamplingConfig()) == "ok"
        assert server.seen == [("POST", "/v1/chat", "Bearer SECRET")]

    def test_proxy_variables_at_construction_route_the_endpoint(self, plain_environment):
        with serving() as (target, target_url), serving() as (proxy, proxy_url):
            https_endpoint = target_url.replace("http:", "https:") + "/v1/chat"
            plain_environment.setenv("HTTPS_PROXY", proxy_url)
            proxied = HttpClient(https_endpoint, "m", max_attempts=1)
            plain_environment.setenv("HTTP_PROXY", proxy_url)
            plain_environment.setenv("NO_PROXY", "127.0.0.1")
            direct = HttpClient(f"{target_url}/v1/chat", "m")
            # Settings were read at construction; later changes do not count.
            for name in PROXY_VARIABLES:
                plain_environment.delenv(name, raising=False)
            plain_environment.setenv("NO_PROXY", "*")
            with pytest.raises(TransportError):
                proxied.generate("p", SamplingConfig())
            plain_environment.setenv("HTTP_PROXY", proxy_url)
            plain_environment.delenv("NO_PROXY")
            assert direct.generate("p", SamplingConfig()) == "ok"
        host_port = target_url.removeprefix("http://")
        assert proxy.seen == [("CONNECT", host_port, None)]
        assert target.seen == [("POST", "/v1/chat", None)]

    def test_the_connection_pool_holds_max_in_flight_connections(self, plain_environment):
        width = 16
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with serving(delay_s=0.1) as (server, base):
                client = HttpClient(f"{base}/v1/chat", "m", max_in_flight=width)
                answers: list[str] = []
                for _ in range(2):
                    start = threading.Barrier(width)

                    def call() -> None:
                        start.wait(timeout=10)
                        answers.append(client.generate("p", SamplingConfig()))

                    threads = [threading.Thread(target=call) for _ in range(width)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=30)
                    assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert answers == ["ok"] * 2 * width
        assert len(server.seen) == 2 * width
        assert len(server.peers) <= width

    def test_a_connection_the_server_closed_is_replaced_without_a_retry(
        self, plain_environment
    ):
        sleeps: list[float] = []
        with serving(handler=SilentlyClosingHandler) as (server, base):
            client = HttpClient(f"{base}/v1/chat", "m", sleep=sleeps.append)
            for _ in range(3):
                assert client.generate("p", SamplingConfig()) == "ok"
                assert server.closed.acquire(timeout=10)
        assert len(server.seen) == 3
        assert len(server.peers) == 3
        assert sleeps == []

    def test_a_kept_alive_connection_is_reused_past_fd_setsize(self, plain_environment):
        # select() refuses descriptors at or above FD_SETSIZE (1,024).
        held = 1100
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < held + 100:
            pytest.skip("the soft open-file limit is too low to pass FD_SETSIZE")
        sleeps: list[float] = []
        files = []
        try:
            files.extend(open(os.devnull, "rb") for _ in range(held))
            with serving() as (server, base):
                client = HttpClient(f"{base}/v1/chat", "m", sleep=sleeps.append)
                for _ in range(2):
                    assert client.generate("p", SamplingConfig()) == "ok"
        finally:
            for handle in files:
                handle.close()
        assert len(server.seen) == 2
        assert len(server.peers) == 1
        assert sleeps == []

    @pytest.mark.parametrize("cached", [False, True])
    def test_a_completion_with_a_lone_surrogate_fails_as_a_backend_fault(
        self, plain_environment, tmp_path, capsys, cached
    ):
        data = tmp_path / "data.jsonl"
        support.write_dataset(
            data, [support.planted_sample(f"s-{i}", 3, 2, (1,))[0] for i in (1, 2)]
        )
        cache = tmp_path / "cache"
        with serving(handler=LoneSurrogateHandler) as (_, base):
            argv = ["pipeline", data, tmp_path / "pred.jsonl"]
            argv += ["--summarizer-endpoint", f"{base}/v1/chat"]
            if cached:
                argv += ["--cache-dir", cache]
            code = cli.main([str(arg) for arg in argv])
        stderr = capsys.readouterr().err
        assert code == EXIT_BACKEND
        assert stderr.count("completion is not valid text") == 2
        if cached:
            # Only the two echo highlighter answers were stored, and the
            # command left nothing beside the database file.
            with closing(sqlite3.connect(cache / ResponseCache.FILENAME)) as conn:
                assert conn.execute("SELECT count(*) FROM entries").fetchone() == (2,)
            assert [path.name for path in cache.iterdir()] == [ResponseCache.FILENAME]

    def test_a_404_comes_from_the_endpoint_for_every_prompt(self, plain_environment):
        prompts = [f"prompt {i}" for i in range(4)]
        with serving(handler=ChatPathHandler) as (server, base):
            wrong = HttpClient(f"{base}/v1/chats", "m", max_attempts=3)
            for prompt in prompts:
                with pytest.raises(EndpointNotFoundError, match="HTTP 404") as excinfo:
                    wrong.generate(prompt, SEARCH_SAMPLING)
                assert isinstance(excinfo.value, TransportError)
            right = HttpClient(f"{base}/v1/chat", "m")
            assert [right.generate(p, SEARCH_SAMPLING) for p in prompts] == ["ok"] * 4
        # One request per prompt: a 404 is never retried.
        assert [path for _, path, _ in server.seen] == ["/v1/chats"] * 4 + ["/v1/chat"] * 4

    def test_search_labels_against_a_404_sends_one_request(
        self, plain_environment, tmp_path, capsys
    ):
        data = tmp_path / "data.jsonl"
        support.write_dataset(
            data, [support.planted_sample(f"s-{i}", 4, 2, (1,))[0] for i in (1, 2, 3)]
        )
        output = tmp_path / "labels.jsonl"
        with serving(handler=ChatPathHandler) as (server, base):
            code = cli.main([
                "search-labels", str(data), str(output),
                "--feedbacker-endpoint", f"{base}/v1/wrong",
                "--workers", "1", "--max-in-flight", "1",
            ])
        stderr = capsys.readouterr().err
        assert code == EXIT_BACKEND
        assert "error: EndpointNotFoundError: HTTP 404" in stderr
        assert len(server.seen) == 1
        assert output.read_text("utf-8") == ""

    def test_search_labels_against_a_redirect_sends_one_request(
        self, plain_environment, tmp_path, capsys
    ):
        data = tmp_path / "data.jsonl"
        support.write_dataset(
            data, [support.planted_sample(f"s-{i}", 4, 2, (1,))[0] for i in (1, 2, 3)]
        )
        output = tmp_path / "labels.jsonl"
        with serving(handler=MovedHandler) as (server, base):
            code = cli.main([
                "search-labels", str(data), str(output),
                "--feedbacker-endpoint", f"{base}/v1/chat",
                "--workers", "1", "--max-in-flight", "1",
            ])
        stderr = capsys.readouterr().err
        assert code == EXIT_BACKEND
        assert "error: EndpointNotFoundError: HTTP 301" in stderr
        assert "failed" not in stderr
        assert len(server.seen) == 1
        assert output.read_text("utf-8") == ""

    def test_the_request_on_the_wire_is_pinned(self, plain_environment):
        with serving() as (server, base):
            client = HttpClient(f"{base}/v1/chat", "m", api_key="KEY")
            assert client.generate("p \u00e9", SEARCH_SAMPLING) == "ok"
        body = (
            b'{"model": "m", "messages": [{"role": "user", "content": "p \\u00e9"}],'
            b' "temperature": 0.0, "top_p": 1.0, "max_tokens": 256}'
        )
        assert server.bodies == [body]
        assert list(server.headers[0].items()) == [
            ("Host", base.removeprefix("http://")),
            ("Accept-Encoding", "identity"),
            ("Content-Length", str(len(body))),
            ("Content-Type", "application/json"),
            ("Authorization", "Bearer KEY"),
        ]

    def test_https_through_a_proxy_tunnels_with_the_proxy_credentials(
        self, plain_environment
    ):
        with serving() as (proxy, proxy_url):
            port = proxy_url.rsplit(":", 1)[1]
            plain_environment.setenv("HTTPS_PROXY", f"http://u:p@127.0.0.1:{port}")
            client = HttpClient("https://api.test:8443/v1/chat", "m", max_attempts=1)
            with pytest.raises(TransportError, match="connection failure"):
                client.generate("p", SamplingConfig())
        assert proxy.seen == [("CONNECT", "api.test:8443", "Basic dTpw")]

    def test_plain_http_through_a_proxy_sends_the_absolute_url(self, plain_environment):
        with serving() as (proxy, proxy_url):
            port = proxy_url.rsplit(":", 1)[1]
            plain_environment.setenv("http_proxy", f"http://u%40x:p@127.0.0.1:{port}")
            client = HttpClient("http://api.test/v1/chat?v=2", "m", api_key="KEY")
            assert client.generate("p", SamplingConfig()) == "ok"
        assert proxy.seen == [("POST", "http://api.test/v1/chat?v=2", "Bearer KEY")]
        assert proxy.headers[0]["Proxy-Authorization"] == "Basic dUB4OnA="
        assert proxy.headers[0]["Host"] == "api.test"


class TestEchoOracle:
    def test_starred_rows_win(self, champions_table):
        prompt = build_summarizer_prompt(champions_table, Evidence((2,)), "q")
        assert echo_oracle_generate(prompt.text, SEARCH_SAMPLING) == "2000 PSV 84"

    def test_unstarred_prompt_uses_every_row(self, champions_table):
        shown = subtable(champions_table, Evidence((1, 3)))
        prompt = build_summarizer_prompt(shown, None, "q")
        got = echo_oracle_generate(prompt.text, SEARCH_SAMPLING)
        assert got == "1999 Ajax 78 2001 Feyenoord 80"

    def test_escaped_pipes_come_back_verbatim(self):
        table = Table(header=("h",), rows=(("a|b",),))
        prompt = build_summarizer_prompt(table, None, "q")
        assert echo_oracle_generate(prompt.text, SEARCH_SAMPLING) == "a|b"

    def test_prompt_without_table_rows_is_rejected(self):
        with pytest.raises(NoTableFoundError):
            echo_oracle_generate("no rows in sight\n###Output\n", SEARCH_SAMPLING)

    def test_client_wrapper(self, champions_table):
        prompt = build_summarizer_prompt(champions_table, Evidence((1,)), "q")
        client = EchoClient()
        assert client.model_id == "echo-oracle"
        assert client.generate(prompt.text, SEARCH_SAMPLING) == "1999 Ajax 78"


# ------------------------------------------------ the oracle's read-back
# The echo oracle as it was when it read rows through `parse_row_lines`,
# which built (number, cells, starred) triples: the one-pass oracle must
# answer, and fail, exactly as it did.

ROW_LINE_BEFORE = re.compile(r"^row (\d+) : (.*)$")


def parse_row_lines_before(text: str) -> list[tuple[int, list[str], bool]]:
    rows = []
    for line in text.splitlines():
        if not line.startswith("row "):
            continue
        m = ROW_LINE_BEFORE.match(line)
        if not m:
            continue
        body = m.group(2)
        cells = body.split(" | ")
        if "\\|" in body:
            cells = [c.replace("\\|", "|") for c in cells]
        starred = all(len(c) >= 2 and c.startswith("*") and c.endswith("*") for c in cells)
        if starred:
            cells = [c[1:-1] for c in cells]
        rows.append((int(m.group(1)), cells, starred))
    return rows


def echo_oracle_before(prompt: str) -> str:
    rows = parse_row_lines_before(prompt)
    if not rows:
        raise NoTableFoundError("prompt contains no table row lines")
    starred = [cells for _, cells, is_starred in rows if is_starred]
    chosen = starred if starred else [cells for _, cells, _ in rows]
    return " ".join(" ".join(cells) for cells in chosen)


# Every line boundary `str.splitlines` knows.
LINE_BOUNDARIES = (
    "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
)
# Line starts: row numbers in ASCII, Arabic-Indic, Devanagari and fullwidth
# digits (all match `\d`), and near misses that are not row lines.
LINE_STARTS = (
    "row 1 : ", "row 12 : ", "row ٣ : ", "row १२ : ", "row ５ : ",
    "row  : ", "row x : ", "row 1: ", "row 1 :", "Row 1 : ", "col : ", "title : ", "",
)
ORACLE_CELLS = (
    "*", "**", "***", "*a", "a*", "*a*", "a", "", " ", "\\|", "a\\|b", "*\\|*", "|", "\\",
    "*x | y*", "* | *", "row 2 : b", "#", "é", "٣",
)
oracle_cells = st.one_of(
    st.sampled_from(ORACLE_CELLS),
    st.text(alphabet="ab *|\\:" + "".join(LINE_BOUNDARIES), max_size=6),
)
oracle_lines = st.builds(
    lambda start, cells, sep: start + sep.join(cells),
    st.sampled_from(LINE_STARTS),
    st.lists(oracle_cells, max_size=4),
    st.sampled_from((" | ", "|", " |")),
)


@st.composite
def oracle_prompts(draw) -> str:
    lines = draw(st.lists(oracle_lines, max_size=8))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(LINE_BOUNDARIES))
    return text if draw(st.booleans()) else text[:-1]


def oracle_outcome(generate, prompt: str) -> tuple[str, str]:
    try:
        return "answer", generate(prompt)
    except NoTableFoundError as exc:
        return "error", str(exc)


@given(oracle_prompts())
def test_echo_oracle_equals_reading_through_row_triples(prompt):
    got = oracle_outcome(lambda p: echo_oracle_generate(p, SEARCH_SAMPLING), prompt)
    assert got == oracle_outcome(echo_oracle_before, prompt)


@given(support.tables_with_evidence(), st.booleans())
def test_echo_oracle_equals_reading_through_row_triples_on_rendered_tables(case, sub):
    table, evidence = case
    shown = subtable(table, evidence) if sub and len(evidence) else table
    prompt = build_summarizer_prompt(shown, None if sub else evidence, "q").text
    got = oracle_outcome(lambda p: echo_oracle_generate(p, SEARCH_SAMPLING), prompt)
    assert got == oracle_outcome(echo_oracle_before, prompt)


class TestStubClients:
    def test_fixed_client_ignores_the_prompt(self):
        client = FixedClient("{1, 3}")
        assert client.generate("anything", SamplingConfig()) == "{1, 3}"
        assert client.model_id == "fixed"
        assert FixedClient("x", model_id="stub-2").model_id == "stub-2"

    def test_counting_client_delegates_and_counts(self):
        inner = FixedClient("out", model_id="inner")
        counting = CountingClient(inner)
        assert counting.model_id == "inner"
        assert counting.calls == 0
        for _ in range(3):
            assert counting.generate("p", SamplingConfig()) == "out"
        assert counting.calls == 3


class TestResponseCache:
    def test_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        cfg = SamplingConfig()
        assert cache.get("m", "p", cfg) is None
        cache.put("m", "p", cfg, "stored text")
        assert cache.get("m", "p", cfg) == "stored text"

    def test_key_is_stable_across_processes(self):
        # Frozen so existing on-disk caches stay valid.
        assert ResponseCache.key("m", "p", SamplingConfig()) == (
            "55450a6e04d7394a019ded7622f08a46e513abfb6b51684522aa71a5c7c42dc2"
        )

    @staticmethod
    def dumps_key(model_id: str, prompt: str, cfg: SamplingConfig) -> str:
        """The key's definition: one `json.dumps` of the whole request."""
        payload = json.dumps(
            {
                "model": model_id,
                "nucleus_p": cfg.nucleus_p,
                "temperature": cfg.temperature,
                "max_new_tokens": cfg.max_new_tokens,
                "prompt": prompt,
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # Quotes, backslashes, control characters, the JS line separators,
    # non-ASCII and astral characters, among any other text but surrogates.
    key_text = st.text(
        st.one_of(
            st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\x85\u2028\u2029é€😀'),
            st.characters(blacklist_categories=("Cs",)),
        )
    )
    key_configs = st.builds(
        SamplingConfig,
        nucleus_p=st.one_of(st.just(1.0), st.floats(min_value=1e-9, max_value=1.0)),
        temperature=st.one_of(
            st.sampled_from([0.0, -0.0, 1, 0.1]),
            st.floats(min_value=0.0, max_value=1e9),
        ),
        max_new_tokens=st.integers(min_value=1, max_value=10**6),
    )

    @given(model_id=key_text, prompt=key_text, cfg=key_configs)
    def test_key_is_the_sha256_of_the_json_request(self, model_id, prompt, cfg):
        assert ResponseCache.key(model_id, prompt, cfg) == self.dumps_key(model_id, prompt, cfg)

    def test_key_keeps_equal_but_differently_written_fields_apart(self):
        # 0.0 == -0.0 and 1 == 1.0, but JSON writes each pair differently.
        for values in ((0.0, -0.0), (-0.0, 0.0), (1, 1.0)):
            keys = set()
            for temperature in values:
                cfg = SamplingConfig(temperature=temperature)
                key = ResponseCache.key("m", "p", cfg)
                assert key == self.dumps_key("m", "p", cfg)
                keys.add(key)
            assert len(keys) == 2

    def test_key_covers_every_request_field(self):
        base = ResponseCache.key("m", "p", SamplingConfig())
        assert ResponseCache.key("m2", "p", SamplingConfig()) != base
        assert ResponseCache.key("m", "p2", SamplingConfig()) != base
        assert ResponseCache.key("m", "p", SamplingConfig(nucleus_p=0.5)) != base
        assert ResponseCache.key("m", "p", SamplingConfig(temperature=0.7)) != base
        assert ResponseCache.key("m", "p", SamplingConfig(max_new_tokens=7)) != base

    def test_config_change_misses(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.put("m", "p", SamplingConfig(), "text")
        assert cache.get("m", "p", SamplingConfig(temperature=0.9)) is None

    def damage(self, cache: ResponseCache, text_sql: str, *params) -> None:
        """Overwrite the text of every entry with `text_sql`, through a
        connection of its own."""
        with closing(sqlite3.connect(cache.path)) as conn, conn:
            conn.execute(f"UPDATE entries SET text = {text_sql}", params)

    def entries(self, cache: ResponseCache) -> list[tuple[str, str]]:
        with closing(sqlite3.connect(cache.path)) as conn:
            return conn.execute("SELECT key, typeof(text) FROM entries").fetchall()

    def test_corrupt_entry_is_evicted(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cfg = SamplingConfig()
        cache.put("m", "p", cfg, "good")
        self.damage(cache, "X'00ff13'")
        assert cache.get("m", "p", cfg) is None
        assert self.entries(cache) == []

    def test_wrong_shape_entry_is_evicted(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cfg = SamplingConfig()
        cache.put("m", "p", cfg, "good")
        self.damage(cache, "?", b"good")
        assert self.entries(cache) == [(ResponseCache.key("m", "p", cfg), "blob")]
        assert cache.get("m", "p", cfg) is None
        assert self.entries(cache) == []

    def test_an_entry_that_is_not_utf8_is_evicted(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cfg = SamplingConfig()
        cache.put("m", "p", cfg, "good")
        self.damage(cache, "CAST(X'fffe' AS TEXT)")
        assert self.entries(cache) == [(ResponseCache.key("m", "p", cfg), "text")]
        assert cache.get("m", "p", cfg) is None
        assert self.entries(cache) == []

    def test_get_is_one_point_read(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cfg = SamplingConfig()
        cache.put("m", "p", cfg, "text")
        statements: list[str] = []
        cache._use(lambda conn: conn.set_trace_callback(statements.append))
        assert cache.get("m", "p", cfg) == "text"
        assert cache.get("m", "missing", cfg) is None
        assert len(statements) == 2
        assert all(sql.endswith(f"WHERE key = '{ResponseCache.key('m', p, cfg)}'")
                   for sql, p in zip(statements, ("p", "missing")))

    PREFIX = "0123456789abcdef"

    def fill(self, scope, cfg: SamplingConfig, count: int) -> list[str]:
        """`count` prompts, each stored in `scope` (a cache or a scope) with
        the text "text <i>"."""
        prompts = [f"prompt {i}" for i in range(count)]
        for i, prompt in enumerate(prompts):
            scope.put("m", prompt, cfg, f"text {i}")
        return prompts

    # Every row of a scope comes back as its bytes and stored type: one not
    # stored as TEXT (a BLOB, an INTEGER, a REAL), or not UTF-8, is evicted.
    # The text column is made without a type, as another program sharing the
    # file could make it, so that it keeps numbers as numbers.
    @pytest.mark.parametrize(
        "damage",
        [
            ("X'00ff'", "X'0102'"),
            ("CAST(X'fffe' AS TEXT)",) * 2,
            ("X'00ff'", "CAST(X'fffe' AS TEXT)"),
            ("42", "1.5"),
        ],
    )
    def test_a_corrupt_row_in_a_batch_is_evicted_and_the_other_hits_served(
        self, tmp_path, caplog, damage
    ):
        cache = ResponseCache(tmp_path)
        with closing(sqlite3.connect(cache.path)) as conn:
            conn.execute("CREATE TABLE entries (key TEXT PRIMARY KEY, text NOT NULL) WITHOUT ROWID")
        cfg = SamplingConfig()
        prompts = self.fill(CacheScope(cache, self.PREFIX), cfg, 5)
        keys = [self.PREFIX + ResponseCache.key("m", prompt, cfg) for prompt in prompts]
        with closing(sqlite3.connect(cache.path)) as conn, conn:
            for position, text_sql in zip((1, 3), damage):
                conn.execute(
                    f"UPDATE entries SET text = {text_sql} WHERE key = ?", (keys[position],)
                )
        scope = CacheScope(cache, self.PREFIX)
        got = [scope.get("m", prompt, cfg) for prompt in prompts + ["unknown"]]
        assert got == ["text 0", None, "text 2", None, "text 4", None]
        assert sorted(key for key, _ in self.entries(cache)) == sorted(
            keys[i] for i in (0, 2, 4)
        )
        assert caplog.text.count("evicting corrupt cache entry") == 2
        # The evicted prompts are regenerated and stored like any miss, once.
        client = RecordingClient("fresh")
        client.model_id = "m"
        for _ in range(2):
            assert [cached_generate(client, scope, p, cfg) for p in prompts] == [
                "text 0", "fresh", "text 2", "fresh", "text 4",
            ]
        assert [prompt for prompt, _ in client.seen] == [prompts[1], prompts[3]]
        fresh = CacheScope(cache, self.PREFIX)
        assert [fresh.get("m", prompt, cfg) for prompt in prompts] == [
            "text 0", "fresh", "text 2", "fresh", "text 4",
        ]

    @pytest.mark.parametrize("trouble", ["not a database", "a directory"])
    def test_an_unreadable_database_is_one_warning_per_batch(
        self, tmp_path, caplog, trouble
    ):
        cache = ResponseCache(tmp_path)
        if trouble == "a directory":
            cache.path.mkdir()
        else:
            cache.path.write_bytes(b"not a database\n" * 512)
        scope = CacheScope(cache, self.PREFIX)
        prompts = [f"prompt {i}" for i in range(6)]
        assert [scope.get("m", p, SamplingConfig()) for p in prompts] == [None] * 6
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "cache read failed, generating instead",
        ]

    def test_a_search_over_an_unreadable_database_generates_every_prompt(
        self, tmp_path, caplog
    ):
        sample, planted = support.planted_sample("bad-db", 5, 2, (2, 4))
        cache = ResponseCache(tmp_path)
        cache.path.write_bytes(b"not a database\n" * 512)
        client = CountingClient(EchoClient())
        got = greedy_search(sample, client, settings=RoleSettings(cache=cache))
        assert got == greedy_search(sample, EchoClient())
        assert got[0] == planted
        # Every distinct prompt: the first accumulation step repeats the top
        # singleton's prompt, which the scope serves from what it stored.
        assert got[2].oracle_calls == 2 * 5
        assert client.calls == 2 * 5 - 1
        reads = [r for r in caplog.records if "cache read failed" in r.getMessage()]
        # One for the search's scope read; every lookup is then served from it.
        assert len(reads) == 1
        # The scope does not write to the database it could not read: the
        # sample costs that one warning, not one more per generated prompt.
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == reads

    def test_a_scope_is_read_whole_in_one_statement(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cfg = SamplingConfig()
        count = 2 * 999 + 5  # past SQLite's old limit on bound parameters
        below, above = "0123456789abcdee", "0123456789abcdf0"
        with closing(sqlite3.connect(cache.path)) as conn, conn:
            conn.execute(
                "CREATE TABLE entries (key TEXT PRIMARY KEY, text TEXT NOT NULL) WITHOUT ROWID"
            )
            conn.executemany(
                "INSERT INTO entries VALUES (?, ?)",
                [(prefix + ResponseCache.key("m", f"prompt {i}", cfg), f"{prefix} {i}")
                 for prefix in (below, self.PREFIX, above) for i in range(count)],
            )
        cache.put("m", "prompt 0", cfg, "point entry")
        statements: list[str] = []
        cache._use(lambda conn: conn.set_trace_callback(statements.append))
        scope = CacheScope(cache, self.PREFIX)
        assert len(statements) == 1
        got = [scope.get("m", f"prompt {i}", cfg) for i in range(count + 3)]
        assert got == [f"{self.PREFIX} {i}" for i in range(count)] + [None] * 3
        assert scope.get("other", "prompt 0", cfg) is None
        assert len(statements) == 1

    def test_a_scope_serves_what_it_stored_and_writes_it_through(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cfg = SamplingConfig()
        scope = CacheScope(cache, self.PREFIX)
        prompts = self.fill(scope, cfg, 3)
        statements: list[str] = []
        cache._use(lambda conn: conn.set_trace_callback(statements.append))
        assert [scope.get("m", p, cfg) for p in prompts] == ["text 0", "text 1", "text 2"]
        assert statements == []  # served from what the scope stored
        assert [CacheScope(cache, self.PREFIX).get("m", p, cfg) for p in prompts] == [
            "text 0", "text 1", "text 2",
        ]
        # Scoped entries are not point entries, nor entries of another scope.
        assert cache.get("m", prompts[0], cfg) is None
        assert CacheScope(cache, "fedcba9876543210").get("m", prompts[0], cfg) is None

    @pytest.mark.parametrize(
        "text_sql", ["X'00ff'", "42", "1.5", "CAST(X'fffe' AS TEXT)"]
    )
    def test_a_corrupt_entry_in_a_search_scope_is_evicted_and_regenerated_once(
        self, tmp_path, caplog, text_sql
    ):
        sample, planted = support.planted_sample("corrupt-scope", 6, 2, (1, 4), salt="c")
        cache = ResponseCache(tmp_path)
        with closing(sqlite3.connect(cache.path)) as conn:
            conn.execute("CREATE TABLE entries (key TEXT PRIMARY KEY, text NOT NULL) WITHOUT ROWID")
        settings = RoleSettings(cache=cache)
        cold = greedy_search(sample, EchoClient(), settings=settings)
        cache.close()
        before = self.entries(cache)
        damaged = before[3][0]
        with closing(sqlite3.connect(cache.path)) as conn, conn:
            conn.execute(f"UPDATE entries SET text = {text_sql} WHERE key = ?", (damaged,))
        client = CountingClient(EchoClient())
        assert greedy_search(sample, client, settings=settings) == cold
        assert client.calls == 1
        assert caplog.text.count("evicting corrupt cache entry") == 1
        assert self.entries(cache) == before

    def test_a_warm_search_looks_its_singletons_up_in_one_statement(self, tmp_path):
        sample, planted = support.planted_sample("one-statement", 6, 2, (1, 4), salt="s")
        cache = ResponseCache(tmp_path)
        settings = RoleSettings(cache=cache)
        cold = greedy_search(sample, EchoClient(), settings=settings)
        statements: list[str] = []
        for conn in cache._idle:
            conn.set_trace_callback(statements.append)
        client = CountingClient(EchoClient())
        warm = greedy_search(sample, client, settings=settings)
        assert warm == cold and warm[0] == planted
        assert client.calls == 0
        steps = sum(1 for c in warm[2].candidates if c.phase == "accumulate")
        assert steps == 6
        # The singletons and every accumulation step, from one range read.
        assert len(statements) == 1
        assert statements[0].startswith(
            "SELECT key, CAST(text AS BLOB), typeof(text) FROM entries WHERE key >= "
        )

    def test_a_warm_merge_looks_its_distinct_sets_up_in_one_statement(self, tmp_path):
        sample, planted = support.planted_sample("merge-statement", 6, 2, (1, 4), salt="m")
        labeled = LabeledSample(
            sample_id=sample.id, e_search=planted, e_distill=Evidence((2,)), e_manual=planted
        )
        cache = ResponseCache(tmp_path)
        settings = RoleSettings(cache=cache)
        cold = merge_labels(labeled, sample, EchoClient(), settings=settings)
        statements: list[str] = []
        for conn in cache._idle:
            conn.set_trace_callback(statements.append)
        client = CountingClient(EchoClient())
        warm = merge_labels(labeled, sample, client, settings=settings)
        assert warm == cold and warm.e_merge == planted
        assert client.calls == 0
        assert len(statements) == 1
        assert statements[0].startswith(
            "SELECT key, CAST(text AS BLOB), typeof(text) FROM entries WHERE key >= "
        )

    def test_a_blocked_cache_directory_is_a_logged_miss(self, tmp_path, caplog):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        cache = ResponseCache(blocker)
        cache.put("m", "p", SamplingConfig(), "text")
        assert cache.get("m", "p", SamplingConfig()) is None
        assert [record.getMessage().split(":")[0] for record in caplog.records] == [
            "cache write failed, continuing",
            "cache read failed, generating instead",
        ]

    def test_a_database_path_that_is_a_directory_is_a_logged_miss(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        cfg = SamplingConfig()
        cache.path.mkdir()
        cache.put("m", "p", cfg, "text")
        assert "cache write failed" in caplog.text
        assert cache.get("m", "p", cfg) is None
        assert "cache read failed" in caplog.text
        assert list(tmp_path.iterdir()) == [cache.path]
        assert list(cache.path.iterdir()) == []

    def test_a_database_file_that_is_not_sqlite_is_never_overwritten(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        cfg = SamplingConfig()
        planted = b"not a database\n" * 512
        cache.path.write_bytes(planted)
        cache.put("m", "p", cfg, "text")
        assert "cache write failed" in caplog.text
        assert cache.get("m", "p", cfg) is None
        assert "cache read failed" in caplog.text
        cache.close()
        assert list(tmp_path.iterdir()) == [cache.path]
        assert cache.path.read_bytes() == planted

    def test_text_that_does_not_encode_is_not_stored(self, tmp_path):
        cache = ResponseCache(tmp_path)
        with pytest.raises(UnicodeEncodeError):
            cache.put("m", "p", SamplingConfig(), "bad \ud800 text")
        assert self.entries(cache) == []

    def test_close_leaves_only_the_database_file(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cfg = SamplingConfig()
        cache.put("m", "p", cfg, "text")
        assert cache.get("m", "p", cfg) == "text"
        cache.close()
        assert list(tmp_path.iterdir()) == [cache.path]
        assert cache.get("m", "p", cfg) == "text"  # still usable after close

    def test_old_per_entry_files_are_misses(self, tmp_path):
        cfg = SamplingConfig()
        old = tmp_path / f"{ResponseCache.key('m', 'p', cfg)}.json"
        old.write_text(json.dumps({"model": "m", "text": "old"}), encoding="utf-8")
        assert ResponseCache(tmp_path).get("m", "p", cfg) is None

    def test_threads_and_instances_sharing_one_file_read_what_was_written(
        self, tmp_path, caplog
    ):
        caches = [ResponseCache(tmp_path), ResponseCache(tmp_path)]
        cfg = SamplingConfig()
        mismatches: list[tuple] = []

        def text_of(n: int) -> str:
            return f"text {n} " * (n + 1)

        def work(worker: int) -> None:
            cache = caches[worker % 2]
            for step in range(80):
                n = (7 * worker + step) % 16
                got = cache.get("m", f"prompt {n}", cfg)
                if got not in (None, text_of(n)):
                    mismatches.append((worker, step, "before", got))
                cache.put("m", f"prompt {n}", cfg, text_of(n))
                got = cache.get("m", f"prompt {n}", cfg)
                if got != text_of(n):
                    mismatches.append((worker, step, "after", got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
        for cache in caches:
            cache.close()
        assert list(tmp_path.iterdir()) == [caches[0].path]
        fresh = ResponseCache(tmp_path)
        assert [fresh.get("m", f"prompt {n}", cfg) for n in range(16)] == [
            text_of(n) for n in range(16)
        ]


class TestCachedGenerate:
    def test_second_call_is_served_from_disk(self, tmp_path):
        cache = ResponseCache(tmp_path)
        client = CountingClient(FixedClient("answer"))
        cfg = SamplingConfig()
        assert cached_generate(client, cache, "p", cfg) == "answer"
        assert cached_generate(client, cache, "p", cfg) == "answer"
        assert client.calls == 1

    def test_no_cache_always_generates(self):
        client = CountingClient(FixedClient("answer"))
        cfg = SamplingConfig()
        cached_generate(client, None, "p", cfg)
        cached_generate(client, None, "p", cfg)
        assert client.calls == 2

    def test_cache_trouble_is_not_fatal(self, tmp_path, caplog):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        client = CountingClient(FixedClient("answer"))
        got = cached_generate(client, ResponseCache(blocker), "p", SamplingConfig())
        assert got == "answer"
        assert client.calls == 1
        assert "cache read failed" in caplog.text
        assert "cache write failed" in caplog.text

    def test_entries_are_keyed_by_the_backend_not_the_model_id(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cfg = SamplingConfig()
        assert cached_generate(FixedClient("one"), cache, "p", cfg) == "one"
        assert cached_generate(FixedClient("two"), cache, "p", cfg) == "two"
        first = HttpClient(
            "https://a.test/v1/chat", "m", transport=ScriptedTransport([ok("from a")])
        )
        second = HttpClient(
            "https://b.test/v1/chat", "m", transport=ScriptedTransport([ok("from b")])
        )
        assert cached_generate(first, cache, "q", cfg) == "from a"
        assert cached_generate(CountingClient(second), cache, "q", cfg) == "from b"
        assert cached_generate(CountingClient(first), cache, "q", cfg) == "from a"


class TestFeedbackReward:
    def test_subtable_mode_recovers_a_planted_reference(self):
        sample, planted = support.planted_sample("fr-1", 4, 2, (1, 3))
        reward = feedback_reward(
            sample.table,
            planted,
            sample.query,
            sample.reference,
            "subtable",
            EchoClient(),
        )
        assert reward == 1.0

    def test_wrong_rows_score_below_the_planted_set(self):
        sample, planted = support.planted_sample("fr-2", 4, 2, (2,))
        right = feedback_reward(
            sample.table, planted, sample.query, sample.reference,
            "subtable", EchoClient(),
        )
        wrong = feedback_reward(
            sample.table, Evidence((4,)), sample.query, sample.reference,
            "subtable", EchoClient(),
        )
        assert wrong < right

    def test_highlight_mode_accepts_empty_evidence(self, champions_sample):
        reward = feedback_reward(
            champions_sample.table,
            Evidence(()),
            champions_sample.query,
            champions_sample.reference,
            "highlight",
            EchoClient(),
        )
        assert 0.0 <= reward <= 1.0

    def test_subtable_mode_rejects_empty_evidence(self, champions_sample):
        with pytest.raises(EmptyEvidenceError):
            feedback_reward(
                champions_sample.table,
                Evidence(()),
                champions_sample.query,
                champions_sample.reference,
                "subtable",
                EchoClient(),
            )

    def test_unknown_mode_is_rejected(self, champions_sample):
        with pytest.raises(ValueError):
            feedback_reward(
                champions_sample.table,
                Evidence((1,)),
                champions_sample.query,
                champions_sample.reference,
                "rows",
                EchoClient(),
            )

    def test_rewards_go_through_the_cache(self, tmp_path):
        sample, planted = support.planted_sample("fr-3", 3, 2, (2,))
        cache = ResponseCache(tmp_path)
        client = CountingClient(EchoClient())
        for _ in range(2):
            reward = feedback_reward(
                sample.table, planted, sample.query, sample.reference,
                "subtable", client, RoleSettings(cache=cache),
            )
            assert reward == 1.0
        assert client.calls == 1

    def test_search_sampling_is_the_default(self, champions_sample):
        recorder = RecordingClient()
        feedback_reward(
            champions_sample.table,
            Evidence((1,)),
            champions_sample.query,
            champions_sample.reference,
            "highlight",
            recorder,
        )
        [(prompt, cfg)] = recorder.seen
        assert cfg == SEARCH_SAMPLING
        assert "*1999*" in prompt
