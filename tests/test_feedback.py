"""Generator clients, the response cache, and reward composition."""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import support
import tablehelm.cli as cli
from tablehelm.cli import EXIT_BACKEND
from tablehelm.errors import (
    AuthError,
    EmptyEvidenceError,
    MalformedResponseError,
    NoTableFoundError,
    RateLimitError,
    SchemaError,
    TransportError,
)
from tablehelm.feedback import (
    SEARCH_SAMPLING,
    CountingClient,
    EchoClient,
    FixedClient,
    HttpClient,
    ResponseCache,
    SamplingConfig,
    cached_generate,
    echo_oracle_generate,
    feedback_reward,
)
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
            assert not list(cache.glob("*.tmp.*"))

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

    def test_corrupt_entry_is_evicted(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cfg = SamplingConfig()
        cache.put("m", "p", cfg, "good")
        [entry] = tmp_path.glob("*.json")
        entry.write_text("not valid json", encoding="utf-8")
        assert cache.get("m", "p", cfg) is None
        assert not entry.exists()

    def test_wrong_shape_entry_is_evicted(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cfg = SamplingConfig()
        cache.put("m", "p", cfg, "good")
        [entry] = tmp_path.glob("*.json")
        entry.write_text(json.dumps({"text": 5}), encoding="utf-8")
        assert cache.get("m", "p", cfg) is None

    def test_an_entry_that_is_not_utf8_is_evicted(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cfg = SamplingConfig()
        cache.put("m", "p", cfg, "good")
        [entry] = tmp_path.glob("*.json")
        entry.write_bytes(b'{"text": "\xff\xfe"}')
        assert cache.get("m", "p", cfg) is None
        assert not entry.exists()

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

    def test_a_failed_rename_removes_its_temp_file(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        cfg = SamplingConfig()
        entry = tmp_path / f"{ResponseCache.key('m', 'p', cfg)}.json"
        entry.mkdir()
        cache.put("m", "p", cfg, "text")
        assert list(tmp_path.iterdir()) == [entry]
        assert "cache write failed" in caplog.text
        assert cache.get("m", "p", cfg) is None
        assert "cache read failed" in caplog.text

    def test_text_that_does_not_encode_leaves_no_temp_file(self, tmp_path):
        cache = ResponseCache(tmp_path)
        with pytest.raises(UnicodeEncodeError):
            cache.put("m", "p", SamplingConfig(), "bad \ud800 text")
        assert list(tmp_path.iterdir()) == []


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
                "subtable", client, cache=cache,
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
