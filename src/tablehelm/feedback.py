"""Text-generation clients and the reward composition built on them.

Three interchangeable backends satisfy one small contract: an HTTP
chat-completions client for real model servers, a deterministic offline
oracle that reads the table straight out of the prompt (used to exercise
the label-search machinery without a model), and a fixed-output stub.
A content-addressed on-disk cache can wrap any of them. `feedback_reward`
composes prompt construction, generation, and scoring into the scalar
signal the evidence search consumes.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import http.client
import json
import logging
import math
import os
import select
import ssl
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable
from urllib.parse import unquote, urlsplit
from urllib.request import getproxies_environment, proxy_bypass_environment

from .errors import (
    AuthError,
    EmptyEvidenceError,
    MalformedResponseError,
    NoTableFoundError,
    RateLimitError,
    SchemaError,
    TransportError,
)
from .metrics import eval_reward
from .prompting import DEFAULT_TOKEN_BUDGET, PromptTemplate, build_summarizer_prompt
from .table_core import Evidence, Table
from .transforms import parse_row_lines, subtable

__all__ = [
    "SamplingConfig",
    "SEARCH_SAMPLING",
    "GeneratorClient",
    "HttpClient",
    "EchoClient",
    "FixedClient",
    "CountingClient",
    "ResponseCache",
    "cached_generate",
    "echo_oracle_generate",
    "feedback_reward",
]

logger = logging.getLogger(__name__)

REWARD_MODES = ("subtable", "highlight")


@dataclass(frozen=True)
class SamplingConfig:
    """Decoding parameters sent to a generator."""

    nucleus_p: float = 0.9
    temperature: float = 0.1
    max_new_tokens: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.nucleus_p <= 1.0:
            raise ValueError(f"nucleus_p must be in (0, 1], got {self.nucleus_p}")
        if not 0.0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")


# Greedy decoding for label search: reward comparisons are meaningless under
# sampling noise. The (0.9, 0.1) pair is the default for final summaries.
SEARCH_SAMPLING = SamplingConfig(nucleus_p=1.0, temperature=0.0)


@runtime_checkable
class GeneratorClient(Protocol):
    """Anything that can turn a prompt into a completion."""

    model_id: str

    def generate(self, prompt: str, cfg: SamplingConfig) -> str: ...


def _cache_identity(client: GeneratorClient) -> str:
    """The backend's name in cache keys: its `cache_id`, else its model id."""
    return getattr(client, "cache_id", client.model_id)


def _prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:12]


def _check_endpoint(endpoint: str) -> None:
    try:
        parts = urlsplit(endpoint)
        parts.port  # raises ValueError unless the port is absent or numeric
    except ValueError as exc:
        raise SchemaError("endpoint", f"bad endpoint {endpoint!r}: {exc}") from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise SchemaError(
            "endpoint", f"bad endpoint {endpoint!r}: expected http(s)://host[:port]/path"
        )


def _close_all(connections: deque[http.client.HTTPConnection]) -> None:
    while connections:
        connections.pop().close()


class _Transport:
    """Keep-alive connections to one endpoint over stdlib `http.client`.

    `post(body, headers, timeout)` sends `body` to the endpoint the
    transport was built for and returns `(status, reply body)`. Idle
    connections wait in a deque (thread-safe appends and pops), closed when
    the transport is collected; the caller's semaphore bounds how many are
    out at once, so at most that many are ever open. A connection is
    dropped after any error, when the reply says it will close, and before
    reuse when `poll` (which, unlike `select`, has no FD_SETSIZE ceiling)
    finds an event on its socket: a server that closed an idle connection
    has sent EOF, and that connection would fail the request it carried.

    The proxy for the endpoint (`*_PROXY`, `ALL_PROXY`, `NO_PROXY`, either
    case) and the CA bundle (`REQUESTS_CA_BUNDLE` or `CURL_CA_BUNDLE`, else
    the system store and `SSL_CERT_FILE`) are read once, here. HTTPS goes
    through a proxy by a CONNECT tunnel, plain HTTP by an absolute request
    target; proxy userinfo becomes `Proxy-Authorization: Basic`. Redirects
    are not followed and `~/.netrc` is never read.
    """

    def __init__(self, endpoint: str) -> None:
        parts = urlsplit(endpoint)
        self._https = parts.scheme == "https"
        self._address = (parts.hostname, parts.port or (443 if self._https else 80))
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._idle: deque[http.client.HTTPConnection] = deque()
        weakref.finalize(self, _close_all, self._idle)
        self._proxy: tuple[str, int] | None = None
        self._proxy_headers: dict[str, str] = {}
        if self._https:
            bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
            self._context = ssl.create_default_context(cafile=bundle or None)
        proxies = getproxies_environment()
        proxy = proxies.get(parts.scheme) or proxies.get("all")
        if not proxy or proxy_bypass_environment("%s:%d" % self._address, proxies):
            return
        proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        self._proxy = (proxy_parts.hostname, proxy_parts.port or 80)
        if proxy_parts.username is not None:
            userinfo = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password or '')}"
            token = base64.b64encode(userinfo.encode("utf-8")).decode("ascii")
            self._proxy_headers["Proxy-Authorization"] = f"Basic {token}"
        if not self._https:
            self._target = f"http://{parts.netloc.rpartition('@')[2]}{self._target}"

    def _connect(self, timeout: float) -> http.client.HTTPConnection:
        host, port = self._proxy or self._address
        if not self._https:
            return http.client.HTTPConnection(host, port, timeout=timeout)
        conn = http.client.HTTPSConnection(host, port, timeout=timeout, context=self._context)
        if self._proxy:
            conn.set_tunnel(*self._address, headers=self._proxy_headers)
        return conn

    def _take(self, timeout: float) -> http.client.HTTPConnection:
        while True:
            try:
                conn = self._idle.pop()
            except IndexError:
                return self._connect(timeout)
            poller = select.poll()
            poller.register(conn.sock, select.POLLIN)
            if not poller.poll(0):
                conn.sock.settimeout(timeout)
                return conn
            conn.close()

    def post(self, body: bytes, headers: dict[str, str], timeout: float) -> tuple[int, bytes]:
        if self._proxy and not self._https:
            headers = {**headers, **self._proxy_headers}
        conn = self._take(timeout)
        try:
            conn.request("POST", self._target, body, headers)
            response = conn.getresponse()
            reply = response.status, response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            self._idle.append(conn)
        return reply


class HttpClient:
    """Chat-completions client over HTTP with retry and backoff.

    This is the only layer that retries. Transient failures (connection
    errors, 429, 5xx) are retried up to `max_attempts` times with
    exponential backoff, then raised; auth and other 4xx failures, and
    redirects (3xx, not followed), are raised at once. A semaphore bounds
    concurrent in-flight requests, and so open connections, to
    `max_in_flight`, which also bounds how many evaluations one label
    search or merge runs at once. Cache entries are keyed by endpoint and
    model (`cache_id`). The endpoint must be an http(s) URL with a host
    and, if it names a port, a numeric one; any other endpoint raises
    `SchemaError` here, since no retry could make it work.

    The client owns the wire format: it builds its headers once, here,
    encodes each call's JSON body once and decodes the reply. A 2xx reply
    without a completion that encodes as UTF-8 raises
    `MalformedResponseError`. Unless a `transport` is passed in (an object
    whose `post(body, headers, timeout)` returns `(status, reply body)`),
    the client talks through a `_Transport`, which reads its proxy and CA
    settings from the environment once, here, and never reads `~/.netrc`:
    the only credential sent is the API key.
    """

    API_KEY_ENV = "HELM_API_KEY"

    def __init__(
        self,
        endpoint: str,
        model_id: str,
        *,
        api_key: str | None = None,
        timeout: float = 60.0,
        max_attempts: int = 5,
        max_in_flight: int = 4,
        backoff_base: float = 0.5,
        transport=None,
        sleep=time.sleep,
    ) -> None:
        _check_endpoint(endpoint)
        self.endpoint = endpoint
        self.model_id = model_id
        self.cache_id = f"{endpoint} {model_id}"
        self.api_key = api_key if api_key is not None else os.environ.get(self.API_KEY_ENV)
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.max_in_flight = max_in_flight
        self._backoff_base = backoff_base
        self._transport = transport if transport is not None else _Transport(endpoint)
        self._sleep = sleep
        self._semaphore = threading.Semaphore(max_in_flight)
        self._headers = {"Content-Type": "application/json"}
        if self.api_key:
            self._headers["Authorization"] = f"Bearer {self.api_key}"

    def _payload(self, prompt: str, cfg: SamplingConfig) -> dict[str, object]:
        return {
            "model": self.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": cfg.temperature,
            "top_p": cfg.nucleus_p,
            "max_tokens": cfg.max_new_tokens,
        }

    @staticmethod
    def _extract_text(body: object) -> str:
        try:
            choice = body["choices"][0]  # type: ignore[index]
            text = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"unexpected response shape: {exc}") from exc
        if not isinstance(text, str):
            raise MalformedResponseError("completion content is not text")
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedResponseError(f"completion is not valid text: {exc}") from exc
        return text

    def generate(self, prompt: str, cfg: SamplingConfig) -> str:
        digest = _prompt_digest(prompt)
        body = json.dumps(self._payload(prompt, cfg), allow_nan=False).encode("utf-8")
        last_transient = "no attempt made"
        rate_limited = False
        for attempt in range(1, self.max_attempts + 1):
            if attempt > 1:
                self._sleep(self._backoff_base * 2 ** (attempt - 2))
            try:
                with self._semaphore:
                    status, reply = self._transport.post(body, self._headers, self.timeout)
            except (OSError, http.client.HTTPException) as exc:
                last_transient = f"connection failure: {exc}"
                rate_limited = False
                logger.debug("prompt %s attempt %d: %s", digest, attempt, exc)
                continue
            logger.debug("prompt %s attempt %d: HTTP %d", digest, attempt, status)
            if status in (401, 403):
                raise AuthError(f"HTTP {status} from {self.endpoint}")
            if status == 429:
                last_transient = "HTTP 429"
                rate_limited = True
                continue
            if status >= 500:
                last_transient = f"HTTP {status}"
                rate_limited = False
                continue
            if status >= 300:
                raise TransportError(f"HTTP {status} from {self.endpoint}")
            try:
                decoded = json.loads(reply)
            except ValueError as exc:
                raise MalformedResponseError(f"response is not JSON: {exc}") from exc
            return self._extract_text(decoded)
        if rate_limited:
            raise RateLimitError(
                f"still rate limited after {self.max_attempts} attempts"
            )
        raise TransportError(
            f"gave up after {self.max_attempts} attempts ({last_transient})"
        )


def echo_oracle_generate(prompt: str, cfg: SamplingConfig) -> str:
    """Deterministic stand-in for a summarizer: read the answer off the table.

    Starred rows (a highlighted table) contribute their cells; if no row is
    starred, every row does (a sub-table prompt). Cells are space-joined in
    row order, stars stripped.
    """
    rows = parse_row_lines(prompt)
    if not rows:
        raise NoTableFoundError("prompt contains no table row lines")
    starred = [cells for _, cells, is_starred in rows if is_starred]
    chosen = starred if starred else [cells for _, cells, _ in rows]
    return " ".join(" ".join(cells) for cells in chosen)


class EchoClient:
    """GeneratorClient wrapper around the echo oracle."""

    model_id = "echo-oracle"

    def generate(self, prompt: str, cfg: SamplingConfig) -> str:
        return echo_oracle_generate(prompt, cfg)


class FixedClient:
    """Always returns the same text; handy for stubbing a role."""

    def __init__(self, text: str, model_id: str = "fixed") -> None:
        self.text = text
        self.model_id = model_id
        self.cache_id = f"fixed:{text}"

    def generate(self, prompt: str, cfg: SamplingConfig) -> str:
        return self.text


class CountingClient:
    """Delegating wrapper that counts generate() calls (thread-safe)."""

    def __init__(self, inner: GeneratorClient) -> None:
        self.inner = inner
        self.model_id = inner.model_id
        self.cache_id = _cache_identity(inner)
        self.max_in_flight = getattr(inner, "max_in_flight", 1)
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, prompt: str, cfg: SamplingConfig) -> str:
        with self._lock:
            self.calls += 1
        return self.inner.generate(prompt, cfg)


class ResponseCache:
    """Content-addressed completion store: one JSON file per request key.

    Keys cover the backend's identity (`_cache_identity`), sampling config,
    and the full prompt bytes, so any change misses. Writes go through a temp
    file and an atomic rename, which keeps concurrent writers from leaving
    torn entries; a write that fails removes its temp file. Cache trouble is
    never fatal: an entry that cannot be read (an `OSError`) is a logged
    miss, a corrupt one is evicted, and an `OSError` while storing is a
    logged warning.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    @staticmethod
    def key(model_id: str, prompt: str, cfg: SamplingConfig) -> str:
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

    def _entry_path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, model_id: str, prompt: str, cfg: SamplingConfig) -> str | None:
        path = self._entry_path(self.key(model_id, prompt, cfg))
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            logger.warning("cache read failed, generating instead: %s", exc)
            return None
        try:
            record = json.loads(raw)
            text = record["text"]
            if not isinstance(text, str):
                raise TypeError("text field is not a string")
        except (ValueError, KeyError, TypeError):
            logger.warning("evicting corrupt cache entry %s", path.name)
            path.unlink(missing_ok=True)
            return None
        return text

    def put(self, model_id: str, prompt: str, cfg: SamplingConfig, text: str) -> None:
        path = self._entry_path(self.key(model_id, prompt, cfg))
        data = json.dumps({"model": model_id, "text": text}, ensure_ascii=False).encode("utf-8")
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError as exc:
            logger.warning("cache write failed, continuing: %s", exc)
            with contextlib.suppress(OSError):
                tmp.unlink()


def cached_generate(
    client: GeneratorClient,
    cache: ResponseCache | None,
    prompt: str,
    cfg: SamplingConfig,
) -> str:
    """Generate through the cache when one is given: a hit is returned, a
    miss is generated and stored. The cache itself keeps its trouble from
    being fatal (see `ResponseCache`)."""
    if cache is None:
        return client.generate(prompt, cfg)
    identity = _cache_identity(client)
    hit = cache.get(identity, prompt, cfg)
    if hit is not None:
        return hit
    text = client.generate(prompt, cfg)
    cache.put(identity, prompt, cfg, text)
    return text


def feedback_reward(
    table: Table,
    evidence: Evidence,
    query: str,
    reference: str,
    mode: str,
    feedbacker: GeneratorClient,
    *,
    cache: ResponseCache | None = None,
    cfg: SamplingConfig = SEARCH_SAMPLING,
    template: PromptTemplate | None = None,
    token_budget: int = DEFAULT_TOKEN_BUDGET,
) -> float:
    """Score candidate evidence: summarize from it, compare to the reference.

    "subtable" mode keeps only the evidence rows (and requires at least one);
    "highlight" mode shows the whole table with evidence rows starred, which
    with empty evidence degrades to the unmarked table.
    """
    if mode not in REWARD_MODES:
        raise ValueError(f"mode must be one of {REWARD_MODES}, got {mode!r}")
    if mode == "subtable":
        if len(evidence) == 0:
            raise EmptyEvidenceError("subtable mode needs at least one evidence row")
        shown = subtable(table, evidence)
        prompt = build_summarizer_prompt(
            shown, None, query, template=template, token_budget=token_budget
        )
    else:
        prompt = build_summarizer_prompt(
            table, evidence, query, template=template, token_budget=token_budget
        )
    output = cached_generate(feedbacker, cache, prompt.text, cfg)
    return eval_reward(output, reference)
