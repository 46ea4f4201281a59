"""Text-generation clients and the reward composition built on them.

Three interchangeable backends satisfy one small contract: an HTTP
chat-completions client for real model servers, a deterministic offline
oracle that reads the table straight out of the prompt (used to exercise
the label-search machinery without a model), and a fixed-output stub.
A content-addressed cache in one SQLite file can wrap any of them.
`RoleSettings` bundles what one model role generates with: cache, decoding
settings, template and token budget. `feedback_reward` composes prompt
construction, generation, and scoring into the scalar signal the evidence
search consumes; `reward_prompt` joins each candidate's prompt from the
table's rendering (`transforms.render_table`), which a search or a merge
builds once.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import logging
import math
import os
import select
import sqlite3
import ssl
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Protocol, TypeVar, runtime_checkable
from urllib.parse import unquote, urlsplit
from urllib.request import getproxies_environment, proxy_bypass_environment

from .errors import (
    AuthError,
    EndpointNotFoundError,
    MalformedResponseError,
    NoTableFoundError,
    RateLimitError,
    SchemaError,
    TransportError,
)
from .metrics import eval_reward
from .prompting import DEFAULT_TOKEN_BUDGET, PromptTemplate, summarizer_prompt_from_text
from .prompting import build_summarizer_prompt  # not called; benchmark/spans.py wraps it
from .table_core import Evidence, Table
from .transforms import TableRendering, parse_row_lines, render_table, subtable

__all__ = [
    "SamplingConfig",
    "SEARCH_SAMPLING",
    "RoleSettings",
    "SEARCH_SETTINGS",
    "GeneratorClient",
    "HttpClient",
    "EchoClient",
    "FixedClient",
    "CountingClient",
    "ResponseCache",
    "cached_generate",
    "cached_texts",
    "echo_oracle_generate",
    "feedback_reward",
    "reward_prompt",
    "shown_rows",
]

logger = logging.getLogger(__name__)

T = TypeVar("T")

REWARD_MODES = ("subtable", "highlight")

# SQLite page-cache size of each pooled cache connection, in pages (4 KiB
# each by default; SQLite's own default is about 2 MB). Lookups are point
# reads by key, so a small cache costs no speed and keeps memory flat as the
# pool grows with the number of threads.
_CACHE_PAGES = 64

# Most keys one batched cache lookup binds in a statement: SQLite's limit on
# bound parameters before 3.32, so every SQLite library takes it.
_MAX_PARAMS = 999


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


def _close_all(connections: deque) -> None:
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
    exponential backoff, then raised; auth and other 4xx failures are
    raised at once. A 404, or a redirect (3xx, never followed), raises
    `EndpointNotFoundError`, which ends the job: the URL or the model is
    wrong for every prompt. A semaphore bounds
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
            if status == 404 or 300 <= status < 400:
                raise EndpointNotFoundError(f"HTTP {status} from {self.endpoint}")
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


@lru_cache(maxsize=64)
def _key_frame(model_id: str, cfg: SamplingConfig, reprs: tuple[str, ...]) -> tuple[str, str]:
    """The cache key's JSON text before and after the prompt. `reprs`, the
    reprs of `cfg`'s fields, keeps apart configs that are equal but that
    JSON writes differently (0.0 and -0.0, 1 and 1.0)."""
    payload = json.dumps(
        {
            "model": model_id,
            "nucleus_p": cfg.nucleus_p,
            "temperature": cfg.temperature,
            "max_new_tokens": cfg.max_new_tokens,
            "prompt": "",
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    # Only "temperature", a number, sorts after "prompt", so the last
    # '"prompt": ""' in the text is the prompt's own.
    head, _, tail = payload.rpartition('"prompt": ""')
    return head + '"prompt": ', tail


@lru_cache(maxsize=64)
def _select_keys(count: int) -> str:
    """The statement that reads the entries of `count` keys: each text as
    its stored bytes, and the type it is stored as."""
    return (
        "SELECT key, CAST(text AS BLOB), typeof(text) FROM entries"
        f" WHERE key IN ({', '.join('?' * count)})"
    )


class ResponseCache:
    """Content-addressed completion store: one SQLite database per directory.

    Keys cover the backend's identity (`_cache_identity`), sampling config,
    and the full prompt bytes, so any change misses. Entries live in the
    `entries` table of `<directory>/responses.sqlite3`, in WAL mode with
    `synchronous=NORMAL`; each write is its own transaction, so readers never
    see a torn entry, and SQLite's locking makes the file safe to share
    between threads, instances and processes. The directory, schema and WAL
    mode are set up once per instance, on first use. Connections are pooled:
    idle ones wait in a deque (thread-safe appends and pops) and any thread
    takes one; a connection that raised is closed, not put back. `close()`
    closes the idle ones; once the last connection to the file closes,
    SQLite checkpoints the WAL and removes the `-wal` and `-shm` files.
    Per-entry JSON files of older versions are not read: they are misses.

    Every read is one statement shape (`_select_keys`), through `_read`:
    `get_many` looks a batch of prompts up with one statement (one per
    `_MAX_PARAMS` prompts), and `get` is a batch of one. Each row comes back as its stored bytes
    and type, decoded here. Cache trouble is never fatal: a `sqlite3.Error`
    or `OSError` makes every prompt of the batch a miss, with one logged
    warning, and is a logged warning on `put`; an entry whose text is not
    stored as TEXT (a BLOB, INTEGER or REAL) or is not UTF-8 is evicted and
    is a miss.
    """

    FILENAME = "responses.sqlite3"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.path = self.directory / self.FILENAME
        self._idle: deque[sqlite3.Connection] = deque()
        weakref.finalize(self, _close_all, self._idle)
        self._setup_lock = threading.Lock()
        self._set_up = False

    @staticmethod
    def key(model_id: str, prompt: str, cfg: SamplingConfig) -> str:
        """SHA-256 of `json.dumps` of the model id, sampling fields and prompt
        (sorted keys, `ensure_ascii=False`). The text around the prompt is
        built once per backend and config (`_key_frame`), and the prompt is
        escaped as that `json.dumps` escapes it."""
        reprs = (repr(cfg.nucleus_p), repr(cfg.temperature), repr(cfg.max_new_tokens))
        head, tail = _key_frame(model_id, cfg, reprs)
        payload = head + encode_basestring(prompt) + tail
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _open(self) -> sqlite3.Connection:
        if not self._set_up:
            self.directory.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, isolation_level=None, check_same_thread=False)
        try:
            conn.execute("PRAGMA synchronous = NORMAL")
            conn.execute(f"PRAGMA cache_size = {_CACHE_PAGES}")
            if not self._set_up:
                with self._setup_lock:
                    if not self._set_up:
                        conn.execute("PRAGMA journal_mode = WAL")
                        conn.execute(
                            "CREATE TABLE IF NOT EXISTS entries"
                            " (key TEXT PRIMARY KEY, text TEXT NOT NULL) WITHOUT ROWID"
                        )
                        self._set_up = True
        except BaseException:
            conn.close()
            raise
        return conn

    def _use(self, work: Callable[[sqlite3.Connection], T]) -> T:
        """`work(connection)` on an idle connection, or a new one. The
        connection goes back to the pool unless `work` raised."""
        try:
            conn = self._idle.pop()
        except IndexError:
            conn = self._open()
        try:
            result = work(conn)
        except BaseException:
            conn.close()
            raise
        self._idle.append(conn)
        return result

    @staticmethod
    def _evict(conn: sqlite3.Connection, key: str) -> None:
        logger.warning("evicting corrupt cache entry %s", key)
        conn.execute("DELETE FROM entries WHERE key = ?", (key,))

    @classmethod
    def _lookup_many(cls, conn: sqlite3.Connection, keys: list[str]) -> dict[str, str]:
        """The text of each of `keys` that has a good entry, read with one
        statement per `_MAX_PARAMS` keys. An entry whose text is not stored
        as TEXT, or is not UTF-8, is evicted and left out."""
        found: dict[str, str] = {}
        for start in range(0, len(keys), _MAX_PARAMS):
            chunk = keys[start : start + _MAX_PARAMS]
            for key, raw, kind in conn.execute(_select_keys(len(chunk)), chunk).fetchall():
                if kind == "text":
                    try:
                        found[key] = raw.decode("utf-8")
                        continue
                    except UnicodeDecodeError:
                        pass
                cls._evict(conn, key)
        return found

    def _read(self, keys: list[str]) -> dict[str, str]:
        """The text of each of `keys` with a good entry (`_lookup_many`);
        none, with one logged warning, on cache trouble."""
        try:
            return self._use(lambda conn: self._lookup_many(conn, keys))
        except (sqlite3.Error, OSError) as exc:
            logger.warning("cache read failed, generating instead: %s", exc)
            return {}

    def get(self, model_id: str, prompt: str, cfg: SamplingConfig) -> str | None:
        key = self.key(model_id, prompt, cfg)
        return self._read([key]).get(key)

    def get_many(
        self, model_id: str, prompts: list[str], cfg: SamplingConfig
    ) -> list[str | None]:
        """The cached text of each prompt, None for a miss, in order."""
        keys = [self.key(model_id, prompt, cfg) for prompt in prompts]
        return list(map(self._read(keys).get, keys))

    def put(self, model_id: str, prompt: str, cfg: SamplingConfig, text: str) -> None:
        key = self.key(model_id, prompt, cfg)
        try:
            self._use(
                lambda conn: conn.execute(
                    "INSERT OR REPLACE INTO entries VALUES (?, ?)", (key, text)
                )
            )
        except (sqlite3.Error, OSError) as exc:
            logger.warning("cache write failed, continuing: %s", exc)

    def close(self) -> None:
        """Close the idle connections. The cache stays usable: the next
        `get` or `put` opens a new one."""
        _close_all(self._idle)


def cached_generate(
    client: GeneratorClient,
    cache: ResponseCache | None,
    prompt: str,
    cfg: SamplingConfig,
) -> str:
    """Generate through the cache when one is given: a hit is returned, a
    miss is generated and stored as one row of the cache's SQLite file.
    Threads may share one cache. The cache itself keeps its trouble from
    being fatal (see `ResponseCache`): then this call generates, and does
    not fail."""
    if cache is None:
        return client.generate(prompt, cfg)
    hit = cache.get(_cache_identity(client), prompt, cfg)
    if hit is not None:
        return hit
    return _generate_and_store(client, cache, prompt, cfg)


def cached_texts(
    client: GeneratorClient,
    cache: ResponseCache | None,
    prompts: list[str],
    cfg: SamplingConfig,
) -> list[str | None]:
    """What `cache` holds for each of `prompts` from `client`, None for a
    miss, looked up together (`ResponseCache.get_many`). With no cache,
    every prompt is a miss and nothing is looked up."""
    if cache is None:
        return [None] * len(prompts)
    return cache.get_many(_cache_identity(client), prompts, cfg)


def _generate_and_store(
    client: GeneratorClient,
    cache: ResponseCache | None,
    prompt: str,
    cfg: SamplingConfig,
) -> str:
    """Generate a prompt that `cache` was found not to hold, and store the
    text there (with no cache, just generate): the miss half of
    `cached_generate`, for a prompt already looked up."""
    text = client.generate(prompt, cfg)
    if cache is not None:
        cache.put(_cache_identity(client), prompt, cfg, text)
    return text


@dataclass(frozen=True)
class RoleSettings:
    """What one model role (highlighter, summarizer, feedbacker or distiller)
    turns a prompt into text with: the response cache (None: none), the
    decoding settings, the prompt template (None: the packaged default for
    the prompt being built) and the token budget the rendered prompt must
    fit. A role's prompts are built with `template` and `token_budget` and
    generated through `cached_generate(client, cache, prompt, cfg)`."""

    cache: ResponseCache | None = None
    cfg: SamplingConfig = SEARCH_SAMPLING
    template: PromptTemplate | None = None
    token_budget: int = DEFAULT_TOKEN_BUDGET


# The default of every settings argument: no cache, greedy decoding, each
# prompt's packaged template and the default token budget.
SEARCH_SETTINGS = RoleSettings()


def shown_rows(table: Table, evidence: Evidence, mode: str) -> tuple[Table, Evidence | None]:
    """The table a summarizer prompt shows for `evidence`, and the rows it
    stars. "subtable" mode shows only the evidence rows (and requires at
    least one), unstarred; "highlight" mode shows the whole table with the
    evidence rows starred, which with empty evidence is the unmarked table.
    """
    if mode == "subtable":
        return subtable(table, evidence), None
    if mode != "highlight":
        raise ValueError(f"mode must be one of {REWARD_MODES}, got {mode!r}")
    return table, evidence or None


def reward_prompt(
    rendering: TableRendering,
    evidence: Evidence,
    query: str,
    mode: str,
    settings: RoleSettings = SEARCH_SETTINGS,
) -> str:
    """The summarizer prompt that `feedback_reward` scores `evidence` by, in
    `mode` ("subtable" or "highlight", see `shown_rows`), joined from the
    table's `rendering` with the template and token budget of `settings`:
    `build_summarizer_prompt` of the shown table, with the same errors."""
    if mode == "subtable":
        text = rendering.subtable_text(evidence)
    elif mode == "highlight":
        text = rendering.highlight_text(evidence)
    else:
        raise ValueError(f"mode must be one of {REWARD_MODES}, got {mode!r}")
    prompt = summarizer_prompt_from_text(
        text, query, template=settings.template, token_budget=settings.token_budget
    )
    return prompt.text


def feedback_reward(
    table: Table,
    evidence: Evidence,
    query: str,
    reference: str,
    mode: str,
    feedbacker: GeneratorClient,
    settings: RoleSettings = SEARCH_SETTINGS,
    *,
    rendering: TableRendering | None = None,
    prompt: str | None = None,
    cached: str | None = None,
) -> float:
    """Score candidate evidence: summarize from it (`reward_prompt`) with
    the feedbacker's `settings`, compare to the reference.

    A caller that scores many candidates of one table passes its
    `rendering` (`render_table`), built once. A caller that looked a batch
    of prompts up at once passes this one's `prompt`, as `reward_prompt`
    built it, and `cached`, the text the settings' cache held for it; a miss
    (None) is then generated and stored without a second lookup.
    """
    if prompt is None:
        if rendering is None:
            rendering = render_table(table)
        prompt = reward_prompt(rendering, evidence, query, mode, settings)
        output = cached_generate(feedbacker, settings.cache, prompt, settings.cfg)
    elif cached is None:
        output = _generate_and_store(feedbacker, settings.cache, prompt, settings.cfg)
    else:
        output = cached
    return eval_reward(output, reference)
