"""Text-generation clients and the reward composition built on them.

Three interchangeable backends satisfy one small contract: an HTTP
chat-completions client for real model servers, a deterministic offline
oracle that reads the table straight out of the prompt (used to exercise
the label-search machinery without a model; it reads the row lines back in
one pass and builds its answer as it goes), and a fixed-output stub.
A content-addressed cache in one SQLite file (one connection per cache)
can wrap any of them, and `CacheScope` serves one sample's reward prompts
from it after reading them all with one statement. `RoleSettings` bundles
what one model role generates with: cache, decoding settings, template and
token budget.
`feedback_reward` composes prompt construction, generation, and scoring into
the scalar signal the evidence search consumes; `reward_prompt` joins each
candidate's prompt from the table's rendering (`transforms.render_table`),
which a search or a merge builds once, as it does the prompt's frame, and
`reward_settings` narrows the settings' cache to that table's scope.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
import weakref
from dataclasses import dataclass, replace
from functools import lru_cache
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol, TypeVar, runtime_checkable
from urllib.parse import urlsplit

# SamplingConfig and SEARCH_SAMPLING are re-exported: they live with the run settings.
from .config import DEFAULT_TOKEN_BUDGET, SEARCH_SAMPLING, RunConfig, SamplingConfig
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
from .prompting import PromptFrame, PromptTemplate, summarizer_frame
from .prompting import build_summarizer_prompt  # not called; benchmark/spans.py wraps it
from .table_core import Evidence, Table
from .transforms import ROW_LINE_RE, TableRendering, render_table, subtable, unescape_cell

# `sqlite3` loads with a cache's first connection (`ResponseCache._open`),
# and the HTTP stack with an `HttpClient` (`_transport`), so a command that
# uses neither imports neither.
if TYPE_CHECKING:
    import sqlite3

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
    "CacheScope",
    "cached_generate",
    "echo_oracle_generate",
    "feedback_reward",
    "reward_prompt",
    "reward_settings",
    "shown_rows",
]

logger = logging.getLogger(__name__)

T = TypeVar("T")

REWARD_MODES = ("subtable", "highlight")

# SQLite page-cache size of a cache's connection, in pages (4 KiB each by
# default; SQLite's own default is about 2 MB). Lookups are point reads or
# short range reads by key, so a small cache costs no speed.
_CACHE_PAGES = 64

_BACKOFF_BASE = 0.5  # seconds before `HttpClient`'s first retry

# Hex digits of a scope prefix (`_scope_prefix`); the key of a scoped entry
# is the prefix followed by the 64 of its request key.
_SCOPE_DIGITS = 16


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


def _close_all(connections: list[sqlite3.Connection]) -> None:
    while connections:
        connections.pop().close()


def _cache_errors() -> tuple[type[Exception], ...]:
    """The exceptions that make cache trouble a miss or a dropped write. An
    `except` clause evaluates this only when its `try` raised."""
    import sqlite3

    return (sqlite3.Error, OSError)


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
    the client talks through a `_transport.Transport`, which reads its proxy
    and CA settings from the environment once, here, and never reads
    `~/.netrc`: the only credential sent is the API key. Building a client
    imports `_transport`, and with it `http.client` and `ssl`.
    """

    API_KEY_ENV = "HELM_API_KEY"

    def __init__(
        self,
        endpoint: str,
        model_id: str,
        *,
        api_key: str | None = None,
        timeout: float = RunConfig.timeout,
        max_attempts: int = RunConfig.max_attempts,
        max_in_flight: int = RunConfig.max_in_flight,
        transport=None,
        sleep=time.sleep,
    ) -> None:
        from ._transport import TRANSIENT_ERRORS, Transport

        _check_endpoint(endpoint)
        self.endpoint = endpoint
        self.model_id = model_id
        self.cache_id = f"{endpoint} {model_id}"
        self.api_key = api_key if api_key is not None else os.environ.get(self.API_KEY_ENV)
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.max_in_flight = max_in_flight
        self._transport = transport if transport is not None else Transport(endpoint)
        self._transient = TRANSIENT_ERRORS
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
        # Only the debug lines name the prompt.
        digest = _prompt_digest(prompt) if logger.isEnabledFor(logging.DEBUG) else ""
        body = json.dumps(self._payload(prompt, cfg), allow_nan=False).encode("utf-8")
        last_transient = "no attempt made"
        rate_limited = False
        for attempt in range(1, self.max_attempts + 1):
            if attempt > 1:
                self._sleep(_BACKOFF_BASE * 2 ** (attempt - 2))
            try:
                with self._semaphore:
                    status, reply = self._transport.post(body, self._headers, self.timeout)
            except self._transient as exc:
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
            except (ValueError, RecursionError) as exc:  # not JSON, or nested too deeply
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

    The rows are read back in one pass over the prompt's lines, and the
    answer is built as they go by. A line is a row when `ROW_LINE_RE`
    matches it. Its body's cells are split on " | " and unescaped only when
    it holds "\\|". A row is starred when every cell is, by the rule of
    `transforms.is_starred` (two characters or more, a "*" at each end),
    which is how `highlight` marks evidence rows. A body that does not both
    start and end with "*" cannot be starred, so its cells are joined by
    replacing each " | " with a space, without splitting it.
    """
    plain: list[str] = []
    starred: list[str] = []
    match = ROW_LINE_RE.match
    for line in prompt.splitlines():
        if not line.startswith("row "):
            continue
        row = match(line)
        if row is None:
            continue
        body = row.group(2)
        if "\\|" in body:
            cells = [unescape_cell(c) for c in body.split(" | ")]
        elif body[:1] != "*" or body[-1:] != "*":
            plain.append(body.replace(" | ", " "))
            continue
        else:
            cells = body.split(" | ")
        if all(len(c) > 1 and c[0] == "*" == c[-1] for c in cells):
            starred.append(" ".join([c[1:-1] for c in cells]))
        else:
            plain.append(" ".join(cells))
    if not plain and not starred:
        raise NoTableFoundError("prompt contains no table row lines")
    return " ".join(starred or plain)


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


def _key_frame_of(model_id: str, cfg: SamplingConfig) -> tuple[str, str]:
    reprs = (repr(cfg.nucleus_p), repr(cfg.temperature), repr(cfg.max_new_tokens))
    return _key_frame(model_id, cfg, reprs)


def _request_key(frame: tuple[str, str], prompt: str) -> str:
    payload = frame[0] + encode_basestring(prompt) + frame[1]
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResponseCache:
    """Content-addressed completion store: one SQLite database per directory.

    Keys cover the backend's identity (`_cache_identity`), sampling config,
    and the full prompt bytes, so any change misses. Entries live in the
    `entries` table of `<directory>/responses.sqlite3`, in WAL mode with
    `synchronous=NORMAL`; each write is its own transaction, so readers never
    see a torn entry, and instances and processes may share the file. An
    instance's threads take turns on its one connection, under one lock. It is
    opened (and the directory, WAL mode and table set up) on first use and
    after a statement raised, which closes it, as do `close()` and collecting
    the cache; once the last connection to the file closes, SQLite checkpoints
    the WAL and removes the `-wal` and `-shm` files. Old per-entry JSON files
    are not read: they are misses.

    `get` and `put` read and write one entry under its request key (`key`),
    `get` with one `WHERE key = ?` statement. A `CacheScope` keeps its
    entries under a scope prefix followed by the request key, and reads all
    of them with one range read on the primary key (`_scan`). Each row comes
    back as its stored bytes and type, decoded here. Cache trouble is never
    fatal: a `sqlite3.Error` or `OSError` makes a read a miss (a scope read,
    every entry of the scope), with one logged warning, and is a logged
    warning on a write (a scope whose read failed writes nothing); an entry
    whose text is not stored as TEXT (a BLOB, INTEGER or REAL) or is not
    UTF-8 is evicted and is a miss. `sqlite3` is imported with the first
    connection.
    """

    FILENAME = "responses.sqlite3"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.path = self.directory / self.FILENAME
        self._conn: list[sqlite3.Connection] = []  # at most one; a finalizer can close it
        weakref.finalize(self, _close_all, self._conn)
        self._lock = threading.Lock()

    @staticmethod
    def key(model_id: str, prompt: str, cfg: SamplingConfig) -> str:
        """SHA-256 of `json.dumps` of the model id, sampling fields and prompt
        (sorted keys, `ensure_ascii=False`). The text around the prompt is
        built once per backend and config (`_key_frame`), and the prompt is
        escaped as that `json.dumps` escapes it (`_request_key`)."""
        return _request_key(_key_frame_of(model_id, cfg), prompt)

    def _open(self) -> None:
        """Open the connection and set up the directory, WAL mode and table. The
        connection is held before its set-up, so `_use` closes it if that raises."""
        import sqlite3

        self.directory.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, isolation_level=None, check_same_thread=False)
        self._conn.append(conn)
        conn.execute("PRAGMA synchronous = NORMAL")
        conn.execute(f"PRAGMA cache_size = {_CACHE_PAGES}")
        try:
            conn.execute("PRAGMA journal_mode = WAL")
        except sqlite3.OperationalError:
            # Another connection was turning the new file to WAL: SQLite fails
            # one that would wait inside a read, and a second try waits for it.
            conn.execute("PRAGMA journal_mode = WAL")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS entries"
            " (key TEXT PRIMARY KEY, text TEXT NOT NULL) WITHOUT ROWID"
        )

    def _use(self, work: Callable[[sqlite3.Connection], T]) -> T:
        """`work(connection)` under the lock; a connection that raised is closed."""
        with self._lock:
            try:
                if not self._conn:
                    self._open()
                return work(self._conn[0])
            except BaseException:
                _close_all(self._conn)
                raise

    @staticmethod
    def _decode(conn: sqlite3.Connection, key: str, raw: bytes, kind: str) -> str | None:
        """The text of a row read as its stored bytes and type; None, with
        the entry evicted, when it is not stored as TEXT or is not UTF-8."""
        if kind == "text":
            try:
                return raw.decode("utf-8")
            except UnicodeDecodeError:
                pass
        logger.warning("evicting corrupt cache entry %s", key)
        conn.execute("DELETE FROM entries WHERE key = ?", (key,))
        return None

    def _read(self, work: Callable[[sqlite3.Connection], T], missing: T) -> T:
        """`work(connection)`, or `missing` with one logged warning on cache
        trouble."""
        try:
            return self._use(work)
        except _cache_errors() as exc:
            logger.warning("cache read failed, generating instead: %s", exc)
            return missing

    def get(self, model_id: str, prompt: str, cfg: SamplingConfig) -> str | None:
        key = self.key(model_id, prompt, cfg)

        def lookup(conn: sqlite3.Connection) -> str | None:
            row = conn.execute(
                "SELECT CAST(text AS BLOB), typeof(text) FROM entries WHERE key = ?", (key,)
            ).fetchone()
            return None if row is None else self._decode(conn, key, *row)

        return self._read(lookup, None)

    def _scan(self, prefix: str) -> dict[str, str] | None:
        """The text of every good entry whose key starts with `prefix`, a
        scope prefix of hex digits, by the rest of its key: one range read
        on the primary key (every hex digit sorts before "g"). None when
        the read failed."""

        def scan(conn: sqlite3.Connection) -> dict[str, str]:
            rows = conn.execute(
                "SELECT key, CAST(text AS BLOB), typeof(text) FROM entries"
                " WHERE key >= ? AND key < ?",
                (prefix, prefix + "g"),
            ).fetchall()
            found: dict[str, str] = {}
            for key, raw, kind in rows:
                text = self._decode(conn, key, raw, kind)
                if text is not None:
                    found[key[len(prefix) :]] = text
            return found

        return self._read(scan, None)

    def _store(self, key: str, text: str) -> None:
        try:
            self._use(
                lambda conn: conn.execute(
                    "INSERT OR REPLACE INTO entries VALUES (?, ?)", (key, text)
                )
            )
        except _cache_errors() as exc:
            logger.warning("cache write failed, continuing: %s", exc)

    def put(self, model_id: str, prompt: str, cfg: SamplingConfig, text: str) -> None:
        self._store(self.key(model_id, prompt, cfg), text)

    def close(self) -> None:
        """Close the connection; the next `get` or `put` opens a new one."""
        with self._lock:
            _close_all(self._conn)


class CacheScope:
    """One sample's entries of a `ResponseCache` with the same `get` and
    `put`: every entry stored under `prefix` (see `reward_settings`) is read
    with one statement when the scope is made, and each `get` is then
    served from that read and from what this scope has stored since.

    `put` writes to both, so a prompt asked for again is not generated
    again. Threads may share a scope. The scope belongs to one search,
    merge or exhaustive search and is dropped with it: it sees what other
    scopes or processes store only when made anew. A scope whose read
    failed keeps what it stores to itself: the database it could not read
    is not written, so the sample costs one logged warning, not one per
    generated prompt. Its keys are `ResponseCache.key`'s; their text around
    the prompt is built again only for another model id or config object.
    """

    def __init__(self, cache: ResponseCache, prefix: str) -> None:
        self._cache = cache
        self._prefix = prefix
        texts = cache._scan(prefix)
        self._writes = texts is not None
        self._texts = texts if texts is not None else {}
        self._last_frame: tuple = (None, None, None)  # model id, config, their `_key_frame_of`

    def _key(self, model_id: str, prompt: str, cfg: SamplingConfig) -> str:
        last = self._last_frame  # replaced whole, so threads never see a torn one
        if last[0] != model_id or last[1] is not cfg:
            last = self._last_frame = (model_id, cfg, _key_frame_of(model_id, cfg))
        return _request_key(last[2], prompt)

    def get(self, model_id: str, prompt: str, cfg: SamplingConfig) -> str | None:
        return self._texts.get(self._key(model_id, prompt, cfg))

    def put(self, model_id: str, prompt: str, cfg: SamplingConfig, text: str) -> None:
        key = self._key(model_id, prompt, cfg)
        if self._writes:
            self._cache._store(self._prefix + key, text)
        self._texts[key] = text


def cached_generate(
    client: GeneratorClient,
    cache: ResponseCache | CacheScope | None,
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
    identity = _cache_identity(client)
    hit = cache.get(identity, prompt, cfg)
    if hit is not None:
        return hit
    text = client.generate(prompt, cfg)
    cache.put(identity, prompt, cfg, text)
    return text


@dataclass(frozen=True)
class RoleSettings:
    """What one model role (highlighter, summarizer, feedbacker or distiller)
    turns a prompt into text with: the response cache (None: none), the
    decoding settings, the prompt template (None: the packaged default for
    the prompt being built) and the token budget the rendered prompt must
    fit. A role's prompts are built with `template` and `token_budget` and
    generated through `cached_generate(client, cache, prompt, cfg)`. A
    search or merge passes its sample's `CacheScope` in place of the cache
    (`reward_settings`)."""

    cache: ResponseCache | CacheScope | None = None
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
    rendering: TableRendering, evidence: Evidence, query: str, mode: str,
    settings: RoleSettings = SEARCH_SETTINGS, *, frame: PromptFrame | None = None,
) -> str:
    """The summarizer prompt that `feedback_reward` scores `evidence` by, in
    `mode` ("subtable" or "highlight", see `shown_rows`), joined from the
    table's `rendering` with the template and token budget of `settings`:
    `build_summarizer_prompt` of the shown table, with the same errors. It
    renders through their `summarizer_frame`: `frame`, which a caller that
    joins many builds once (`evidence_lab._scorer`), or one built here."""
    if mode == "subtable":
        text = rendering.subtable_text(evidence)
    elif mode == "highlight":
        text = rendering.highlight_text(evidence)
    else:
        raise ValueError(f"mode must be one of {REWARD_MODES}, got {mode!r}")
    if frame is None:
        frame = summarizer_frame(
            query, template=settings.template, token_budget=settings.token_budget
        )
    return frame.render(text)


def _scope_prefix(
    feedbacker: GeneratorClient,
    settings: RoleSettings,
    frame: PromptFrame,
    rendering: TableRendering,
    query: str,
    mode: str,
) -> str:
    """The first `_SCOPE_DIGITS` hex digits of the SHA-256 of everything a
    reward prompt of this table is made from, but the evidence: the backend
    and sampling fields (as `_key_frame` writes them), the mode, the text of
    the template that `frame` resolved, the query and the table's rendering,
    joined by NUL characters. Two tables whose parts join alike would share
    one scope, which costs only a larger read: each entry's request key
    covers its whole prompt."""
    head, tail = _key_frame_of(_cache_identity(feedbacker), settings.cfg)
    payload = "\0".join(
        (head, tail, mode, frame.template.text, query, rendering.head, *rendering.bodies)
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:_SCOPE_DIGITS]


def reward_settings(
    settings: RoleSettings,
    feedbacker: GeneratorClient,
    frame: PromptFrame,
    rendering: TableRendering,
    query: str,
    mode: str,
) -> RoleSettings:
    """`settings` with its cache narrowed to the `CacheScope` of the reward
    prompts of one table (its `rendering`) and `query` in `mode`, framed by
    `frame` (`summarizer_frame` of `query` and `settings`): every answer
    cached for them is read with one statement, here, and every later lookup
    of the caller is served from that read. With no cache, `settings` as
    they are."""
    if settings.cache is None:
        return settings
    prefix = _scope_prefix(feedbacker, settings, frame, rendering, query, mode)
    return replace(settings, cache=CacheScope(settings.cache, prefix))


def feedback_reward(
    table: Table,
    evidence: Evidence,
    query: str,
    reference: str,
    mode: str,
    feedbacker: GeneratorClient,
    settings: RoleSettings = SEARCH_SETTINGS,
    *,
    prompt: str | None = None,
) -> float:
    """Score candidate evidence: summarize from it (`reward_prompt`) with
    the feedbacker's `settings`, compare to the reference.

    Called plainly, it renders `table` and joins the prompt itself. A caller
    that has joined this candidate's `prompt` already, as `reward_prompt`
    joins it, passes it: the searches and the merge of `evidence_lab` join
    every candidate's prompt from one rendering of their table.
    """
    if prompt is None:
        prompt = reward_prompt(render_table(table), evidence, query, mode, settings)
    output = cached_generate(feedbacker, settings.cache, prompt, settings.cfg)
    return eval_reward(output, reference)
