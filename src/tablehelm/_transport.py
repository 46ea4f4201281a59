"""The wire under `feedback.HttpClient`: keep-alive HTTP/1.1 over sockets that
stdlib `http.client` opens. `HttpClient.__init__` imports it, so `http.client`,
`ssl` and `urllib.request`'s proxy helpers load only in a process that builds
an HTTP client. `TRANSIENT_ERRORS` are what a `post` raises that is retried."""

from __future__ import annotations

import base64
import http.client
import os
import re
import select
import ssl
import weakref
from collections import deque
from urllib.parse import unquote, urlsplit
from urllib.request import getproxies_environment, proxy_bypass_environment

__all__ = ["TRANSIENT_ERRORS", "Transport"]

# Connection failures: refused, reset, timed out, or a reply that is not HTTP.
TRANSIENT_ERRORS = (OSError, http.client.HTTPException)

_MAX_LINE, _MAX_HEADERS = 65536, 100  # http.client's: bytes a line, fields a section
_MAX_BODY = 16 << 20  # bytes a reply body, far above any completion
_CHUNK_SIZE = re.compile(rb"([0-9a-fA-F]+)[ \t]*(?:;.*)?\r?\n")  # 1*HEXDIG, then extensions


def _check_body(size: int) -> None:
    if size > _MAX_BODY:
        raise http.client.HTTPException(f"a reply body of more than {_MAX_BODY} bytes")


def _close_all(connections: deque) -> None:
    while connections:
        connections.pop().sock.close()


class _Connection:
    """One open socket, and the reply bytes read from it but not yet used."""

    def __init__(self, sock) -> None:
        self.sock, self._buffer = sock, bytearray()

    def _fill(self) -> None:
        if not (data := self.sock.recv(_MAX_LINE)):
            raise http.client.IncompleteRead(bytes(self._buffer))
        self._buffer += data

    def _take(self, size: int) -> bytes:
        while len(self._buffer) < size:
            self._fill()
        with memoryview(self._buffer) as view:  # one copy: a view slice copies nothing
            data = bytes(view[:size])
        del self._buffer[:size]  # nor does a front cut
        return data

    def _line(self) -> bytes:
        start = 0  # the bytes before `start` were searched already
        while (end := self._buffer.find(b"\n", start, _MAX_LINE)) < 0:
            if (start := len(self._buffer)) >= _MAX_LINE:
                raise http.client.LineTooLong("a reply line")
            self._fill()
        return self._take(end + 1)

    def _fields(self) -> dict[bytes, bytes]:
        fields: dict[bytes, bytes] = {}
        for _ in range(_MAX_HEADERS + 1):
            if (line := self._line()) in (b"\r\n", b"\n"):
                return fields
            name, _, value = line.partition(b":")
            if (name := name.lower()) in (b"content-length", b"transfer-encoding", b"connection"):
                fields[name] = b",".join(filter(None, (fields.get(name), value.strip())))
        raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")

    def read_reply(self) -> tuple[int, bytes, bool]:
        """One reply as `(status, body, reusable)`, framed by RFC 9112 §6.3
        (1xx replies skipped, no body for 204 and 304, chunked coding over
        `Content-Length`, else to EOF), its body at most `_MAX_BODY` bytes."""
        status = 100  # read status lines until one is not interim
        while 100 <= status < 200:
            words = (line := self._line()).split(None, 2)
            if (len(words) < 2 or not words[0].startswith(b"HTTP/")
                    or not words[1].isdigit() or not 100 <= int(words[1]) <= 999):
                raise http.client.BadStatusLine(str(line, "latin-1"))
            status, fields = int(words[1]), self._fields()
        keep = words[0] == b"HTTP/1.1" and b"close" not in fields.get(b"connection", b"").lower()
        coding, length = fields.get(b"transfer-encoding"), fields.get(b"content-length")
        if status in (204, 304):
            body = b""
        elif coding is not None and coding.lower().rsplit(b",", 1)[-1].strip() == b"chunked":
            chunks = bytearray()  # `int` alone would also take a sign, `0x` or `_`
            while (match := _CHUNK_SIZE.fullmatch(self._line())) and (size := int(match[1], 16)):
                _check_body(len(chunks) + size)
                chunks += self._take(size)
                if self._take(2) != b"\r\n":  # the chunk's line end (RFC 9112 §7.1)
                    raise http.client.IncompleteRead(bytes(chunks))
            if not match:
                raise http.client.IncompleteRead(bytes(chunks))
            body = bytes(chunks)
            self._fields()  # the trailer section
        elif coding is None and length is not None:
            if not length.isdigit():
                raise http.client.HTTPException(f"bad Content-Length {length!r}")
            _check_body(int(length))
            body = self._take(int(length))
        else:
            while True:
                _check_body(len(self._buffer))
                if not (data := self.sock.recv(_MAX_LINE)):
                    break
                self._buffer += data
            body, keep = self._take(len(self._buffer)), False
        return status, body, keep and not self._buffer


class Transport:
    """Keep-alive connections to one endpoint, one HTTP/1.1 exchange at a time.

    `post(body, headers, timeout)` sends `Host` (as `http.client` writes
    it), `Accept-Encoding: identity`, `Content-Length`, `headers` and `body`
    in one write and returns `(status, reply body)`. `http.client` only
    opens connections (TCP, TLS, proxy tunnels). Idle connections wait in a
    deque, closed when the transport is collected; the caller's semaphore
    bounds how many are open. One is reused only when its last reply left
    it reusable and `poll` (unlike `select`, free of FD_SETSIZE) sees no
    event on it: a server that closed an idle connection has sent EOF.

    Proxy settings (`*_PROXY`, `ALL_PROXY`, `NO_PROXY`, either case) and the
    CA bundle (`REQUESTS_CA_BUNDLE`, `CURL_CA_BUNDLE`, else the system store
    and `SSL_CERT_FILE`) are read once, here. HTTPS goes through a proxy by
    CONNECT, plain HTTP by an absolute target with proxy userinfo as
    `Proxy-Authorization: Basic`. No redirect is followed, nor `~/.netrc` read.
    """

    def __init__(self, endpoint: str) -> None:
        parts = urlsplit(endpoint)
        self._https = parts.scheme == "https"
        default_port = 443 if self._https else 80
        self._address = (parts.hostname, parts.port or default_port)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        host = parts.hostname.encode("ascii" if parts.hostname.isascii() else "idna").decode()
        host = f"[{host.partition('%')[0]}]" if ":" in host else host
        host = f"{host}:{parts.port}" if parts.port not in (None, default_port) else host
        self._idle: deque[_Connection] = deque()
        weakref.finalize(self, _close_all, self._idle)
        self._proxy: tuple[str, int] | None = None
        self._proxy_headers: dict[str, str] = {}
        if self._https:
            bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
            self._context = ssl.create_default_context(cafile=bundle or None)
        proxies = getproxies_environment()
        proxy = proxies.get(parts.scheme) or proxies.get("all")
        if proxy and not proxy_bypass_environment("%s:%d" % self._address, proxies):
            proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            self._proxy = (proxy_parts.hostname, proxy_parts.port or 80)
            if proxy_parts.username is not None:
                userinfo = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password or '')}"
                token = base64.b64encode(userinfo.encode("utf-8")).decode("ascii")
                self._proxy_headers["Proxy-Authorization"] = f"Basic {token}"
            if not self._https:
                host = parts.netloc.rpartition("@")[2]
                target = f"http://{host}{target}"
        self._start = f"POST {target} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"

    def _connect(self, timeout: float) -> _Connection:
        host, port = self._proxy or self._address
        if not self._https:
            conn = http.client.HTTPConnection(host, port, timeout=timeout)
        else:
            conn = http.client.HTTPSConnection(host, port, timeout=timeout, context=self._context)
            if self._proxy:
                conn.set_tunnel(*self._address, headers=self._proxy_headers)
        try:
            conn.connect()
        except BaseException:
            conn.close()
            raise
        return _Connection(conn.sock)

    def _take(self, timeout: float) -> _Connection:
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
            conn.sock.close()

    def post(self, body: bytes, headers: dict[str, str], timeout: float) -> tuple[int, bytes]:
        if self._proxy and not self._https:
            headers = {**headers, **self._proxy_headers}
        fields = "".join([f"{name}: {value}\r\n" for name, value in headers.items()])
        if fields.count("\n") != len(headers) or fields.count("\r") != len(headers):
            raise ValueError("a header name or value holds a line break")
        head = f"{self._start}Content-Length: {len(body)}\r\n{fields}\r\n".encode("latin-1")
        conn = self._take(timeout)
        try:
            conn.sock.sendall(head + body)
            status, reply, reusable = conn.read_reply()
        except BaseException:
            conn.sock.close()
            raise
        if reusable:
            self._idle.append(conn)
        else:
            conn.sock.close()
        return status, reply
