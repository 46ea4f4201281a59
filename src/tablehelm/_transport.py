"""The wire under `feedback.HttpClient`: keep-alive connections over stdlib
`http.client`.

This module is imported by `HttpClient.__init__`, not by the package, so
`http.client`, `ssl` and `urllib.request`'s proxy helpers load only in a
process that builds an HTTP client. `TRANSIENT_ERRORS` are the exceptions a
`post` can raise that the client retries.
"""

from __future__ import annotations

import base64
import http.client
import os
import select
import ssl
import weakref
from collections import deque
from urllib.parse import unquote, urlsplit
from urllib.request import getproxies_environment, proxy_bypass_environment

__all__ = ["TRANSIENT_ERRORS", "Transport"]

# Connection failures: refused, reset, timed out, or a reply that is not HTTP.
TRANSIENT_ERRORS = (OSError, http.client.HTTPException)


def _close_all(connections: deque) -> None:
    while connections:
        connections.pop().close()


class Transport:
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
