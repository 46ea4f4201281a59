"""Loopback chat-completions server for the benchmark's http-loop workload.

Run as its own process:

    python3 benchmark/loopback.py --delay-ms 5

It binds an ephemeral port on 127.0.0.1 and prints one line,
`READY <port>`, once it accepts connections. Each POST is answered after a
fixed delay and routed on the request's `model` field: `highlighter` and
`distill` get the index set "{1}", and every other model (`summarizer`,
`feedbacker`) gets what `echo_oracle_generate` answers for the prompt, so
label search over HTTP scores exactly as it does against the echo oracle.

`GET /stats` returns the request count (retries included, since every
request is counted), the count per model, and the summed service time: from
the parsed request to the reply being ready to send, delay included.

Every reply goes out in a single write with TCP_NODELAY. A reply split
across writes meets Nagle's algorithm plus delayed ACK, which adds tens of
milliseconds per call and would swamp the delay being modelled.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

INDEX_SET_MODELS = ("highlighter", "distill")


class Counters:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.by_model: dict[str, int] = {}
        self.service_s = 0.0

    def add(self, model: str, service_s: float) -> None:
        with self.lock:
            self.requests += 1
            self.by_model[model] = self.by_model.get(model, 0) + 1
            self.service_s += service_s

    def snapshot(self) -> dict[str, object]:
        with self.lock:
            return {
                "requests": self.requests,
                "by_model": dict(self.by_model),
                "service_s": self.service_s,
            }


def make_handler(counters: Counters, delay_s: float, generate):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def _reply(self, status: int, body: dict[str, object]) -> None:
            payload = json.dumps(body).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "\r\n"
            ).encode("ascii")
            self.wfile.write(head + payload)

        def do_GET(self) -> None:
            if self.path == "/stats":
                self._reply(200, counters.snapshot())
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self) -> None:
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length)
            start = time.perf_counter()
            try:
                request = json.loads(raw)
                model = str(request["model"])
                prompt = request["messages"][-1]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self._reply(400, {"error": f"bad request: {exc}"})
                return
            time.sleep(delay_s)
            if model in INDEX_SET_MODELS:
                text = "{1}"
            else:
                text = generate(prompt, None)
            body = {"choices": [{"message": {"role": "assistant", "content": text}}]}
            counters.add(model, time.perf_counter() - start)
            self._reply(200, body)

        def log_message(self, format: str, *args: object) -> None:
            pass

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, default=5.0)
    args = parser.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from tablehelm.feedback import echo_oracle_generate

    counters = Counters()
    handler = make_handler(counters, args.delay_ms / 1000.0, echo_oracle_generate)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
