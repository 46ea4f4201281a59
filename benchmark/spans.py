"""Outside-in tracing for the benchmark's traced mode.

Spans are recorded by wrapping the names the program looks up when it
calls into another layer. `from .x import y` binds `y` in the importing
module, so each wrapper replaces the name in the module that calls it
(for example `tablehelm.cli.greedy_search` or `tablehelm.feedback.eval_reward`),
never the definition. Nothing in the package changes; `patched` restores
every name on exit.

A span is a tuple (id, parent, name, sample, thread, start, end, cpu_start,
cpu_end, detail): wall times from `time.perf_counter`, CPU times from
`time.thread_time` of the thread that ran it. The parent is the innermost
open span on the same thread; a span opened on a pool thread with nothing
open hangs from the command span that started the pool. Spans stay in
memory until the benchmark writes them out.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

__all__ = ["Tracer", "patched", "span_totals", "write_spans"]

_MISSING = object()

# Span tuple fields.
ID, PARENT, NAME, SAMPLE, THREAD, START, END, CPU_START, CPU_END, DETAIL = range(10)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._next_id = itertools.count(1).__next__
        self._local = threading.local()
        self._root: tuple[int, str | None] = (0, None)

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        sample_of: Callable | None = None,
        detail_of: Callable | None = None,
    ) -> Callable:
        """`fn` with a span around each call.

        `sample_of(args, kwargs)` names the sample the call works on (else
        the parent's sample is inherited); `detail_of(args, kwargs, result)`
        keeps one extra value on the span.
        """
        tracer = self
        spans = self.spans
        clock = time.perf_counter
        cpu = time.thread_time
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, sample = stack[-1] if stack else tracer._root
            if sample_of is not None:
                sample = sample_of(args, kwargs)
            span_id = tracer._next_id()
            stack.append((span_id, sample))
            result = _MISSING
            start = clock()
            cpu_start = cpu()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu_end = cpu()
                end = clock()
                stack.pop()
                detail = None
                if detail_of is not None and result is not _MISSING:
                    detail = detail_of(args, kwargs, result)
                spans.append(
                    (span_id, parent, name, sample, get_ident(),
                     start, end, cpu_start, cpu_end, detail)
                )

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str, *, root: bool = False) -> Iterator[None]:
        """A span around a block on the calling thread. With `root`, spans
        opened on other threads with nothing open hang from this one."""
        stack = self._stack()
        parent, sample = stack[-1] if stack else self._root
        span_id = self._next_id()
        stack.append((span_id, sample))
        saved_root = self._root
        if root:
            self._root = (span_id, sample)
        start = time.perf_counter()
        cpu_start = time.thread_time()
        try:
            yield
        finally:
            cpu_end = time.thread_time()
            end = time.perf_counter()
            stack.pop()
            self._root = saved_root
            self.spans.append(
                (span_id, parent, name, sample, threading.get_ident(),
                 start, end, cpu_start, cpu_end, None)
            )

    def wrap_root(self, name: str, fn: Callable) -> Callable:
        """`fn` with a root span around each call (see `span`)."""

        def traced(*args, **kwargs):
            with self.span(name, root=True):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def wrap_map_ordered(self, fn: Callable) -> Callable:
        """Split the consumer loop of `map_ordered` into `cli.wait` (blocked
        on the next ordered result) and `cli.write` (the caller's work between
        yields: encoding, writing, flushing)."""
        tracer = self

        def traced(*args, **kwargs):
            results = fn(*args, **kwargs)
            while True:
                with tracer.span("cli.wait"):
                    try:
                        item = next(results)
                    except StopIteration:
                        return
                with tracer.span("cli.write"):
                    yield item

        traced.__wrapped__ = fn
        return traced


def _sample_arg(position: int) -> Callable:
    def sample_of(args, kwargs):
        return args[position].id if len(args) > position else None

    return sample_of


def _evidence_detail(args, kwargs, result):
    return args[1].indices


def _hit_detail(args, kwargs, result):
    return result is not None


def _traced_subclass(tracer: Tracer, base: type, methods: dict[str, tuple]) -> type:
    body = {}
    for method, (name, detail_of) in methods.items():
        body[method] = tracer.wrap(name, getattr(base, method), detail_of=detail_of)
    return type(f"Traced{base.__name__}", (base,), body)


def _replacements(tracer: Tracer) -> list[tuple[str, str, Callable]]:
    """(module, attribute, factory) for every name the chain looks up."""

    def plain(name, sample_of=None, detail_of=None):
        return lambda original: tracer.wrap(name, original, sample_of, detail_of)

    def prompt(attr):
        return plain("prompting." + attr)

    return [
        # the benchmark -> cli, and cli -> everything it drives
        ("tablehelm.cli", "main", lambda original: tracer.wrap_root("cli.main", original)),
        ("tablehelm.cli", "load_dataset", plain("table_core.load_dataset")),
        ("tablehelm.cli", "existing_ids", plain("cli.existing_ids")),
        ("tablehelm.cli", "map_ordered", tracer.wrap_map_ordered),
        ("tablehelm.cli", "greedy_search",
         plain("evidence_lab.greedy_search", _sample_arg(0))),
        ("tablehelm.cli", "distill_one",
         plain("evidence_lab.distill_one", _sample_arg(0))),
        ("tablehelm.cli", "merge_labels",
         plain("evidence_lab.merge_labels", _sample_arg(1))),
        ("tablehelm.cli", "export_highlighter_training",
         plain("evidence_lab.export_highlighter_training")),
        ("tablehelm.cli", "export_summarizer_training",
         plain("evidence_lab.export_summarizer_training")),
        ("tablehelm.cli", "corpus_evaluate", plain("metrics.corpus_evaluate")),
        ("tablehelm.cli", "build_highlighter_prompt", prompt("build_highlighter_prompt")),
        ("tablehelm.cli", "build_summarizer_prompt", prompt("build_summarizer_prompt")),
        ("tablehelm.cli", "parse_evidence_output",
         plain("prompting.parse_evidence_output")),
        ("tablehelm.cli", "cached_generate", plain("feedback.cached_generate")),
        ("tablehelm.cli", "subtable", plain("transforms.subtable")),
        ("tablehelm.cli", "ResponseCache", lambda base: _traced_subclass(
            tracer, base, {
                "get": ("feedback.ResponseCache.get", _hit_detail),
                "put": ("feedback.ResponseCache.put", None),
            })),
        ("tablehelm.cli", "HttpClient", lambda base: _traced_subclass(
            tracer, base, {"generate": ("feedback.HttpClient.generate", None)})),
        # evidence_lab -> feedback, prompting
        ("tablehelm.evidence_lab", "feedback_reward",
         plain("feedback.feedback_reward", detail_of=_evidence_detail)),
        ("tablehelm.evidence_lab", "cached_generate", plain("feedback.cached_generate")),
        ("tablehelm.evidence_lab", "parse_evidence_output",
         plain("prompting.parse_evidence_output")),
        ("tablehelm.evidence_lab", "build_distill_prompt", prompt("build_distill_prompt")),
        ("tablehelm.evidence_lab", "build_highlighter_prompt",
         prompt("build_highlighter_prompt")),
        ("tablehelm.evidence_lab", "build_summarizer_prompt",
         prompt("build_summarizer_prompt")),
        # feedback -> metrics, prompting, transforms, and its own oracle
        ("tablehelm.feedback", "eval_reward", plain("metrics.eval_reward")),
        ("tablehelm.feedback", "cached_generate", plain("feedback.cached_generate")),
        ("tablehelm.feedback", "echo_oracle_generate",
         plain("feedback.echo_oracle_generate")),
        ("tablehelm.feedback", "subtable", plain("transforms.subtable")),
        ("tablehelm.feedback", "build_summarizer_prompt", prompt("build_summarizer_prompt")),
        # prompting -> transforms
        ("tablehelm.prompting", "highlight", plain("transforms.highlight")),
        ("tablehelm.prompting", "linearize", plain("transforms.linearize")),
        # transforms and the loaders -> table_core.Table
        ("tablehelm.transforms", "Table", plain("table_core.Table")),
        ("tablehelm.table_core", "Table", plain("table_core.Table")),
    ]


@contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Install every wrapper for the duration of the block."""
    saved: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, factory in _replacements(tracer):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Totals:
    """Per span name: count, wall, CPU, and self wall/CPU (minus the time
    covered by child spans on the same thread)."""

    def __init__(self) -> None:
        self.count: dict[str, int] = defaultdict(int)
        self.wall: dict[str, float] = defaultdict(float)
        self.cpu: dict[str, float] = defaultdict(float)
        self.self_wall: dict[str, float] = defaultdict(float)
        self.self_cpu: dict[str, float] = defaultdict(float)

    def layer_self(self, layer: str) -> tuple[float, float]:
        """Self time of a layer's spans. `cli.wait` is left out: it is the
        main thread blocked on the pool, not work of the cli layer."""
        prefix = layer + "."
        names = [n for n in self.self_wall if n.startswith(prefix) and n != "cli.wait"]
        return (
            sum(self.self_wall[n] for n in names),
            sum(self.self_cpu[n] for n in names),
        )


def span_totals(spans: list[tuple]) -> Totals:
    by_id = {s[ID]: s for s in spans}
    child_wall: dict[int, float] = defaultdict(float)
    child_cpu: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is not None and parent[THREAD] == s[THREAD]:
            child_wall[parent[ID]] += s[END] - s[START]
            child_cpu[parent[ID]] += s[CPU_END] - s[CPU_START]
    totals = Totals()
    for s in spans:
        name = s[NAME]
        wall = s[END] - s[START]
        cpu = s[CPU_END] - s[CPU_START]
        totals.count[name] += 1
        totals.wall[name] += wall
        totals.cpu[name] += cpu
        totals.self_wall[name] += wall - child_wall[s[ID]]
        totals.self_cpu[name] += cpu - child_cpu[s[ID]]
    return totals


def write_spans(path: Path, spans: list[tuple]) -> None:
    """One JSON object per span, times in seconds from the first span."""
    origin = min((s[START] for s in spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as handle:
        for s in sorted(spans, key=lambda s: s[START]):
            detail = s[DETAIL]
            handle.write(json.dumps({
                "id": s[ID],
                "parent": s[PARENT],
                "name": s[NAME],
                "sample": s[SAMPLE],
                "thread": s[THREAD],
                "start": s[START] - origin,
                "end": s[END] - origin,
                "cpu": s[CPU_END] - s[CPU_START],
                "detail": list(detail) if isinstance(detail, tuple) else detail,
            }))
            handle.write("\n")
