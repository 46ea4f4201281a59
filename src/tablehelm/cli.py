"""Operator commands: ingest, search-labels, distill-labels, merge-labels,
highlight, export-train, pipeline, evaluate.

Batch commands share one runner, `run_batch`, the only code that writes
their id-keyed JSONL outputs (search's `--trace` file is one too): samples
fan out over `map_ordered` only as far as their clients can wait (with
offline clients, in order on the main thread), while what each returns
(records, notes, success) is taken on the main thread in dataset order:
records written one full line at a time, then notes printed to stderr.
Reruns skip a sample only when every output holds its id, so an interrupted
job resumes where it stopped (with a warm response cache, finished work
costs nothing to skip past); a last line that the interruption cut short is
dropped, and its sample redone.

One job writes an output at a time: `run_batch` takes an exclusive `flock`
on each output before it reads what is there or calls a generator, and
exits 2 naming the file if another job holds it. Where `fcntl` does not
exist (not POSIX), outputs are written unlocked.

Each command imports only the package layers it runs, when it starts
(`_bind`): `--help` imports none, `ingest` `table_core`, `evaluate`
`table_core` and `metrics`. `highlight` needs the label records of
`evidence_lab`, and the label loop (`search-labels`, `distill-labels`,
`merge-labels`, `export-train`, `pipeline`) runs every layer, so those
commands import them all. The names used from a layer are bound here once,
at the first command that runs it, and then stay. Patch them here
(`tablehelm.cli.greedy_search`), where a command calls them as set: a
patch made in the layer itself (`tablehelm.feedback.HttpClient`) before any
command runs would be bound here and outlive its undoing.

Exit codes: 0 success, 2 validation problem, 3 backend/transport failure,
4 finished but with a success rate below the configured threshold.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import ExitStack, closing, nullcontext
from dataclasses import fields, replace
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Callable, ContextManager, TextIO

try:
    import fcntl
except ImportError:  # not POSIX: outputs are written unlocked
    fcntl = None

from .config import RunConfig, SamplingConfig, build_config
from .errors import (
    BACKEND_ERRORS,
    EmptyEvidenceError,
    NoIndicesError,
    OutputBusyError,
    SchemaError,
    TableHelmError,
    UnmatchedIdError,
)

if TYPE_CHECKING:
    from .evidence_lab import SearchTrace
    from .feedback import CountingClient, GeneratorClient
    from .table_core import Dataset, Sample

# The names this module calls in each layer, bound as module globals by
# `_bind` or `__getattr__`. The commands look them up here, not in their
# layer, so a tracer that wraps one here wraps this module's calls and not,
# say, a search's own.
_LAYERS = {
    "table_core": ("Evidence", "load_dataset", "read_records", "save_dataset"),
    "transforms": ("highlight", "linearize", "subtable"),
    "metrics": ("corpus_evaluate",),
    "prompting": (
        "build_highlighter_prompt",
        "build_summarizer_prompt",
        "load_example_blocks",
        "load_template",
        "parse_evidence_output",
    ),
    "feedback": (
        "CountingClient",
        "EchoClient",
        "FixedClient",
        "HttpClient",
        "ResponseCache",
        "RoleSettings",
        "cached_generate",
        "shown_rows",
    ),
    "evidence_lab": (
        "LabeledSample",
        "distill_one",
        "export_highlighter_training",
        "export_summarizer_training",
        "greedy_search",
        "labeled_to_record",
        "load_labels",
        "map_ordered",
        "merge_labels",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}


def _bind(*layers: str) -> None:
    """Import `layers` and set the names this module uses from them as
    globals. A name already set (a tracer's wrapper, a test's stand-in, an
    earlier binding) is kept, so the commands call it."""
    namespace = globals()
    for layer in layers:
        module = import_module(f".{layer}", __package__)
        for name in _LAYERS[layer]:
            namespace.setdefault(name, getattr(module, name))


def __getattr__(name: str) -> object:
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(layer)
    return globals()[name]


__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BACKEND = 3
EXIT_PARTIAL = 4


def make_client(endpoint: str, model_id: str, run: RunConfig) -> GeneratorClient:
    """Build a generator from an endpoint spec.

    "echo" is the offline table-reading oracle, "fixed:<text>" always
    returns <text>, and http(s) URLs get the chat-completions client.
    """
    _bind("feedback")
    if endpoint == "echo":
        return EchoClient()
    if endpoint.startswith("fixed:"):
        return FixedClient(endpoint[len("fixed:") :])
    if endpoint.startswith(("http://", "https://")):
        return HttpClient(
            endpoint,
            model_id,
            timeout=run.timeout,
            max_attempts=run.max_attempts,
            max_in_flight=run.max_in_flight,
        )
    raise SchemaError("endpoint", f"unsupported endpoint: {endpoint!r}")


def cache_for(run: RunConfig) -> ResponseCache | None:
    return ResponseCache(run.cache_dir) if run.cache_dir else None


def closing_cache(cache: ResponseCache | None) -> ContextManager[object]:
    """Close `cache` when the block ends, so that the command leaves only the
    database file behind (see `ResponseCache.close`)."""
    return closing(cache) if cache is not None else nullcontext()


def settings_for(
    run: RunConfig,
    sampling_role: str,
    template_role: str,
    cache: ResponseCache | None = None,
) -> RoleSettings:
    """A model role's settings: `cache`, the decoding settings of
    `sampling_role` ("highlighter", "summarizer" or "feedbacker"), the
    template of `template_role` ("highlighter", "summarizer" or "distill")
    and the run's token budget."""
    return RoleSettings(
        cache=cache,
        cfg=SamplingConfig(
            nucleus_p=getattr(run, f"{sampling_role}_nucleus_p"),
            temperature=getattr(run, f"{sampling_role}_temperature"),
            max_new_tokens=run.max_new_tokens,
        ),
        template=load_template(template_role, getattr(run, f"{template_role}_template") or None),
        token_budget=run.token_budget,
    )


def open_locked(path: str | Path) -> TextIO:
    """Open `path` for appending with an exclusive lock held until the file
    is closed, so that no second job appends to it meanwhile; raises
    OutputBusyError at once if another job holds the lock."""
    handle = open(path, "a", encoding="utf-8")
    if fcntl is not None:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            handle.close()
            raise OutputBusyError(str(path)) from None
    return handle


def existing_ids(path: str | Path) -> set[str]:
    """Ids already present in an output file (resume support). A last line
    without its newline is a record cut short by an interrupted job: it is
    cut off, so that its sample is redone and appends start on a fresh line.
    The caller holds the file's lock (`open_locked`), so the file exists."""
    ids: set[str] = set()
    complete = 0
    with open(path, "r+b") as handle:
        for line in handle:
            if not line.endswith(b"\n"):
                handle.truncate(complete)
                print(f"{path}: dropped {len(line)} bytes of an unfinished last line", file=sys.stderr)
                break
            complete += len(line)
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            sample_id = record.get("id") if isinstance(record, dict) else None
            if isinstance(sample_id, str):
                ids.add(sample_id)
    return ids


def run_batch(
    dataset: Dataset,
    outputs: list[str],
    run: RunConfig,
    clients: list[CountingClient],
    work: Callable[[Sample], tuple[list[dict[str, object]], list[str], bool]],
    summary: Callable[[int, int, int, int], str],
) -> int:
    """The resumable loop of the batch commands: lock each of `outputs` and
    read its ids, run `work` over the samples whose id is not in all of
    them, at most `run.workers` and the widest `max_in_flight` of the
    `clients` it calls at once (so with offline clients one by one on this
    thread), and, in dataset order on this thread, take what
    `work(sample)` returns as `(records, notes, ok)`: append each record to
    its output as one flushed JSON line, print each note to stderr, and
    count the sample a success if `ok`. Prints `summary(succeeded,
    attempted, skipped, written)`, `written` being the samples whose
    records were written (attempted less failed), and returns the exit code.

    A redone sample's second record supersedes its first in an output that
    held it (the last record of an id wins when labels are read). Outputs
    are opened last first, so a side file that cannot be opened leaves no
    main output behind, and all are locked before any generator call."""
    with ExitStack() as stack:
        handles: list[TextIO] = []
        seen: list[set[str]] = []
        for path in reversed(outputs):
            handles.insert(0, stack.enter_context(open_locked(path)))
            seen.append(existing_ids(path))
        done = set.intersection(*seen)
        todo = [s for s in dataset if s.id not in done]
        succeeded = 0
        failures: list[tuple[str, Exception]] = []
        width = min(run.workers, max(client.max_in_flight for client in clients))
        for sample, result, exc in map_ordered(work, todo, width):
            if exc is not None:
                failures.append((sample.id, exc))
                continue
            records, notes, ok = result
            for handle, record in zip(handles, records, strict=True):
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")
                handle.flush()
            for note in notes:
                print(note, file=sys.stderr)
            succeeded += ok
    print(summary(succeeded, len(todo), len(done), len(todo) - len(failures)))
    return _job_exit(succeeded, len(todo), failures, run)


def _load_input(path: str, run: RunConfig) -> Dataset:
    dataset, _ = load_dataset(path, format=run.dataset_format, strict=True)
    return dataset


def _job_exit(
    succeeded: int,
    total: int,
    failures: list[tuple[str, Exception]],
    run: RunConfig,
) -> int:
    for sample_id, exc in failures:
        print(f"failed {sample_id}: {exc}", file=sys.stderr)
    if total == 0:
        return EXIT_OK
    if succeeded == 0 and failures and all(
        isinstance(exc, BACKEND_ERRORS) for _, exc in failures
    ):
        return EXIT_BACKEND
    if succeeded / total >= run.success_threshold:
        return EXIT_OK
    return EXIT_PARTIAL


def _parse_flag_evidence(raw: str) -> Evidence:
    try:
        return Evidence.from_any(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise SchemaError("evidence", f"bad evidence spec {raw!r}: {exc}") from exc


# ---------------------------------------------------------------- commands


def cmd_ingest(args: argparse.Namespace) -> int:
    _bind("table_core")
    dataset, report = load_dataset(args.input, format=args.format, strict=args.strict)
    for failure in report.failures:
        print(f"line {failure.line}: {failure.message}", file=sys.stderr)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    save_dataset(dataset, args.output)
    print(f"ingested {len(dataset)} samples -> {args.output}")
    if len(dataset) == 0:
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_search_labels(args: argparse.Namespace) -> int:
    _bind("table_core", "prompting", "feedback", "evidence_lab")
    run = _run_config(args)
    if args.trace and _same_file(args.trace, args.output):
        raise SchemaError("trace", f"--trace names the output file {args.output}")
    dataset = _load_input(args.input, run)
    feedbacker = CountingClient(
        make_client(run.feedbacker_endpoint, run.feedbacker_model, run)
    )
    settings = settings_for(run, "feedbacker", "summarizer", cache_for(run))
    oracle_calls: list[int] = []  # one per sample; `append` is atomic

    def work(sample: Sample) -> tuple[list[dict[str, object]], list[str], bool]:
        evidence, reward, trace = greedy_search(
            sample,
            feedbacker,
            settings=settings,
            step_cap=run.step_cap_or_none,
            fallback=run.search_fallback,
        )
        labeled = LabeledSample(
            sample_id=sample.id,
            e_search=evidence,
            e_manual=sample.manual_evidence,
            merge_rewards=(("search", reward),),
            flags=trace.flags,
        )
        records = [labeled_to_record(labeled)]
        if args.trace:
            records.append(_trace_record(sample.id, trace))
        oracle_calls.append(trace.oracle_calls)
        return records, [], True

    def summary(searched: int, total: int, skipped: int, written: int) -> str:
        return (
            f"searched {searched}/{total} samples (skipped {skipped} already labeled);"
            f" oracle evaluations {sum(oracle_calls)}, generator calls {feedbacker.calls}"
        )

    outputs = [args.output, args.trace] if args.trace else [args.output]
    with closing_cache(settings.cache):
        return run_batch(dataset, outputs, run, [feedbacker], work, summary)


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist (yet)
        return Path(a).resolve() == Path(b).resolve()


def _trace_record(sample_id: str, trace: SearchTrace) -> dict[str, object]:
    return {
        "id": sample_id,
        "oracle_calls": trace.oracle_calls,
        "flags": list(trace.flags),
        "candidates": [
            {
                "evidence": list(c.evidence.indices),
                "reward": c.reward,
                "phase": c.phase,
                "accepted": c.accepted,
                "note": c.note,
            }
            for c in trace.candidates
        ],
    }


def cmd_distill_labels(args: argparse.Namespace) -> int:
    _bind("table_core", "prompting", "feedback", "evidence_lab")
    run = _run_config(args)
    dataset = _load_input(args.input, run)
    endpoint = run.distill_endpoint or run.feedbacker_endpoint
    client = CountingClient(make_client(endpoint, run.distill_model, run))
    settings = settings_for(run, "feedbacker", "distill", cache_for(run))
    examples = load_example_blocks(run.distill_examples or None)

    def work(sample: Sample) -> tuple[list[dict[str, object]], list[str], bool]:
        labeled, notes = distill_one(sample, client, examples, settings=settings)
        # Unparseable outputs count against the threshold like failures do.
        return [labeled_to_record(labeled)], notes, labeled.e_distill is not None

    def summary(parsed: int, total: int, skipped: int, written: int) -> str:
        return (
            f"distilled {parsed}/{total} samples parsed"
            f" ({written} records written, {skipped} skipped);"
            f" generator calls {client.calls}"
        )

    with closing_cache(settings.cache):
        return run_batch(dataset, [args.output], run, [client], work, summary)


def cmd_merge_labels(args: argparse.Namespace) -> int:
    _bind("table_core", "prompting", "feedback", "evidence_lab")
    run = _run_config(args)
    dataset = _load_input(args.input, run)
    sources = [load_labels(path) for path in args.labels]
    feedbacker = CountingClient(
        make_client(run.feedbacker_endpoint, run.feedbacker_model, run)
    )
    settings = settings_for(run, "feedbacker", "summarizer", cache_for(run))

    def work(sample: Sample) -> tuple[list[dict[str, object]], list[str], bool]:
        merged = LabeledSample(sample_id=sample.id, e_manual=sample.manual_evidence)
        for source in sources:
            record = source.get(sample.id)
            if record is None:
                continue
            merged = replace(
                merged,
                e_search=merged.e_search if record.e_search is None else record.e_search,
                e_distill=merged.e_distill if record.e_distill is None else record.e_distill,
                e_manual=merged.e_manual if record.e_manual is None else record.e_manual,
                flags=tuple(dict.fromkeys(merged.flags + record.flags)),
            )
        labeled = merge_labels(merged, sample, feedbacker, settings=settings)
        return [labeled_to_record(labeled)], [], True

    def summary(merged: int, total: int, skipped: int, written: int) -> str:
        return (
            f"merged {merged}/{total} samples ({skipped} skipped);"
            f" generator calls {feedbacker.calls}"
        )

    with closing_cache(settings.cache):
        return run_batch(dataset, [args.output], run, [feedbacker], work, summary)


def cmd_highlight(args: argparse.Namespace) -> int:
    _bind("table_core", "transforms", "evidence_lab")
    run = _run_config(args)
    dataset = _load_input(args.input, run)
    labels = load_labels(args.labels) if args.labels else {}
    wanted = set(args.id) if args.id else None
    shown = 0
    for sample in dataset:
        if wanted is not None and sample.id not in wanted:
            continue
        evidence = _resolve_evidence(sample, labels, args)
        if args.mode == "subtab":
            if evidence is None or len(evidence) == 0:
                raise EmptyEvidenceError(
                    f"{sample.id}: sub-table rendering needs evidence rows"
                )
            rendered = linearize(subtable(sample.table, evidence))
        else:
            marked = (
                highlight(sample.table, evidence) if evidence is not None else sample.table
            )
            rendered = linearize(marked)
        print(f"# {sample.id}")
        print(rendered.text)
        shown += 1
    if wanted is not None and shown < len(wanted):
        raise UnmatchedIdError(sorted(wanted - {s.id for s in dataset}))
    return EXIT_OK


def _resolve_evidence(
    sample: Sample, labels: dict[str, LabeledSample], args: argparse.Namespace
) -> Evidence | None:
    if args.evidence is not None:
        evidence = _parse_flag_evidence(args.evidence)
        evidence.check_range(sample.table.n_rows)
        return evidence
    record = labels.get(sample.id)
    if record is not None:
        source = args.source
        chosen = getattr(record, f"e_{source}")
        if chosen is not None:
            return chosen
    return sample.manual_evidence


def cmd_export_train(args: argparse.Namespace) -> int:
    _bind("table_core", "prompting", "feedback", "evidence_lab")
    run = _run_config(args)
    dataset = _load_input(args.input, run)
    labels = load_labels(args.labels)
    settings = settings_for(run, args.role, args.role)
    if args.role == "highlighter":
        count = export_highlighter_training(
            dataset, labels, args.output, strict=args.strict, settings=settings
        )
    else:
        count = export_summarizer_training(
            dataset, labels, args.output, source=args.source, strict=args.strict,
            settings=settings,
        )
    print(f"exported {count} {args.role} records -> {args.output}")
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    _bind("table_core", "prompting", "feedback", "evidence_lab")
    run = _run_config(args)
    dataset = _load_input(args.input, run)
    highlighter = CountingClient(
        make_client(run.highlighter_endpoint, run.highlighter_model, run)
    )
    summarizer = CountingClient(
        make_client(run.summarizer_endpoint, run.summarizer_model, run)
    )
    cache = cache_for(run)
    h_settings = settings_for(run, "highlighter", "highlighter", cache)
    s_settings = settings_for(run, "summarizer", "summarizer", cache)

    def work(sample: Sample) -> tuple[list[dict[str, object]], list[str], bool]:
        flags: list[str] = []
        evidence = Evidence(())
        if run.ablation != "no_highlight":
            h_prompt = build_highlighter_prompt(
                sample.table,
                sample.query,
                None,
                template=h_settings.template,
                sample_id=sample.id,
                token_budget=h_settings.token_budget,
            )
            raw = cached_generate(highlighter, cache, h_prompt.text, h_settings.cfg)
            try:
                evidence, warnings = parse_evidence_output(raw, sample.table.n_rows)
                flags.extend(warnings)
            except NoIndicesError:
                pass
            if len(evidence) == 0:
                flags.append("no-evidence")
        else:
            flags.append("no_highlight")
        mode = "subtable" if run.ablation == "subtab" and evidence else "highlight"
        shown, marked = shown_rows(sample.table, evidence, mode)
        s_prompt = build_summarizer_prompt(
            shown,
            marked,
            sample.query,
            None,
            template=s_settings.template,
            sample_id=sample.id,
            token_budget=s_settings.token_budget,
        )
        record = {
            "id": sample.id,
            "evidence": list(evidence.indices),
            "prediction": cached_generate(summarizer, cache, s_prompt.text, s_settings.cfg),
            "flags": flags,
        }
        return [record], [], True

    def summary(predicted: int, total: int, skipped: int, written: int) -> str:
        return (
            f"predicted {predicted}/{total} samples ({skipped} skipped);"
            f" highlighter calls {highlighter.calls}, summarizer calls {summarizer.calls}"
        )

    with closing_cache(cache):
        return run_batch(dataset, [args.output], run, [highlighter, summarizer], work, summary)


def cmd_evaluate(args: argparse.Namespace) -> int:
    _bind("table_core", "metrics")
    run = _run_config(args)
    dataset = _load_input(args.dataset, run)

    def parse_prediction(record: dict[str, object]) -> tuple[str, str]:
        sample_id, text = record.get("id"), record.get("prediction")
        if not isinstance(sample_id, str) or not isinstance(text, str):
            raise SchemaError("predictions", "bad id/prediction")
        return sample_id, text

    predictions = dict(read_records(args.predictions, parse_prediction))
    known = {sample.id for sample in dataset}
    unmatched = sorted(pid for pid in predictions if pid not in known)
    if unmatched:
        raise UnmatchedIdError(unmatched)
    pairs = [
        (predictions[sample.id], sample.reference)
        for sample in dataset
        if sample.id in predictions
    ]
    report = corpus_evaluate(pairs)
    print(report.format_table())
    report_path = args.report or f"{args.predictions}.scores.json"
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report.to_record(), ensure_ascii=False))
        handle.write("\n")
    print(f"report -> {report_path}")
    return EXIT_OK


# ------------------------------------------------------------- arg parsing


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file")
    group = parser.add_argument_group(
        "config overrides", "highest precedence; see RunConfig for keys"
    )
    for f in fields(RunConfig):
        group.add_argument(
            "--" + f.name.replace("_", "-"),
            dest=f"cfg_{f.name}",
            metavar="V",
            help=f"override config key {f.name}",
        )


def _run_config(args: argparse.Namespace) -> RunConfig:
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f"cfg_{f.name}", None)
        if value is not None:
            overrides[f.name] = value
    return build_config(getattr(args, "config", None), os.environ, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tablehelm",
        description="Table-to-text pipeline tooling: evidence labels, "
        "prompt exports, two-step inference, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a dataset to canonical JSONL")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument(
        "--format",
        choices=("canonical", "fetaqa", "qtsumm"),
        default="canonical",
    )
    p.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="fail on the first bad line instead of reporting and skipping",
    )
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("search-labels", help="greedy evidence search per sample")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--trace", help="also append full search traces to this file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_search_labels)

    p = sub.add_parser("distill-labels", help="few-shot evidence distillation")
    p.add_argument("input")
    p.add_argument("output")
    _add_config_flags(p)
    p.set_defaults(func=cmd_distill_labels)

    p = sub.add_parser("merge-labels", help="pick the best label source by reward")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument(
        "--labels",
        action="append",
        default=[],
        help="label file to merge (repeatable); manual labels come from the dataset",
    )
    _add_config_flags(p)
    p.set_defaults(func=cmd_merge_labels)

    p = sub.add_parser("highlight", help="print highlighted or sub-table renderings")
    p.add_argument("input")
    p.add_argument("--id", action="append", help="sample id (repeatable; default all)")
    p.add_argument("--evidence", help="comma-separated row indices, e.g. 1,3")
    p.add_argument("--labels", help="label file to pull evidence from")
    p.add_argument(
        "--source",
        choices=("merge", "search", "distill", "manual"),
        default="merge",
        help="which label source to render when --labels is given",
    )
    p.add_argument("--mode", choices=("highlight", "subtab"), default="highlight")
    _add_config_flags(p)
    p.set_defaults(func=cmd_highlight)

    p = sub.add_parser("export-train", help="write instruction-tuning JSONL")
    p.add_argument("input")
    p.add_argument("labels")
    p.add_argument("output")
    p.add_argument("--role", choices=("highlighter", "summarizer"), required=True)
    p.add_argument(
        "--source",
        choices=("merge", "distill"),
        default="merge",
        help="evidence source for summarizer exports",
    )
    p.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_export_train)

    p = sub.add_parser("pipeline", help="two-step inference: highlight, summarize")
    p.add_argument("input")
    p.add_argument("output")
    _add_config_flags(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("evaluate", help="score a predictions file against references")
    p.add_argument("predictions")
    p.add_argument("dataset")
    p.add_argument("--report", help="structured report path (default <predictions>.scores.json)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


# Parsing leaves the parser as it was, so one per process serves every
# `main` call; building one costs milliseconds and leaves cyclic garbage.
_shared_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except BACKEND_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (TableHelmError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
