#!/usr/bin/env python3
"""tablehelm benchmark: the label-search loop, end to end and layer by layer.

    python3 benchmark/run.py --workload echo-loop --seed 1 --seconds 40 --trace 0

Builds a seeded planted-table dataset, then drives the real CLI in-process
through `tablehelm.cli.main(argv)`, one command after another:

    search-labels -> distill-labels -> merge-labels -> export-train
    (highlighter, summarizer) -> pipeline -> evaluate

It repeats that chain until `--seconds` is spent, checks every output, and
prints one line per chain and per metric followed, as the last line, by a
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json.
With `--trace 1` half the time runs untraced and half traced (see
spans.py), and the metrics are the per-layer ones.

Any failed check makes the run exit 1, after printing the result with
`"correct": false`. A checkout without the package source exits 2 and
prints no result. README.md in this directory says how to read the numbers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import re
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from spans import DETAIL, END, ID, NAME, PARENT, START, Tracer, patched, span_totals, write_spans
from workload import Planted, Shape, make_samples, write_jsonl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LOOPBACK = HERE / "loopback.py"

NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 5
SERVER_DELAY_MS = 5.0
PLANTED_FLOOR = 0.95


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    workers: int
    max_in_flight: int
    cache: bool = False
    http: bool = False
    # Passes per chain of the short commands, so each is timed often.
    repeats: dict[str, int] = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "echo-loop",
            Shape(samples=300, rows=20, cols=4, planted_min=2, planted_max=4,
                  manual_share=0.3),
            workers=min(2, NPROC),
            max_in_flight=NPROC,
            repeats={"search": 2, "merge": 4, "pipeline": 8, "evaluate": 3},
        ),
        Workload(
            "cache-rerun",
            Shape(samples=100, rows=20, cols=4, planted_min=2, planted_max=4,
                  manual_share=0.3),
            workers=min(2, NPROC),
            max_in_flight=NPROC,
            cache=True,
            repeats={"search": 2, "merge": 8, "pipeline": 14, "evaluate": 7},
        ),
        Workload(
            "http-loop",
            Shape(samples=8, rows=40, cols=6, planted_min=3, planted_max=5,
                  manual_share=0.3, qtsumm=True),
            workers=1,
            max_in_flight=NPROC,
            http=True,
            repeats={"merge": 3, "pipeline": 3, "evaluate": 20},
        ),
    )
}

# Printed summary lines of each command; a line that does not match is a
# failed check, since the counts feed the correctness gate.
PATTERNS = {
    "search": re.compile(
        r"searched (\d+)/(\d+) samples .*oracle evaluations (\d+), generator calls (\d+)"
    ),
    "distill": re.compile(r"distilled (\d+)/(\d+) samples parsed .*generator calls (\d+)"),
    "merge": re.compile(r"merged (\d+)/(\d+) samples .*generator calls (\d+)"),
    "export": re.compile(r"exported (\d+) \w+ records"),
    "pipeline": re.compile(
        r"predicted (\d+)/(\d+) samples .*highlighter calls (\d+), summarizer calls (\d+)"
    ),
    "evaluate": re.compile(r"report -> "),
}

# On cache-rerun these commands fill a fresh cache (the cold pass) before
# the measured chain reruns on the warm cache.
COLD_PASS = ("search", "distill", "merge", "pipeline")


class CheckFailed(Exception):
    pass


@dataclass
class Step:
    key: str  # command, prefixed "cold_" in the cold pass
    kind: str  # which summary line it prints
    argv: list[str]
    output: str


@dataclass
class Chain:
    """What one run of the command chain measured."""

    # Chain timings are at reference speed (see `at_reference`).
    seconds: dict[str, list[float]] = field(default_factory=dict)  # every pass per command
    wall_s: float = 0.0  # first passes of the measured commands
    cpu_s: float = 0.0
    slowdown: float = 1.0  # median probe over REFERENCE_S, for the log
    generator_calls: int = 0
    server_requests: int = 0
    server_service_s: float = 0.0
    cache_bytes: int = 0
    cache_files: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)  # traced chains only
    search_ms: list[float] = field(default_factory=list)  # traced chains only


@dataclass
class Context:
    workload: Workload
    work: Path
    data: Path
    samples: list[Planted]
    port: int | None
    attempted: int = 0
    failed: int = 0
    recovered: float = 0.0
    reference_digests: dict[str, str] | None = None


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ------------------------------------------------------------------ set-up


def start_server() -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, str(LOOPBACK), "--delay-ms", str(SERVER_DELAY_MS)],
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        text=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], 60.0)
    line = proc.stdout.readline() if ready else ""
    match = re.fullmatch(r"READY (\d+)\n", line)
    if match is None:
        stop_server(proc)
        raise CheckFailed(f"loopback server did not start (got {line!r})")
    return proc, int(match.group(1))


def stop_server(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def server_stats(port: int) -> dict[str, object]:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/stats", timeout=10) as reply:
        return json.loads(reply.read())


def child_import_seconds() -> float:
    """Import time of the package in a fresh interpreter, as a user pays it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]);"
        " t = time.perf_counter(); import tablehelm.cli;"
        " print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=120, stdin=subprocess.DEVNULL,
    )
    check(done.returncode == 0, f"importing tablehelm failed: {done.stderr.strip()}")
    return float(done.stdout.strip())


def set_up(workload: Workload, seed: int, work: Path):
    """Generate the data, import the package and get the server ready,
    SETUP_REPEATS times; keep the last data file and server.
    Returns (median set-up seconds, data path, samples, server, port)."""
    times = []
    server = port = None
    try:
        for rep in range(SETUP_REPEATS):
            if server is not None:
                stop_server(server)
                server = None
            start = time.perf_counter()
            samples = make_samples(workload.shape, seed, workload.name)
            data = work / f"data-{rep}.jsonl"
            write_jsonl(data, samples)
            generate_s = time.perf_counter() - start
            import_s = child_import_seconds()
            start = time.perf_counter()
            if workload.http:
                server, port = start_server()
            server_s = time.perf_counter() - start
            times.append(generate_s + import_s + server_s)
    except BaseException:
        if server is not None:
            stop_server(server)
        raise
    return statistics.median(times), data, samples, server, port


# ----------------------------------------------------------- machine speed

# On a VM on a shared host (the baseline's was a 2-vCPU one) speed drifts
# by 30% and more within minutes, and at times the host takes a third of
# the wall time as steal. Chain timings are therefore reported at a fixed
# reference speed. Before every pass, and after a chain's last, a probe
# times a fixed pure-Python loop that does not touch the package; a pass's
# slowdown is the median of its nearest probes over REFERENCE_S. Its CPU
# seconds are divided by that slowdown, and the rest of its wall time,
# less the steal the kernel counted meanwhile, is kept as measured: that
# is time spent waiting, as for the loopback server's delay.
PROBE_TEXT = " ".join(f"w{i % 97} x{i % 13}" for i in range(400))
REFERENCE_S = 0.012  # the probe's median on the machine of the baseline
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def probe_s() -> float:
    """Thread CPU seconds of the speed probe: bigram counting over fixed
    text, the kind of work BLEU does."""
    start = time.thread_time()
    counts: dict[tuple[str, str], int] = {}
    for _ in range(40):
        words = PROBE_TEXT.split()
        for pair in zip(words, words[1:]):
            counts[pair] = counts.get(pair, 0) + 1
    return time.thread_time() - start


def steal_s() -> float:
    """Seconds the host has taken from this machine's CPUs since boot."""
    with open("/proc/stat", encoding="ascii") as handle:
        return int(handle.readline().split()[8]) / CLOCK_TICKS


def at_reference(wall_s: float, cpu_s: float, steal: float, slowdown: float) -> float:
    """A pass's seconds at reference speed: CPU rescaled, plus waiting."""
    return max(0.0, wall_s - cpu_s - steal) + cpu_s / slowdown


# ------------------------------------------------------------------- chain


def common_flags(ctx: Context, cache: Path | None) -> list[str]:
    wl = ctx.workload
    if wl.http:
        url = f"http://127.0.0.1:{ctx.port}/v1/chat/completions"
        endpoints = dict.fromkeys(("highlighter", "summarizer", "feedbacker", "distill"), url)
    else:
        endpoints = dict.fromkeys(("highlighter", "summarizer", "feedbacker"), "echo")
        endpoints["distill"] = "fixed:{1}"
    flags = [
        "--dataset-format", "qtsumm" if wl.shape.qtsumm else "canonical",
        "--workers", str(wl.workers),
        "--max-in-flight", str(wl.max_in_flight),
        "--cache-dir", str(cache) if cache is not None else "",
        "--timeout", "30",
    ]
    for role, endpoint in endpoints.items():
        flags += [f"--{role}-endpoint", endpoint]
    return flags


def chain_steps(ctx: Context, d: Path, cache: Path | None) -> list[Step]:
    """The chain's commands, preceded by the cold pass when `cache` is a
    directory that does not exist yet."""
    flags = common_flags(ctx, cache)

    def commands(prefix: str) -> list[Step]:
        paths = {k: str(d / f"{prefix}{k}.jsonl") for k in
                 ("search", "distill", "merge", "export_h", "export_s", "pipeline", "evaluate")}
        steps = []
        for kind, key, args in (
            ("search", "search", ["search-labels", "{data}", "{search}"]),
            ("distill", "distill", ["distill-labels", "{data}", "{distill}"]),
            ("merge", "merge", ["merge-labels", "{data}", "{merge}",
                                "--labels", "{search}", "--labels", "{distill}"]),
            ("export", "export_h", ["export-train", "{data}", "{merge}", "{export_h}",
                                    "--role", "highlighter"]),
            ("export", "export_s", ["export-train", "{data}", "{merge}", "{export_s}",
                                    "--role", "summarizer"]),
            ("pipeline", "pipeline", ["pipeline", "{data}", "{pipeline}"]),
            ("evaluate", "evaluate", ["evaluate", "{pipeline}", "{data}",
                                      "--report", "{evaluate}"]),
        ):
            if not prefix or key in COLD_PASS:
                argv = [a.format(data=ctx.data, **paths) for a in args] + flags
                steps.append(Step(prefix + key, kind, argv, f"{prefix}{key}.jsonl"))
        return steps

    if cache is None or cache.exists():
        return commands("")
    return commands("cold_") + commands("")


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def account(ctx: Context, step: Step, stdout: str) -> int:
    """Check one command's summary line; return its generator calls."""
    n = len(ctx.samples)
    rows = ctx.workload.shape.rows
    match = PATTERNS[step.kind].search(stdout)
    check(match is not None, f"{step.key}: no summary line in {stdout!r}")
    if step.kind == "export":
        done, calls = int(match.group(1)), 0
    elif step.kind == "evaluate":
        done, calls = n, 0
    else:
        done, total = int(match.group(1)), int(match.group(2))
        check(total == n, f"{step.key}: attempted {total} samples, expected {n}")
        calls = sum(int(g) for g in match.groups()[2:])
    if step.kind == "search":
        oracle, calls = int(match.group(3)), int(match.group(4))
        check(oracle == 2 * n * rows,
              f"{step.key}: {oracle} oracle evaluations, expected 2 x {n * rows}")
    ctx.attempted += n
    ctx.failed += n - done
    return calls


def run_step(ctx: Context, cli, step: Step, d: Path, passes: int, result: Chain,
             probes: list[float]) -> list[tuple[float, float, float]]:
    """Run one command `passes` times into the same fresh file, each pass
    right after a speed probe appended to `probes`; return the wall, CPU
    and steal seconds of every pass. Every pass is checked and must write
    the same bytes."""
    timings = []
    for attempt in range(passes):
        (d / step.output).unlink(missing_ok=True)
        probes.append(probe_s())
        usage = resource.getrusage(resource.RUSAGE_SELF)
        steal = steal_s()
        start = time.perf_counter()
        code, stdout, stderr = run_cli(cli, step.argv)
        seconds = time.perf_counter() - start
        steal = steal_s() - steal
        after = resource.getrusage(resource.RUSAGE_SELF)
        check(code == 0, f"{step.key} exited {code}: {stderr.strip()[-500:]}")
        timings.append((seconds,
                        after.ru_utime - usage.ru_utime + after.ru_stime - usage.ru_stime,
                        steal))
        calls = account(ctx, step, stdout)
        check(not ctx.workload.cache or step.key.startswith("cold_") or calls == 0,
              f"{step.key}: {calls} generator calls on a warm cache")
        if attempt == 0:
            result.generator_calls += calls
        value = digest(d / step.output)
        check(result.digests.setdefault(step.output, value) == value,
              f"{step.key}: pass {attempt} wrote a different {step.output}")
    return timings


def run_chain(ctx: Context, cli, index: int, cache: Path | None, repeat: bool) -> Chain:
    """Run the chain once, each command once or, with `repeat`, as many
    times as the workload asks. Per command every pass is kept, at
    reference speed; the wall and CPU totals add up first passes, so traced
    chains (which run each command once) compare with untraced ones. On
    cache-rerun the measured commands are the warm rerun, after a cold pass
    if `cache` is still empty."""
    d = ctx.work / f"chain-{index}"
    d.mkdir()
    wl = ctx.workload
    result = Chain()
    before = server_stats(ctx.port) if wl.http else None
    steps = chain_steps(ctx, d, cache)
    timings: dict[str, list[tuple[float, float, float]]] = {}
    probes: list[float] = []
    for step in steps:
        cold = step.key.startswith("cold_")
        if step.key == "search" and steps[0].key == "cold_search":
            files = [f for f in cache.rglob("*") if f.is_file()]
            result.cache_files = len(files)
            result.cache_bytes = sum(f.stat().st_blocks * 512 for f in files)
        passes = wl.repeats.get(step.key, 1) if repeat and not cold else 1
        timings[step.key] = run_step(ctx, cli, step, d, passes, result, probes)
    probes.append(probe_s())
    result.slowdown = statistics.median(probes) / REFERENCE_S
    # probes[i] ran right before the chain's i-th pass and probes[i + 1]
    # right after it; each pass is rescaled by the median of the two probes
    # on either side of it.
    i = 0
    for key, passes_s in timings.items():
        result.seconds[key] = []
        for wall, cpu, steal in passes_s:
            slowdown = statistics.median(probes[max(0, i - 1):i + 3]) / REFERENCE_S
            result.seconds[key].append(at_reference(wall, cpu, steal, slowdown))
            if not key.startswith("cold_") and len(result.seconds[key]) == 1:
                result.wall_s += result.seconds[key][0]
                result.cpu_s += cpu / slowdown
            i += 1
    if wl.http:
        after_stats = server_stats(ctx.port)
        result.server_requests = after_stats["requests"] - before["requests"]
        result.server_service_s = after_stats["service_s"] - before["service_s"]
    for name, value in result.digests.items():
        if name.startswith("cold_"):
            check(result.digests[name[len("cold_"):]] == value,
                  f"warm {name[len('cold_'):]} differs from the cold one")
    if ctx.reference_digests is None:
        ctx.reference_digests = dict(result.digests)
        check_planted(ctx, d / "search.jsonl")
    else:
        for name, value in result.digests.items():
            check(value == ctx.reference_digests[name],
                  f"chain {index}: {name} differs from chain 0")
    shutil.rmtree(d)
    return result


def check_planted(ctx: Context, labels: Path) -> None:
    planted = {s.id: list(s.planted) for s in ctx.samples}
    found = 0
    with open(labels, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            found += record["e_search"] == planted[record["id"]]
    ctx.recovered = found / len(planted)
    check(ctx.recovered >= PLANTED_FLOOR,
          f"search recovered {ctx.recovered:.3f} of planted sets, floor {PLANTED_FLOOR}")


def check_http_matches_echo(ctx: Context, cli) -> None:
    """Search over the loopback server must label exactly as the echo
    oracle does on the same data."""
    d = ctx.work / "echo-reference"
    d.mkdir()
    flags = common_flags(ctx, None)
    flags[flags.index("--feedbacker-endpoint") + 1] = "echo"
    out = d / "search.jsonl"
    code, _, stderr = run_cli(cli, ["search-labels", str(ctx.data), str(out)] + flags)
    check(code == 0, f"echo reference search exited {code}: {stderr.strip()[-500:]}")
    check(digest(out) == ctx.reference_digests[out.name],
          "search labels over HTTP differ from the echo oracle's")
    shutil.rmtree(d)


def run_chains(ctx: Context, cli, budget: float, first: int,
               tracer: Tracer | None = None) -> list[Chain]:
    """Run chains until the next one would overrun `budget` seconds.

    Untraced chains on cache-rerun share one cache, filled by the first
    chain's cold pass. Traced chains run each command once and each make
    their own cold pass, so every traced chain records cache writes as well
    as reads; their spans are reduced to `Chain.layers`, and the last
    chain's stay in the tracer.
    """
    chains: list[Chain] = []
    shared = ctx.work / "cache" if ctx.workload.cache else None
    start = time.perf_counter()
    while True:
        gc.collect()
        index = first + len(chains)
        cache = shared
        if tracer is not None:
            tracer.spans.clear()
            if shared is not None:
                cache = ctx.work / f"cache-{index}"
        chain = run_chain(ctx, cli, index, cache, repeat=tracer is None)
        if tracer is not None:
            chain.layers = traced_chain_metrics(ctx, chain, tracer.spans)
            chain.search_ms = [1000.0 * (s[END] - s[START]) for s in tracer.spans
                               if s[NAME] == "evidence_lab.greedy_search"]
        if cache is not None and cache != shared:
            shutil.rmtree(cache)
        chains.append(chain)
        print(f"chain {index}: slowdown {chain.slowdown:.3f}, wall_s {chain.wall_s:.4f}, "
              + ", ".join(f"{k} {statistics.median(v):.4f}" for k, v in chain.seconds.items()))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(chains) > budget:
            return chains


# ----------------------------------------------------------------- metrics


def median_of(chains: list[Chain], fn) -> float:
    return statistics.median(fn(c) for c in chains)


def pass_median(chains: list[Chain], key: str) -> float:
    """Median time of one command over every pass of every chain."""
    return statistics.median(t for c in chains for t in c.seconds[key])


def end_to_end(ctx: Context, chains: list[Chain], setup_s: float) -> dict[str, float]:
    n = len(ctx.samples)
    return {
        "setup_s": setup_s,
        "search_samples_per_s": n / pass_median(chains, "search"),
        "merge_samples_per_s": n / pass_median(chains, "merge"),
        "pipeline_samples_per_s": n / pass_median(chains, "pipeline"),
        "evaluate_samples_per_s": n / pass_median(chains, "evaluate"),
        "loop_wall_s": median_of(chains, lambda c: c.wall_s),
        "loop_cpu_s": median_of(chains, lambda c: c.cpu_s),
        # The first chain is the one that makes the cold pass on cache-rerun.
        "generator_calls_per_sample": chains[0].generator_calls / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


LAYERS = ("cli", "evidence_lab", "feedback", "prompting", "transforms", "table_core", "metrics")

# per-layer timer -> span name(s) it totals
TIMERS = {
    "metrics.reward": ("metrics.eval_reward",),
    "metrics.corpus_evaluate": ("metrics.corpus_evaluate",),
    "transforms.subtable": ("transforms.subtable",),
    "transforms.highlight": ("transforms.highlight",),
    "transforms.linearize": ("transforms.linearize",),
    "table_core.table_build": ("table_core.Table",),
    "prompting.parse": ("prompting.parse_evidence_output",),
    "table_core.load": ("table_core.load_dataset",),
    "feedback.cache_get": ("feedback.ResponseCache.get",),
    "feedback.cache_put": ("feedback.ResponseCache.put",),
    "feedback.echo_generate": ("feedback.echo_oracle_generate",),
    "feedback.http_generate": ("feedback.HttpClient.generate",),
    "cli.wait": ("cli.wait",),
    "cli.write": ("cli.write",),
    "cli.resume_scan": ("cli.existing_ids",),
}
BUILDS = ("prompting.build_highlighter_prompt", "prompting.build_summarizer_prompt",
          "prompting.build_distill_prompt")


def traced_chain_metrics(ctx: Context, chain: Chain, spans: list[tuple]) -> dict[str, float]:
    n = len(ctx.samples)
    totals = span_totals(spans)
    out: dict[str, float] = {}
    for metric, names in TIMERS.items():
        out[metric + "_s"] = sum(totals.wall[x] for x in names)
        out[metric + "_cpu_s"] = sum(totals.cpu[x] for x in names)
    out["metrics.reward_calls"] = totals.count["metrics.eval_reward"]
    out["table_core.tables_built"] = totals.count["table_core.Table"]
    out["prompting.build_self_s"] = sum(totals.self_wall[x] for x in BUILDS)
    out["prompting.build_self_cpu_s"] = sum(totals.self_cpu[x] for x in BUILDS)
    out["evidence_lab.search_self_s"] = totals.self_wall["evidence_lab.greedy_search"]
    out["evidence_lab.search_self_cpu_s"] = totals.self_cpu["evidence_lab.greedy_search"]
    for layer in LAYERS:
        out[f"{layer}.self_s"], out[f"{layer}.self_cpu_s"] = totals.layer_self(layer)

    lookups = totals.count["feedback.ResponseCache.get"]
    hits = sum(1 for s in spans if s[NAME] == "feedback.ResponseCache.get" and s[DETAIL])
    out["feedback.cache_lookups"] = lookups
    out["feedback.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    out["feedback.cache_files"] = chain.cache_files

    http_calls = totals.count["feedback.HttpClient.generate"]
    out["feedback.http_requests"] = chain.server_requests
    out["feedback.http_retried"] = chain.server_requests - http_calls
    out["feedback.http_client_overhead_ms"] = (
        1000.0 * (totals.wall["feedback.HttpClient.generate"] - chain.server_service_s)
        / http_calls if http_calls else 0.0
    )

    kinds = {s[ID]: s[NAME] for s in spans
             if s[NAME] in ("evidence_lab.greedy_search", "evidence_lab.merge_labels")}
    per_search: dict[int, list[tuple[int, ...]]] = {}
    merge_evals = 0
    for s in spans:
        if s[NAME] != "feedback.feedback_reward":
            continue
        kind = kinds.get(s[PARENT])
        if kind == "evidence_lab.greedy_search":
            per_search.setdefault(s[PARENT], []).append(s[DETAIL])
        elif kind == "evidence_lab.merge_labels":
            merge_evals += 1
    evaluations = sum(len(v) for v in per_search.values())
    searched = totals.count["evidence_lab.greedy_search"]
    out["evidence_lab.evaluations_per_row"] = (
        evaluations / (searched * ctx.workload.shape.rows) if searched else 0.0)
    out["evidence_lab.distinct_eval_ratio"] = (
        sum(len(set(v)) for v in per_search.values()) / evaluations if evaluations else 0.0)
    merged = totals.count["evidence_lab.merge_labels"]
    out["evidence_lab.merge_evaluations_per_sample"] = merge_evals / merged if merged else 0.0
    return out


def per_layer(ctx: Context, untraced: list[Chain], traced: list[Chain]) -> dict[str, float]:
    n = len(ctx.samples)
    out = {name: statistics.median(c.layers[name] for c in traced) for name in traced[0].layers}
    search_ms = [ms for c in traced for ms in c.search_ms]
    out["evidence_lab.search_sample_ms_p50"] = percentile(search_ms, 50)
    out["evidence_lab.search_sample_ms_p99"] = percentile(search_ms, 99)
    out["evidence_lab.search_samples"] = len(search_ms)
    out["evidence_lab.planted_recovered_ratio"] = ctx.recovered
    out["bench.tracing_overhead_s"] = (
        median_of(traced, lambda c: c.wall_s) - median_of(untraced, lambda c: c.wall_s))
    cold = untraced[0]  # on cache-rerun, the chain that filled the shared cache
    cache = ctx.workload.cache
    out["cli.cold_search_samples_per_s"] = n / cold.seconds["cold_search"][0] if cache else 0.0
    out["cli.cold_pipeline_samples_per_s"] = (
        n / cold.seconds["cold_pipeline"][0] if cache else 0.0)
    out["feedback.cache_disk_mb"] = cold.cache_bytes / 2**20
    # Traced chains run each command once, so they count one chain's requests.
    out["loopback.http_requests_per_sample"] = median_of(
        traced, lambda c: c.server_requests / n)
    out["cli.failed_ops_ratio"] = ctx.failed / ctx.attempted
    return out


# -------------------------------------------------------------------- main


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="tablehelm benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cli():
    if not (SRC / "tablehelm" / "cli.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tablehelm.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "tablehelm":
        print(f"error: imported tablehelm from {cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return cli


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    cli = import_cli()
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    server = None
    correct = True
    ctx = None
    metrics: dict[str, float] = {}
    try:
        setup_s, data, samples, server, port = set_up(workload, args.seed, work)
        ctx = Context(workload, work, data, samples, port)
        if args.trace == 0:
            chains = run_chains(ctx, cli, args.seconds, 0)
            metrics = end_to_end(ctx, chains, setup_s)
            print(f"{workload.name}: {len(chains)} chains of {len(samples)} samples,"
                  f" median slowdown {median_of(chains, lambda c: c.slowdown):.3f}")
        else:
            untraced = run_chains(ctx, cli, args.seconds / 2, 0)
            tracer = Tracer()
            with patched(tracer):
                traced = run_chains(ctx, cli, args.seconds / 2, len(untraced), tracer)
            spans_path = WORK / f"spans-{workload.name}.jsonl.gz"
            write_spans(spans_path, tracer.spans)
            metrics = per_layer(ctx, untraced, traced)
            print(f"{workload.name}: {len(untraced)} untraced and {len(traced)} traced"
                  f" chains of {len(samples)} samples; spans of the last -> {spans_path}")
            print(f"loop_wall_s untraced {median_of(untraced, lambda c: c.wall_s):.4f}"
                  f" traced {median_of(traced, lambda c: c.wall_s):.4f}")
        if workload.http:
            check_http_matches_echo(ctx, cli)
        check(ctx.failed == 0, f"{ctx.failed} of {ctx.attempted} sample operations failed")
        print(f"check: planted sets recovered {ctx.recovered:.4f} (floor {PLANTED_FLOOR})")
    except CheckFailed as exc:
        correct = False
        print(f"CHECK FAILED: {exc}")
    finally:
        if server is not None:
            stop_server(server)
        shutil.rmtree(work, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if correct and set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match"
              " BENCHMARK.json", file=sys.stderr)
        return 2
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": max(ctx.attempted if ctx else 0, 1),
        "failed": ctx.failed if ctx else 0,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
