"""Check that every given Python interpreter writes the same bytes.

Each interpreter runs, with this checkout's package, on inputs generated
once by the interpreter that runs this script:

- the toy chain on data/toy.jsonl: search-labels with --trace and a fresh
  response cache, the same search again on that cache (warm: it must make
  no generator call), distill-labels, merge-labels, both export-train
  roles, pipeline and evaluate, every role on the offline oracles;
- evaluate over 3,000 seeded random (prediction, reference) pairs;
- search-labels with --trace over 300 planted 20x4 tables (the shape of the
  benchmark's echo-loop workload);
- the toy search-labels again, against a chat-completions server on
  127.0.0.1 (a stdlib ThreadingHTTPServer with benchmark/loopback.py's
  handler) that answers each feedbacker prompt with echo_oracle_generate,
  so that every interpreter runs the package's HTTP client: its labels
  must be the echo search's, byte for byte;
- the toy pipeline at --workers 2 with the highlighter and the summarizer
  on that server, which answers the highlighter with "{1}" and the
  summarizer as the echo oracle does: HTTP clients can wait on calls side
  by side, so its samples run on the thread pool, and its predictions must
  be those of an offline pipeline with a fixed:{1} highlighter, byte for
  byte. These two are compared with each other, not digested.

Each interpreter runs in development mode (-X dev) with ResourceWarning
made an error, so a file, socket or database connection left unclosed fails
the run.

It prints one SHA-256 digest per output, and exits 1 when an output's
digests differ between interpreters (each interpreter's digest is printed
then) and 2 when an interpreter fails to run the chain, a warm rerun calls
a generator, an HTTP run's output differs from its offline twin's, or an
exception is raised where no caller can catch it (a finalizer's, or the
ResourceWarning of an unclosed resource). The interpreters need only the
standard library.

Usage: python scripts/check_interpreters.py [--work DIR] [INTERPRETER ...]
(default: the interpreter running the script), for example
python scripts/check_interpreters.py ~/.pyenv/versions/3.1[0-3]*/bin/python
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EVALUATE_PAIRS = 3000
SEARCH_TABLES = 300
SEED = 8

# Outputs of a rerun on a warm response cache: their commands must report
# "generator calls 0".
WARM_RUNS = ("toy-search-warm.jsonl",)

# Each run over HTTP, and the offline run whose output it must equal.
HTTP_TWINS = {
    "toy-search-http.jsonl": "toy-search.jsonl",
    "toy-pipeline-http.jsonl": "toy-pipeline-fixed.jsonl",
}

# Outputs checked only against their twin.
UNDIGESTED = ("toy-pipeline-http.jsonl", "toy-pipeline-fixed.jsonl")

# The evaluate inputs draw from a small vocabulary, so that hypotheses and
# references share and repeat words and every score column is non-trivial.
VOCABULARY = [f"w{i}" for i in range(40)] + [",", ".", "the", "of"]


def write_inputs(work: Path) -> None:
    """The 3,000-pair evaluate inputs and the 300-table search input."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    from workload import Shape, make_samples, write_jsonl

    rng = random.Random(SEED)

    def words() -> str:
        return " ".join(rng.choices(VOCABULARY, k=rng.randint(1, 20)))

    with open(work / "pairs.jsonl", "w", encoding="utf-8") as data, open(
        work / "pairs-predictions.jsonl", "w", encoding="utf-8"
    ) as predictions:
        for i in range(EVALUATE_PAIRS):
            sample_id = f"pair-{i:04d}"
            record = {
                "id": sample_id,
                "title": "",
                "header": ["h"],
                "rows": [["c"]],
                "query": "q",
                "reference": words(),
                "evidence": None,
            }
            data.write(json.dumps(record) + "\n")
            predictions.write(json.dumps({"id": sample_id, "prediction": words()}) + "\n")
    shape = Shape(samples=SEARCH_TABLES, rows=20, cols=4, planted_min=2, planted_max=4,
                  manual_share=0.3)
    write_jsonl(work / "tables.jsonl", make_samples(shape, SEED, "interpreters"))


def chain(work: Path, endpoint: str) -> dict[str, list[str]]:
    """Output name -> the command that writes it, the toy chain first;
    `endpoint` is the server of the HTTP runs."""
    toy = str(ROOT / "data" / "toy.jsonl")
    roles = ["--highlighter-endpoint", "echo", "--summarizer-endpoint", "echo",
             "--distill-endpoint", "fixed:{1}"]

    def path(name: str) -> str:
        return str(work / name)

    commands = {
        "toy-search.jsonl": ["search-labels", toy, path("toy-search.jsonl"),
                             "--trace", path("toy-trace.jsonl"),
                             "--cache-dir", path("cache")],
        "toy-search-warm.jsonl": ["search-labels", toy, path("toy-search-warm.jsonl"),
                                  "--cache-dir", path("cache")],
        "toy-distill.jsonl": ["distill-labels", toy, path("toy-distill.jsonl")],
        "toy-merged.jsonl": ["merge-labels", toy, path("toy-merged.jsonl"),
                             "--labels", path("toy-search.jsonl"),
                             "--labels", path("toy-distill.jsonl")],
        "toy-train-highlighter.jsonl": ["export-train", toy, path("toy-merged.jsonl"),
                                        path("toy-train-highlighter.jsonl"),
                                        "--role", "highlighter"],
        "toy-train-summarizer.jsonl": ["export-train", toy, path("toy-merged.jsonl"),
                                       path("toy-train-summarizer.jsonl"),
                                       "--role", "summarizer"],
        "toy-predictions.jsonl": ["pipeline", toy, path("toy-predictions.jsonl")],
        "toy-scores.json": ["evaluate", path("toy-predictions.jsonl"), toy,
                            "--report", path("toy-scores.json")],
        "pairs-scores.json": ["evaluate", path("pairs-predictions.jsonl"),
                              path("pairs.jsonl"), "--report", path("pairs-scores.json")],
        "tables-search.jsonl": ["search-labels", path("tables.jsonl"),
                                path("tables-search.jsonl"),
                                "--trace", path("tables-trace.jsonl")],
    }
    runs = {name: argv + ["--feedbacker-endpoint", "echo"] + roles
            for name, argv in commands.items()}
    runs["toy-search-http.jsonl"] = ["search-labels", toy, path("toy-search-http.jsonl"),
                                     "--feedbacker-endpoint", endpoint] + roles
    runs["toy-pipeline-http.jsonl"] = ["pipeline", toy, path("toy-pipeline-http.jsonl"),
                                       "--workers", "2", "--highlighter-endpoint", endpoint,
                                       "--summarizer-endpoint", endpoint]
    runs["toy-pipeline-fixed.jsonl"] = ["pipeline", toy, path("toy-pipeline-fixed.jsonl"),
                                        "--highlighter-endpoint", "fixed:{1}"]
    return runs


@contextlib.contextmanager
def echo_server():
    """The benchmark's loopback chat-completions server, on 127.0.0.1 with
    no delay: it answers each highlighter (and distill) prompt with "{1}" and
    every other one with `echo_oracle_generate`. Yields its endpoint."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    from loopback import Counters, make_handler
    from tablehelm.feedback import echo_oracle_generate

    server = ThreadingHTTPServer(("127.0.0.1", 0),
                                 make_handler(Counters(), 0.0, echo_oracle_generate))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


# What `write_inputs` writes; each run copies them, and every other file it
# leaves is an output (the cache is a directory).
INPUTS = ("pairs.jsonl", "pairs-predictions.jsonl", "tables.jsonl")


def exit_on_unraisable(unraisable) -> None:
    """Report an exception that no caller can catch, such as the
    ResourceWarning of a resource collected unclosed, and exit 2 at once,
    also when it comes at shutdown."""
    sys.__unraisablehook__(unraisable)
    sys.stderr.flush()
    os._exit(2)


def run_child(inputs: Path, out: Path) -> int:
    """Run the chain with this interpreter into `out`; print a JSON object
    of output name -> digest."""
    sys.unraisablehook = exit_on_unraisable
    sys.path.insert(0, str(ROOT / "src"))
    from tablehelm import cli

    for name in INPUTS:
        (out / name).write_bytes((inputs / name).read_bytes())
    with echo_server() as endpoint:
        for name, argv in chain(out, endpoint).items():
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main(argv)
            if code != 0:
                print(f"{name}: exit {code}", file=sys.stderr)
                return 2
            if name in WARM_RUNS and "generator calls 0" not in printed.getvalue():
                print(f"{name}: the warm rerun said {printed.getvalue()!r}", file=sys.stderr)
                return 2
    for http_run, twin in HTTP_TWINS.items():
        if (out / http_run).read_bytes() != (out / twin).read_bytes():
            print(f"{http_run}: its output differs from {twin}", file=sys.stderr)
            return 2
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.is_file() and path.name not in INPUTS + UNDIGESTED
    }
    print(json.dumps(digests))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("interpreters", nargs="*", default=[sys.executable])
    parser.add_argument("--work", type=Path, help="keep inputs and outputs here")
    parser.add_argument("--child", nargs=2, type=Path, metavar=("INPUTS", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return run_child(*args.child)

    with contextlib.ExitStack() as stack:
        work = args.work or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        work.mkdir(parents=True, exist_ok=True)
        write_inputs(work)
        digests: dict[str, dict[str, str]] = {}
        for k, interpreter in enumerate(args.interpreters):
            out = work / f"run-{k}"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            result = subprocess.run(
                [interpreter, "-X", "dev", "-W", "error::ResourceWarning",
                 str(Path(__file__).resolve()), "--child", str(work), str(out)],
                capture_output=True, text=True,
            )
            if result.returncode != 0:
                print(f"{interpreter}: failed\n{result.stderr}", file=sys.stderr)
                return 2
            digests[interpreter] = json.loads(result.stdout.splitlines()[-1])

    differ = False
    for name in sorted(set().union(*digests.values())):
        seen = {run.get(name) for run in digests.values()}
        if len(seen) == 1:
            print(f"{seen.pop()}  {name}")
            continue
        differ = True
        print(f"DIFFERS  {name}")
        for interpreter, run in digests.items():
            print(f"  {run.get(name, 'missing')}  {interpreter}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
