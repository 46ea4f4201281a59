"""The bundled scripts still run and reproduce what the repository ships."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def script_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # run_toy_pipeline.sh calls `python3`: make that this interpreter.
    env["PATH"] = os.pathsep.join([str(Path(sys.executable).parent), env.get("PATH", "")])
    return env


def test_make_toy_dataset_reproduces_the_bundled_file(tmp_path):
    out = tmp_path / "toy.jsonl"
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_toy_dataset.py"), str(out)],
        env=script_env(),
        check=True,
        capture_output=True,
        timeout=120,
    )
    assert out.read_bytes() == (ROOT / "data" / "toy.jsonl").read_bytes()


def test_toy_pipeline_runs_end_to_end(tmp_path):
    result = subprocess.run(
        ["bash", str(ROOT / "scripts" / "run_toy_pipeline.sh"), str(tmp_path)],
        env=script_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    artifacts = {
        "dataset.jsonl",
        "search.jsonl",
        "search_trace.jsonl",
        "distill.jsonl",
        "merged.jsonl",
        "train_highlighter.jsonl",
        "train_summarizer.jsonl",
        "predictions.jsonl",
        "scores.json",
        "cache",
    }
    assert artifacts <= {path.name for path in tmp_path.iterdir()}
    assert (tmp_path / "predictions.jsonl").read_text("utf-8").count("\n") == 10


def test_check_interpreters_gives_one_digest_per_output(tmp_path):
    # Only this interpreter here: the others a machine has may lack the
    # test dependencies, and one interpreter must agree with itself.
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_interpreters.py"),
         "--work", str(tmp_path), sys.executable],
        env=script_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    names = [line.split("  ")[1] for line in lines]
    assert set(names) == {
        "toy-search.jsonl", "toy-search-warm.jsonl", "toy-trace.jsonl",
        "toy-distill.jsonl", "toy-merged.jsonl",
        "toy-train-highlighter.jsonl", "toy-train-summarizer.jsonl",
        "toy-predictions.jsonl", "toy-scores.json", "pairs-scores.json",
        "tables-search.jsonl", "tables-trace.jsonl", "toy-search-http.jsonl",
    }
    assert all(len(line.split("  ")[0]) == 64 for line in lines)
    # The toy chain it runs is the one the goldens pin.
    for output, golden in (
        ("toy-search.jsonl", "toy_search.jsonl"),
        ("toy-search-warm.jsonl", "toy_search.jsonl"),
        ("toy-search-http.jsonl", "toy_search.jsonl"),
        ("toy-trace.jsonl", "toy_search_trace.jsonl"),
        ("toy-merged.jsonl", "toy_merge.jsonl"),
        ("toy-scores.json", "toy_scores.json"),
    ):
        expected = (ROOT / "tests" / "goldens" / golden).read_bytes()
        assert (tmp_path / "run-0" / output).read_bytes() == expected, output
