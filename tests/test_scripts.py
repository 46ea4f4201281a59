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
