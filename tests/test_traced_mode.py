"""The benchmark's traced mode runs the commands and leaves their output as is.

`benchmark/spans.py` swaps names the package looks up (for example
`tablehelm.transforms.Table`) for plain functions that record a span around
each call. Code that uses such a name for anything but a call, say a
classmethod reached through `Table`, works untraced and fails only there.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import tablehelm.cli as cli

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "benchmark" / "spans.py"
TOY = ROOT / "data" / "toy.jsonl"


@pytest.fixture(scope="module")
def spans():
    if not SPANS.exists():
        pytest.skip("benchmark/spans.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_commands(out_dir: Path, capsys) -> tuple[list[int], str, list[bytes]]:
    out_dir.mkdir()
    search, trace, pred = (out_dir / name for name in ("search", "trace", "pred"))
    codes = [
        cli.main(["search-labels", str(TOY), str(search), "--trace", str(trace)]),
        cli.main(["pipeline", str(TOY), str(pred)]),
    ]
    stdout = capsys.readouterr().out
    return codes, stdout, [path.read_bytes() for path in (search, trace, pred)]


def test_traced_commands_write_what_untraced_ones_write(spans, tmp_path, capsys):
    plain_codes, plain_stdout, plain_files = run_commands(tmp_path / "plain", capsys)
    tracer = spans.Tracer()
    with spans.patched(tracer):
        codes, stdout, files = run_commands(tmp_path / "traced", capsys)
    assert plain_codes == codes == [0, 0]
    assert stdout == plain_stdout
    assert files == plain_files
    names = {span[spans.NAME] for span in tracer.spans}
    assert {"cli.main", "evidence_lab.greedy_search", "transforms.highlight",
            "transforms.subtable", "metrics.eval_reward"} <= names
