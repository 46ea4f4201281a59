"""The benchmark's traced mode runs the commands and leaves their output as is.

`benchmark/spans.py` swaps names the package looks up (for example
`tablehelm.transforms.Table`) for plain functions that record a span around
each call. Code that uses such a name for anything but a call, say a
classmethod reached through `Table`, works untraced and fails only there.

Some wrappers also read arguments by position: the sample of
`greedy_search` and `distill_one` (first) and of `merge_labels` (second),
and the evidence of `feedback_reward` (second). A reordered signature would
skew the per-layer metrics without failing a command, so the spans those
positions feed are checked too.
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

import tablehelm.cli as cli
import tablehelm.evidence_lab as evidence_lab
import tablehelm.table_core as table_core

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
    names = ("search", "trace", "distill", "merge", "pred")
    search, trace, distill, merge, pred = (out_dir / name for name in names)
    codes = [
        cli.main(["search-labels", str(TOY), str(search), "--trace", str(trace)]),
        cli.main(["distill-labels", str(TOY), str(distill), "--distill-endpoint", "fixed:{1, 2}"]),
        cli.main(["merge-labels", str(TOY), str(merge),
                  "--labels", str(search), "--labels", str(distill)]),
        cli.main(["pipeline", str(TOY), str(pred)]),
    ]
    stdout = capsys.readouterr().out
    return codes, stdout, [(out_dir / name).read_bytes() for name in names]


def test_traced_commands_write_what_untraced_ones_write(spans, tmp_path, capsys):
    plain_codes, plain_stdout, plain_files = run_commands(tmp_path / "plain", capsys)
    tracer = spans.Tracer()
    with spans.patched(tracer):
        codes, stdout, files = run_commands(tmp_path / "traced", capsys)
    assert plain_codes == codes == [0, 0, 0, 0]
    assert stdout == plain_stdout
    assert files == plain_files
    names = {span[spans.NAME] for span in tracer.spans}
    assert {"cli.main", "evidence_lab.greedy_search", "transforms.highlight",
            "transforms.linearize", "metrics.eval_reward"} <= names

    sample_ids = {json.loads(line)["id"] for line in TOY.read_text("utf-8").splitlines()}
    for name in ("evidence_lab.greedy_search", "evidence_lab.distill_one",
                 "evidence_lab.merge_labels"):
        samples = {s[spans.SAMPLE] for s in tracer.spans if s[spans.NAME] == name}
        assert samples == sample_ids, name
    details = [s[spans.DETAIL] for s in tracer.spans
               if s[spans.NAME] == "feedback.feedback_reward"]
    assert details
    for detail in details:
        assert isinstance(detail, tuple) and detail
        assert all(isinstance(i, int) and i >= 1 for i in detail)


def test_loader_builds_each_table_through_the_traced_name(spans):
    # `table_core.tables_built` and `table_core.table_build_s` count the
    # `table_core.Table` spans. A loader that built its tables any other way
    # would still load, and those metrics would drop without a failure.
    tracer = spans.Tracer()
    with spans.patched(tracer):
        dataset, report = table_core.load_dataset(TOY, strict=True)
    assert report.ok and len(dataset) > 0
    builds = [s for s in tracer.spans if s[spans.NAME] == "table_core.Table"]
    assert len(builds) == len(dataset)


# Every hop of one reward evaluation on the search path, by span name. Each
# wraps a name looked up in its caller's module, so a caller that bypassed
# it would leave its per-layer metrics short without failing anything.
SEARCH_HOPS = (
    "feedback.feedback_reward",
    "feedback.echo_oracle_generate",
    "metrics.eval_reward",
)
# Traced rendering hops that a search does not take: it renders each table
# once (`render_table`) and joins every evaluation's prompt from that.
UNUSED_HOPS = (
    "transforms.subtable",
    "prompting.build_summarizer_prompt",
    "transforms.linearize",
)


@pytest.fixture
def renders(monkeypatch):
    """The tables `evidence_lab` renders, one entry per `render_table` call."""
    rendered = []
    original = evidence_lab.render_table

    def counting(table):
        rendered.append(table)
        return original(table)

    monkeypatch.setattr(evidence_lab, "render_table", counting)
    return rendered


def hop_counts(spans, tracer) -> dict[str, int]:
    counts = dict.fromkeys(SEARCH_HOPS + UNUSED_HOPS, 0)
    for span in tracer.spans:
        if span[spans.NAME] in counts:
            counts[span[spans.NAME]] += 1
    return counts


def test_every_search_evaluation_passes_each_traced_hop(spans, renders, tmp_path, capsys):
    tracer = spans.Tracer()
    with spans.patched(tracer):
        code = cli.main(["search-labels", str(TOY), str(tmp_path / "search.jsonl"),
                         "--cache-dir", ""])
    stdout = capsys.readouterr().out
    assert code == 0
    evaluations = int(re.search(r"oracle evaluations (\d+)", stdout).group(1))
    dataset, _ = table_core.load_dataset(TOY, strict=True)
    assert evaluations == 2 * sum(sample.table.n_rows for sample in dataset) == 86
    expected = dict.fromkeys(SEARCH_HOPS, evaluations) | dict.fromkeys(UNUSED_HOPS, 0)
    assert hop_counts(spans, tracer) == expected
    assert renders == [sample.table for sample in dataset]


def test_a_warm_search_passes_each_traced_hop_but_the_oracle(
    spans, renders, tmp_path, capsys
):
    # With a warm cache every prompt is served from the search's one scope
    # read, not through `ResponseCache.get`; each evaluation must still pass
    # `feedback_reward` and score its text through the traced names.
    cache = str(tmp_path / "cache")
    assert cli.main(["search-labels", str(TOY), str(tmp_path / "cold.jsonl"),
                     "--cache-dir", cache]) == 0
    capsys.readouterr()
    renders.clear()
    tracer = spans.Tracer()
    with spans.patched(tracer):
        code = cli.main(["search-labels", str(TOY), str(tmp_path / "warm.jsonl"),
                         "--cache-dir", cache])
    stdout = capsys.readouterr().out
    assert code == 0
    evaluations = int(re.search(r"oracle evaluations (\d+)", stdout).group(1))
    assert evaluations == 86
    expected = dict.fromkeys(SEARCH_HOPS, evaluations) | dict.fromkeys(UNUSED_HOPS, 0)
    expected["feedback.echo_oracle_generate"] = 0
    assert hop_counts(spans, tracer) == expected
    assert len(renders) == 10
    assert (tmp_path / "warm.jsonl").read_bytes() == (tmp_path / "cold.jsonl").read_bytes()
