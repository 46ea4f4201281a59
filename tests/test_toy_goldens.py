"""The label chain on data/toy.jsonl writes the committed bytes.

`tests/goldens/toy_search.jsonl`, `toy_search_trace.jsonl` and
`toy_merge.jsonl` are the outputs of `search-labels --trace` and
`merge-labels` with the echo oracle (the distiller answers "{1}", as in
`scripts/run_toy_pipeline.sh`). They pin every label, every trace candidate
with its reward, and every merge reward byte for byte, so a faster search,
prompt or reward must give exactly the same answers. They are never
regenerated to make a change pass.
"""

from __future__ import annotations

from pathlib import Path

import tablehelm.cli as cli

ROOT = Path(__file__).resolve().parent.parent
TOY = ROOT / "data" / "toy.jsonl"
GOLDENS = ROOT / "tests" / "goldens"


def test_the_toy_label_chain_matches_its_goldens(tmp_path, capsys):
    search, trace = tmp_path / "search.jsonl", tmp_path / "search_trace.jsonl"
    distill, merge = tmp_path / "distill.jsonl", tmp_path / "merge.jsonl"
    argvs = [
        ["search-labels", TOY, search, "--trace", trace],
        ["distill-labels", TOY, distill, "--distill-endpoint", "fixed:{1}"],
        ["merge-labels", TOY, merge, "--labels", search, "--labels", distill],
    ]
    for argv in argvs:
        assert cli.main([str(a) for a in argv]) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert "oracle evaluations 86, generator calls 86" in stdout
    assert "merged 10/10 samples (0 skipped); generator calls 18" in stdout
    for name, path in (("toy_search.jsonl", search), ("toy_search_trace.jsonl", trace),
                       ("toy_merge.jsonl", merge)):
        assert path.read_bytes() == (GOLDENS / name).read_bytes(), name
