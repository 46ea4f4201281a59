"""End-to-end command tests, run in process through cli.main."""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

import support
import tablehelm.cli as cli
from tablehelm.cli import EXIT_BACKEND, EXIT_OK, EXIT_PARTIAL, EXIT_VALIDATION
from tablehelm.config import RunConfig
from tablehelm.errors import AuthError, SchemaError, TransportError
from tablehelm.evidence_lab import LabeledSample, load_labels
from tablehelm.feedback import EchoClient, FixedClient, HttpClient
from tablehelm.table_core import Evidence, serialize_sample

TOY = Path(__file__).resolve().parent.parent / "data" / "toy.jsonl"


class FailingClient:
    model_id = "failing"

    def generate(self, prompt, cfg):
        raise TransportError("scripted outage")


class AuthFailingClient:
    model_id = "locked-out"

    def generate(self, prompt, cfg):
        raise AuthError("HTTP 401 from nowhere")


class SequenceClient:
    """Returns scripted outputs in call order."""

    model_id = "scripted"

    def __init__(self, outputs) -> None:
        self.outputs = list(outputs)

    def generate(self, prompt, cfg):
        return self.outputs.pop(0)


@pytest.fixture
def two_planted(tmp_path):
    """Canonical dataset file with two planted samples, plus their evidence."""
    first, first_planted = support.planted_sample("cli-1", 3, 2, (2,), manual=True)
    second, second_planted = support.planted_sample(
        "cli-2", 4, 2, (1, 3), salt="zz", manual=True
    )
    path = tmp_path / "data.jsonl"
    support.write_dataset(path, [first, second])
    return path, (first, first_planted), (second, second_planted)


def run_cli(argv, capsys):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMakeClient:
    def test_echo(self):
        assert isinstance(cli.make_client("echo", "m", RunConfig()), EchoClient)

    def test_fixed_keeps_everything_after_the_prefix(self):
        client = cli.make_client("fixed:{1, 3}", "m", RunConfig())
        assert isinstance(client, FixedClient)
        assert client.text == "{1, 3}"
        assert cli.make_client("fixed:", "m", RunConfig()).text == ""

    def test_http_carries_run_settings(self):
        run = RunConfig(timeout=7.0, max_attempts=2)
        client = cli.make_client("https://api.test/v1", "model-x", run)
        assert isinstance(client, HttpClient)
        assert client.endpoint == "https://api.test/v1"
        assert client.model_id == "model-x"
        assert client.timeout == 7.0
        assert client.max_attempts == 2

    def test_unsupported_scheme_is_rejected(self):
        with pytest.raises(SchemaError):
            cli.make_client("ftp://files", "m", RunConfig())


def source_record(fmt: str, number: int, rows: list) -> dict:
    """A FeTaQA or QTSumm release record over a two-column table."""
    if fmt == "fetaqa":
        return {
            "feta_id": number,
            "table_array": [["Year", "Team"], *rows],
            "question": "Who won?",
            "answer": "Ajax won.",
        }
    return {
        "example_id": str(number),
        "table": {"header": ["Year", "Team"], "rows": rows},
        "query": "Who won?",
        "summary": "Ajax won.",
    }


class TestIngest:
    def test_round_trip(self, two_planted, tmp_path, capsys):
        data, _, _ = two_planted
        out = tmp_path / "canonical.jsonl"
        code, stdout, stderr = run_cli(["ingest", data, out], capsys)
        assert code == EXIT_OK
        assert stdout.strip() == f"ingested 2 samples -> {out}"
        assert stderr == ""
        assert len(out.read_text("utf-8").splitlines()) == 2

    def test_lenient_mode_reports_bad_lines(self, tmp_path, capsys):
        sample, _ = support.planted_sample("ok-1", 3, 2, (1,))
        data = tmp_path / "mixed.jsonl"
        support.write_dataset(data, [sample])
        with open(data, "a", encoding="utf-8") as handle:
            handle.write("{broken json\n")
        out = tmp_path / "out.jsonl"
        code, stdout, stderr = run_cli(["ingest", data, out], capsys)
        assert code == EXIT_OK
        assert "ingested 1 samples" in stdout
        assert stderr.startswith("line 2:")

    def test_strict_mode_fails_fast(self, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        data.write_text("{broken json\n", encoding="utf-8")
        code, _, stderr = run_cli(
            ["ingest", data, tmp_path / "out.jsonl", "--strict"], capsys
        )
        assert code == EXIT_VALIDATION
        assert "error:" in stderr

    def test_a_line_of_invalid_utf8_is_reported_and_skipped(self, tmp_path, capsys):
        first, _ = support.planted_sample("ok-1", 3, 2, (1,))
        second, _ = support.planted_sample("ok-2", 3, 2, (1,))
        data = tmp_path / "mixed.jsonl"
        support.write_dataset(data, [first, second])
        good = data.read_bytes().splitlines(keepends=True)
        data.write_bytes(good[0] + b"\xff\xfe\n" + good[1])
        out = tmp_path / "out.jsonl"
        code, stdout, stderr = run_cli(["ingest", data, out], capsys)
        assert code == EXIT_OK
        assert stdout.strip() == f"ingested 2 samples -> {out}"
        assert stderr == "line 2: not valid UTF-8\n"
        assert out.read_bytes() == good[0] + good[1]

        strict_out = tmp_path / "strict.jsonl"
        code, _, stderr = run_cli(["ingest", data, strict_out, "--strict"], capsys)
        assert code == EXIT_VALIDATION
        assert stderr == f"error: SchemaError: {data}, line 2: not valid UTF-8\n"
        assert not strict_out.exists()

    def test_empty_result_is_a_validation_failure(self, tmp_path, capsys):
        data = tmp_path / "empty.jsonl"
        data.write_text("", encoding="utf-8")
        code, stdout, stderr = run_cli(
            ["ingest", data, tmp_path / "out.jsonl"], capsys
        )
        assert code == EXIT_VALIDATION
        assert "ingested 0 samples" in stdout
        assert "warning:" in stderr

    def test_fetaqa_format(self, tmp_path, capsys):
        record = {
            "feta_id": 11,
            "table_array": [["Year", "Team"], ["1999", "Ajax"], ["2000", "PSV"]],
            "table_page_title": "Eredivisie",
            "table_section_title": "Champions",
            "question": "Who won in 2000?",
            "answer": "PSV won in 2000.",
            "highlighted_cell_ids": [[2, 0]],
        }
        data = tmp_path / "feta.jsonl"
        data.write_text(json.dumps(record) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        code, stdout, _ = run_cli(
            ["ingest", data, out, "--format", "fetaqa"], capsys
        )
        assert code == EXIT_OK
        assert "ingested 1 samples" in stdout
        parsed = json.loads(out.read_text("utf-8"))
        assert parsed["id"] == "11"
        assert parsed["title"] == "Eredivisie - Champions"

    @pytest.mark.parametrize("fmt", ["fetaqa", "qtsumm"])
    def test_source_rows_that_are_not_lists_are_reported_per_line(
        self, fmt, tmp_path, capsys
    ):
        good = source_record(fmt, 1, [["1999", "Ajax"]])
        bad = [source_record(fmt, 2, ["xy"]), source_record(fmt, 3, [7])]
        data = tmp_path / "source.jsonl"
        data.write_text(
            "".join(json.dumps(r) + "\n" for r in [good, *bad]), encoding="utf-8"
        )
        out = tmp_path / "out.jsonl"
        code, stdout, stderr = run_cli(["ingest", data, out, "--format", fmt], capsys)
        assert code == EXIT_OK
        assert stdout.strip() == f"ingested 1 samples -> {out}"
        assert stderr.splitlines() == [
            "line 2: row 1 is not a list",
            "line 3: row 1 is not a list",
        ]
        expected = {
            "id": "1",
            "title": "",
            "header": ["Year", "Team"],
            "rows": [["1999", "Ajax"]],
            "query": "Who won?",
            "reference": "Ajax won.",
            "evidence": None,
        }
        assert out.read_text("utf-8") == json.dumps(expected) + "\n"
        for record in bad:
            data.write_text(json.dumps(record) + "\n", encoding="utf-8")
            strict_out = tmp_path / "strict.jsonl"
            code, _, stderr = run_cli(
                ["ingest", data, strict_out, "--format", fmt, "--strict"], capsys
            )
            assert code == EXIT_VALIDATION
            assert stderr == f"error: SchemaError: {data}, line 1: row 1 is not a list\n"
            assert not strict_out.exists()

    def test_line_separators_inside_strings_survive_a_second_ingest(
        self, tmp_path, capsys
    ):
        sample, _ = support.planted_sample("sep-1", 3, 2, (1,))
        record = serialize_sample(sample)
        record["title"] = "Sea\u2028sons\u2029of\u0085play"
        record["query"] = "first\u2028second\u2029third\u0085?"
        record["reference"] += " \u2029end\u0085"
        data = tmp_path / "escaped.jsonl"
        data.write_text(json.dumps(record) + "\n", encoding="utf-8")
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        assert run_cli(["ingest", data, first], capsys) == (
            EXIT_OK, f"ingested 1 samples -> {first}\n", ""
        )
        assert run_cli(["ingest", first, second], capsys) == (
            EXIT_OK, f"ingested 1 samples -> {second}\n", ""
        )
        assert "\u2028" in first.read_text("utf-8")
        assert first.read_bytes() == second.read_bytes()
        parsed = json.loads(second.read_text("utf-8"))
        assert parsed["query"] == record["query"]
        assert parsed["reference"] == record["reference"]
        assert parsed["title"] == "Sea sons of play"


class TestMapOrdered:
    def test_results_keep_input_order_past_the_window(self):
        def work(item):
            if item % 7 == 3:
                raise ValueError(f"bad {item}")
            time.sleep(0.001 * (item % 3))
            return item * item

        seen = list(cli.map_ordered(work, list(range(25)), workers=2))
        assert [item for item, _, _ in seen] == list(range(25))
        for item, result, exc in seen:
            if item % 7 == 3:
                assert result is None and str(exc) == f"bad {item}"
            else:
                assert result == item * item and exc is None

    def test_auth_failure_starts_no_more_than_the_window(self):
        started = []
        lock = threading.Lock()

        def work(item):
            with lock:
                started.append(item)
            if item == 0:
                time.sleep(0.05)
                raise AuthError("HTTP 401 from nowhere")
            return item

        with pytest.raises(AuthError):
            list(cli.map_ordered(work, list(range(200)), workers=2))
        assert 0 < len(started) <= cli.WINDOW_PER_WORKER * 2


class TestNonFiniteSettings:
    @pytest.mark.parametrize(
        "argv",
        [
            ["search-labels", "--timeout", "nan"],
            ["search-labels", "--timeout", "inf"],
            ["search-labels", "--feedbacker-temperature", "nan"],
            ["pipeline", "--summarizer-temperature", "inf"],
            ["pipeline", "--highlighter-temperature", "nan"],
        ],
    )
    def test_exit_2_before_any_output_is_written(self, argv, two_planted, tmp_path, capsys):
        data, _, _ = two_planted
        out = tmp_path / "out.jsonl"
        command, *flags = argv
        code, stdout, stderr = run_cli([command, data, out, *flags], capsys)
        assert code == EXIT_VALIDATION
        assert stdout == ""
        assert "finite" in stderr
        assert not out.exists()


class TestSearchLabels:
    def test_labels_and_counts(self, two_planted, tmp_path, capsys):
        data, (first, first_planted), (second, second_planted) = two_planted
        out = tmp_path / "search.jsonl"
        code, stdout, stderr = run_cli(["search-labels", data, out], capsys)
        assert code == EXIT_OK
        assert stderr == ""
        assert stdout.strip() == (
            "searched 2/2 samples (skipped 0 already labeled);"
            " oracle evaluations 14, generator calls 14"
        )
        labels = load_labels(out)
        assert labels["cli-1"].e_search == first_planted
        assert labels["cli-2"].e_search == second_planted
        assert labels["cli-1"].e_manual == first.manual_evidence
        assert dict(labels["cli-1"].merge_rewards) == {"search": 1.0}
        assert labels["cli-1"].flags == ()

    def test_rerun_resumes_from_the_output_file(self, two_planted, tmp_path, capsys):
        data, _, _ = two_planted
        out = tmp_path / "search.jsonl"
        run_cli(["search-labels", data, out], capsys)
        code, stdout, _ = run_cli(["search-labels", data, out], capsys)
        assert code == EXIT_OK
        assert stdout.strip() == (
            "searched 0/0 samples (skipped 2 already labeled);"
            " oracle evaluations 0, generator calls 0"
        )

    def test_rerun_after_a_torn_last_record_relabels_it(
        self, two_planted, tmp_path, capsys
    ):
        data, _, _ = two_planted
        out = tmp_path / "search.jsonl"
        run_cli(["search-labels", data, out], capsys)
        whole = out.read_bytes()
        first_line = whole.index(b"\n") + 1
        out.write_bytes(whole[: first_line + 20])
        code, stdout, stderr = run_cli(["search-labels", data, out], capsys)
        assert code == EXIT_OK
        assert stdout.strip() == (
            "searched 1/1 samples (skipped 1 already labeled);"
            " oracle evaluations 8, generator calls 8"
        )
        assert stderr == f"{out}: dropped 20 bytes of an unfinished last line\n"
        assert out.read_bytes() == whole
        code, _, _ = run_cli(
            ["merge-labels", data, tmp_path / "merged.jsonl", "--labels", out], capsys
        )
        assert code == EXIT_OK

    def test_rerun_after_a_torn_trace_line_repairs_the_trace(
        self, two_planted, tmp_path, capsys
    ):
        data, _, _ = two_planted
        out = tmp_path / "search.jsonl"
        trace_path = tmp_path / "trace.jsonl"
        argv = ["search-labels", data, out, "--trace", trace_path]
        run_cli(argv, capsys)
        whole_out, whole_trace = out.read_bytes(), trace_path.read_bytes()
        out.write_bytes(whole_out[: whole_out.index(b"\n") + 1])
        trace_path.write_bytes(whole_trace[: whole_trace.index(b"\n") + 1 + 20])
        code, _, stderr = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert stderr == f"{trace_path}: dropped 20 bytes of an unfinished last line\n"
        assert trace_path.read_bytes() == whole_trace
        assert out.read_bytes() == whole_out

    def test_rerun_redoes_a_sample_whose_trace_record_was_lost(self, tmp_path, capsys):
        # The output holds six whole records but the trace only five and part
        # of the sixth: toy-06 must be searched again, or its trace is lost.
        whole_out, whole_trace = tmp_path / "whole.jsonl", tmp_path / "whole-trace.jsonl"
        run_cli(["search-labels", TOY, whole_out, "--trace", whole_trace], capsys)
        out, trace_path = tmp_path / "search.jsonl", tmp_path / "trace.jsonl"
        out_lines = whole_out.read_bytes().splitlines(keepends=True)
        trace_lines = whole_trace.read_bytes().splitlines(keepends=True)
        assert len(out_lines) == len(trace_lines) == 10
        out.write_bytes(b"".join(out_lines[:6]))
        trace_path.write_bytes(b"".join(trace_lines[:5]) + trace_lines[5][:40])
        code, stdout, stderr = run_cli(
            ["search-labels", TOY, out, "--trace", trace_path], capsys
        )
        assert code == EXIT_OK
        assert stderr == f"{trace_path}: dropped 40 bytes of an unfinished last line\n"
        assert stdout.startswith("searched 5/5 samples (skipped 5 already labeled);")
        trace_ids = [json.loads(line)["id"] for line in trace_path.read_text("utf-8").splitlines()]
        assert trace_ids == [f"toy-{i:02d}" for i in range(1, 11)]
        assert trace_path.read_bytes() == whole_trace.read_bytes()
        assert len(out.read_bytes().splitlines()) == 11  # toy-06 twice, the last one wins
        assert load_labels(out) == load_labels(whole_out)

    def test_over_budget_prompts_exit_4_with_the_real_cause(
        self, two_planted, tmp_path, capsys
    ):
        data, _, _ = two_planted
        out = tmp_path / "out.jsonl"
        code, stdout, stderr = run_cli(
            ["search-labels", data, out, "--token-budget", "5"], capsys
        )
        assert code == EXIT_PARTIAL
        assert "generator calls 0" in stdout
        for sample_id in ("cli-1", "cli-2"):
            assert f"failed {sample_id}: prompt estimate" in stderr
        assert "exceeds budget 5" in stderr
        assert out.read_text("utf-8") == ""

    def test_no_improvement_without_fallback_writes_an_empty_label(
        self, two_planted, tmp_path, capsys
    ):
        data, _, _ = two_planted
        out = tmp_path / "out.jsonl"
        code, _, stderr = run_cli(
            [
                "search-labels", data, out,
                "--feedbacker-endpoint", "fixed:", "--search-fallback", "false",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert stderr == ""
        labels = load_labels(out)
        assert labels["cli-1"].e_search == labels["cli-2"].e_search == Evidence(())
        assert labels["cli-1"].flags == ("no_usable_candidates",)

    def test_trace_file_records_every_candidate(self, two_planted, tmp_path, capsys):
        data, (first, _), _ = two_planted
        out = tmp_path / "search.jsonl"
        trace_path = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(
            ["search-labels", data, out, "--trace", trace_path], capsys
        )
        assert code == EXIT_OK
        traces = [
            json.loads(line) for line in trace_path.read_text("utf-8").splitlines()
        ]
        assert [t["id"] for t in traces] == ["cli-1", "cli-2"]
        assert traces[0]["oracle_calls"] == 6
        assert len(traces[0]["candidates"]) == 6
        assert {c["phase"] for c in traces[0]["candidates"]} == {
            "singleton", "accumulate",
        }

    def test_backend_outage_exits_3(self, two_planted, tmp_path, capsys, monkeypatch):
        data, _, _ = two_planted
        monkeypatch.setattr(cli, "make_client", lambda *a, **k: FailingClient())
        code, _, stderr = run_cli(
            ["search-labels", data, tmp_path / "out.jsonl"], capsys
        )
        assert code == EXIT_BACKEND
        assert "failed cli-1:" in stderr

    def test_auth_failure_aborts_the_whole_job(
        self, two_planted, tmp_path, capsys, monkeypatch
    ):
        data, _, _ = two_planted
        monkeypatch.setattr(cli, "make_client", lambda *a, **k: AuthFailingClient())
        code, _, stderr = run_cli(
            ["search-labels", data, tmp_path / "out.jsonl"], capsys
        )
        assert code == EXIT_BACKEND
        assert "error: AuthError" in stderr

    def test_unsupported_endpoint_exits_2(self, two_planted, tmp_path, capsys):
        data, _, _ = two_planted
        code, _, stderr = run_cli(
            [
                "search-labels", data, tmp_path / "out.jsonl",
                "--feedbacker-endpoint", "grpc://nope",
            ],
            capsys,
        )
        assert code == EXIT_VALIDATION
        assert "error: SchemaError" in stderr

    def test_malformed_http_endpoint_exits_2_before_writing(
        self, two_planted, tmp_path, capsys
    ):
        data, _, _ = two_planted
        out = tmp_path / "out.jsonl"
        code, _, stderr = run_cli(
            [
                "search-labels", data, out,
                "--feedbacker-endpoint", "http://", "--max-attempts", "1",
            ],
            capsys,
        )
        assert code == EXIT_VALIDATION
        assert stderr.startswith("error: SchemaError: bad endpoint 'http://'")
        assert not out.exists()


class TestDistillLabels:
    def test_fixed_endpoint_labels_every_sample(self, two_planted, tmp_path, capsys):
        data, _, _ = two_planted
        out = tmp_path / "distill.jsonl"
        code, stdout, _ = run_cli(
            ["distill-labels", data, out, "--distill-endpoint", "fixed:{1, 2}"],
            capsys,
        )
        assert code == EXIT_OK
        assert stdout.strip() == (
            "distilled 2/2 samples parsed (2 records written, 0 skipped);"
            " generator calls 2"
        )
        labels = load_labels(out)
        assert labels["cli-1"].e_distill == Evidence((1, 2))
        assert labels["cli-2"].e_distill == Evidence((1, 2))

    def test_unparseable_outputs_exit_partial(self, two_planted, tmp_path, capsys):
        data, _, _ = two_planted
        out = tmp_path / "distill.jsonl"
        code, stdout, stderr = run_cli(
            ["distill-labels", data, out, "--distill-endpoint", "fixed:no clue"],
            capsys,
        )
        assert code == EXIT_PARTIAL
        assert "distilled 0/2 samples parsed (2 records written, 0 skipped)" in stdout
        assert "no row indices" in stderr
        labels = load_labels(out)
        assert labels["cli-1"].e_distill is None

    def test_falls_back_to_the_feedbacker_endpoint(
        self, two_planted, tmp_path, capsys
    ):
        data, _, _ = two_planted
        out = tmp_path / "distill.jsonl"
        code, _, _ = run_cli(
            ["distill-labels", data, out, "--feedbacker-endpoint", "fixed:{2}"],
            capsys,
        )
        assert code == EXIT_OK
        assert load_labels(out)["cli-1"].e_distill == Evidence((2,))

    def test_cache_entries_of_one_fixed_text_do_not_serve_another(
        self, two_planted, tmp_path, capsys
    ):
        data, _, _ = two_planted
        cache_dir = tmp_path / "cache"
        for text, label in (("{1}", [1]), ("{2}", [2])):
            out = tmp_path / f"distill-{label[0]}.jsonl"
            code, stdout, _ = run_cli(
                [
                    "distill-labels", data, out,
                    "--distill-endpoint", f"fixed:{text}", "--cache-dir", cache_dir,
                ],
                capsys,
            )
            assert code == EXIT_OK
            assert stdout.strip().endswith("generator calls 2")
            assert load_labels(out)["cli-1"].e_distill == Evidence(tuple(label))

    def test_dataset_level_distillation_reports_per_sample(
        self, tmp_path, capsys, monkeypatch
    ):
        first, _ = support.planted_sample("dl-1", 3, 2, (1,))
        second, _ = support.planted_sample("dl-2", 3, 2, (2,))
        data = tmp_path / "data.jsonl"
        support.write_dataset(data, [first, second])
        client = SequenceClient(["{1}", "junk"])
        monkeypatch.setattr(cli, "make_client", lambda *a, **k: client)
        out = tmp_path / "distill.jsonl"
        code, _, stderr = run_cli(
            ["distill-labels", data, out, "--workers", "1"], capsys
        )
        assert code == EXIT_PARTIAL
        records = [json.loads(l) for l in out.read_text("utf-8").splitlines()]
        assert [r["id"] for r in records] == ["dl-1", "dl-2"]
        assert [r["e_distill"] for r in records] == [[1], None]
        notes = stderr.splitlines()
        assert len(notes) == 1 and notes[0].startswith("dl-2:")


class TestMergeLabels:
    def test_reward_argmax_over_manual_and_search(
        self, two_planted, tmp_path, capsys
    ):
        data, (first, first_planted), (second, second_planted) = two_planted
        search_file = tmp_path / "search.jsonl"
        support.save_labels(
            search_file,
            [
                LabeledSample(sample_id="cli-1", e_search=Evidence((1,))),
                LabeledSample(sample_id="cli-2", e_search=Evidence((2,))),
            ],
        )
        out = tmp_path / "merged.jsonl"
        code, stdout, _ = run_cli(
            ["merge-labels", data, out, "--labels", search_file], capsys
        )
        assert code == EXIT_OK
        assert stdout.strip() == (
            "merged 2/2 samples (0 skipped); generator calls 4"
        )
        merged = load_labels(out)
        # Manual labels are the planted rows, so they win the reward contest.
        assert merged["cli-1"].e_merge == first_planted
        assert merged["cli-2"].e_merge == second_planted
        rewards = dict(merged["cli-1"].merge_rewards)
        assert rewards["manual"] == 1.0
        assert rewards["search"] < 1.0

    def test_multiple_label_files_overlay_in_order(
        self, two_planted, tmp_path, capsys
    ):
        data, (first, first_planted), _ = two_planted
        older = tmp_path / "older.jsonl"
        newer = tmp_path / "newer.jsonl"
        support.save_labels(older, [LabeledSample(sample_id="cli-1", e_search=Evidence((1,)))])
        support.save_labels(
            newer, [LabeledSample(sample_id="cli-1", e_search=first_planted)]
        )
        out = tmp_path / "merged.jsonl"
        code, _, _ = run_cli(
            ["merge-labels", data, out, "--labels", older, "--labels", newer],
            capsys,
        )
        assert code == EXIT_OK
        merged = load_labels(out)
        assert merged["cli-1"].e_search == first_planted

    def test_without_any_label_source_exits_partial(self, tmp_path, capsys):
        sample, _ = support.planted_sample("nl-1", 3, 2, (1,))
        data = tmp_path / "data.jsonl"
        support.write_dataset(data, [sample])
        code, _, stderr = run_cli(
            ["merge-labels", data, tmp_path / "out.jsonl"], capsys
        )
        assert code == EXIT_PARTIAL
        assert "failed nl-1:" in stderr


class TestHighlight:
    def test_explicit_evidence_stars_rows(self, two_planted, capsys):
        data, (first, _), _ = two_planted
        code, stdout, _ = run_cli(
            ["highlight", data, "--id", "cli-1", "--evidence", "1,3"], capsys
        )
        assert code == EXIT_OK
        assert stdout.startswith("# cli-1\n")
        lines = stdout.splitlines()
        row_lines = [l for l in lines if l.startswith("row ")]
        assert row_lines[0].startswith("row 1 : *")
        assert not row_lines[1].startswith("row 2 : *")
        assert row_lines[2].startswith("row 3 : *")

    def test_subtab_mode_renders_only_the_evidence(self, two_planted, capsys):
        data, _, _ = two_planted
        code, stdout, _ = run_cli(
            [
                "highlight", data, "--id", "cli-2",
                "--evidence", "1,3", "--mode", "subtab",
            ],
            capsys,
        )
        assert code == EXIT_OK
        row_lines = [l for l in stdout.splitlines() if l.startswith("row ")]
        assert len(row_lines) == 2
        assert row_lines[0].startswith("row 1 :")
        assert row_lines[1].startswith("row 2 :")
        assert "*" not in stdout

    def test_manual_evidence_is_the_default(self, two_planted, capsys):
        data, (first, first_planted), _ = two_planted
        code, stdout, _ = run_cli(["highlight", data, "--id", "cli-1"], capsys)
        assert code == EXIT_OK
        starred = [l for l in stdout.splitlines() if l.startswith("row 2 : *")]
        assert starred

    def test_label_file_source_selection(self, two_planted, tmp_path, capsys):
        data, _, _ = two_planted
        labels = tmp_path / "labels.jsonl"
        support.save_labels(
            labels, [LabeledSample(sample_id="cli-1", e_search=Evidence((3,)))]
        )
        code, stdout, _ = run_cli(
            [
                "highlight", data, "--id", "cli-1",
                "--labels", labels, "--source", "search",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert any(l.startswith("row 3 : *") for l in stdout.splitlines())

    def test_explicit_evidence_beats_label_files(self, two_planted, tmp_path, capsys):
        data, _, _ = two_planted
        labels = tmp_path / "labels.jsonl"
        support.save_labels(
            labels, [LabeledSample(sample_id="cli-1", e_search=Evidence((3,)))]
        )
        code, stdout, _ = run_cli(
            [
                "highlight", data, "--id", "cli-1", "--labels", labels,
                "--source", "search", "--evidence", "1",
            ],
            capsys,
        )
        assert code == EXIT_OK
        lines = stdout.splitlines()
        assert any(l.startswith("row 1 : *") for l in lines)
        assert not any(l.startswith("row 3 : *") for l in lines)

    def test_unknown_id_exits_2(self, two_planted, capsys):
        data, _, _ = two_planted
        code, _, stderr = run_cli(["highlight", data, "--id", "ghost"], capsys)
        assert code == EXIT_VALIDATION
        assert "error: UnmatchedIdError" in stderr

    def test_subtab_without_evidence_exits_2(self, tmp_path, capsys):
        sample, _ = support.planted_sample("ne-1", 3, 2, (1,))
        data = tmp_path / "data.jsonl"
        support.write_dataset(data, [sample])
        code, _, stderr = run_cli(
            ["highlight", data, "--mode", "subtab"], capsys
        )
        assert code == EXIT_VALIDATION
        assert "error: EmptyEvidenceError" in stderr


class TestExportTrain:
    def make_labels(self, tmp_path, with_second=True):
        labels = [
            LabeledSample(
                sample_id="cli-1",
                e_search=Evidence((2,)),
                e_distill=Evidence((1,)),
                e_merge=Evidence((2,)),
            )
        ]
        if with_second:
            labels.append(
                LabeledSample(
                    sample_id="cli-2",
                    e_search=Evidence((1, 3)),
                    e_distill=Evidence((2,)),
                    e_merge=Evidence((1, 3)),
                )
            )
        path = tmp_path / "labels.jsonl"
        support.save_labels(path, labels)
        return path

    def test_highlighter_role(self, two_planted, tmp_path, capsys):
        data, _, _ = two_planted
        labels = self.make_labels(tmp_path)
        out = tmp_path / "train.jsonl"
        code, stdout, _ = run_cli(
            ["export-train", data, labels, out, "--role", "highlighter"], capsys
        )
        assert code == EXIT_OK
        assert stdout.strip() == f"exported 2 highlighter records -> {out}"
        records = [json.loads(l) for l in out.read_text("utf-8").splitlines()]
        assert [r["completion"] for r in records] == ["{2}", "{1, 3}"]

    def test_summarizer_role_with_distill_source(self, two_planted, tmp_path, capsys):
        data, _, _ = two_planted
        labels = self.make_labels(tmp_path)
        out = tmp_path / "train.jsonl"
        code, stdout, _ = run_cli(
            [
                "export-train", data, labels, out,
                "--role", "summarizer", "--source", "distill",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert "exported 2 summarizer records" in stdout
        records = [json.loads(l) for l in out.read_text("utf-8").splitlines()]
        assert all("*" in r["prompt"] for r in records)

    def test_strict_export_fails_on_missing_labels(
        self, two_planted, tmp_path, capsys
    ):
        data, _, _ = two_planted
        labels = self.make_labels(tmp_path, with_second=False)
        code, _, stderr = run_cli(
            [
                "export-train", data, labels, tmp_path / "train.jsonl",
                "--role", "highlighter",
            ],
            capsys,
        )
        assert code == EXIT_VALIDATION
        assert "error: MissingLabelError" in stderr

    def test_lenient_export_skips_missing_labels(
        self, two_planted, tmp_path, capsys
    ):
        data, _, _ = two_planted
        labels = self.make_labels(tmp_path, with_second=False)
        code, stdout, _ = run_cli(
            [
                "export-train", data, labels, tmp_path / "train.jsonl",
                "--role", "highlighter", "--no-strict",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert "exported 1 highlighter records" in stdout


class TestPipeline:
    def test_fixed_highlighter_with_echo_summarizer(
        self, two_planted, tmp_path, capsys
    ):
        data, (first, _), (second, _) = two_planted
        out = tmp_path / "pred.jsonl"
        code, stdout, _ = run_cli(
            ["pipeline", data, out, "--highlighter-endpoint", "fixed:{1}"], capsys
        )
        assert code == EXIT_OK
        assert stdout.strip() == (
            "predicted 2/2 samples (0 skipped);"
            " highlighter calls 2, summarizer calls 2"
        )
        records = [json.loads(l) for l in out.read_text("utf-8").splitlines()]
        assert [r["id"] for r in records] == ["cli-1", "cli-2"]
        for record, sample in zip(records, (first, second)):
            assert record["evidence"] == [1]
            assert record["flags"] == []
            assert record["prediction"] == " ".join(sample.table.rows[0])

    def test_subtab_ablation_summarizes_the_subtable(
        self, two_planted, tmp_path, capsys
    ):
        data, (first, _), _ = two_planted
        out = tmp_path / "pred.jsonl"
        code, _, _ = run_cli(
            [
                "pipeline", data, out,
                "--highlighter-endpoint", "fixed:{1, 2}",
                "--ablation", "subtab",
            ],
            capsys,
        )
        assert code == EXIT_OK
        records = [json.loads(l) for l in out.read_text("utf-8").splitlines()]
        assert records[0]["evidence"] == [1, 2]
        want = " ".join(first.table.rows[0]) + " " + " ".join(first.table.rows[1])
        assert records[0]["prediction"] == want

    def test_no_highlight_ablation_skips_the_highlighter(
        self, two_planted, tmp_path, capsys
    ):
        data, (first, _), _ = two_planted
        out = tmp_path / "pred.jsonl"
        code, stdout, _ = run_cli(
            ["pipeline", data, out, "--ablation", "no_highlight"], capsys
        )
        assert code == EXIT_OK
        assert "highlighter calls 0, summarizer calls 2" in stdout
        records = [json.loads(l) for l in out.read_text("utf-8").splitlines()]
        assert records[0]["flags"] == ["no_highlight"]
        assert records[0]["evidence"] == []
        want = " ".join(" ".join(row) for row in first.table.rows)
        assert records[0]["prediction"] == want

    def test_echo_highlighter_on_wordy_tables_flags_no_evidence(
        self, two_planted, tmp_path, capsys
    ):
        # The echo oracle answers with table words, which contain no indices.
        data, (first, _), _ = two_planted
        out = tmp_path / "pred.jsonl"
        code, _, _ = run_cli(["pipeline", data, out], capsys)
        assert code == EXIT_OK
        records = [json.loads(l) for l in out.read_text("utf-8").splitlines()]
        assert records[0]["flags"] == ["no-evidence"]
        assert records[0]["evidence"] == []

    def test_rerun_skips_finished_samples(self, two_planted, tmp_path, capsys):
        data, _, _ = two_planted
        out = tmp_path / "pred.jsonl"
        run_cli(["pipeline", data, out], capsys)
        code, stdout, _ = run_cli(["pipeline", data, out], capsys)
        assert code == EXIT_OK
        assert stdout.strip() == (
            "predicted 0/0 samples (2 skipped);"
            " highlighter calls 0, summarizer calls 0"
        )

    def test_warm_cache_needs_no_generator_calls(
        self, two_planted, tmp_path, capsys
    ):
        data, _, _ = two_planted
        cache_dir = tmp_path / "cache"
        first_out = tmp_path / "pred1.jsonl"
        second_out = tmp_path / "pred2.jsonl"
        run_cli(
            ["pipeline", data, first_out, "--cache-dir", cache_dir], capsys
        )
        code, stdout, _ = run_cli(
            ["pipeline", data, second_out, "--cache-dir", cache_dir], capsys
        )
        assert code == EXIT_OK
        assert "highlighter calls 0, summarizer calls 0" in stdout
        assert first_out.read_bytes() == second_out.read_bytes()

    def test_config_file_steers_the_run_and_flags_win(
        self, two_planted, tmp_path, capsys
    ):
        data, _, _ = two_planted
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ablation = no_highlight\n", encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        _, stdout, _ = run_cli(
            ["pipeline", data, out, "--config", cfg], capsys
        )
        assert "highlighter calls 0" in stdout
        out2 = tmp_path / "pred2.jsonl"
        _, stdout, _ = run_cli(
            ["pipeline", data, out2, "--config", cfg, "--ablation", "full"],
            capsys,
        )
        assert "highlighter calls 2" in stdout


class TestStrictInputLines:
    """A bad line in a file a command reads strictly fails the command with
    exit 2, named once by its file and line."""

    def append_line(self, path, line: bytes):
        path.write_bytes(path.read_bytes() + line + b"\n")

    def test_a_dataset_line(self, two_planted, tmp_path, capsys):
        data, _, _ = two_planted
        record = serialize_sample(support.planted_sample("cli-3", 3, 2, (1,))[0])
        self.append_line(data, json.dumps({**record, "rows": "zz"}).encode())
        out = tmp_path / "search.jsonl"
        code, _, stderr = run_cli(["search-labels", data, out], capsys)
        assert code == EXIT_VALIDATION
        assert stderr == f"error: SchemaError: {data}, line 3: field 'rows' has wrong type: str\n"
        assert not out.exists()

    def test_a_label_line(self, two_planted, tmp_path, capsys):
        data, _, _ = two_planted
        labels = tmp_path / "search.jsonl"
        support.save_labels(labels, [LabeledSample(sample_id="cli-1")])
        self.append_line(labels, b"[1]")
        out = tmp_path / "merged.jsonl"
        code, _, stderr = run_cli(["merge-labels", data, out, "--labels", labels], capsys)
        assert code == EXIT_VALIDATION
        assert stderr == f"error: SchemaError: {labels}, line 2: not a JSON object\n"
        assert not out.exists()

    def test_a_prediction_line(self, two_planted, tmp_path, capsys):
        data, (first, _), _ = two_planted
        preds = tmp_path / "pred.jsonl"
        preds.write_text(
            json.dumps({"id": "cli-1", "prediction": first.reference}) + "\n", encoding="utf-8"
        )
        self.append_line(preds, b'{"id": "cli-2", "prediction": "\xff"}')
        code, _, stderr = run_cli(["evaluate", preds, data], capsys)
        assert code == EXIT_VALIDATION
        assert stderr == f"error: SchemaError: {preds}, line 2: not valid UTF-8\n"


class TestEvaluate:
    def write_predictions(self, path, rows):
        with open(path, "w", encoding="utf-8") as handle:
            for sample_id, text in rows:
                handle.write(json.dumps({"id": sample_id, "prediction": text}))
                handle.write("\n")

    def test_perfect_predictions_score_100(self, two_planted, tmp_path, capsys):
        data, (first, _), (second, _) = two_planted
        preds = tmp_path / "pred.jsonl"
        self.write_predictions(
            preds, [("cli-1", first.reference), ("cli-2", second.reference)]
        )
        code, stdout, _ = run_cli(["evaluate", preds, data], capsys)
        assert code == EXIT_OK
        assert "samples: 2" in stdout
        assert "ROUGE-1  100.00" in stdout
        assert f"report -> {preds}.scores.json" in stdout
        report = json.loads((tmp_path / "pred.jsonl.scores.json").read_text("utf-8"))
        assert report["rouge1"] == 100.0
        assert report["bleu"] == 100.0
        assert report["sample_count"] == 2
        assert report["notes"]

    def test_custom_report_path(self, two_planted, tmp_path, capsys):
        data, (first, _), _ = two_planted
        preds = tmp_path / "pred.jsonl"
        self.write_predictions(preds, [("cli-1", first.reference)])
        report_path = tmp_path / "scores.json"
        code, stdout, _ = run_cli(
            ["evaluate", preds, data, "--report", report_path], capsys
        )
        assert code == EXIT_OK
        assert f"report -> {report_path}" in stdout
        assert json.loads(report_path.read_text("utf-8"))["sample_count"] == 1

    def test_partial_coverage_scores_the_covered_subset(
        self, two_planted, tmp_path, capsys
    ):
        data, _, (second, _) = two_planted
        preds = tmp_path / "pred.jsonl"
        self.write_predictions(preds, [("cli-2", second.reference)])
        code, stdout, _ = run_cli(["evaluate", preds, data], capsys)
        assert code == EXIT_OK
        assert "samples: 1" in stdout

    def test_unknown_prediction_id_exits_2(self, two_planted, tmp_path, capsys):
        data, (first, _), _ = two_planted
        preds = tmp_path / "pred.jsonl"
        self.write_predictions(preds, [("ghost", first.reference)])
        code, _, stderr = run_cli(["evaluate", preds, data], capsys)
        assert code == EXIT_VALIDATION
        assert "error: UnmatchedIdError" in stderr

    def test_malformed_prediction_line_exits_2(self, two_planted, tmp_path, capsys):
        data, _, _ = two_planted
        preds = tmp_path / "pred.jsonl"
        preds.write_text('{"id": "cli-1"}\n', encoding="utf-8")
        code, _, stderr = run_cli(["evaluate", preds, data], capsys)
        assert code == EXIT_VALIDATION
        assert "error: SchemaError" in stderr
