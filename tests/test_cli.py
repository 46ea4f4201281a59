"""End-to-end command tests, run in process through cli.main."""

from __future__ import annotations

import gc
import json
import os
import re
import sqlite3
import threading
import time
from pathlib import Path

import pytest

import support
import tablehelm.cli as cli
from tablehelm.cli import EXIT_BACKEND, EXIT_OK, EXIT_PARTIAL, EXIT_VALIDATION
from tablehelm.config import RunConfig
from tablehelm.errors import AuthError, EndpointNotFoundError, SchemaError, TransportError
from tablehelm.evidence_lab import LabeledSample, load_labels
from tablehelm.feedback import EchoClient, FixedClient, HttpClient, ResponseCache, SamplingConfig
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

    def test_a_line_with_a_lone_surrogate_escape_is_reported_and_skipped(
        self, tmp_path, capsys
    ):
        samples = [support.planted_sample(f"ok-{i}", 3, 2, (1,))[0] for i in (1, 2, 3)]
        data = tmp_path / "mixed.jsonl"
        support.write_dataset(data, samples)
        lines = data.read_bytes().splitlines(keepends=True)
        bad = json.loads(lines[0])
        bad["query"] = "bad \ud800 query"
        lines[0] = json.dumps(bad).encode("ascii") + b"\n"
        assert b'"bad \\ud800 query"' in lines[0]
        data.write_bytes(b"".join(lines))
        out = tmp_path / "out.jsonl"
        code, stdout, stderr = run_cli(["ingest", data, out], capsys)
        assert code == EXIT_OK
        assert stdout.strip() == f"ingested 2 samples -> {out}"
        assert stderr == "line 1: not valid text: a lone surrogate escape\n"
        assert [json.loads(line)["id"] for line in out.read_bytes().splitlines()] == [
            "ok-2",
            "ok-3",
        ]

        strict_out = tmp_path / "strict.jsonl"
        code, _, stderr = run_cli(["ingest", data, strict_out, "--strict"], capsys)
        assert code == EXIT_VALIDATION
        assert stderr == (
            f"error: SchemaError: {data}, line 1: not valid text: a lone surrogate escape\n"
        )
        assert not strict_out.exists()

    def test_a_surrogate_pair_escape_is_kept(self, tmp_path, capsys):
        sample, _ = support.planted_sample("pair-1", 3, 2, (1,))
        record = {**serialize_sample(sample), "query": "who scored \U0001F600?"}
        data = tmp_path / "pair.jsonl"
        data.write_text(json.dumps(record) + "\n", encoding="ascii")
        out = tmp_path / "out.jsonl"
        code, _, stderr = run_cli(["ingest", data, out], capsys)
        assert (code, stderr) == (EXIT_OK, "")
        assert json.loads(out.read_text("utf-8"))["query"] == "who scored \U0001F600?"

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


class TestMapOrderedOnOneWorker:
    """With one worker `map_ordered` makes each call on the calling thread,
    in order, when its result is asked for."""

    def test_every_call_runs_on_the_calling_thread_in_order(self):
        seen = []

        def work(item):
            seen.append((item, threading.get_ident()))
            return item * 2

        results = cli.map_ordered(work, list(range(6)), workers=1)
        assert next(results) == (0, 0, None)
        assert seen == [(0, threading.get_ident())]
        assert list(results) == [(item, item * 2, None) for item in range(1, 6)]
        assert seen == [(item, threading.get_ident()) for item in range(6)]

    def test_per_item_errors_are_yielded(self):
        def work(item):
            if item % 2:
                raise ValueError(f"bad {item}")
            return item

        seen = list(cli.map_ordered(work, list(range(4)), workers=1))
        assert [item for item, _, _ in seen] == [0, 1, 2, 3]
        assert [result for _, result, _ in seen] == [0, None, 2, None]
        assert [exc and str(exc) for _, _, exc in seen] == [None, "bad 1", None, "bad 3"]

    @pytest.mark.parametrize("error", [AuthError("HTTP 401"), EndpointNotFoundError("HTTP 404")])
    def test_a_job_fatal_error_raises_before_any_later_call(self, error):
        called = []

        def work(item):
            called.append(item)
            if item == 2:
                raise error
            return item

        results = cli.map_ordered(work, list(range(6)), workers=1)
        assert [next(results), next(results)] == [(0, 0, None), (1, 1, None)]
        with pytest.raises(type(error)):
            next(results)
        assert called == [0, 1, 2]

    def test_a_one_worker_search_runs_on_the_main_thread_and_writes_the_same_bytes(
        self, two_planted, tmp_path, capsys, monkeypatch
    ):
        data, _, _ = two_planted
        threads = []
        search = cli.greedy_search

        def noting_thread(sample, *args, **kwargs):
            threads.append(threading.get_ident())
            return search(sample, *args, **kwargs)

        monkeypatch.setattr(cli, "greedy_search", noting_thread)
        written = {}
        for workers in (1, 2):
            out, trace = tmp_path / f"out-{workers}.jsonl", tmp_path / f"trace-{workers}.jsonl"
            argv = ["search-labels", data, out, "--trace", trace, "--workers", workers]
            assert run_cli(argv, capsys)[0] == EXIT_OK
            written[workers] = (out.read_bytes(), trace.read_bytes())
        main = threading.main_thread().ident
        assert threads[:2] == [main, main]
        assert main not in threads[2:]
        assert written[1] == written[2]


def positional(command, data, out):
    """A command's positional arguments over the dataset `data`, with `out`
    as the file it writes (evaluate: reads) and `data` as any label file."""
    return {
        "evaluate": [out, data],
        "highlight": [data],
        "export-train": [data, data, out],
    }.get(command, [data, out])


class TestNonFiniteSettings:
    @pytest.mark.parametrize(
        "argv",
        [
            ["search-labels", "--timeout", "nan"],
            ["search-labels", "--timeout", "inf"],
            ["search-labels", "--feedbacker-temperature", "nan"],
            ["pipeline", "--summarizer-temperature", "inf"],
            ["pipeline", "--highlighter-temperature", "nan"],
            ["evaluate", "--summarizer-temperature", "nan"],
            ["evaluate", "--timeout", "inf"],
            ["highlight", "--feedbacker-temperature", "nan"],
            ["export-train", "--role", "highlighter", "--highlighter-temperature", "inf"],
            ["export-train", "--role", "summarizer", "--feedbacker-temperature", "nan"],
        ],
    )
    def test_exit_2_before_any_output_is_written(self, argv, two_planted, tmp_path, capsys):
        data, _, _ = two_planted
        out = tmp_path / "out.jsonl"
        command, *flags = argv
        code, stdout, stderr = run_cli([command, *positional(command, data, out), *flags], capsys)
        assert code == EXIT_VALIDATION
        assert stdout == ""
        assert "finite" in stderr
        assert not out.exists()


class TestConfigErrors:
    """Every command checks every config key when it starts, and a bad key
    is named in the error."""

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["evaluate", "--max-new-tokens", "0"], "max_new_tokens: max_new_tokens must"),
            (["evaluate", "--summarizer-nucleus-p", "0"], "summarizer_nucleus_p: nucleus_p"),
            (["highlight", "--feedbacker-temperature", "-1"], "feedbacker_temperature: "),
            (["export-train", "--role", "highlighter", "--feedbacker-nucleus-p", "2"],
             "feedbacker_nucleus_p: nucleus_p"),
        ],
    )
    def test_out_of_range_sampling_exits_2_like_any_key(
        self, argv, message, two_planted, tmp_path, capsys
    ):
        data, _, _ = two_planted
        out = tmp_path / "out.jsonl"
        command, *flags = argv
        code, stdout, stderr = run_cli([command, *positional(command, data, out), *flags], capsys)
        assert code == EXIT_VALIDATION
        assert stdout == ""
        assert stderr.startswith(f"error: SchemaError: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        ("flags", "env", "message"),
        [
            (["--workers", "0"], {}, "workers: must be at least 1"),
            ([], {"HELM_TIMEOUT": "abc"}, "timeout: not a float: 'abc'"),
            (["--config", "{config}"], {}, "{config}:1: wokers: unknown config key"),
            (["--config", "{bad_value}"], {}, "{bad_value}:2: timeout: not a float: 'abc'"),
            (["--config", "{bad_range}"], {}, "{bad_range}:1: workers: must be at least 1"),
        ],
        ids=["flag", "environment", "config-file", "config-file-value", "config-file-range"],
    )
    def test_the_error_names_the_key(
        self, flags, env, message, two_planted, tmp_path, monkeypatch, capsys
    ):
        data, _, _ = two_planted
        files = {
            "config": "wokers = 2\n",
            "bad_value": "workers = 2\ntimeout = abc\n",
            "bad_range": "workers = 0\n",
        }
        paths = {name: tmp_path / f"{name}.cfg" for name in files}
        for name, text in files.items():
            paths[name].write_text(text, encoding="utf-8")
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        flags = [flag.format(**paths) for flag in flags]
        code, stdout, stderr = run_cli(["evaluate", tmp_path / "pred.jsonl", data, *flags], capsys)
        assert code == EXIT_VALIDATION
        assert stdout == ""
        assert stderr == f"error: SchemaError: {message.format(**paths)}\n"


class RecordingClient:
    """Answers "{1}" to every prompt and records, per call, the model id,
    the prompt's first line (the template's role tag) and the sampling."""

    def __init__(self, model_id, calls) -> None:
        self.model_id = model_id
        self.calls = calls

    def generate(self, prompt, cfg):
        self.calls.append((self.model_id, prompt.split("\n", 1)[0], cfg))
        return "{1}"


class TestRoleSettings:
    """Which template, sampling and token budget each command gives each
    model role. Every template override starts with a `tag:<role>` line and
    every role gets its own temperature and nucleus_p."""

    SLOTS = {
        "highlighter": "{{TABLE}}\n{{QUERY}}",
        "summarizer": "{{TABLE}}\n{{QUERY}}",
        "distill": "{{EXAMPLES}}\n{{TABLE}}\n{{QUERY}}\n{{REFERENCE}}",
    }
    SAMPLING = {
        "highlighter": SamplingConfig(nucleus_p=0.51, temperature=0.11, max_new_tokens=77),
        "summarizer": SamplingConfig(nucleus_p=0.52, temperature=0.22, max_new_tokens=77),
        "feedbacker": SamplingConfig(nucleus_p=0.53, temperature=0.33, max_new_tokens=77),
    }

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            cli, "make_client", lambda endpoint, model_id, run: RecordingClient(model_id, calls)
        )
        return calls

    @pytest.fixture
    def argv(self, two_planted, tmp_path):
        """`argv(command, *extra)`: the command over the planted data, with
        every role's template and sampling overridden."""
        data, _, _ = two_planted
        labels = tmp_path / "labels.jsonl"
        support.save_labels(
            labels,
            [
                LabeledSample(sample_id="cli-1", e_search=Evidence((1,)), e_merge=Evidence((1,))),
                LabeledSample(sample_id="cli-2", e_search=Evidence((2,)), e_merge=Evidence((2,))),
            ],
        )
        out = tmp_path / "out.jsonl"
        positional = {
            "search-labels": [data, out],
            "distill-labels": [data, out],
            "merge-labels": [data, out, "--labels", labels],
            "pipeline": [data, out],
            "export-train": [data, labels, out],
        }
        flags = ["--max-new-tokens", "77"]
        for role, slots in self.SLOTS.items():
            template = tmp_path / f"{role}.txt"
            template.write_text(f"tag:{role}\n{slots}\n###Output\n", encoding="utf-8")
            flags += [f"--{role}-template", template]
        for role, cfg in self.SAMPLING.items():
            flags += [f"--{role}-temperature", cfg.temperature]
            flags += [f"--{role}-nucleus-p", cfg.nucleus_p]
        return lambda command, *extra: [command, *positional[command], *flags, *extra]

    @pytest.mark.parametrize(
        ("command", "want"),
        [
            ("search-labels", {("feedbacker", "tag:summarizer", "feedbacker")}),
            ("merge-labels", {("feedbacker", "tag:summarizer", "feedbacker")}),
            ("distill-labels", {("distill", "tag:distill", "feedbacker")}),
            (
                "pipeline",
                {
                    ("highlighter", "tag:highlighter", "highlighter"),
                    ("summarizer", "tag:summarizer", "summarizer"),
                },
            ),
        ],
    )
    def test_each_role_gets_its_template_and_sampling(
        self, command, want, calls, argv, capsys
    ):
        code, _, _ = run_cli(argv(command), capsys)
        assert code == EXIT_OK
        assert calls
        expected = {(model, tag, self.SAMPLING[role]) for model, tag, role in want}
        assert set(calls) == expected

    @pytest.mark.parametrize("role", ["highlighter", "summarizer"])
    def test_export_uses_the_exported_roles_template(self, role, argv, tmp_path, capsys):
        code, _, _ = run_cli(argv("export-train", "--role", role), capsys)
        assert code == EXIT_OK
        lines = (tmp_path / "out.jsonl").read_text("utf-8").splitlines()
        assert len(lines) == 2
        for line in lines:
            assert json.loads(line)["prompt"].startswith(f"tag:{role}\n")

    @pytest.mark.parametrize(
        "extra",
        [
            ["search-labels"],
            ["merge-labels"],
            ["distill-labels"],
            ["pipeline"],
            ["pipeline", "--ablation", "no_highlight"],
            ["export-train", "--role", "highlighter"],
            ["export-train", "--role", "summarizer"],
        ],
    )
    def test_the_token_budget_reaches_every_role(self, extra, calls, argv, capsys):
        command, *rest = extra
        code, _, stderr = run_cli(argv(command, "--token-budget", "5", *rest), capsys)
        assert code != EXIT_OK
        assert "exceeds budget 5" in stderr
        assert calls == []


class TestOneWriterPerOutput:
    """A batch command locks its output (and search's trace) before it reads
    it or calls a generator. While another open file description of the
    same file holds the lock, here one of this process, the command exits 2,
    names the file and makes no call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            cli, "make_client", lambda endpoint, model_id, run: RecordingClient(model_id, calls)
        )
        return calls

    @pytest.fixture
    def hold(self):
        fcntl = pytest.importorskip("fcntl")
        handles = []

        def hold(path):
            handle = open(path, "a", encoding="utf-8")
            handles.append(handle)
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)

        yield hold
        for handle in handles:
            handle.close()

    @pytest.mark.parametrize(
        "command", ["search-labels", "distill-labels", "merge-labels", "pipeline"]
    )
    def test_a_held_output_exits_2_before_any_call(
        self, command, two_planted, tmp_path, capsys, calls, hold
    ):
        data, _, _ = two_planted
        out = tmp_path / "out.jsonl"
        labels = tmp_path / "labels.jsonl"
        support.save_labels(labels, [LabeledSample(sample_id="cli-1", e_search=Evidence((1,)))])
        argv = [command, data, out] + (["--labels", labels] if command == "merge-labels" else [])
        hold(out)
        code, stdout, stderr = run_cli(argv, capsys)
        assert code == EXIT_VALIDATION
        assert stderr == f"error: OutputBusyError: {out} is locked by another job writing it\n"
        assert stdout == ""
        assert calls == []
        assert out.read_bytes() == b""

    def test_a_held_trace_exits_2_before_any_call(self, two_planted, tmp_path, capsys, calls, hold):
        data, _, _ = two_planted
        out, trace_path = tmp_path / "out.jsonl", tmp_path / "trace.jsonl"
        hold(trace_path)
        code, _, stderr = run_cli(["search-labels", data, out, "--trace", trace_path], capsys)
        assert code == EXIT_VALIDATION
        assert str(trace_path) in stderr
        assert calls == []

    def test_a_held_output_keeps_its_torn_last_line(self, two_planted, tmp_path, capsys, hold):
        # The torn-tail repair cuts the file, so it too waits for the lock.
        data, _, _ = two_planted
        out = tmp_path / "out.jsonl"
        run_cli(["search-labels", data, out], capsys)
        torn = out.read_bytes()[:-5]
        out.write_bytes(torn)
        hold(out)
        code, _, _ = run_cli(["search-labels", data, out], capsys)
        assert code == EXIT_VALIDATION
        assert out.read_bytes() == torn

    @pytest.mark.parametrize("spelling", ["same", "dotted", "symlink", "hardlink"])
    def test_a_trace_naming_the_output_exits_2_before_either_is_opened(
        self, spelling, two_planted, tmp_path, capsys, calls
    ):
        data, _, _ = two_planted
        out = tmp_path / "out.jsonl"
        trace = {"same": out, "dotted": tmp_path / "sub" / ".." / "out.jsonl"}.get(
            spelling, tmp_path / "trace.jsonl"
        )
        if spelling in ("symlink", "hardlink"):
            out.write_bytes(b"")
            (os.symlink if spelling == "symlink" else os.link)(out, trace)
        code, stdout, stderr = run_cli(["search-labels", data, out, "--trace", trace], capsys)
        assert code == EXIT_VALIDATION
        assert stderr == f"error: SchemaError: --trace names the output file {out}\n"
        assert stdout == ""
        assert calls == []
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            ["data.jsonl"] + (["out.jsonl", "trace.jsonl"] if spelling.endswith("link") else [])
        )
        if spelling.endswith("link"):
            assert out.read_bytes() == b""

    def test_the_lock_ends_with_the_command(self, two_planted, tmp_path, capsys, calls):
        data, _, _ = two_planted
        out = tmp_path / "out.jsonl"
        assert run_cli(["search-labels", data, out], capsys)[0] == EXIT_OK
        code, stdout, _ = run_cli(["search-labels", data, out], capsys)
        assert code == EXIT_OK
        assert stdout.startswith("searched 0/0 samples (skipped 2 already labeled)")


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

    def test_a_present_empty_label_competes(self, tmp_path, capsys):
        search_file = tmp_path / "search.jsonl"
        distill_file = tmp_path / "distill.jsonl"
        support.save_labels(
            search_file, [LabeledSample(sample_id="toy-01", e_search=Evidence((1,)))]
        )
        support.save_labels(
            distill_file, [LabeledSample(sample_id="toy-01", e_distill=Evidence(()))]
        )
        data = tmp_path / "toy-01.jsonl"
        data.write_bytes(TOY.read_bytes().splitlines(keepends=True)[0])
        out = tmp_path / "merged.jsonl"
        code, stdout, _ = run_cli(
            ["merge-labels", data, out, "--labels", search_file, "--labels", distill_file], capsys
        )
        assert code == EXIT_OK
        assert stdout.strip() == "merged 1/1 samples (0 skipped); generator calls 2"
        merged = load_labels(out)["toy-01"]
        assert merged.e_distill == Evidence(())
        assert [name for name, _ in merged.merge_rewards] == ["distill", "search"]
        assert merged.e_merge == Evidence((1,))

    def test_without_any_label_source_exits_partial(self, tmp_path, capsys):
        sample, _ = support.planted_sample("nl-1", 3, 2, (1,))
        data = tmp_path / "data.jsonl"
        support.write_dataset(data, [sample])
        code, _, stderr = run_cli(
            ["merge-labels", data, tmp_path / "out.jsonl"], capsys
        )
        assert code == EXIT_PARTIAL
        assert stderr == "failed nl-1: sample 'nl-1' has no label from any source\n"


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


class TestCacheDirectory:
    """A command run with `--cache-dir` leaves only the cache's database
    file behind, and a rerun is served from it."""

    @pytest.mark.parametrize(
        "command, calls",
        [
            ("search-labels", "generator calls 0"),
            ("pipeline", "highlighter calls 0, summarizer calls 0"),
        ],
    )
    def test_a_cached_command_leaves_only_the_database_file(
        self, two_planted, tmp_path, capsys, command, calls
    ):
        data, _, _ = two_planted
        cache_dir = tmp_path / "cache"
        outputs = [tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"]
        for out in outputs:
            code, stdout, _ = run_cli(
                [command, data, out, "--cache-dir", cache_dir, "--workers", "2"], capsys
            )
            assert code == EXIT_OK
            assert [path.name for path in cache_dir.iterdir()] == [ResponseCache.FILENAME]
        assert calls in stdout
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_a_warm_search_and_merge_read_the_cache_once_per_sample(
        self, tmp_path, capsys, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        search, distill = tmp_path / "search.jsonl", tmp_path / "distill.jsonl"
        assert run_cli(["search-labels", TOY, search, "--cache-dir", cache_dir], capsys)[0] == 0
        assert run_cli(["distill-labels", TOY, distill,
                        "--distill-endpoint", "fixed:{1, 2}"], capsys)[0] == 0
        merge = ["merge-labels", TOY, "--labels", search, "--labels", distill,
                 "--cache-dir", cache_dir]
        assert run_cli(merge[:2] + [tmp_path / "cold-merge.jsonl"] + merge[2:], capsys)[0] == 0

        statements: list[str] = []
        connect = sqlite3.connect

        def tracing_connect(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            return conn

        monkeypatch.setattr(sqlite3, "connect", tracing_connect)
        samples = len(TOY.read_text("utf-8").splitlines())
        for argv, summary in (
            (["search-labels", TOY, tmp_path / "warm-search.jsonl", "--cache-dir", cache_dir],
             r"searched 10/10 samples .* generator calls 0"),
            (merge[:2] + [tmp_path / "warm-merge.jsonl"] + merge[2:],
             r"merged 10/10 samples .* generator calls 0"),
        ):
            statements.clear()
            code, stdout, _ = run_cli(argv, capsys)
            assert code == EXIT_OK
            assert re.search(summary, stdout), stdout
            reads = [sql for sql in statements if sql.startswith("SELECT")]
            assert len(reads) == samples == 10

        assert (tmp_path / "warm-search.jsonl").read_bytes() == search.read_bytes()
        assert (tmp_path / "warm-merge.jsonl").read_bytes() == (
            tmp_path / "cold-merge.jsonl"
        ).read_bytes()


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

    def test_a_lone_surrogate_fails_before_anything_is_written(
        self, two_planted, tmp_path, capsys
    ):
        data, _, _ = two_planted
        record = serialize_sample(support.planted_sample("cli-3", 3, 2, (1,))[0])
        self.append_line(data, json.dumps({**record, "query": "bad \ud800 q"}).encode())
        out = tmp_path / "search.jsonl"
        cache_dir = tmp_path / "cache"
        code, _, stderr = run_cli(
            ["search-labels", data, out, "--cache-dir", cache_dir], capsys
        )
        assert code == EXIT_VALIDATION
        assert stderr == (
            f"error: SchemaError: {data}, line 3: not valid text: a lone surrogate escape\n"
        )
        assert not out.exists()
        assert not cache_dir.exists()

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

    def test_toy_report_matches_the_golden(self, tmp_path, capsys):
        """Echo predictions for data/toy.jsonl, scored: the report file equals
        tests/goldens/toy_scores.json byte for byte and the printed table is
        pinned line for line, so a rewrite of the scorer cannot move a digit."""
        preds = tmp_path / "pred.jsonl"
        report_path = tmp_path / "scores.json"
        code, _, _ = run_cli(["pipeline", TOY, preds], capsys)
        assert code == EXIT_OK
        code, stdout, _ = run_cli(["evaluate", preds, TOY, "--report", report_path], capsys)
        assert code == EXIT_OK
        golden = Path(__file__).resolve().parent / "goldens" / "toy_scores.json"
        assert report_path.read_bytes() == golden.read_bytes()
        assert stdout.splitlines() == [
            "samples: 10",
            "BLEU      10.00",
            "ROUGE-1   54.55",
            "ROUGE-2   37.79",
            "ROUGE-L   54.55",
            "METEOR    74.28",
            "note: METEOR uses exact and Porter-stem matching only; no synonym stage.",
            "note: Tokenizer: lowercase, ASCII punctuation isolated; "
            "scores are not comparable to detokenized BLEU implementations.",
            f"report -> {report_path}",
        ]

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


class TestSharedParser:
    """`main` parses every call with one parser, built once per process."""

    def test_repeated_parses_do_not_leak_labels(self):
        parser = cli._shared_parser()
        assert cli._shared_parser() is parser

        def labels(*flags):
            return parser.parse_args(["merge-labels", "in", "out", *flags]).labels

        assert labels() == []
        assert labels() == []
        assert labels("--labels", "a") == ["a"]
        assert labels("--labels", "b", "--labels", "c") == ["b", "c"]
        assert labels() == []

    def test_a_command_leaves_no_cyclic_garbage(self, tmp_path, capsys):
        # The first call may build the shared parser; a later one builds none,
        # so nothing it allocated is left for the cycle collector.
        first = run_cli(["search-labels", TOY, tmp_path / "a.jsonl", "--cache-dir", ""], capsys)
        gc.collect()
        second = run_cli(["search-labels", TOY, tmp_path / "b.jsonl", "--cache-dir", ""], capsys)
        freed = gc.collect()
        assert first[0] == second[0] == EXIT_OK
        assert freed == 0
