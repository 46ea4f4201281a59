"""RunConfig defaults, file/env/flag layering, and validation."""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import pytest

from tablehelm.config import ENV_PREFIX, RunConfig, build_config
from tablehelm.errors import SchemaError
from tablehelm.feedback import SamplingConfig


class TestDefaults:
    def test_spot_values(self):
        cfg = RunConfig()
        assert cfg.dataset_format == "canonical"
        assert cfg.highlighter_endpoint == "echo"
        assert cfg.summarizer_endpoint == "echo"
        assert cfg.feedbacker_endpoint == "echo"
        assert cfg.distill_endpoint == ""
        assert (cfg.feedbacker_nucleus_p, cfg.feedbacker_temperature) == (1.0, 0.0)
        assert (cfg.summarizer_nucleus_p, cfg.summarizer_temperature) == (0.9, 0.1)
        assert cfg.workers == 4
        assert cfg.step_cap == 0
        assert cfg.max_new_tokens == 256
        assert cfg.ablation == "full"
        assert cfg.token_budget == 2048
        assert cfg.success_threshold == 0.95
        assert cfg.search_fallback is True

    def test_step_cap_or_none(self):
        assert RunConfig().step_cap_or_none is None
        assert RunConfig(step_cap=3).step_cap_or_none == 3

    def test_build_config_without_sources_is_the_default(self):
        assert build_config(env={}) == RunConfig()


class TestConfigFile:
    def test_parses_comments_blanks_and_spacing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "\n"
            "workers = 2\n"
            "  ablation=no_highlight  \n"
            "timeout =  7.5\n",
            encoding="utf-8",
        )
        cfg = build_config(path, {})
        assert (cfg.workers, cfg.ablation, cfg.timeout) == (2, "no_highlight", 7.5)

    def test_value_may_contain_equals_signs(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("cache_dir = /tmp/a=b=c\n", encoding="utf-8")
        assert build_config(path, {}).cache_dir == "/tmp/a=b=c"

    def test_unknown_key_is_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("worker_count = 2\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc_info:
            build_config(path, {})
        assert exc_info.value.field == "worker_count"
        assert str(exc_info.value) == f"{path}:1: worker_count: unknown config key"

    def test_line_without_equals_is_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc_info:
            build_config(path, {})
        assert exc_info.value.field == "config"
        assert "1" in str(exc_info.value)


class TestLayering:
    def test_flags_beat_env_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("workers = 2\n", encoding="utf-8")
        env = {ENV_PREFIX + "WORKERS": "3"}
        assert build_config(path, env=env).workers == 3
        assert build_config(path, env=env, overrides={"workers": "5"}).workers == 5
        assert build_config(path, env={}).workers == 2

    def test_a_file_value_that_is_not_a_number_names_its_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("workers = 2\ntimeout = abc\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc_info:
            build_config(path, env={})
        assert exc_info.value.field == "timeout"
        assert str(exc_info.value) == f"{path}:2: timeout: not a float: 'abc'"

    def test_a_file_value_out_of_range_names_its_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# workers\n\nworkers = 0\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc_info:
            build_config(path, env={})
        assert exc_info.value.field == "workers"
        assert str(exc_info.value) == f"{path}:3: workers: must be at least 1"

    @pytest.mark.parametrize(
        ("env", "overrides"),
        [({ENV_PREFIX + "TIMEOUT": "5"}, None), ({}, {"timeout": "5"})],
        ids=["environment", "flag"],
    )
    def test_a_bad_file_value_that_is_overridden_is_no_error(self, tmp_path, env, overrides):
        path = tmp_path / "run.cfg"
        path.write_text("timeout = abc\n", encoding="utf-8")
        assert build_config(path, env=env, overrides=overrides).timeout == 5.0

    def test_a_bad_override_of_a_file_value_keeps_its_own_text(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("workers = 2\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc_info:
            build_config(path, env={ENV_PREFIX + "WORKERS": "0"})
        assert str(exc_info.value) == "workers: must be at least 1"

    def test_env_key_naming(self):
        cfg = build_config(env={"HELM_CACHE_DIR": "/tmp/c", "HELM_STEP_CAP": "2"})
        assert cfg.cache_dir == "/tmp/c"
        assert cfg.step_cap == 2

    def test_unrelated_helm_variables_are_ignored(self):
        assert build_config(env={"HELM_API_KEY": "secret"}) == RunConfig()

    def test_unknown_override_key_is_rejected(self):
        with pytest.raises(SchemaError) as exc_info:
            build_config(env={}, overrides={"retries": "3"})
        assert exc_info.value.field == "retries"
        assert str(exc_info.value) == "retries: unknown config key"


class TestCoercion:
    @pytest.mark.parametrize("raw", ["true", "YES", "1", "on"])
    def test_truthy_booleans(self, raw):
        cfg = build_config(env={}, overrides={"search_fallback": raw})
        assert cfg.search_fallback is True

    @pytest.mark.parametrize("raw", ["false", "No", "0", "off"])
    def test_falsy_booleans(self, raw):
        cfg = build_config(env={}, overrides={"search_fallback": raw})
        assert cfg.search_fallback is False

    def test_bad_boolean_is_rejected(self):
        with pytest.raises(SchemaError) as exc_info:
            build_config(env={}, overrides={"search_fallback": "maybe"})
        assert exc_info.value.field == "search_fallback"
        assert str(exc_info.value) == "search_fallback: not a boolean: 'maybe'"

    def test_numbers_are_coerced(self):
        cfg = build_config(
            env={}, overrides={"workers": " 8 ", "timeout": "0.25", "step_cap": "6"}
        )
        assert cfg.workers == 8
        assert cfg.timeout == 0.25
        assert cfg.step_cap == 6

    @pytest.mark.parametrize(
        ("key", "raw"), [("workers", "abc"), ("timeout", "fast"), ("step_cap", "6.5")]
    )
    def test_bad_numbers_are_rejected(self, key, raw):
        with pytest.raises(SchemaError) as exc_info:
            build_config(env={}, overrides={key: raw})
        assert exc_info.value.field == key
        assert str(exc_info.value).startswith(f"{key}: not a ")

    def test_strings_pass_through(self):
        cfg = build_config(env={}, overrides={"summarizer_endpoint": "fixed:hello"})
        assert cfg.summarizer_endpoint == "fixed:hello"


class TestValidation:
    @pytest.mark.parametrize(
        ("kwargs", "field"),
        [
            ({"ablation": "none"}, "ablation"),
            ({"dataset_format": "csv"}, "dataset_format"),
            ({"workers": 0}, "workers"),
            ({"max_attempts": 0}, "max_attempts"),
            ({"max_in_flight": 0}, "max_in_flight"),
            ({"step_cap": -1}, "step_cap"),
            ({"timeout": -1.0}, "timeout"),
            ({"token_budget": 0}, "token_budget"),
            ({"success_threshold": 1.5}, "success_threshold"),
            ({"success_threshold": -0.1}, "success_threshold"),
            ({"timeout": 0.0}, "timeout"),
            ({"timeout": float("nan")}, "timeout"),
            ({"timeout": float("inf")}, "timeout"),
            ({"max_new_tokens": 0}, "max_new_tokens"),
            ({"highlighter_temperature": -1.0}, "highlighter_temperature"),
            ({"summarizer_temperature": float("nan")}, "summarizer_temperature"),
            ({"feedbacker_temperature": float("inf")}, "feedbacker_temperature"),
            ({"highlighter_nucleus_p": 0.0}, "highlighter_nucleus_p"),
            ({"summarizer_nucleus_p": 1.5}, "summarizer_nucleus_p"),
            ({"feedbacker_nucleus_p": float("nan")}, "feedbacker_nucleus_p"),
        ],
    )
    def test_out_of_range_values(self, kwargs, field):
        with pytest.raises(SchemaError) as exc_info:
            RunConfig(**kwargs)
        assert exc_info.value.field == field
        assert str(exc_info.value).startswith(f"{field}: ")

    def test_sampling_ranges_are_samplingconfigs(self):
        """RunConfig takes its sampling ranges from SamplingConfig: the
        message after the key is SamplingConfig's own."""
        with pytest.raises(ValueError) as expected:
            SamplingConfig(temperature=-1.0)
        with pytest.raises(SchemaError) as exc_info:
            RunConfig(summarizer_temperature=-1.0)
        assert str(exc_info.value) == f"summarizer_temperature: {expected.value}"

    def test_template_paths_must_exist(self, tmp_path):
        with pytest.raises(SchemaError) as exc_info:
            RunConfig(highlighter_template=str(tmp_path / "absent.txt"))
        assert exc_info.value.field == "highlighter_template"
        assert str(exc_info.value).startswith("highlighter_template: file not found")

    def test_existing_template_path_is_accepted(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("irrelevant here\n", encoding="utf-8")
        cfg = RunConfig(summarizer_template=str(path))
        assert cfg.summarizer_template == str(path)

    def test_empty_template_path_means_packaged_default(self):
        assert RunConfig(highlighter_template="").highlighter_template == ""


def test_readme_configuration_table_matches_run_config():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text("utf-8").split("## Configuration", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            documented.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    keys = {f.name for f in fields(RunConfig)}
    assert documented - keys == set(), "README documents keys RunConfig lacks"
    assert keys - documented == set(), "RunConfig keys missing from README"
