"""RunConfig defaults, file/env/flag layering, and validation."""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tablehelm.cli import COMMAND_KEYS
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

    def test_a_line_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"workers = 2\ncache_dir = caf\xe9\n")
        with pytest.raises(SchemaError) as exc_info:
            build_config(path, {})
        assert exc_info.value.field == "config"
        assert str(exc_info.value) == f"{path}:2: not valid UTF-8"

    def test_line_without_equals_is_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc_info:
            build_config(path, {})
        assert exc_info.value.field == "config"
        assert "1" in str(exc_info.value)

    def test_line_without_a_key_is_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("workers = 2\n = 3\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc_info:
            build_config(path, {})
        assert exc_info.value.field == "config"
        assert str(exc_info.value) == f"{path}:2: expected key=value, got '= 3'"


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
        kind = "a float" if key == "timeout" else "an int"
        assert str(exc_info.value) == f"{key}: not {kind}: {raw!r}"

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


KEYS = sorted(f.name for f in fields(RunConfig))

# Text that stays on one line of a config file.
one_line = st.text(st.characters(blacklist_characters="\r\n"), max_size=12)
# Values of every kind a reader may meet: any text, numbers, 5,000-digit
# integers, non-finite floats and '=' signs.
values = st.one_of(
    one_line,
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["9" * 5000, "-" + "1" * 5000, "0." + "3" * 5000, "nan", "inf", "-inf",
                     "1e309", "true", "off", "a=b=c", "fixed:x=1", "echo", "http://h/v1"]),
)
keys = st.one_of(st.sampled_from(KEYS), one_line)
file_lines = st.one_of(
    st.tuples(keys, values).map(lambda kv: f"{kv[0]} = {kv[1]}".encode("utf-8")),
    one_line.map(lambda text: text.encode("utf-8")),  # no '=', a comment, blank
    st.binary(max_size=8).filter(lambda raw: b"\n" not in raw and b"\r" not in raw),
)
# An environment value or flag whose bytes are not UTF-8, as Python decodes
# `os.environ` and `sys.argv`.
undecodable = st.binary(max_size=8).map(lambda raw: raw.decode("utf-8", "surrogateescape"))


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    lines=st.lists(file_lines, max_size=6),
    env=st.dictionaries(keys, st.one_of(values, undecodable), max_size=4),
    overrides=st.dictionaries(keys, st.one_of(values, undecodable), max_size=4),
)
@example(lines=[], env={}, overrides={"distill_template": "9" * 5000})  # a name too long
def test_any_input_builds_a_config_or_names_its_key(tmp_path, lines, env, overrides):
    """Config files, `HELM_*` values and flags of any content build a
    RunConfig or raise a SchemaError about one key (or one file line):
    never another exception."""
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\n".join(lines))
    environment = {ENV_PREFIX + key.upper(): value for key, value in env.items()}
    try:
        build_config(path, environment, overrides)
    except SchemaError as exc:
        message = re.sub(rf"^{re.escape(str(path))}:\d+: ", "", str(exc))
        if exc.field in KEYS:
            assert message.startswith(f"{exc.field}: ")
        elif not message.endswith(f"{exc.field}: unknown config key"):
            # A file line with no key: not UTF-8, or no key before an '='.
            assert exc.field == "config"
            assert message == "not valid UTF-8" or message.startswith("expected key=value")


def test_readme_configuration_table_matches_run_config():
    """Every key has one row, and its "read by" column names the commands
    whose `COMMAND_KEYS` entry holds it."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text("utf-8").split("## Configuration", 1)[1]
    section = section.split("\n## ", 1)[0]
    readers: dict[str, set[str]] = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = line.split("|")
            commands = set(re.findall(r"`([\w-]+)`", cells[3]))
            for key in re.findall(r"`(\w+)`", cells[1]):
                assert key not in readers, f"{key} has two rows"
                readers[key] = commands
    assert set(readers) == set(KEYS)
    for key, commands in readers.items():
        assert commands == {c for c, read in COMMAND_KEYS.items() if key in read}, key
