"""Run configuration: defaults, a flat key=value config file, environment
overrides, and command-line overrides, in that order of increasing
precedence (flags > environment > file > defaults).

Environment variables use the HELM_ prefix over the upper-cased key, e.g.
HELM_CACHE_DIR for cache_dir. Booleans accept true/false, yes/no, 1/0.
A step_cap or worker-style integer of 0 means "unbounded" where noted.
Every error names the key it is about, e.g. "timeout: not a float: 'abc'",
and an error about a value read from the config file starts with its file
and line, e.g. "run.cfg:2: timeout: not a float: 'abc'".
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

from .errors import SchemaError

__all__ = ["RunConfig", "SamplingConfig", "build_config", "ENV_PREFIX"]

ENV_PREFIX = "HELM_"

ABLATIONS = ("full", "no_highlight", "subtab")
DATASET_FORMATS = ("canonical", "fetaqa", "qtsumm")

# Each sampling key and the SamplingConfig field it sets; SamplingConfig
# owns their ranges.
_SAMPLING_FIELDS = {
    "max_new_tokens": "max_new_tokens",
    **{
        f"{role}_{field}": field
        for role in ("highlighter", "summarizer", "feedbacker")
        for field in ("temperature", "nucleus_p")
    },
}


@dataclass(frozen=True)
class SamplingConfig:
    """Decoding parameters sent to a generator."""

    nucleus_p: float = 0.9
    temperature: float = 0.1
    max_new_tokens: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.nucleus_p <= 1.0:
            raise ValueError(f"nucleus_p must be in (0, 1], got {self.nucleus_p}")
        if not 0.0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")


def _invalid(key: str, problem: str) -> SchemaError:
    """A config error whose message starts with the key it is about."""
    return SchemaError(key, f"{key}: {problem}")


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the batch commands."""

    dataset_format: str = "canonical"

    highlighter_endpoint: str = "echo"
    summarizer_endpoint: str = "echo"
    feedbacker_endpoint: str = "echo"
    distill_endpoint: str = ""  # empty: use the feedbacker endpoint

    highlighter_model: str = "highlighter"
    summarizer_model: str = "summarizer"
    feedbacker_model: str = "feedbacker"
    distill_model: str = "distill"

    # Template overrides; empty string means the packaged default.
    highlighter_template: str = ""
    summarizer_template: str = ""
    distill_template: str = ""
    distill_examples: str = ""

    # Sampling. The feedbacker defaults to greedy decoding: label search
    # compares rewards, which sampling noise would scramble.
    highlighter_temperature: float = 0.1
    highlighter_nucleus_p: float = 0.9
    summarizer_temperature: float = 0.1
    summarizer_nucleus_p: float = 0.9
    feedbacker_temperature: float = 0.0
    feedbacker_nucleus_p: float = 1.0
    max_new_tokens: int = 256

    cache_dir: str = ""  # empty: no response cache
    workers: int = 4
    timeout: float = 60.0
    max_attempts: int = 5
    max_in_flight: int = 4

    search_fallback: bool = True
    step_cap: int = 0  # accepted-additions cap; 0 = unbounded

    ablation: str = "full"
    token_budget: int = 2048
    success_threshold: float = 0.95

    def __post_init__(self) -> None:
        if self.ablation not in ABLATIONS:
            raise _invalid("ablation", f"must be one of {ABLATIONS}")
        if self.dataset_format not in DATASET_FORMATS:
            raise _invalid("dataset_format", f"must be one of {DATASET_FORMATS}")
        if self.workers < 1:
            raise _invalid("workers", "must be at least 1")
        if self.max_attempts < 1:
            raise _invalid("max_attempts", "must be at least 1")
        if self.max_in_flight < 1:
            raise _invalid("max_in_flight", "must be at least 1")
        if self.step_cap < 0:
            raise _invalid("step_cap", "must be 0 (unbounded) or positive")
        if self.token_budget < 1:
            raise _invalid("token_budget", "must be at least 1")
        if not 0.0 <= self.success_threshold <= 1.0:
            raise _invalid("success_threshold", "must be in [0, 1]")
        if not 0 < self.timeout < math.inf:
            raise _invalid("timeout", "must be positive and finite")
        for key, field in _SAMPLING_FIELDS.items():
            try:
                SamplingConfig(**{field: getattr(self, key)})
            except ValueError as exc:
                raise _invalid(key, str(exc)) from exc
        for key in (
            "highlighter_template",
            "summarizer_template",
            "distill_template",
            "distill_examples",
        ):
            path = getattr(self, key)
            if path and not Path(path).is_file():
                raise _invalid(key, f"file not found: {path}")

    @property
    def step_cap_or_none(self) -> int | None:
        return self.step_cap if self.step_cap > 0 else None


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str) -> object:
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    if kind == "bool":
        lowered = raw.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise _invalid(key, f"not a boolean: {raw!r}")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise _invalid(key, f"not a {kind}: {raw!r}") from exc
    return raw


def _read_config_file(path: str | Path) -> dict[str, tuple[str, str]]:
    """Parse 'key = value' lines ('#' starts a comment, blanks are skipped)
    into key -> (raw value, "<file>:<line>" it was read from)."""
    values: dict[str, tuple[str, str]] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, value = stripped.partition("=")
            if not sep:
                raise SchemaError(
                    "config", f"{path}:{line_no}: expected key=value, got {stripped!r}"
                )
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise SchemaError(key, f"{path}:{line_no}: {key}: unknown config key")
            values[key] = (value.strip(), f"{path}:{line_no}")
    return values


def build_config(
    file_path: str | Path | None = None,
    env: Mapping[str, str] = os.environ,
    overrides: Mapping[str, str] | None = None,
) -> RunConfig:
    """Assemble a RunConfig; flags beat environment beat file beat defaults.
    An error about a value that came from the file names its file and line."""
    raw: dict[str, str] = {}
    file_lines: dict[str, str] = {}  # key -> "<file>:<line>" of a file value in use
    if file_path is not None:
        for key, (value, where) in _read_config_file(file_path).items():
            raw[key] = value
            file_lines[key] = where
    for key in _FIELD_TYPES:
        env_key = ENV_PREFIX + key.upper()
        if env_key in env:
            raw[key] = env[env_key]
            file_lines.pop(key, None)
    if overrides:
        for key, value in overrides.items():
            if key not in _FIELD_TYPES:
                raise _invalid(key, "unknown config key")
            raw[key] = value
            file_lines.pop(key, None)
    try:
        return RunConfig(**{key: _coerce(key, value) for key, value in raw.items()})
    except SchemaError as exc:
        where = file_lines.get(exc.field)
        if where is None:
            raise
        raise SchemaError(exc.field, f"{where}: {exc}") from exc
