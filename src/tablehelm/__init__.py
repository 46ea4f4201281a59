"""Two-step table-to-text tooling: evidence highlighting, summarization
prompts, reward-guided evidence-label search, and evaluation.

The names below load with their module on first use (PEP 562), so
`import tablehelm.metrics` or `import tablehelm.cli` does not import the
label search, the clients or the cache: `from tablehelm import bleu` loads
`metrics` and what it imports, and nothing else.
"""

from __future__ import annotations

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    "Dataset": "table_core",
    "Evidence": "table_core",
    "Sample": "table_core",
    "Table": "table_core",
    "load_dataset": "table_core",
    "save_dataset": "table_core",
    "highlight": "transforms",
    "linearize": "transforms",
    "subtable": "transforms",
    "bleu": "metrics",
    "corpus_evaluate": "metrics",
    "eval_reward": "metrics",
    "meteor": "metrics",
    "rouge_l": "metrics",
    "rouge_n": "metrics",
    "build_distill_prompt": "prompting",
    "build_highlighter_prompt": "prompting",
    "build_summarizer_prompt": "prompting",
    "parse_evidence_output": "prompting",
    "EchoClient": "feedback",
    "FixedClient": "feedback",
    "HttpClient": "feedback",
    "ResponseCache": "feedback",
    "SamplingConfig": "config",
    "feedback_reward": "feedback",
    "LabeledSample": "evidence_lab",
    "exhaustive_search": "evidence_lab",
    "greedy_search": "evidence_lab",
    "merge_labels": "evidence_lab",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str) -> object:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
