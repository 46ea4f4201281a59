"""Two-step table-to-text tooling: evidence highlighting, summarization
prompts, reward-guided evidence-label search, and evaluation."""

from .table_core import Dataset, Evidence, Sample, Table, load_dataset, save_dataset
from .transforms import highlight, linearize, subtable
from .metrics import bleu, corpus_evaluate, eval_reward, meteor, rouge_l, rouge_n
from .prompting import (
    build_distill_prompt,
    build_highlighter_prompt,
    build_summarizer_prompt,
    parse_evidence_output,
)
from .feedback import (
    EchoClient,
    FixedClient,
    HttpClient,
    ResponseCache,
    SamplingConfig,
    feedback_reward,
)
from .evidence_lab import (
    LabeledSample,
    exhaustive_search,
    greedy_search,
    merge_labels,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Evidence",
    "Sample",
    "Table",
    "load_dataset",
    "save_dataset",
    "highlight",
    "linearize",
    "subtable",
    "bleu",
    "corpus_evaluate",
    "eval_reward",
    "meteor",
    "rouge_l",
    "rouge_n",
    "build_distill_prompt",
    "build_highlighter_prompt",
    "build_summarizer_prompt",
    "parse_evidence_output",
    "EchoClient",
    "FixedClient",
    "HttpClient",
    "ResponseCache",
    "SamplingConfig",
    "feedback_reward",
    "LabeledSample",
    "exhaustive_search",
    "greedy_search",
    "merge_labels",
    "__version__",
]
