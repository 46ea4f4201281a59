"""Exception types shared across the pipeline.

Two broad families matter for CLI exit codes: validation problems
(bad input data, bad templates, bad evidence) and backend problems
(HTTP transport, auth, rate limits). Everything derives from
TableHelmError so callers can catch pipeline errors as one class.
"""

from __future__ import annotations

__all__ = [
    "TableHelmError",
    "SchemaError",
    "RaggedTableError",
    "EvidenceRangeError",
    "EmptyEvidenceError",
    "TemplateError",
    "PromptTooLongError",
    "NoIndicesError",
    "NoTableFoundError",
    "EmptyCorpusError",
    "AuthError",
    "RateLimitError",
    "TransportError",
    "EndpointNotFoundError",
    "MalformedResponseError",
    "TableTooLargeError",
    "MissingLabelError",
    "UnmatchedIdError",
    "OutputBusyError",
    "BACKEND_ERRORS",
    "JOB_FATAL_ERRORS",
]


class TableHelmError(Exception):
    """Base class for all pipeline errors."""


class SchemaError(TableHelmError):
    """A record is missing a field or a field has the wrong type."""

    def __init__(self, field: str, message: str | None = None):
        self.field = field
        super().__init__(message or f"bad or missing field: {field!r}")


class RaggedTableError(TableHelmError):
    """A data row's cell count does not match the header arity."""

    def __init__(self, row_index: int, expected: int, got: int):
        self.row_index = row_index
        super().__init__(
            f"row {row_index} has {got} cells, header has {expected}"
        )


class EvidenceRangeError(TableHelmError):
    """An evidence index falls outside [1, n] for the target table."""

    def __init__(self, index: int, n_rows: int):
        self.index = index
        self.n_rows = n_rows
        super().__init__(f"evidence index {index} out of range [1, {n_rows}]")


class EmptyEvidenceError(TableHelmError):
    """An operation that needs at least one evidence row got none."""


class TemplateError(TableHelmError):
    """A prompt template is missing a slot or an output marker."""


class PromptTooLongError(TableHelmError):
    """A rendered prompt exceeds the configured token-estimate budget."""

    def __init__(self, estimate: int, budget: int):
        self.estimate = estimate
        self.budget = budget
        super().__init__(f"prompt estimate {estimate} tokens exceeds budget {budget}")


class NoIndicesError(TableHelmError):
    """A generator's evidence output contained no integers at all."""


class NoTableFoundError(TableHelmError):
    """A prompt handed to the echo oracle contains no table lines."""


class EmptyCorpusError(TableHelmError):
    """corpus_evaluate needs at least one (hypothesis, reference) pair."""


class AuthError(TableHelmError):
    """The backend rejected our credentials. Never retried."""


class RateLimitError(TableHelmError):
    """The backend kept rate-limiting us after all retries."""


class TransportError(TableHelmError):
    """Connection-level failure (refused, timeout, 5xx) after retries."""


class EndpointNotFoundError(TransportError):
    """The endpoint answered 404 (a wrong path or an unknown model) or a
    redirect, which is never followed (a wrong URL). That holds for every
    prompt, so it ends the whole job, as AuthError does."""


class MalformedResponseError(TableHelmError):
    """A 2xx response that does not carry a completion."""


class TableTooLargeError(TableHelmError):
    """Exhaustive search refused a table with too many rows."""

    def __init__(self, n_rows: int, n_max: int):
        super().__init__(f"table has {n_rows} rows, exhaustive limit is {n_max}")


class MissingLabelError(TableHelmError):
    """A strict export's `source` label, or for a merge any label, is missing."""

    def __init__(self, sample_id: str, source: str | None = None):
        self.sample_id = sample_id
        missing = f"{source} label" if source else "label from any source"
        super().__init__(f"sample {sample_id!r} has no {missing}")


class UnmatchedIdError(TableHelmError):
    """Prediction ids that do not exist in the reference dataset."""

    def __init__(self, ids: list[str]):
        self.ids = list(ids)
        shown = ", ".join(self.ids[:5])
        more = "" if len(self.ids) <= 5 else f" (+{len(self.ids) - 5} more)"
        super().__init__(f"prediction ids not in dataset: {shown}{more}")


class OutputBusyError(TableHelmError):
    """Another job holds the lock on an output file that a batch command
    appends to, so both would run and write the same samples."""

    def __init__(self, path: str):
        self.path = path
        super().__init__(f"{path} is locked by another job writing it")


# Errors that map to the "backend" CLI exit code rather than "validation".
BACKEND_ERRORS = (AuthError, RateLimitError, TransportError, MalformedResponseError)

# Backend errors that every later call would repeat: they end the whole job
# instead of failing one candidate or sample.
JOB_FATAL_ERRORS = (AuthError, EndpointNotFoundError)
