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
    "MalformedResponseError",
    "TableTooLargeError",
    "MissingLabelError",
    "UnmatchedIdError",
    "BACKEND_ERRORS",
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


class MalformedResponseError(TableHelmError):
    """A 2xx response that does not carry a completion."""


class TableTooLargeError(TableHelmError):
    """Exhaustive search refused a table with too many rows."""

    def __init__(self, n_rows: int, n_max: int):
        super().__init__(f"table has {n_rows} rows, exhaustive limit is {n_max}")


class MissingLabelError(TableHelmError):
    """A strict training export hit a sample without the required label."""

    def __init__(self, sample_id: str, source: str):
        self.sample_id = sample_id
        super().__init__(f"sample {sample_id!r} has no {source} label")


class UnmatchedIdError(TableHelmError):
    """Prediction ids that do not exist in the reference dataset."""

    def __init__(self, ids: list[str]):
        self.ids = list(ids)
        shown = ", ".join(self.ids[:5])
        more = "" if len(self.ids) <= 5 else f" (+{len(self.ids) - 5} more)"
        super().__init__(f"prediction ids not in dataset: {shown}{more}")


# Errors that map to the "backend" CLI exit code rather than "validation".
BACKEND_ERRORS = (AuthError, RateLimitError, TransportError, MalformedResponseError)
