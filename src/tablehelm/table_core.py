"""Canonical table/sample data model, validation, and dataset ingestion.

The canonical on-disk format is JSON Lines, one sample per line:

    {"id": str, "title": str, "header": [str], "rows": [[str]],
     "query": str, "reference": str, "evidence": [int] | null}

Evidence indices are 1-based data-row indices; the header is never
indexable. All types here are immutable after construction and safe to
share between workers.

`parse_sample` is the only code that turns an input record into a Sample.
The FeTaQA and QTSumm adapters check their own source fields, map them
onto a canonical record and hand it to `parse_sample`, so cell coercion,
row checks and evidence checks are the same for every format, and a bad
table in a source record is reported under the canonical field name
(`header`, `rows`, `evidence`). Row arity is checked by `Table` alone.

Each cell is coerced and normalised once, in `parse_sample`: a string cell
is whitespace-collapsed inline, and only numbers and invalid values take the
slower coercion that rejects them. `Table(...)` stays the one constructor
and keeps every check, so a table built directly is held to the same rules
as a loaded one; on the hot path each check is a plain `in` or `strip()`
test, and a cell that fails one is re-checked only to name its fault.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TypeVar

from .errors import EvidenceRangeError, RaggedTableError, SchemaError

__all__ = [
    "Row",
    "Table",
    "Evidence",
    "Sample",
    "Dataset",
    "ParseFailure",
    "ParseReport",
    "evidence_field",
    "normalize_cell",
    "parse_sample",
    "serialize_sample",
    "adapt_fetaqa",
    "adapt_qtsumm",
    "read_records",
    "load_dataset",
    "save_dataset",
]

T = TypeVar("T")

# A data row is a plain tuple of cell texts; arity is enforced by Table.
Row = tuple[str, ...]


def normalize_cell(raw: str) -> str:
    """Collapse interior whitespace runs to single spaces and trim."""
    return " ".join(raw.split())


def _check_cell(cell: str, where: str) -> None:
    if "\t" in cell or "\n" in cell or "\r" in cell:
        raise ValueError(f"{where} contains control whitespace: {cell!r}")
    if cell != cell.strip():
        raise ValueError(f"{where} has leading/trailing whitespace: {cell!r}")


@dataclass(frozen=True)
class Table:
    """A titled header plus at least one data row of text cells."""

    header: tuple[str, ...]
    rows: tuple[Row, ...]
    title: str = ""

    def __post_init__(self) -> None:
        header = tuple(self.header)
        rows = tuple(map(tuple, self.rows))  # tuple() of a tuple is that tuple
        object.__setattr__(self, "header", header)
        object.__setattr__(self, "rows", rows)
        width = len(header)
        if width < 1:
            raise ValueError("table header must have at least one column")
        if not rows:
            raise ValueError("table must have at least one data row")
        _check_cell(self.title, "title")
        for cell in header:
            _check_cell(cell, "header cell")
        for i, row in enumerate(rows, start=1):
            if len(row) != width:
                raise RaggedTableError(i, expected=width, got=len(row))
            for cell in row:
                # `_check_cell`'s tests inline; it runs only to raise.
                if "\t" in cell or "\n" in cell or "\r" in cell or cell != cell.strip():
                    _check_cell(cell, f"row {i} cell")

    def with_rows(self, rows: tuple[Row, ...]) -> Table:
        """This table's header and title over `rows`, built without checks.

        For tables derived from this one: `rows` must be a tuple of tuples
        of this table's arity, each cell one of its own cells, possibly
        star-wrapped, and there must be at least one row. Validation is safe
        to skip then: a valid cell has no control whitespace and no outer
        whitespace, and wrapping it in '*' adds neither, so the result would
        pass every check `Table(...)` makes, and it equals (and hashes like)
        the table `Table(...)` would build from the same cells.
        """
        derived = object.__new__(self.__class__)
        object.__setattr__(derived, "header", self.header)
        object.__setattr__(derived, "rows", rows)
        object.__setattr__(derived, "title", self.title)
        return derived

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.header)


@dataclass(frozen=True)
class Evidence:
    """Strictly ascending 1-based data-row indices. May be empty."""

    indices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        indices = tuple(map(int, self.indices))
        object.__setattr__(self, "indices", indices)
        prev = 0
        for cur in indices:
            if cur <= prev:
                if cur < 1:
                    raise ValueError(f"evidence index {cur} is not 1-based")
                raise ValueError(f"evidence indices not strictly ascending: {indices}")
            prev = cur

    @classmethod
    def from_any(cls, values: Iterable[int]) -> Evidence:
        """Build from any iterable of indices, sorting and deduplicating."""
        return cls(tuple(sorted(set(int(v) for v in values))))

    def check_range(self, n_rows: int) -> None:
        for i in self.indices:
            if i > n_rows:
                raise EvidenceRangeError(i, n_rows)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, item: object) -> bool:
        return item in self.indices


@dataclass(frozen=True)
class Sample:
    """One dataset record: table, query, and the golden reference output."""

    id: str
    table: Table
    query: str
    reference: str
    manual_evidence: Evidence | None = None
    # Auxiliary source metadata (e.g. upstream cell-coordinate highlights);
    # never consulted by the pipeline; `serialize_sample` writes it when set.
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("sample id must be non-empty")
        if not self.query.strip():
            raise ValueError(f"sample {self.id!r}: query must be non-empty")
        if not self.reference.strip():
            raise ValueError(f"sample {self.id!r}: reference must be non-empty")
        if self.manual_evidence is not None:
            self.manual_evidence.check_range(self.table.n_rows)


@dataclass(frozen=True)
class Dataset:
    """Ordered samples with unique ids; order mirrors the input file."""

    samples: tuple[Sample, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))
        seen: set[str] = set()
        for s in self.samples:
            if s.id in seen:
                raise ValueError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)


@dataclass
class ParseFailure:
    line: int
    message: str


@dataclass
class ParseReport:
    """Per-line failures and warnings collected by a lenient load."""

    failures: list[ParseFailure] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _require(record: Mapping[str, Any], key: str, kind: type | tuple[type, ...]) -> Any:
    if key not in record:
        raise SchemaError(key)
    value = record[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(key, f"field {key!r} has wrong type: {type(value).__name__}")
    return value


def _as_cell(value: Any, key: str) -> str:
    # Upstream formats carry numbers in cells; coerce scalars, reject nests.
    if isinstance(value, bool) or value is None:
        raise SchemaError(key, f"field {key!r} holds a non-text cell: {value!r}")
    if isinstance(value, (str, int, float)):
        return normalize_cell(str(value))
    raise SchemaError(key, f"field {key!r} holds a non-text cell: {value!r}")


def evidence_field(record: Mapping[str, Any], key: str,
                   n_rows: int | None = None) -> Evidence | None:
    """The row set `record[key]` (a dataset's `evidence`, a label's `e_*`), or
    None if absent or null. Anything but a list of ints is a `SchemaError`
    naming `key`, as is an index below 1 without `n_rows`; with it, an index
    outside [1, n_rows] is an `EvidenceRangeError`."""
    if (raw := record.get(key)) is None:
        return None
    if not isinstance(raw, list):
        raise SchemaError(key, f"field {key!r} must be a list of ints or null")
    for v in raw:
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaError(key, f"field {key!r} holds a non-integer index: {v!r}")
        if n_rows is not None and not 1 <= v <= n_rows:
            raise EvidenceRangeError(v, n_rows)
        if v < 1:
            raise SchemaError(key, f"field {key!r} holds index {v}, which is not 1-based")
    return Evidence.from_any(raw)


def parse_sample(record: Mapping[str, Any]) -> Sample:
    """Parse one canonical-schema record into a validated Sample."""
    sample_id = _require(record, "id", str)
    header_raw = _require(record, "header", list)
    rows_raw = _require(record, "rows", list)
    query = _require(record, "query", str)
    reference = _require(record, "reference", str)
    title = record.get("title", "")
    if not isinstance(title, str):
        raise SchemaError("title", "field 'title' must be a string")

    # A JSON string cell is normalised inline; numbers and invalid values
    # take `_as_cell`, which coerces or rejects them.
    header = tuple([" ".join(v.split()) if type(v) is str else _as_cell(v, "header")
                    for v in header_raw])
    rows = []
    for i, row in enumerate(rows_raw, start=1):
        if not isinstance(row, list):
            raise SchemaError("rows", f"row {i} is not a list")
        rows.append(tuple([" ".join(v.split()) if type(v) is str else _as_cell(v, "rows")
                           for v in row]))

    # Table checks row arity and raises RaggedTableError, which is not a
    # ValueError; its other ValueErrors (no columns, no rows) are schema errors.
    try:
        table = Table(header=header, rows=tuple(rows), title=normalize_cell(title))
    except ValueError as exc:
        raise SchemaError("rows", str(exc)) from exc

    evidence = evidence_field(record, "evidence", table.n_rows)
    meta = record.get("meta", {})
    if not isinstance(meta, dict):
        raise SchemaError("meta", "field 'meta' must be an object")
    return Sample(
        id=sample_id,
        table=table,
        query=query,
        reference=reference,
        manual_evidence=evidence,
        meta=dict(meta),
    )


def serialize_sample(sample: Sample) -> dict[str, Any]:
    """Canonical-schema dict for one sample; inverse of parse_sample."""
    record = {
        "id": sample.id,
        "title": sample.table.title,
        "header": list(sample.table.header),
        "rows": [list(r) for r in sample.table.rows],
        "query": sample.query,
        "reference": sample.reference,
        "evidence": list(sample.manual_evidence) if sample.manual_evidence is not None else None,
    }
    if sample.meta:
        record["meta"] = dict(sample.meta)
    return record


def _title_part(record: Mapping[str, Any], key: str) -> str:
    # An absent or null title part is empty; any other non-string is an error.
    value = record.get(key)
    if value is None:
        return ""
    if not isinstance(value, str):
        raise SchemaError("title", f"field {key!r} must be a string or null")
    return value


def adapt_fetaqa(record: Mapping[str, Any]) -> Sample:
    """Map a FeTaQA release record onto a canonical record and parse it.

    The first table-array row is the header and the rest are the data rows;
    the title joins the page and section titles with " - ". Cell-coordinate
    highlights, when present, are kept in sample.meta and never promoted
    to evidence: the merge set for this corpus is built from search and
    distillation.
    """
    feta_id = _require(record, "feta_id", (int, str))
    table_array = _require(record, "table_array", list)
    question = _require(record, "question", str)
    answer = _require(record, "answer", str)
    if len(table_array) < 2:
        raise SchemaError("table_array", "table_array needs a header row plus data rows")

    title_parts = [
        normalize_cell(_title_part(record, "table_page_title")),
        normalize_cell(_title_part(record, "table_section_title")),
    ]
    canonical = {
        "id": str(feta_id),
        "title": " - ".join(p for p in title_parts if p),
        "header": table_array[0],
        "rows": table_array[1:],
        "query": question,
        "reference": answer,
    }
    if "highlighted_cell_ids" in record:
        canonical["meta"] = {"highlighted_cell_ids": record["highlighted_cell_ids"]}
    return parse_sample(canonical)


def adapt_qtsumm(record: Mapping[str, Any]) -> Sample:
    """Map a QTSumm release record onto a canonical record and parse it.

    The table object's header, rows and title become the canonical ones.
    Human-annotated relevant rows ride in as manual evidence when the
    record carries them (key "row_ids", 1-based).
    """
    table = _require(record, "table", dict)
    query = _require(record, "query", str)
    summary = _require(record, "summary", str)
    sample_id = record.get("example_id", record.get("id"))
    if sample_id is None or isinstance(sample_id, bool) or not isinstance(sample_id, (int, str)):
        raise SchemaError("example_id")

    canonical = {
        "id": str(sample_id),
        "title": _title_part(table, "title"),
        "query": query,
        "reference": summary,
        "evidence": record.get("row_ids"),
    }
    canonical.update((key, table[key]) for key in ("header", "rows") if key in table)
    return parse_sample(canonical)


_ADAPTERS = {
    "canonical": parse_sample,
    "fetaqa": adapt_fetaqa,
    "qtsumm": adapt_qtsumm,
}


# A JSON escape in U+D800-U+DFFF. Unless it is half of a surrogate pair it
# decodes to a lone surrogate, which no UTF-8 output (a saved line, a cache
# key, a request body) can hold.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _json_object(line: str) -> dict[str, Any]:
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError("record", "not valid UTF-8") from None
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        # Its own "line 1 column C" would misname the line in the file.
        raise SchemaError("record", f"not JSON: {exc.msg} at column {exc.colno}") from None
    except RecursionError:
        raise SchemaError("record", "not JSON: nested too deeply to decode") from None
    if not isinstance(record, dict):
        raise SchemaError("record", "not a JSON object")
    if _SURROGATE_ESCAPE.search(line):
        try:
            json.dumps(record, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError("record", "not valid text: a lone surrogate escape") from None
    return record


def read_records(
    path: str | Path,
    parse: Callable[[dict[str, Any]], T],
    failures: list[ParseFailure] | None = None,
) -> Iterator[T]:
    """Yield `parse(record)` for the JSON object on each non-blank line of a
    JSONL file, in file order.

    A line that is not UTF-8, not a JSON object (or one nested too deeply to
    decode), holds a lone surrogate escape (`"\\ud800"`), or that `parse`
    rejects raises `SchemaError` reading `<path>, line N: <message>`; when
    `failures` is given, the line is recorded there (its message names no
    line) and skipped instead.
    """
    # Iterate the handle, which ends lines at newlines only: JSON strings may
    # hold U+2028, U+2029 and U+0085 raw, and str.splitlines() splits there.
    # Bytes that are not UTF-8 decode to lone surrogates, so that one bad
    # line fails on its own, in the per-line handling below.
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                parsed = parse(_json_object(line))
            except (SchemaError, RaggedTableError, EvidenceRangeError, ValueError) as exc:
                if failures is None:
                    where = f"{path}, line {line_no}"
                    raise SchemaError(getattr(exc, "field", "record"), f"{where}: {exc}") from exc
                failures.append(ParseFailure(line_no, str(exc)))
                continue
            yield parsed


def load_dataset(
    path: str | Path,
    format: str = "canonical",
    strict: bool = False,
) -> tuple[Dataset, ParseReport]:
    """Load a JSONL dataset, one record per line.

    Lenient mode (default) collects per-line failures in the report and
    keeps going; strict mode raises on the first failure (see
    `read_records`). Sample order follows file order exactly.
    """
    if format not in _ADAPTERS:
        raise SchemaError("format", f"unknown dataset format {format!r}")
    adapt = _ADAPTERS[format]
    report = ParseReport()
    seen: set[str] = set()

    def parse(record: dict[str, Any]) -> Sample:
        sample = adapt(record)
        if sample.id in seen:
            raise SchemaError("id", f"duplicate sample id {sample.id!r}")
        seen.add(sample.id)
        return sample

    samples = tuple(read_records(path, parse, None if strict else report.failures))
    if not samples and not report.failures:
        report.warnings.append(f"{path}: no samples found")
    return Dataset(samples), report


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the canonical JSONL form."""
    with open(path, "w", encoding="utf-8") as f:
        for sample in dataset:
            f.write(json.dumps(serialize_sample(sample), ensure_ascii=False) + "\n")
