"""Table modifications: row highlighting, sub-table extraction, linearization.

All functions are pure and operate on immutable tables, so one table can
feed many evidence candidates concurrently. Linearization is the single
rendering used everywhere a table becomes prompt text:

    title : <title>            (only when the title is non-empty)
    col : h1 | h2 | ...
    row 1 : c1 | c2 | ...
    row 2 : ...

Data rows are numbered from 1 so generated evidence indices line up with
what a model reads. Cells containing "|" are escaped as "\\|" to keep
distinct tables distinct after rendering; runs of three or more "#" are
capped at two so table content can never fake a prompt-control marker.

Escaping is skipped where it would change nothing: a row or header whose
cells, joined, hold neither "|" nor "#" is rendered with one join, and only
other rows are escaped cell by cell; a cell with neither "|" nor "#" is
rendered as it is, the "#"-run regex runs only on text that contains "###",
and `parse_row_lines` unescapes only row bodies that contain "\\|" (and
runs its regex only on lines that start with "row "). `highlight` and
`subtable` build their result with `Table.with_rows`, without re-validating
cells that came from a valid table.

The format has one home, `render_table`, which renders the title and header
lines and each row's body once; `linearize` joins them. A label search
renders its table once and joins each candidate from the same pieces: the
sub-table renumbers the evidence rows, and the highlighted table renders
only its starred rows afresh. Both equal, and fail like, `linearize` of
`subtable` or `highlight`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyEvidenceError
from .table_core import Evidence, Table

__all__ = [
    "LinearizedTable",
    "TableRendering",
    "cap_hash_runs",
    "highlight",
    "subtable",
    "linearize",
    "render_table",
    "star_cell",
    "strip_star",
    "is_starred",
]

_HASH_RUN_RE = re.compile(r"#{3,}")
ROW_LINE_RE = re.compile(r"^row (\d+) : (.*)$")


def cap_hash_runs(text: str) -> str:
    """Collapse runs of three or more '#' to '##'.

    Applied to every piece of data interpolated into a prompt so no cell,
    query, or reference can smuggle in a prompt-control marker.
    """
    return _HASH_RUN_RE.sub("##", text) if "###" in text else text


def star_cell(cell: str) -> str:
    return f"*{cell}*"


def is_starred(cell: str) -> bool:
    return len(cell) >= 2 and cell.startswith("*") and cell.endswith("*")


def strip_star(cell: str) -> str:
    """Remove exactly one layer of star wrapping, if present."""
    return cell[1:-1] if is_starred(cell) else cell


def highlight(table: Table, evidence: Evidence) -> Table:
    """Return a new table with every cell of each evidence row star-wrapped.

    Non-evidence rows, the header, and the title are byte-identical;
    dimensions are unchanged. Empty evidence returns an equal copy.
    """
    evidence.check_range(table.n_rows)
    marked = set(evidence)
    rows = tuple(
        tuple(star_cell(c) for c in row) if i in marked else row
        for i, row in enumerate(table.rows, start=1)
    )
    return table.with_rows(rows)


def _check_subtable(evidence: Evidence, n_rows: int) -> None:
    if len(evidence) == 0:
        raise EmptyEvidenceError("sub-table extraction needs at least one evidence row")
    evidence.check_range(n_rows)


def subtable(table: Table, evidence: Evidence) -> Table:
    """Extract only the evidence rows (original relative order) plus header."""
    _check_subtable(evidence, table.n_rows)
    return table.with_rows(tuple(table.rows[i - 1] for i in evidence))


@dataclass(frozen=True)
class LinearizedTable:
    """Row-by-row string rendering of a table."""

    text: str

    def __str__(self) -> str:
        return self.text


def _render_cell(cell: str) -> str:
    if "|" not in cell and "#" not in cell:
        return cell
    return cap_hash_runs(cell.replace("|", "\\|"))


def unescape_cell(rendered: str) -> str:
    return rendered.replace("\\|", "|")


def _render_cells(cells: tuple[str, ...]) -> str:
    joined = "".join(cells)
    if "|" not in joined and "#" not in joined:
        return " | ".join(cells)
    return " | ".join(map(_render_cell, cells))


@dataclass(frozen=True)
class TableRendering:
    """A table's prompt text in pieces (see `render_table`): the title and
    header lines, and each row's body without its "row i : " prefix."""

    table: Table
    head: str
    bodies: tuple[str, ...]

    def join(self, bodies: Iterable[str]) -> str:
        """The head over `bodies`, numbered from 1."""
        return "\n".join([self.head] + [f"row {i} : {b}" for i, b in enumerate(bodies, 1)])

    def subtable_text(self, evidence: Evidence) -> str:
        """`linearize(subtable(table, evidence)).text`."""
        _check_subtable(evidence, len(self.bodies))
        return self.join([self.bodies[i - 1] for i in evidence])

    def highlight_text(self, evidence: Evidence) -> str:
        """`linearize(highlight(table, evidence)).text`."""
        evidence.check_range(len(self.bodies))
        bodies = list(self.bodies)
        for i in evidence:
            bodies[i - 1] = _render_cells(tuple(map(star_cell, self.table.rows[i - 1])))
        return self.join(bodies)


def render_table(table: Table) -> TableRendering:
    """Render a table's title, header and row bodies once."""
    head = "col : " + _render_cells(table.header)
    if table.title:
        head = f"title : {_render_cell(table.title)}\n{head}"
    return TableRendering(table, head, tuple(map(_render_cells, table.rows)))


def linearize(table: Table) -> LinearizedTable:
    """Render a table to its deterministic prompt text."""
    rendering = render_table(table)
    return LinearizedTable(text=rendering.join(rendering.bodies))


def parse_row_lines(text: str) -> list[tuple[int, list[str], bool]]:
    """Recover (row number, cells, starred) triples from linearized text.

    Used by offline oracles that must read a table back out of a prompt.
    A row counts as starred when every cell is star-wrapped, which is how
    highlight() marks evidence rows.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("row "):
            continue
        m = ROW_LINE_RE.match(line)
        if not m:
            continue
        body = m.group(2)
        cells = body.split(" | ")
        if "\\|" in body:
            cells = [unescape_cell(c) for c in cells]
        starred = all(map(is_starred, cells))
        if starred:
            cells = [strip_star(c) for c in cells]
        rows.append((int(m.group(1)), cells, starred))
    return rows
