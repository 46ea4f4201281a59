"""Shared builders and strategies for the test suite.

Planted samples make the optimal evidence knowable by construction: every
cell is a unique word and the reference is exactly the planted rows' cells
read in order. A summary of precisely the planted sub-table therefore
scores BLEU 1.0, any other row set scores strictly less, and every row
contributes the same number of tokens, so singleton rewards are comparable.
"""

from __future__ import annotations

import json
import random
import string
from pathlib import Path

from hypothesis import strategies as st

from tablehelm.evidence_lab import LabeledSample, labeled_to_record
from tablehelm.table_core import (
    Evidence,
    Sample,
    Table,
    normalize_cell,
    serialize_sample,
)
from tablehelm.transforms import cap_hash_runs


def champions_table() -> Table:
    return Table(
        header=("Season", "Team", "Points"),
        rows=(
            ("1999", "Ajax", "78"),
            ("2000", "PSV", "84"),
            ("2001", "Feyenoord", "80"),
        ),
        title="Eredivisie champions",
    )


def champions_sample() -> Sample:
    return Sample(
        id="champ-1",
        table=champions_table(),
        query="Who won the 2000 season and with how many points?",
        reference="PSV won the 2000 season with 84 points.",
        manual_evidence=Evidence((2,)),
    )


def word(k: int) -> str:
    """Bijective base-26 word: 0 -> 'a', 25 -> 'z', 26 -> 'aa', ..."""
    k += 1
    letters = []
    while k:
        k, rem = divmod(k - 1, 26)
        letters.append(string.ascii_lowercase[rem])
    return "".join(reversed(letters))


def planted_sample(
    sample_id: str,
    n_rows: int,
    n_cols: int,
    planted: tuple[int, ...],
    salt: str = "",
    manual: bool = False,
) -> tuple[Sample, Evidence]:
    """A table of unique single-word cells plus its known best evidence."""

    def cell(r: int, c: int) -> str:
        return salt + word(r * n_cols + c)

    header = tuple(cell(0, c) for c in range(n_cols))
    rows = tuple(
        tuple(cell(r, c) for c in range(n_cols)) for r in range(1, n_rows + 1)
    )
    evidence = Evidence(tuple(sorted(planted)))
    evidence.check_range(n_rows)
    reference = " ".join(c for i in evidence for c in rows[i - 1])
    sample = Sample(
        id=sample_id,
        table=Table(header=header, rows=rows, title=f"fixture {sample_id}"),
        query="Which rows carry the summary?",
        reference=reference,
        manual_evidence=evidence if manual else None,
    )
    return sample, evidence


def random_planted(rng: random.Random, sample_id: str) -> tuple[Sample, Evidence]:
    """Random planted sample with n <= 8 rows and at most 3 planted rows."""
    n_rows = rng.randint(1, 8)
    n_cols = rng.randint(1, 3)
    size = rng.randint(1, min(3, n_rows))
    planted = tuple(sorted(rng.sample(range(1, n_rows + 1), size)))
    salt = "".join(rng.choice(string.ascii_lowercase) for _ in range(2))
    return planted_sample(sample_id, n_rows, n_cols, planted, salt=salt)


def write_dataset(path: Path, samples: list[Sample]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sample in samples:
            handle.write(json.dumps(serialize_sample(sample), ensure_ascii=False))
            handle.write("\n")


def save_labels(path: Path, labels: list[LabeledSample], append: bool = False) -> None:
    """Write a label file the way the CLI does, one JSON record per sample."""
    with open(path, "a" if append else "w", encoding="utf-8") as handle:
        for labeled in labels:
            handle.write(json.dumps(labeled_to_record(labeled), ensure_ascii=False))
            handle.write("\n")


# ------------------------------------------------------------- strategies

# Pipes, stars, hashes, and colons are all structural characters somewhere
# in the rendering, so cells that contain them probe the escaping rules.
CELL_ALPHABET = string.ascii_lowercase + string.digits + " |*#:.,-_"


def cells(max_size: int = 8, alphabet: str = CELL_ALPHABET) -> st.SearchStrategy[str]:
    # Normalized and hash-capped, i.e. already in canonical rendered form;
    # linearization is only injective over such cells.
    return st.text(alphabet=alphabet, max_size=max_size).map(
        lambda s: cap_hash_runs(normalize_cell(s))
    )


@st.composite
def tables(
    draw,
    min_rows: int = 1,
    max_rows: int = 6,
    min_cols: int = 1,
    max_cols: int = 4,
    alphabet: str = CELL_ALPHABET,
) -> Table:
    n_cols = draw(st.integers(min_cols, max_cols))
    n_rows = draw(st.integers(min_rows, max_rows))
    row = st.tuples(*[cells(alphabet=alphabet) for _ in range(n_cols)])
    header = draw(row)
    table_rows = tuple(draw(row) for _ in range(n_rows))
    title = draw(cells(max_size=12, alphabet=alphabet))
    return Table(header=header, rows=table_rows, title=title)


@st.composite
def evidence_for(draw, table: Table, allow_empty: bool = True) -> Evidence:
    indices = draw(
        st.sets(
            st.integers(1, table.n_rows),
            min_size=0 if allow_empty else 1,
        )
    )
    return Evidence(tuple(sorted(indices)))


@st.composite
def tables_with_evidence(draw, allow_empty: bool = True, **kwargs):
    table = draw(tables(**kwargs))
    return table, draw(evidence_for(table, allow_empty=allow_empty))


@st.composite
def mutated(draw, table: Table) -> Table:
    """A structural edit of `table`; may be a no-op for degenerate shapes.

    The "merge" case folds two adjacent columns into one pipe-bearing cell,
    which is exactly the collision the "|" escaping has to prevent.
    """
    op = draw(st.sampled_from(("cell", "title", "drop", "swap", "merge")))
    if op == "cell":
        r = draw(st.integers(0, table.n_rows - 1))
        c = draw(st.integers(0, table.n_cols - 1))
        rows = [list(row) for row in table.rows]
        rows[r][c] = rows[r][c] + "x"
        return Table(
            header=table.header,
            rows=tuple(tuple(row) for row in rows),
            title=table.title,
        )
    if op == "title":
        return Table(
            header=table.header,
            rows=table.rows,
            title=normalize_cell(table.title + "t"),
        )
    if op == "drop":
        if table.n_rows < 2:
            return table
        return Table(header=table.header, rows=table.rows[:-1], title=table.title)
    if op == "swap":
        if table.n_rows < 2:
            return table
        i = draw(st.integers(0, table.n_rows - 2))
        rows = list(table.rows)
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
        return Table(header=table.header, rows=tuple(rows), title=table.title)
    if table.n_cols < 2:
        return table
    c = draw(st.integers(0, table.n_cols - 2))

    def squash(row: tuple[str, ...]) -> tuple[str, ...]:
        merged = normalize_cell(f"{row[c]} | {row[c + 1]}")
        return row[:c] + (merged,) + row[c + 2 :]

    return Table(
        header=squash(table.header),
        rows=tuple(squash(row) for row in table.rows),
        title=table.title,
    )
