"""Highlighting, sub-table extraction, and linearization."""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from tablehelm.errors import EmptyEvidenceError, EvidenceRangeError, NoTableFoundError
from tablehelm.feedback import SEARCH_SAMPLING, echo_oracle_generate
from tablehelm.table_core import Evidence, Table
from tablehelm.transforms import (
    cap_hash_runs,
    highlight,
    is_starred,
    linearize,
    star_cell,
    strip_star,
    subtable,
)

# Cells that take, and cells that skip, each escaping fast path: a pipe, an
# already escaped pipe, hashes below, at and over the cap, a pipe beside a
# hash, and star wrapping. A row or header of cells with neither "|" nor "#"
# is rendered with one join; one such cell sends the whole row cell by cell.
ESCAPE_PROBES = (
    "a|b", "a \\| b", "\\|", "#", "##", "x##", "###", "a####b", "|#", "*x*", "*", "plain",
)


@st.composite
def probe_tables(
    draw, probes: tuple[str, ...] = ESCAPE_PROBES, alphabet: str = support.CELL_ALPHABET
) -> Table:
    cell = st.one_of(st.sampled_from(probes), support.cells(alphabet=alphabet))
    n_cols = draw(st.integers(1, 4))
    row = st.tuples(*[cell] * n_cols)
    rows = tuple(draw(row) for _ in range(draw(st.integers(1, 6))))
    return Table(header=draw(row), rows=rows, title=draw(cell))


def render_always_escaping(table: Table) -> str:
    """linearize() without its fast paths: escape and cap every cell."""

    def render(cell: str) -> str:
        return re.sub(r"#{3,}", "##", cell.replace("|", "\\|"))

    lines = [f"title : {render(table.title)}"] if table.title else []
    lines.append("col : " + " | ".join(map(render, table.header)))
    for i, row in enumerate(table.rows, start=1):
        lines.append(f"row {i} : " + " | ".join(map(render, row)))
    return "\n".join(lines)


class TestStarring:
    def test_wrap_and_strip(self):
        assert star_cell("84") == "*84*"
        assert strip_star("*84*") == "84"
        assert strip_star("84") == "84"

    def test_one_layer_only(self):
        assert strip_star(star_cell("*x*")) == "*x*"

    def test_empty_cell_round_trips(self):
        assert strip_star(star_cell("")) == ""

    def test_is_starred_edge_cases(self):
        assert is_starred("**")
        assert not is_starred("*")
        assert not is_starred("")
        assert not is_starred("*open")


class TestHighlight:
    def test_marks_only_evidence_rows(self, champions_table):
        marked = highlight(champions_table, Evidence((2,)))
        assert marked.rows[0] == champions_table.rows[0]
        assert marked.rows[1] == ("*2000*", "*PSV*", "*84*")
        assert marked.rows[2] == champions_table.rows[2]
        assert marked.header == champions_table.header
        assert marked.title == champions_table.title

    def test_empty_evidence_is_identity(self, champions_table):
        assert highlight(champions_table, Evidence(())) == champions_table

    def test_out_of_range_evidence_rejected(self, champions_table):
        with pytest.raises(EvidenceRangeError):
            highlight(champions_table, Evidence((4,)))

    def test_original_table_untouched(self, champions_table):
        highlight(champions_table, Evidence((1, 2, 3)))
        assert champions_table.rows[0] == ("1999", "Ajax", "78")


class TestSubtable:
    def test_keeps_evidence_rows_in_order(self, champions_table):
        sub = subtable(champions_table, Evidence((1, 3)))
        assert sub.rows == (champions_table.rows[0], champions_table.rows[2])
        assert sub.header == champions_table.header

    def test_single_row(self, champions_table):
        sub = subtable(champions_table, Evidence((2,)))
        assert sub.rows == (champions_table.rows[1],)

    def test_full_evidence_is_identity(self, champions_table):
        assert subtable(champions_table, Evidence((1, 2, 3))) == champions_table

    def test_empty_evidence_rejected(self, champions_table):
        with pytest.raises(EmptyEvidenceError):
            subtable(champions_table, Evidence(()))


class TestLinearize:
    def test_fixed_rendering(self, champions_table):
        assert linearize(champions_table).text == (
            "title : Eredivisie champions\n"
            "col : Season | Team | Points\n"
            "row 1 : 1999 | Ajax | 78\n"
            "row 2 : 2000 | PSV | 84\n"
            "row 3 : 2001 | Feyenoord | 80"
        )

    def test_untitled_table_has_no_title_line(self):
        table = Table(header=("a",), rows=(("1",),))
        assert linearize(table).text == "col : a\nrow 1 : 1"

    def test_starred_cells_render_verbatim(self, champions_table):
        text = linearize(highlight(champions_table, Evidence((1,)))).text
        assert "row 1 : *1999* | *Ajax* | *78*" in text

    def test_pipes_in_cells_are_escaped(self):
        table = Table(header=("h",), rows=(("a | b",),))
        assert "row 1 : a \\| b" in linearize(table).text

    def test_pipe_escape_prevents_column_collision(self):
        one_cell = Table(header=("h1 | h2",), rows=(("a | b",),))
        two_cells = Table(header=("h1", "h2"), rows=(("a", "b"),))
        assert linearize(one_cell).text != linearize(two_cells).text

    def test_hash_runs_are_capped_in_cells_and_title(self):
        table = Table(header=("###h",), rows=(("x####",),), title="####t")
        text = linearize(table).text
        assert "###" not in text
        assert "##h" in text and "x##" in text and "##t" in text

    def test_hash_capping_is_deliberately_lossy(self):
        # "###" and "##" render identically; marker safety wins over
        # injectivity for cells not already in capped form.
        a = Table(header=("h",), rows=(("###",),))
        b = Table(header=("h",), rows=(("##",),))
        assert linearize(a).text == linearize(b).text


class TestParseRowLines:
    """Row lines read back out of a rendering. The one reader is the echo
    oracle, which answers with the cells of the starred rows, or of every
    row when none is starred."""

    @staticmethod
    def read(text: str) -> str:
        return echo_oracle_generate(text, SEARCH_SAMPLING)

    def test_round_trip_through_rendering(self, champions_table):
        got = self.read(linearize(champions_table).text)
        assert got == "1999 Ajax 78 2000 PSV 84 2001 Feyenoord 80"

    def test_starred_rows_are_flagged_and_unwrapped(self, champions_table):
        text = linearize(highlight(champions_table, Evidence((2,)))).text
        assert self.read(text) == "2000 PSV 84"

    def test_escaped_pipes_are_restored(self):
        table = Table(header=("h",), rows=(("a | b",),))
        assert self.read(linearize(table).text) == "a | b"

    def test_ignores_non_row_lines(self):
        with pytest.raises(NoTableFoundError):
            self.read("no table here\ncol : a")
        assert self.read("col : a\nrow 1 : b\nrows 2 : c\nrow x : d") == "b"


def test_cap_hash_runs():
    assert cap_hash_runs("####") == "##"
    assert cap_hash_runs("###Output") == "##Output"
    assert cap_hash_runs("##") == "##"
    assert cap_hash_runs("a#b##c") == "a#b##c"


# ------------------------------------------------------------- properties


@given(st.data())
def test_highlight_preserves_shape_and_untouched_rows(data):
    table = data.draw(support.tables())
    evidence = data.draw(support.evidence_for(table))
    marked = highlight(table, evidence)
    assert marked.n_rows == table.n_rows
    assert marked.n_cols == table.n_cols
    assert marked.header == table.header
    assert marked.title == table.title
    for i, (before, after) in enumerate(zip(table.rows, marked.rows), start=1):
        if i in evidence:
            assert all(is_starred(c) for c in after)
            assert tuple(strip_star(c) for c in after) == before
        else:
            assert after == before


@given(st.data())
def test_star_round_trip_recovers_the_table(data):
    table = data.draw(support.tables())
    evidence = data.draw(support.evidence_for(table))
    marked = highlight(table, evidence)
    restored = Table(
        header=marked.header,
        rows=tuple(
            tuple(strip_star(c) for c in row) if i in evidence else row
            for i, row in enumerate(marked.rows, start=1)
        ),
        title=marked.title,
    )
    assert restored == table


@given(st.data())
def test_subtable_cardinality_order_and_idempotence(data):
    table = data.draw(support.tables())
    evidence = data.draw(support.evidence_for(table, allow_empty=False))
    sub = subtable(table, evidence)
    assert sub.n_rows == len(evidence)
    assert sub.rows == tuple(table.rows[i - 1] for i in evidence)
    full = Evidence(tuple(range(1, sub.n_rows + 1)))
    assert subtable(sub, full) == sub


@given(st.data())
def test_linearize_distinguishes_distinct_tables(data):
    table = data.draw(support.tables())
    other = data.draw(support.mutated(table))
    if other != table:
        assert linearize(other).text != linearize(table).text


@given(st.data())
def test_empty_evidence_highlight_renders_identically(data):
    table = data.draw(support.tables())
    assert linearize(highlight(table, Evidence(()))).text == linearize(table).text


@given(st.data())
def test_parse_row_lines_inverts_linearize(data):
    # A row whose cells are all naturally star-wrapped is indistinguishable
    # from a highlighted one, so this inverse holds only for star-free cells;
    # capping "###" is lossy, so those probes are left out too. Reading a row
    # back joins its cells with spaces, so cells here hold no space: the
    # answer, split on spaces, is then the read rows' cells.
    alphabet = support.CELL_ALPHABET.replace("*", "").replace(" ", "")
    probes = tuple(p for p in ESCAPE_PROBES if "###" not in p and "*" not in p and " " not in p)
    table = data.draw(probe_tables(probes, alphabet))
    evidence = data.draw(support.evidence_for(table))
    answer = echo_oracle_generate(linearize(highlight(table, evidence)).text, SEARCH_SAMPLING)
    read = evidence if len(evidence) else range(1, table.n_rows + 1)
    assert answer.split(" ") == [cell for i in read for cell in table.rows[i - 1]]


@given(st.data())
def test_derived_tables_equal_validated_ones(data):
    # highlight() and subtable() skip Table's checks; what they build must be
    # the table Table(...) builds, and validates, from the same cells.
    table = data.draw(probe_tables())
    evidence = data.draw(support.evidence_for(table))
    derived = [highlight(table, evidence)]
    if len(evidence) > 0:
        derived.append(subtable(table, evidence))
    for result in derived:
        validated = Table(
            header=list(result.header),
            rows=[list(row) for row in result.rows],
            title=result.title,
        )
        assert result == validated
        assert hash(result) == hash(validated)


@given(st.data())
def test_escaping_fast_paths_render_what_full_escaping_renders(data):
    table = data.draw(probe_tables())
    evidence = data.draw(support.evidence_for(table))
    for shown in (table, highlight(table, evidence)):
        assert linearize(shown).text == render_always_escaping(shown)


@given(st.text(alphabet="#a|", max_size=12))
def test_cap_hash_runs_fast_path_matches_the_regex(text):
    assert cap_hash_runs(text) == re.sub(r"#{3,}", "##", text)
