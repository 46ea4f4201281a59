"""Data model validation, canonical JSONL parsing, and format adapters."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from tablehelm.errors import EvidenceRangeError, RaggedTableError, SchemaError
from tablehelm.table_core import (
    Dataset,
    Evidence,
    Sample,
    Table,
    adapt_fetaqa,
    adapt_qtsumm,
    load_dataset,
    normalize_cell,
    parse_sample,
    save_dataset,
    serialize_sample,
)


def canonical_record(**overrides) -> dict:
    record = {
        "id": "s1",
        "title": "Seasons",
        "header": ["Year", "Team"],
        "rows": [["1999", "Ajax"], ["2000", "PSV"]],
        "query": "Who won?",
        "reference": "PSV won.",
        "evidence": [2],
    }
    record.update(overrides)
    return record


class TestTable:
    def test_valid_table_normalizes_to_tuples(self):
        table = Table(header=["a", "b"], rows=[["1", "2"]])
        assert table.header == ("a", "b")
        assert table.rows == (("1", "2"),)
        assert table.n_rows == 1 and table.n_cols == 2

    def test_empty_header_rejected(self):
        with pytest.raises(ValueError):
            Table(header=(), rows=(("x",),))

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            Table(header=("a",), rows=())

    def test_ragged_row_names_its_index(self):
        with pytest.raises(RaggedTableError) as excinfo:
            Table(header=("a", "b"), rows=(("1", "2"), ("3",)))
        assert excinfo.value.row_index == 2
        assert "row 2" in str(excinfo.value)

    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", " a", "a "])
    def test_control_or_edge_whitespace_rejected(self, bad):
        with pytest.raises(ValueError):
            Table(header=("h",), rows=((bad,),))

    def test_empty_cell_is_fine(self):
        Table(header=("h",), rows=(("",),))

    @staticmethod
    def table_with(where: str, cell: str) -> Table:
        """A two-row table whose title, a header cell or a cell of row 2 is `cell`."""
        header, rows, title = ["h", "k"], [["1", "2"], ["3", "4"]], "t"
        if where == "title":
            title = cell
        elif where == "header cell":
            header[1] = cell
        else:
            rows[1][1] = cell
        return Table(header=header, rows=rows, title=title)

    @pytest.mark.parametrize("where", ["title", "header cell", "row 2 cell"])
    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb", "\t", " a\nb "])
    def test_control_whitespace_named_where_it_is(self, where, bad):
        with pytest.raises(ValueError) as excinfo:
            self.table_with(where, bad)
        assert str(excinfo.value) == f"{where} contains control whitespace: {bad!r}"

    @pytest.mark.parametrize("where", ["title", "header cell", "row 2 cell"])
    @pytest.mark.parametrize("bad", [" a", "a ", "\xa0a", "a\x0b", "\x85", " "])
    def test_outer_whitespace_named_where_it_is(self, where, bad):
        with pytest.raises(ValueError) as excinfo:
            self.table_with(where, bad)
        assert str(excinfo.value) == f"{where} has leading/trailing whitespace: {bad!r}"

    def test_ragged_row_message_counts_both_widths(self):
        with pytest.raises(RaggedTableError) as excinfo:
            Table(header=("a", "b"), rows=(("1", "2"), ("3", "4", "5")))
        assert str(excinfo.value) == "row 2 has 3 cells, header has 2"

    def test_first_bad_cell_in_row_order_is_named(self):
        with pytest.raises(ValueError) as excinfo:
            Table(header=("a", "b"), rows=(("1", "2"), ("x ", "y\tz")))
        assert str(excinfo.value) == "row 2 cell has leading/trailing whitespace: 'x '"


class TestEvidence:
    def test_orders_must_be_strictly_ascending(self):
        with pytest.raises(ValueError):
            Evidence((2, 1))
        with pytest.raises(ValueError):
            Evidence((1, 1))

    def test_indices_are_one_based(self):
        with pytest.raises(ValueError):
            Evidence((0,))

    def test_from_any_sorts_and_dedupes(self):
        assert Evidence.from_any([3, 1, 3, 2]) == Evidence((1, 2, 3))

    def test_collection_protocol(self):
        evidence = Evidence((1, 2, 3))
        assert len(evidence) == 3
        assert 2 in evidence
        assert list(evidence) == [1, 2, 3]

    def test_check_range(self):
        Evidence((1, 3)).check_range(3)
        with pytest.raises(EvidenceRangeError) as excinfo:
            Evidence((4,)).check_range(3)
        assert excinfo.value.index == 4


class TestSampleAndDataset:
    def test_empty_query_rejected(self, champions_table):
        with pytest.raises(ValueError):
            Sample(id="x", table=champions_table, query="  ", reference="y")

    def test_manual_evidence_checked_against_table(self, champions_table):
        with pytest.raises(EvidenceRangeError):
            Sample(
                id="x",
                table=champions_table,
                query="q",
                reference="r",
                manual_evidence=Evidence((9,)),
            )

    def test_duplicate_ids_rejected(self, champions_sample):
        with pytest.raises(ValueError):
            Dataset((champions_sample, champions_sample))

    def test_order_follows_construction(self, champions_sample):
        dataset = Dataset((champions_sample,))
        assert [s.id for s in dataset] == ["champ-1"]


class TestParseSample:
    def test_round_trip(self):
        record = canonical_record()
        sample = parse_sample(record)
        assert sample.id == "s1"
        assert sample.table.title == "Seasons"
        assert sample.manual_evidence == Evidence((2,))
        assert serialize_sample(sample) == record

    def test_meta_survives_the_round_trip(self):
        record = canonical_record(meta={"planted": [1, 2]})
        sample = parse_sample(record)
        assert sample.meta == {"planted": [1, 2]}
        assert serialize_sample(sample)["meta"] == {"planted": [1, 2]}

    def test_empty_meta_not_serialized(self):
        record = canonical_record()
        assert "meta" not in serialize_sample(parse_sample(record))

    def test_meta_must_be_an_object(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_sample(canonical_record(meta=[1]))
        assert excinfo.value.field == "meta"

    @pytest.mark.parametrize("key", ["id", "header", "rows", "query", "reference"])
    def test_missing_field_names_the_field(self, key):
        record = canonical_record()
        del record[key]
        with pytest.raises(SchemaError) as excinfo:
            parse_sample(record)
        assert excinfo.value.field == key

    def test_cells_are_whitespace_normalized(self):
        record = canonical_record(rows=[["  19  99 ", "Ajax"], ["2000", "PSV"]])
        sample = parse_sample(record)
        assert sample.table.rows[0][0] == "19 99"

    def test_numeric_cells_are_coerced_to_text(self):
        record = canonical_record(rows=[[1999, "Ajax"], [20.5, "PSV"]])
        sample = parse_sample(record)
        assert sample.table.rows[0][0] == "1999"
        assert sample.table.rows[1][0] == "20.5"

    @pytest.mark.parametrize("cell", [True, None, ["nested"], {"a": 1}])
    def test_non_scalar_cells_rejected(self, cell):
        record = canonical_record(rows=[[cell, "Ajax"], ["2000", "PSV"]])
        with pytest.raises(SchemaError):
            parse_sample(record)

    def test_ragged_record_names_row(self):
        record = canonical_record(rows=[["1999", "Ajax"], ["2000"]])
        with pytest.raises(RaggedTableError) as excinfo:
            parse_sample(record)
        assert excinfo.value.row_index == 2

    def test_evidence_out_of_range(self):
        with pytest.raises(EvidenceRangeError):
            parse_sample(canonical_record(evidence=[9]))

    @pytest.mark.parametrize("evidence", [[1.5], ["2"], [True], "2"])
    def test_evidence_must_be_integer_list_or_null(self, evidence):
        with pytest.raises(SchemaError):
            parse_sample(canonical_record(evidence=evidence))

    def test_null_evidence_means_unlabeled(self):
        assert parse_sample(canonical_record(evidence=None)).manual_evidence is None

    def test_evidence_list_is_deduplicated(self):
        sample = parse_sample(canonical_record(evidence=[2, 1, 2]))
        assert sample.manual_evidence == Evidence((1, 2))

    def test_title_must_be_text(self):
        with pytest.raises(SchemaError):
            parse_sample(canonical_record(title=7))

    @given(st.data())
    def test_serialize_then_parse_is_identity(self, data):
        table = data.draw(support.tables())
        evidence = data.draw(support.evidence_for(table))
        sample = Sample(
            id="prop",
            table=table,
            query="q?",
            reference="an answer",
            manual_evidence=evidence if len(evidence) else None,
        )
        record = json.loads(json.dumps(serialize_sample(sample)))
        assert parse_sample(record) == sample


# Whitespace that str.split() collapses, beyond the space: control
# characters, information separators, NEL, no-break and ideographic spaces.
_SPACES = " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000"
_CELL_TEXT = st.text(st.sampled_from("ab.7é😀" + _SPACES), max_size=10)
_GOOD_CELLS = st.one_of(_CELL_TEXT, st.integers(), st.floats())
_BAD_CELLS = st.sampled_from([None, True, False, [], ["x"], [["y"]], {"k": 1}])
_BAD_ROWS = st.sampled_from(["row", 7, None, {"k": 1}])


@st.composite
def loose_records(draw) -> dict:
    """Canonical records with a table that is valid half the time and
    otherwise may be empty, ragged, or hold bad cells or rows."""
    if draw(st.booleans()):
        width = draw(st.integers(1, 4))
        header = draw(st.lists(_GOOD_CELLS, min_size=width, max_size=width))
        row = st.lists(_GOOD_CELLS, min_size=width, max_size=width)
        rows = draw(st.lists(row, min_size=1, max_size=4))
    else:
        cell = _GOOD_CELLS | _BAD_CELLS
        header = draw(st.lists(cell, max_size=4))
        rows = draw(st.lists(st.lists(cell, max_size=4) | _BAD_ROWS, max_size=4))
    return canonical_record(title=draw(_CELL_TEXT), header=header, rows=rows, evidence=None)


def reference_parse(record: dict) -> Sample:
    """`parse_sample` for the records of `loose_records`, one cell at a time:
    each cell is checked, then normalised as `normalize_cell(str(v))`."""

    def cell(value, key: str) -> str:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise SchemaError(key, f"field {key!r} holds a non-text cell: {value!r}")
        return normalize_cell(str(value))

    header = [cell(v, "header") for v in record["header"]]
    rows = []
    for i, row in enumerate(record["rows"], start=1):
        if not isinstance(row, list):
            raise SchemaError("rows", f"row {i} is not a list")
        rows.append([cell(v, "rows") for v in row])
    try:
        table = Table(header=header, rows=rows, title=normalize_cell(record["title"]))
    except ValueError as exc:
        raise SchemaError("rows", str(exc)) from exc
    return Sample(id=record["id"], table=table, query=record["query"],
                  reference=record["reference"])


def outcome(parse, record: dict):
    """What `parse(record)` returns, or the type, field and text of its error."""
    try:
        return parse(record)
    except Exception as exc:  # the error is the outcome compared
        return type(exc), getattr(exc, "field", None), str(exc)


class TestParseSampleAgainstReference:
    @given(loose_records())
    def test_matches_the_cell_by_cell_reference(self, record):
        # Through JSON, so the cells are what the loader sees in a line.
        record = json.loads(json.dumps(record))
        assert outcome(parse_sample, record) == outcome(reference_parse, record)

    def test_reference_sees_the_cases_it_is_for(self):
        record = canonical_record(header=["a", 1.5], rows=[[" x\x85 y ", 2], [3, "\xa0"]],
                                  evidence=None)
        sample = parse_sample(record)
        assert sample == reference_parse(record)
        assert sample.table.header == ("a", "1.5")
        assert sample.table.rows == (("x y", "2"), ("3", ""))


class TestAdapters:
    def fetaqa_record(self, **overrides) -> dict:
        record = {
            "feta_id": 17,
            "table_array": [["Year", "Team"], ["1999", "Ajax"], [2000, "PSV"]],
            "table_page_title": "Eredivisie",
            "table_section_title": "Champions",
            "highlighted_cell_ids": [[1, 0], [1, 1]],
            "question": "Who won in 1999?",
            "answer": "Ajax won in 1999.",
        }
        record.update(overrides)
        return record

    def test_fetaqa_maps_header_title_and_meta(self):
        sample = adapt_fetaqa(self.fetaqa_record())
        assert sample.id == "17"
        assert sample.table.header == ("Year", "Team")
        assert sample.table.rows == (("1999", "Ajax"), ("2000", "PSV"))
        assert sample.table.title == "Eredivisie - Champions"
        assert sample.manual_evidence is None
        assert sample.meta["highlighted_cell_ids"] == [[1, 0], [1, 1]]

    def test_fetaqa_serializes_to_the_canonical_record(self):
        record = serialize_sample(adapt_fetaqa(self.fetaqa_record()))
        assert json.dumps(record) == json.dumps(
            {
                "id": "17",
                "title": "Eredivisie - Champions",
                "header": ["Year", "Team"],
                "rows": [["1999", "Ajax"], ["2000", "PSV"]],
                "query": "Who won in 1999?",
                "reference": "Ajax won in 1999.",
                "evidence": None,
                "meta": {"highlighted_cell_ids": [[1, 0], [1, 1]]},
            }
        )

    def test_fetaqa_without_section_title(self):
        record = self.fetaqa_record(table_section_title="")
        assert adapt_fetaqa(record).table.title == "Eredivisie"

    def test_fetaqa_null_title_parts_are_empty(self):
        record = self.fetaqa_record(table_page_title=None)
        del record["table_section_title"]
        assert adapt_fetaqa(record).table.title == ""

    @pytest.mark.parametrize("key", ["table_page_title", "table_section_title"])
    @pytest.mark.parametrize("title", [["l"], {"k": 1}, 5, [], False])
    def test_fetaqa_non_text_title_parts_are_rejected(self, key, title):
        with pytest.raises(SchemaError) as exc_info:
            adapt_fetaqa(self.fetaqa_record(**{key: title}))
        assert exc_info.value.field == "title"

    def test_fetaqa_needs_header_plus_data(self):
        record = self.fetaqa_record(table_array=[["Year", "Team"]])
        with pytest.raises(SchemaError):
            adapt_fetaqa(record)

    def qtsumm_record(self, **overrides) -> dict:
        record = {
            "example_id": "q-3",
            "table": {
                "title": "Champions",
                "header": ["Year", "Team"],
                "rows": [["1999", "Ajax"], ["2000", "PSV"]],
            },
            "query": "Summarize the 2000 season.",
            "summary": "PSV took the 2000 title.",
            "row_ids": [2],
        }
        record.update(overrides)
        return record

    def test_qtsumm_maps_rows_and_manual_evidence(self):
        sample = adapt_qtsumm(self.qtsumm_record())
        assert sample.id == "q-3"
        assert sample.table.title == "Champions"
        assert sample.manual_evidence == Evidence((2,))
        assert sample.reference == "PSV took the 2000 title."

    def test_qtsumm_serializes_to_the_canonical_record(self):
        record = serialize_sample(adapt_qtsumm(self.qtsumm_record()))
        assert json.dumps(record) == json.dumps(
            {
                "id": "q-3",
                "title": "Champions",
                "header": ["Year", "Team"],
                "rows": [["1999", "Ajax"], ["2000", "PSV"]],
                "query": "Summarize the 2000 season.",
                "reference": "PSV took the 2000 title.",
                "evidence": [2],
            }
        )

    def test_qtsumm_null_title_is_empty(self):
        record = self.qtsumm_record()
        record["table"]["title"] = None
        assert adapt_qtsumm(record).table.title == ""

    @pytest.mark.parametrize("title", [["l"], {"k": 1}, 5, [], False])
    def test_qtsumm_non_text_title_is_rejected(self, title):
        record = self.qtsumm_record()
        record["table"]["title"] = title
        with pytest.raises(SchemaError) as exc_info:
            adapt_qtsumm(record)
        assert exc_info.value.field == "title"

    def test_qtsumm_id_fallback(self):
        record = self.qtsumm_record()
        del record["example_id"]
        record["id"] = 9
        assert adapt_qtsumm(record).id == "9"

    def test_qtsumm_without_row_ids(self):
        record = self.qtsumm_record(row_ids=None)
        assert adapt_qtsumm(record).manual_evidence is None

    def test_qtsumm_row_ids_out_of_range(self):
        with pytest.raises(EvidenceRangeError):
            adapt_qtsumm(self.qtsumm_record(row_ids=[5]))

    def test_qtsumm_boolean_id_rejected(self):
        with pytest.raises(SchemaError):
            adapt_qtsumm(self.qtsumm_record(example_id=True))

    def test_bad_source_tables_are_reported_under_canonical_fields(self):
        cases = [
            (adapt_fetaqa, self.fetaqa_record(table_array=["Year", ["1999"]]), "header"),
            (adapt_fetaqa, self.fetaqa_record(table_array=[["Year", "Team"], "xy"]), "rows"),
            (adapt_fetaqa, self.fetaqa_record(table_array=[["Year", "Team"], 7]), "rows"),
            (adapt_qtsumm, self.qtsumm_record(table={"rows": [["1999"]]}), "header"),
            (adapt_qtsumm, self.qtsumm_record(row_ids="2"), "evidence"),
        ]
        for adapt, record, field in cases:
            with pytest.raises(SchemaError) as excinfo:
                adapt(record)
            assert excinfo.value.field == field

    def test_ragged_source_rows_name_their_index(self):
        table_array = [["Year", "Team"], ["1999", "Ajax"], ["2000"]]
        with pytest.raises(RaggedTableError) as excinfo:
            adapt_fetaqa(self.fetaqa_record(table_array=table_array))
        assert excinfo.value.row_index == 2
        table = {"header": ["Year", "Team"], "rows": [["1999"]]}
        with pytest.raises(RaggedTableError) as excinfo:
            adapt_qtsumm(self.qtsumm_record(table=table, row_ids=None))
        assert excinfo.value.row_index == 1


class TestLoadDataset:
    def write(self, tmp_path, lines) -> str:
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_lenient_load_collects_failures_with_line_numbers(self, tmp_path):
        lines = [
            json.dumps(canonical_record()),
            "not json at all",
            json.dumps(canonical_record(id="s2", evidence=[7])),
            "",
            json.dumps(canonical_record(id="s3")),
        ]
        dataset, report = load_dataset(self.write(tmp_path, lines))
        assert [s.id for s in dataset] == ["s1", "s3"]
        assert [f.line for f in report.failures] == [2, 3]
        assert not report.ok

    def test_strict_load_raises_on_first_bad_line(self, tmp_path):
        lines = [json.dumps(canonical_record()), "broken"]
        path = self.write(tmp_path, lines)
        with pytest.raises(SchemaError) as excinfo:
            load_dataset(path, strict=True)
        assert str(excinfo.value) == f"{path}, line 2: not JSON: Expecting value at column 1"

    def test_a_line_of_invalid_utf8_fails_alone(self, tmp_path):
        good = [
            json.dumps(canonical_record(id=f"s{i}", query="Ré\u2028sumé?"), ensure_ascii=False)
            .encode("utf-8")
            for i in (1, 2, 3)
        ]
        path = tmp_path / "data.jsonl"
        # A bare bad byte pair, then a record cut inside a multi-byte character.
        path.write_bytes(
            b"\n".join([good[0], b"\xff\xfe", good[1], b'{"id": "\xe2\x82"}', good[2]])
            + b"\n"
        )
        dataset, report = load_dataset(path)
        assert [s.id for s in dataset] == ["s1", "s2", "s3"]
        assert dataset.samples[0].query == "Ré\u2028sumé?"
        assert [(f.line, f.message) for f in report.failures] == [
            (2, "not valid UTF-8"),
            (4, "not valid UTF-8"),
        ]
        with pytest.raises(SchemaError) as excinfo:
            load_dataset(path, strict=True)
        assert str(excinfo.value) == f"{path}, line 2: not valid UTF-8"

    def test_duplicate_id_keeps_first_and_reports(self, tmp_path):
        lines = [
            json.dumps(canonical_record()),
            json.dumps(canonical_record(query="other?")),
        ]
        dataset, report = load_dataset(self.write(tmp_path, lines))
        assert len(dataset) == 1
        assert dataset.samples[0].query == "Who won?"
        assert len(report.failures) == 1

    def test_empty_file_warns(self, tmp_path):
        dataset, report = load_dataset(self.write(tmp_path, [""]))
        assert len(dataset) == 0
        assert report.ok
        assert report.warnings

    def test_unknown_format_rejected(self, tmp_path):
        path = self.write(tmp_path, [json.dumps(canonical_record())])
        with pytest.raises(SchemaError):
            load_dataset(path, format="totto")

    def test_save_then_load_round_trips(self, tmp_path, champions_sample):
        sample, _ = support.planted_sample("p1", 3, 2, (1, 3), manual=True)
        dataset = Dataset((champions_sample, sample))
        path = tmp_path / "out.jsonl"
        save_dataset(dataset, path)
        loaded, report = load_dataset(path)
        assert report.ok
        assert loaded == dataset

    def test_fetaqa_format_end_to_end(self, tmp_path):
        record = TestAdapters().fetaqa_record()
        path = self.write(tmp_path, [json.dumps(record)])
        dataset, report = load_dataset(path, format="fetaqa")
        assert report.ok
        assert dataset.samples[0].id == "17"


def test_normalize_cell_collapses_runs():
    assert normalize_cell("  a \t\n b  ") == "a b"
    assert normalize_cell("") == ""
