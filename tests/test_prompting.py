"""Template validation, prompt assembly, and evidence-output parsing."""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from tablehelm.errors import (
    EmptyEvidenceError,
    EvidenceRangeError,
    NoIndicesError,
    PromptTooLongError,
    TemplateError,
)
from tablehelm.prompting import (
    _ROLE_SLOTS,
    DEFAULT_TOKEN_BUDGET,
    OUTPUT_MARKER,
    ROLES,
    PromptTemplate,
    RenderedPrompt,
    build_distill_prompt,
    build_highlighter_prompt,
    build_summarizer_prompt,
    estimate_tokens,
    format_evidence,
    load_example_blocks,
    load_template,
    _assemble,
    parse_evidence_output,
)
from tablehelm.feedback import (
    REWARD_MODES,
    SEARCH_SAMPLING,
    RoleSettings,
    echo_oracle_generate,
    reward_prompt,
)
from tablehelm.table_core import Evidence, Table
from tablehelm.transforms import (
    cap_hash_runs,
    linearize,
    render_table,
    subtable,
)

HIGHLIGHTER_TEXT = "Pick rows.\n\nTable:\n{{TABLE}}\n\nQuery: {{QUERY}}\n\n###Output\n"
SUMMARIZER_TEXT = "Answer briefly.\n\nTable:\n{{TABLE}}\n\nQuery: {{QUERY}}\n\n###Output\n"


class TestPromptTemplate:
    def test_valid_template_is_normalized(self):
        template = PromptTemplate(name="highlighter", text=HIGHLIGHTER_TEXT)
        assert template.text.endswith(OUTPUT_MARKER + "\n")
        assert template.text.count(OUTPUT_MARKER) == 1

    def test_missing_trailing_newline_is_added(self):
        template = PromptTemplate(
            name="highlighter", text=HIGHLIGHTER_TEXT.rstrip("\n")
        )
        assert template.text.endswith(OUTPUT_MARKER + "\n")

    def test_whitespace_after_marker_is_dropped(self):
        template = PromptTemplate(name="highlighter", text=HIGHLIGHTER_TEXT + "  \n\n")
        assert template.text.endswith(OUTPUT_MARKER + "\n")

    @pytest.mark.parametrize(
        "text",
        [
            HIGHLIGHTER_TEXT.replace(OUTPUT_MARKER, "Output"),
            HIGHLIGHTER_TEXT + "\n" + OUTPUT_MARKER + "\n",
            HIGHLIGHTER_TEXT + "trailing instructions\n",
        ],
        ids=["no-marker", "two-markers", "text-after-marker"],
    )
    def test_marker_misuse_is_rejected(self, text):
        with pytest.raises(TemplateError):
            PromptTemplate(name="highlighter", text=text)

    @pytest.mark.parametrize(
        "text",
        [
            HIGHLIGHTER_TEXT.replace("{{QUERY}}", "query goes here"),
            HIGHLIGHTER_TEXT.replace("{{QUERY}}", "{{QUERY}} and {{QUERY}}"),
            HIGHLIGHTER_TEXT.replace("{{QUERY}}", "{{QUERY}} {{REFERENCE}}"),
        ],
        ids=["missing-slot", "duplicate-slot", "undeclared-slot"],
    )
    def test_slot_misuse_is_rejected(self, text):
        with pytest.raises(TemplateError):
            PromptTemplate(name="highlighter", text=text)

    def test_unknown_role_is_rejected(self):
        with pytest.raises(TemplateError):
            PromptTemplate(name="editor", text=HIGHLIGHTER_TEXT)


class TestRenderedPrompt:
    def test_requires_known_role(self):
        with pytest.raises(TemplateError):
            RenderedPrompt(text=OUTPUT_MARKER + "\n", role="editor")

    @pytest.mark.parametrize("text", ["no marker here", OUTPUT_MARKER * 2])
    def test_requires_exactly_one_marker(self, text):
        with pytest.raises(TemplateError):
            RenderedPrompt(text=text, role="summarizer")


class TestLoadTemplate:
    @pytest.mark.parametrize("role", ["highlighter", "summarizer", "distill"])
    def test_packaged_defaults_are_valid(self, role):
        template = load_template(role)
        assert template.name == role
        assert "{{TABLE}}" in template.text
        assert template.text.endswith(OUTPUT_MARKER + "\n")

    def test_packaged_defaults_are_cached(self):
        assert load_template("summarizer") is load_template("summarizer")

    def test_custom_path_is_read_fresh(self, tmp_path):
        path = tmp_path / "custom.txt"
        path.write_text(HIGHLIGHTER_TEXT, encoding="utf-8")
        template = load_template("highlighter", str(path))
        assert template.text.startswith("Pick rows.")
        assert template is not load_template("highlighter")

    def test_unknown_role_is_rejected(self):
        with pytest.raises(TemplateError):
            load_template("editor")

    def test_invalid_custom_file_is_rejected(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("no marker, no slots\n", encoding="utf-8")
        with pytest.raises(TemplateError):
            load_template("highlighter", str(path))

    def test_missing_custom_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_template("highlighter", str(tmp_path / "absent.txt"))

    def test_a_template_of_another_role_is_rejected(self, champions_sample):
        table, query = champions_sample.table, champions_sample.query
        # The distill template's {{EXAMPLES}} slot has no highlighter value.
        with pytest.raises(TemplateError, match="distill template cannot build a highlighter"):
            build_highlighter_prompt(table, query, template=load_template("distill"))
        # A highlighter template has the summarizer's slots, so it would render.
        with pytest.raises(TemplateError, match="highlighter template cannot build a summarizer"):
            build_summarizer_prompt(table, None, query, template=load_template("highlighter"))


class TestLoadExampleBlocks:
    def test_packaged_blocks(self):
        blocks = load_example_blocks()
        assert len(blocks) == 2
        assert all(block.startswith("Table:") for block in blocks)
        assert "Output: {2}" in blocks[0]
        assert "Output: {1, 2, 3}" in blocks[1]
        assert all(OUTPUT_MARKER not in block for block in blocks)

    def test_custom_file_with_blank_sections(self, tmp_path):
        path = tmp_path / "examples.txt"
        path.write_text("first\n---\n\n---\nsecond\nline\n", encoding="utf-8")
        assert load_example_blocks(str(path)) == ("first", "second\nline")

    def test_file_without_content_is_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("---\n---\n", encoding="utf-8")
        with pytest.raises(TemplateError):
            load_example_blocks(str(path))


class TestFormattingHelpers:
    @pytest.mark.parametrize(
        ("indices", "expected"),
        [((), "{}"), ((2,), "{2}"), ((1, 3), "{1, 3}"), ((1, 2, 3), "{1, 2, 3}")],
    )
    def test_format_evidence(self, indices, expected):
        assert format_evidence(Evidence(indices)) == expected

    @pytest.mark.parametrize(
        ("text", "expected"), [("", 0), ("abc", 1), ("abcd", 1), ("abcde", 2)]
    )
    def test_estimate_tokens_rounds_up(self, text, expected):
        assert estimate_tokens(text) == expected


class TestHighlighterPrompt:
    def test_inference_form(self, champions_sample):
        prompt = build_highlighter_prompt(
            champions_sample.table, champions_sample.query, sample_id="champ-1"
        )
        assert prompt.role == "highlighter"
        assert prompt.sample_id == "champ-1"
        assert prompt.text.endswith(OUTPUT_MARKER + "\n")
        assert linearize(champions_sample.table).text in prompt.text
        assert champions_sample.query in prompt.text
        assert champions_sample.reference not in prompt.text

    def test_training_form_appends_the_index_set(self, champions_sample):
        prompt = build_highlighter_prompt(
            champions_sample.table,
            champions_sample.query,
            golden_evidence=Evidence((2,)),
        )
        assert prompt.text.endswith(OUTPUT_MARKER + "\n{2}")

    def test_golden_evidence_must_fit_the_table(self, champions_table):
        with pytest.raises(EvidenceRangeError):
            build_highlighter_prompt(
                champions_table, "q", golden_evidence=Evidence((7,))
            )

    def test_custom_template_is_used(self, champions_sample):
        template = PromptTemplate(name="highlighter", text=HIGHLIGHTER_TEXT)
        prompt = build_highlighter_prompt(
            champions_sample.table, champions_sample.query, template=template
        )
        assert prompt.text.startswith("Pick rows.")

    def test_token_budget_is_enforced_on_the_rendered_text(self, champions_sample):
        prompt = build_highlighter_prompt(
            champions_sample.table, champions_sample.query
        )
        exact = estimate_tokens(prompt.text)
        build_highlighter_prompt(
            champions_sample.table, champions_sample.query, token_budget=exact
        )
        with pytest.raises(PromptTooLongError) as exc_info:
            build_highlighter_prompt(
                champions_sample.table, champions_sample.query, token_budget=exact - 1
            )
        assert exc_info.value.estimate == exact
        assert exc_info.value.budget == exact - 1

    def test_default_budget_constant(self):
        assert DEFAULT_TOKEN_BUDGET == 2048


class TestSummarizerPrompt:
    def test_evidence_rows_are_starred(self, champions_sample):
        prompt = build_summarizer_prompt(
            champions_sample.table, Evidence((2,)), champions_sample.query
        )
        assert "row 2 : *2000* | *PSV* | *84*" in prompt.text
        assert "row 1 : 1999 | Ajax | 78" in prompt.text

    def test_none_evidence_leaves_the_table_unmarked(self, champions_sample):
        prompt = build_summarizer_prompt(
            champions_sample.table, None, champions_sample.query
        )
        # The instruction text mentions "*" itself; only the rows matter.
        # With no starred row the echo oracle reads every row.
        answer = echo_oracle_generate(prompt.text, SEARCH_SAMPLING)
        assert answer == "1999 Ajax 78 2000 PSV 84 2001 Feyenoord 80"
        assert "*2000*" not in prompt.text

    def test_empty_evidence_equals_no_evidence(self, champions_sample):
        unmarked = build_summarizer_prompt(
            champions_sample.table, None, champions_sample.query
        )
        empty = build_summarizer_prompt(
            champions_sample.table, Evidence(()), champions_sample.query
        )
        assert unmarked.text == empty.text

    def test_training_form_appends_the_reference(self, champions_sample):
        prompt = build_summarizer_prompt(
            champions_sample.table,
            Evidence((2,)),
            champions_sample.query,
            reference=champions_sample.reference,
        )
        assert prompt.text.endswith(OUTPUT_MARKER + "\n" + champions_sample.reference)

    def test_inference_form_has_no_reference(self, champions_sample):
        prompt = build_summarizer_prompt(
            champions_sample.table, Evidence((2,)), champions_sample.query
        )
        assert champions_sample.reference not in prompt.text
        assert prompt.text.endswith(OUTPUT_MARKER + "\n")


class TestDistillPrompt:
    def test_examples_and_reference_are_in_the_body(self, champions_sample):
        blocks = load_example_blocks()
        prompt = build_distill_prompt(
            champions_sample.table,
            champions_sample.query,
            champions_sample.reference,
            blocks,
        )
        assert "\n\n".join(blocks) in prompt.text
        assert champions_sample.reference in prompt.text
        assert prompt.text.endswith(OUTPUT_MARKER + "\n")
        assert prompt.text.count(OUTPUT_MARKER) == 1

    def test_examples_may_be_a_list(self, champions_sample):
        prompt = build_distill_prompt(
            champions_sample.table, "q", "r", ["only example"]
        )
        assert "only example" in prompt.text

    def test_empty_examples_are_rejected(self, champions_sample):
        with pytest.raises(TemplateError):
            build_distill_prompt(champions_sample.table, "q", "r", ())

    def test_marker_in_example_is_rejected(self, champions_sample):
        with pytest.raises(TemplateError):
            build_distill_prompt(
                champions_sample.table, "q", "r", (f"uses {OUTPUT_MARKER}",)
            )


class TestMarkerSafety:
    def test_hash_runs_in_content_cannot_forge_the_marker(self):
        table = Table(
            header=("h###h", "####"),
            rows=(("###Output", "x"), ("## fine", "#####")),
            title="t###t",
        )
        prompt = build_highlighter_prompt(table, f"query with {OUTPUT_MARKER} inside")
        assert prompt.text.count(OUTPUT_MARKER) == 1
        assert prompt.text.endswith(OUTPUT_MARKER + "\n")

    def test_reference_completion_is_capped_too(self, champions_table):
        prompt = build_summarizer_prompt(
            champions_table, None, "q", reference=f"ends with {OUTPUT_MARKER}"
        )
        assert prompt.text.count(OUTPUT_MARKER) == 1


class TestParseEvidenceOutput:
    def test_set_literal(self):
        assert parse_evidence_output("{1, 3}", 5) == (Evidence((1, 3)), [])

    def test_prose_with_duplicates(self):
        evidence, warnings = parse_evidence_output("rows 3 and 1, maybe 3", 5)
        assert evidence == Evidence((1, 3))
        assert warnings == []

    def test_empty_set_literal(self):
        assert parse_evidence_output("{}", 4) == (Evidence(()), [])

    def test_no_integers_raises(self):
        with pytest.raises(NoIndicesError):
            parse_evidence_output("no idea", 3)

    def test_out_of_range_values_warn_and_drop(self):
        evidence, warnings = parse_evidence_output("{0, 2, 9}", 5)
        assert evidence == Evidence((2,))
        assert warnings == [
            "index 0 out of range for a 5-row table",
            "index 9 out of range for a 5-row table",
        ]

    def test_all_out_of_range_yields_empty_evidence(self):
        evidence, warnings = parse_evidence_output("row 2", 1)
        assert evidence == Evidence(())
        assert len(warnings) == 1

    def test_multi_digit_indices(self):
        assert parse_evidence_output("{10, 11}", 12)[0] == Evidence((10, 11))

    def test_row_count_must_be_positive(self):
        with pytest.raises(ValueError):
            parse_evidence_output("{1}", 0)


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n), max_size=n))
))
def test_format_then_parse_round_trips(case):
    n_rows, indices = case
    evidence = Evidence(tuple(sorted(indices)))
    parsed, warnings = parse_evidence_output(format_evidence(evidence), n_rows)
    assert parsed == evidence
    assert warnings == []


@given(st.text(alphabet="#Outpu \n", max_size=40))
def test_adversarial_queries_never_add_a_second_marker(query):
    table = Table(header=("a",), rows=(("b",),))
    prompt = build_highlighter_prompt(table, query)
    assert prompt.text.count(OUTPUT_MARKER) == 1


# ------------------------------------------------ assembly by substitution
# Prompt assembly as one regex substitution over the template text per
# prompt, every value capped first. Values are not rescanned, so slot
# markers inside a value stay as they are. A value's '#' stands in as NUL
# until the substitution is done; then every run of '#' that holds one keeps
# the template's own '#' and as many of the values' as fit within two.

_SLOT_RE = re.compile(r"\{\{(TABLE|QUERY|REFERENCE|EXAMPLES)\}\}")


def _cap_seam_run(match: re.Match) -> str:
    run = match.group()
    return "#" * max(run.count("#"), min(len(run), 2))


def assemble_by_substitution(
    template: PromptTemplate, values: dict[str, str], completion: str
) -> str:
    safe = {slot: cap_hash_runs(value).replace("#", "\0") for slot, value in values.items()}
    head = _SLOT_RE.sub(lambda m: safe[m.group(1)], template.text)
    text = head + cap_hash_runs(completion).replace("#", "\0")
    return re.sub(r"[#\0]+", _cap_seam_run, text)


# Hash runs below, at and over the cap, every slot marker, the output marker
# and stray braces.
_VALUE_PIECES = (
    "a", " ", "\n", "#", "##", "###", "####", "{{", "}}", OUTPUT_MARKER,
    "{{TABLE}}", "{{QUERY}}", "{{REFERENCE}}", "{{EXAMPLES}}",
)
_values = st.lists(st.sampled_from(_VALUE_PIECES), max_size=8).map("".join)

# Each role's packaged template, and custom ones whose slots come in another
# order, back to back, at the very start and end of the head, and beside a
# literal '#'.
_TEMPLATES = [load_template(role) for role in ROLES] + [
    PromptTemplate(name="summarizer", text="{{QUERY}}{{TABLE}}###Output"),
    PromptTemplate(
        name="distill", text="{{REFERENCE}}\n{{EXAMPLES}} {{QUERY}}|{{TABLE}}\n###Output\n"
    ),
    PromptTemplate(name="summarizer", text="Q: #{{QUERY}}\n{{TABLE}}#\n###Output"),
]


@given(st.data())
def test_assemble_equals_substitution(data):
    template = data.draw(st.sampled_from(_TEMPLATES))
    values = {slot: data.draw(_values) for slot in _ROLE_SLOTS[template.name]}
    completion = data.draw(_values)
    # Small budgets put some prompts over budget.
    budget = data.draw(st.one_of(st.just(DEFAULT_TOKEN_BUDGET), st.integers(0, 80)))
    expected = assemble_by_substitution(template, values, completion)
    estimate = estimate_tokens(expected)
    if estimate > budget:
        with pytest.raises(PromptTooLongError) as exc_info:
            _assemble(template, values, completion, template.name, "s", budget)
        assert (exc_info.value.estimate, exc_info.value.budget) == (estimate, budget)
    elif expected.count(OUTPUT_MARKER) != 1:
        # Only the template's own '#' can still spell a marker (an empty
        # value between "#" and "##Output"); the prompt is refused.
        with pytest.raises(TemplateError):
            _assemble(template, values, completion, template.name, "s", budget)
    else:
        prompt = _assemble(template, values, completion, template.name, "s", budget)
        assert prompt.text == expected
        assert (prompt.role, prompt.sample_id) == (template.name, "s")


def test_a_value_beside_a_template_hash_spells_no_second_marker():
    template = PromptTemplate(name="summarizer", text="Q: #{{QUERY}}\n{{TABLE}}\n###Output")
    table = Table(header=("a",), rows=(("b",),))
    prompt = build_summarizer_prompt(table, None, "##Output", template=template)
    assert prompt.text.count(OUTPUT_MARKER) == 1
    assert prompt.text.startswith("Q: ##Output\n")


def test_values_side_by_side_spell_no_second_marker():
    template = PromptTemplate(name="summarizer", text="{{QUERY}}{{TABLE}}###Output")
    values = {"QUERY": "#", "TABLE": "###Output"}
    prompt = _assemble(template, values, "", "summarizer", "s", DEFAULT_TOKEN_BUDGET)
    assert prompt.text == "##Output###Output\n"


# ------------------------------------------- reward prompts from a rendering
# A label search renders each table once and joins every candidate's prompt
# from that (`feedback.reward_prompt`). Each must be the prompt the builders
# make from the sub-table or the highlighted table, and fail as they fail.

# A pipe, an escaped pipe, hash runs below, at and over the cap, and text
# wrapped in stars, alone and together.
_RENDER_PROBES = (
    "|", "a|b", "a \\| b", "\\|", "#", "##", "###", "a####b", "|#", "#|#",
    "*", "**", "*x*", "*|*", "*###*", "plain", "",
)
_probe_cells = st.one_of(st.sampled_from(_RENDER_PROBES), support.cells())


@st.composite
def _probe_tables(draw) -> Table:
    n_cols = draw(st.integers(1, 3))
    row = st.tuples(*[_probe_cells] * n_cols)
    rows = tuple(draw(row) for _ in range(draw(st.integers(1, 5))))
    title = draw(st.one_of(st.just(""), _probe_cells))
    return Table(header=draw(row), rows=rows, title=title)


_SUMMARIZER_TEMPLATES = [None] + [t for t in _TEMPLATES if t.name == "summarizer"]


def _builders_prompt(table, evidence, query, mode, template, budget) -> str:
    if mode == "subtable":
        shown, marked = subtable(table, evidence), None
    else:
        shown, marked = table, evidence or None
    return build_summarizer_prompt(
        shown, marked, query, template=template, token_budget=budget
    ).text


@given(st.data())
def test_reward_prompts_equal_the_builders_prompts(data):
    table = data.draw(_probe_tables())
    template = data.draw(st.sampled_from(_SUMMARIZER_TEMPLATES))
    query = data.draw(_values)
    # Small budgets put some prompts over budget.
    budget = data.draw(st.one_of(st.just(DEFAULT_TOKEN_BUDGET), st.integers(0, 120)))
    settings = RoleSettings(template=template, token_budget=budget)
    rendering = render_table(table)
    # One rendering serves many candidates, as in a search: empty evidence
    # and rows past the table's end included.
    candidates = data.draw(st.lists(
        st.tuples(st.sampled_from(REWARD_MODES), st.sets(st.integers(1, table.n_rows + 1))),
        min_size=1, max_size=6,
    ))
    for mode, rows in candidates:
        evidence = Evidence(tuple(sorted(rows)))
        try:
            expected = _builders_prompt(table, evidence, query, mode, template, budget)
        except (EmptyEvidenceError, EvidenceRangeError, PromptTooLongError,
                TemplateError) as exc:
            with pytest.raises(type(exc)) as exc_info:
                reward_prompt(rendering, evidence, query, mode, settings)
            assert str(exc_info.value) == str(exc)
        else:
            assert reward_prompt(rendering, evidence, query, mode, settings) == expected
    assert linearize(table).text == rendering.join(rendering.bodies)


def test_reward_prompt_refuses_an_unknown_mode():
    table = Table(header=("a",), rows=(("b",),))
    with pytest.raises(ValueError, match="mode must be one of"):
        reward_prompt(render_table(table), Evidence((1,)), "q", "full")
