"""Prompt construction for the highlighter, summarizer, and distillation
roles, plus the parser that turns highlighter output back into Evidence.

Templates are plain text files with slot markers ({{TABLE}}, {{QUERY}},
{{REFERENCE}}, {{EXAMPLES}}) and a single literal "###Output" line at the
end. Rendering substitutes slots in one pass, then appends the completion
(golden evidence or reference in training mode, nothing at inference), so
an inference prompt always ends with "###Output\n". Every interpolated
value has runs of '#' capped at two, and so does a run that a value's first
or last '#' forms with the '#' of the piece beside it (the template's own
'#' are kept), which keeps "###Output" unique per prompt.

Each template text is split around its slots once, and the split is
memoised for a fixed number of recent texts. A prompt is then one join of
the literal pieces, each slot's capped value and the capped completion.
Values are never scanned for slots, so a query that itself contains
"{{QUERY}}" stays as it is. A label search joins its table text from a
per-table rendering (`transforms.render_table`) and passes it to
`summarizer_prompt_from_text`, the assembly `build_summarizer_prompt` ends
in, so the token estimate and the budget check stay per prompt.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .errors import NoIndicesError, PromptTooLongError, TemplateError
from .table_core import Evidence, Table
from .transforms import cap_hash_runs, highlight, linearize

__all__ = [
    "OUTPUT_MARKER",
    "DEFAULT_TOKEN_BUDGET",
    "PromptTemplate",
    "RenderedPrompt",
    "build_distill_prompt",
    "build_highlighter_prompt",
    "build_summarizer_prompt",
    "estimate_tokens",
    "format_evidence",
    "load_example_blocks",
    "load_template",
    "parse_evidence_output",
    "summarizer_prompt_from_text",
]

OUTPUT_MARKER = "###Output"
DEFAULT_TOKEN_BUDGET = 2048
EXAMPLE_SEPARATOR = "---"

ROLES = ("highlighter", "summarizer", "distill")

_ROLE_SLOTS: dict[str, tuple[str, ...]] = {
    "highlighter": ("TABLE", "QUERY"),
    "summarizer": ("TABLE", "QUERY"),
    "distill": ("EXAMPLES", "TABLE", "QUERY", "REFERENCE"),
}

_SLOT_RE = re.compile(r"\{\{(TABLE|QUERY|REFERENCE|EXAMPLES)\}\}")
_INT_RE = re.compile(r"\d+")

# How many template texts `_assemble` keeps split. A run renders with a few
# templates, one or two per role.
_SPLIT_TEMPLATES = 16


@dataclass(frozen=True)
class PromptTemplate:
    """One role's template text, validated at construction."""

    name: str
    text: str

    def __post_init__(self) -> None:
        if self.name not in ROLES:
            raise TemplateError(f"unknown template role: {self.name!r}")
        if self.text.count(OUTPUT_MARKER) != 1:
            raise TemplateError(
                f"{self.name} template must contain exactly one {OUTPUT_MARKER!r}"
            )
        head, _, tail = self.text.partition(OUTPUT_MARKER)
        if tail.strip():
            raise TemplateError(
                f"{self.name} template has content after {OUTPUT_MARKER!r}"
            )
        declared = _ROLE_SLOTS[self.name]
        found = [m.group(1) for m in _SLOT_RE.finditer(head)]
        for slot in declared:
            if found.count(slot) != 1:
                raise TemplateError(
                    f"{self.name} template must use {{{{{slot}}}}} exactly once"
                )
        for slot in found:
            if slot not in declared:
                raise TemplateError(
                    f"{self.name} template does not take {{{{{slot}}}}}"
                )
        # Normalized form: head, marker, single trailing newline.
        object.__setattr__(self, "text", head + OUTPUT_MARKER + "\n")


@dataclass(frozen=True)
class RenderedPrompt:
    """A fully assembled prompt string for one sample and role."""

    text: str
    role: str
    sample_id: str = ""

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise TemplateError(f"unknown prompt role: {self.role!r}")
        if self.text.count(OUTPUT_MARKER) != 1:
            raise TemplateError(f"prompt must contain exactly one {OUTPUT_MARKER!r}")


def _read_packaged(filename: str) -> str:
    return (
        resources.files("tablehelm").joinpath("templates", filename).read_text("utf-8")
    )


def load_template(role: str, path: str | None = None) -> PromptTemplate:
    """Load a role's template from `path`, or the packaged default."""
    if role not in ROLES:
        raise TemplateError(f"unknown template role: {role!r}")
    if path is None:
        return _packaged_template(role)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return PromptTemplate(name=role, text=text)


@lru_cache(maxsize=None)
def _packaged_template(role: str) -> PromptTemplate:
    # Packaged defaults are immutable, so one parse per process is enough.
    return PromptTemplate(name=role, text=_read_packaged(f"{role}.txt"))


def load_example_blocks(path: str | None = None) -> tuple[str, ...]:
    """Few-shot blocks for the distill prompt, separated by '---' lines."""
    if path is None:
        text = _read_packaged("distill_examples.txt")
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    blocks = []
    current: list[str] = []
    for line in text.splitlines():
        if line.strip() == EXAMPLE_SEPARATOR:
            blocks.append("\n".join(current).strip("\n"))
            current = []
        else:
            current.append(line)
    blocks.append("\n".join(current).strip("\n"))
    blocks = [b for b in blocks if b]
    if not blocks:
        raise TemplateError(f"no example blocks found in {path or 'default file'}")
    return tuple(blocks)


def estimate_tokens(text: str) -> int:
    """Crude length estimate: one token per four characters."""
    return math.ceil(len(text) / 4)


def format_evidence(evidence: Evidence) -> str:
    """Render evidence as the prompt set literal, e.g. "{1, 3}"."""
    return "{" + ", ".join(str(i) for i in evidence) + "}"


@lru_cache(maxsize=_SPLIT_TEMPLATES)
def _template_pieces(text: str) -> tuple[tuple[str, ...], bool]:
    """A template's text split around its slots, literal text at even
    positions and a slot name at each odd one; and whether a value's '#'
    can run on into a neighbouring piece: a literal touches a slot with a
    '#', or two slots are side by side. (The last literal ends the template
    with a newline, so the completion after it starts no run.)"""
    pieces = tuple(_SLOT_RE.split(text))
    literals = pieces[::2]
    seams = (
        any(literal[-1:] == "#" for literal in literals[:-1])
        or any(literal[:1] in ("#", "") for literal in literals[1:])
    )
    return pieces, seams


def _join_at_seams(pieces: list[str]) -> str:
    """`pieces` joined, where literal text sits at even positions and capped
    values at odd ones, with every run of '#' that crosses a seam capped:
    the run keeps the literal pieces' '#' and as many of the values' as keep
    it within two."""
    out: list[str] = []
    own = added = 0  # the open run's '#': from literal pieces, from values
    for k, piece in enumerate(pieces):
        body = piece.lstrip("#")
        if k % 2:
            added += len(piece) - len(body)
        else:
            own += len(piece) - len(body)
        if not body:
            continue
        out.append("#" * max(own, min(own + added, 2)))
        rest = body.rstrip("#")
        out.append(rest)
        own, added = (0, len(body) - len(rest)) if k % 2 else (len(body) - len(rest), 0)
    out.append("#" * max(own, min(own + added, 2)))
    return "".join(out)


def _assemble(
    template: PromptTemplate,
    values: dict[str, str],
    completion: str,
    role: str,
    sample_id: str,
    token_budget: int,
) -> RenderedPrompt:
    template_pieces, seams = _template_pieces(template.text)
    pieces = list(template_pieces)
    for i in range(1, len(pieces), 2):
        pieces[i] = cap_hash_runs(values[pieces[i]])
    pieces.append(cap_hash_runs(completion))
    text = _join_at_seams(pieces) if seams else "".join(pieces)
    estimate = estimate_tokens(text)
    if estimate > token_budget:
        raise PromptTooLongError(estimate, token_budget)
    return RenderedPrompt(text=text, role=role, sample_id=sample_id)


def build_highlighter_prompt(
    table: Table,
    query: str,
    golden_evidence: Evidence | None = None,
    *,
    template: PromptTemplate | None = None,
    sample_id: str = "",
    token_budget: int = DEFAULT_TOKEN_BUDGET,
) -> RenderedPrompt:
    """Prompt asking for evidence row indices.

    With `golden_evidence` the rendered index set follows the output marker
    (training form); without it the output area is left blank (inference).
    """
    if template is None:
        template = load_template("highlighter")
    completion = ""
    if golden_evidence is not None:
        golden_evidence.check_range(table.n_rows)
        completion = format_evidence(golden_evidence)
    values = {"TABLE": linearize(table).text, "QUERY": query}
    return _assemble(template, values, completion, "highlighter", sample_id, token_budget)


def build_summarizer_prompt(
    table: Table,
    evidence: Evidence | None,
    query: str,
    reference: str | None = None,
    *,
    template: PromptTemplate | None = None,
    sample_id: str = "",
    token_budget: int = DEFAULT_TOKEN_BUDGET,
) -> RenderedPrompt:
    """Prompt asking for the answer sentence.

    `evidence` marks rows via highlighting before linearization; None leaves
    the table unmarked (either the no-highlight ablation or an input that was
    already reduced to a subtable). `reference` fills the output area in
    training mode.
    """
    shown = table if evidence is None else highlight(table, evidence)
    return summarizer_prompt_from_text(
        linearize(shown).text, query, reference,
        template=template, sample_id=sample_id, token_budget=token_budget,
    )


def summarizer_prompt_from_text(
    table_text: str,
    query: str,
    reference: str | None = None,
    *,
    template: PromptTemplate | None = None,
    sample_id: str = "",
    token_budget: int = DEFAULT_TOKEN_BUDGET,
) -> RenderedPrompt:
    """`build_summarizer_prompt` of a table already linearized to `table_text`."""
    if template is None:
        template = load_template("summarizer")
    values = {"TABLE": table_text, "QUERY": query}
    completion = reference if reference is not None else ""
    return _assemble(template, values, completion, "summarizer", sample_id, token_budget)


def build_distill_prompt(
    table: Table,
    query: str,
    reference: str,
    examples: tuple[str, ...] | list[str],
    *,
    template: PromptTemplate | None = None,
    sample_id: str = "",
    token_budget: int = DEFAULT_TOKEN_BUDGET,
) -> RenderedPrompt:
    """Few-shot prompt asking which rows support a given reference answer.

    The reference is part of the prompt body here; the output area is left
    blank for the model's evidence indices.
    """
    if template is None:
        template = load_template("distill")
    if not examples:
        raise TemplateError("distill prompt needs at least one example block")
    for block in examples:
        if OUTPUT_MARKER in block:
            raise TemplateError(f"example block may not contain {OUTPUT_MARKER!r}")
    values = {
        "EXAMPLES": "\n\n".join(examples),
        "TABLE": linearize(table).text,
        "QUERY": query,
        "REFERENCE": reference,
    }
    return _assemble(template, values, "", "distill", sample_id, token_budget)


def parse_evidence_output(raw: str, n_rows: int) -> tuple[Evidence, list[str]]:
    """Recover row indices from highlighter output text.

    All decimal integers are extracted in order and deduplicated; values
    outside [1, n_rows] are dropped with one warning each. The literal empty
    set "{}" parses as empty Evidence; any other text without an integer
    raises NoIndicesError.
    """
    if n_rows < 1:
        raise ValueError("n_rows must be at least 1")
    values = [int(m.group()) for m in _INT_RE.finditer(raw)]
    if not values:
        if "{}" in raw:
            return Evidence(()), []
        raise NoIndicesError(f"no row indices in output: {raw!r}")
    warnings: list[str] = []
    kept: list[int] = []
    seen: set[int] = set()
    for value in values:
        if value in seen:
            continue
        seen.add(value)
        if not 1 <= value <= n_rows:
            warnings.append(f"index {value} out of range for a {n_rows}-row table")
            continue
        kept.append(value)
    return Evidence(tuple(sorted(kept))), warnings
