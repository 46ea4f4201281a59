"""Evidence-label construction: greedy search over row subsets, an
exhaustive verification oracle, few-shot distillation, reward-based merging
of label sources, and training-data export.

The greedy search evaluates the n singleton rows first, reorders them by
reward, then accumulates rows one at a time, keeping an addition only when
it strictly improves the reward. That costs exactly 2n feedback evaluations
instead of 2^n.

A search, a merge or an exhaustive search scores its candidates through
`_scorer`, built once per table: it renders the table
(`transforms.render_table`) and frames its prompts
(`prompting.summarizer_frame`) once, and joins every candidate's prompt
from both. With a response cache, it first reads every answer cached for
its table and query with one statement (`feedback.reward_settings`), and
serves every lookup from that read. Only the misses are generated, and they
are stored in the cache and in the read, so a prompt asked for again is not
generated again. Cache trouble during the read makes every prompt of the
sample a miss, with one logged warning. The singletons and the merge's
candidate sets are scored as a batch: `map_ordered` (which runs the batch
commands' samples too) runs them up to the feedbacker's `max_in_flight` at
once, or in order on this thread when it has none, as the offline clients
do; outcomes are tallied in input order, as in a serial search.

Each candidate is evaluated once. Retrying transient backend failures is
the HTTP client's job, within its `max_attempts`; a candidate whose call
still fails, or whose prompt is over the token budget, is skipped with a
"skipped:" note in the trace and never evaluated again. An auth failure, a
404 or a redirect is not skipped: it ends the search, as it would every
later call. The exhaustive search, an oracle, skips nothing: it raises the
first failure.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Mapping, TypeVar

from .errors import (
    JOB_FATAL_ERRORS,
    MalformedResponseError,
    MissingLabelError,
    NoIndicesError,
    NoTableFoundError,
    PromptTooLongError,
    RateLimitError,
    SchemaError,
    TableTooLargeError,
    TransportError,
)
from .feedback import (
    SEARCH_SETTINGS,
    GeneratorClient,
    RoleSettings,
    cached_generate,
    feedback_reward,
    reward_prompt,
    reward_settings,
)
from .prompting import (
    build_distill_prompt,
    build_highlighter_prompt,
    build_summarizer_prompt,
    format_evidence,
    parse_evidence_output,
    summarizer_frame,
)
from .table_core import Dataset, Evidence, Sample, evidence_field, read_records
from .transforms import render_table

__all__ = [
    "LabeledSample",
    "SearchCandidate",
    "SearchTrace",
    "distill_one",
    "exhaustive_search",
    "export_highlighter_training",
    "export_summarizer_training",
    "greedy_search",
    "labeled_from_record",
    "labeled_to_record",
    "load_labels",
    "map_ordered",
    "merge_labels",
]

# Failures that disqualify one candidate without sinking the whole search.
# JOB_FATAL_ERRORS (auth, 404, 3xx) are not, although a 404 or a 3xx is a
# TransportError: every later call would fail the same way.
_SKIPPABLE_ERRORS = (
    RateLimitError,
    TransportError,
    MalformedResponseError,
    NoTableFoundError,
    PromptTooLongError,
)

MERGE_PRIORITY = ("manual", "distill", "search")

T = TypeVar("T")
R = TypeVar("R")


# Calls queued or running per pool worker in `map_ordered`: keeps every
# worker busy while the caller handles each result, without a future per item.
WINDOW_PER_WORKER = 2


def _outcome(item: T, call: Callable[..., R], *args) -> tuple[T, R | None, Exception | None]:
    try:
        return item, call(*args), None
    except JOB_FATAL_ERRORS:
        raise
    except Exception as exc:
        return item, None, exc


def map_ordered(
    fn: Callable[[T], R], items: list[T], workers: int
) -> Iterator[tuple[T, R | None, Exception | None]]:
    """Run fn over items, yielding (item, result, exception) in input order.

    With `workers` <= 1 or at most one item, each call runs on the calling
    thread as its result is asked for. Otherwise at most WINDOW_PER_WORKER *
    workers calls are queued or running in a pool at once; one more is
    submitted as each result is taken. Per-item exceptions are yielded, not
    raised, except JOB_FATAL_ERRORS (auth, 404, 3xx), which abort the whole
    job: every later call would fail identically, so none starts, and a
    queued call that a pool worker takes up after the error returns at once,
    unrun. The pool's module is imported here, so a command that runs
    everything on one thread never loads it.
    """
    if (workers := min(workers, len(items))) <= 1:
        yield from (_outcome(item, fn, item) for item in items)
        return
    from concurrent.futures import ThreadPoolExecutor

    source = iter(items)
    pool = ThreadPoolExecutor(max_workers=workers)
    fatal = threading.Event()

    def call(item: T) -> R | None:
        if fatal.is_set():
            return None  # never yielded: the job ends at the fatal error
        try:
            return fn(item)
        except JOB_FATAL_ERRORS:
            fatal.set()
            raise

    try:
        pending = deque(
            (item, pool.submit(call, item))
            for item in itertools.islice(source, WINDOW_PER_WORKER * workers)
        )
        while pending:
            item, future = pending.popleft()
            outcome = _outcome(item, future.result)
            for following in itertools.islice(source, 1):
                pending.append((following, pool.submit(call, following)))
            yield outcome
    finally:
        pool.shutdown(cancel_futures=True)


def _scorer(
    sample: Sample, mode: str, feedbacker: GeneratorClient, settings: RoleSettings
) -> tuple[
    Callable[..., float | Exception], Callable[[list[Evidence]], list[float | Exception]]
]:
    """The two scorers of `sample`'s candidate sets in `mode` with the
    feedbacker's `settings`: of one set, and of a batch. Each outcome is
    the set's `feedback_reward`, or the skippable error that replaced it.

    The table is rendered, its prompts framed (`summarizer_frame`) and with
    a cache its scope read (`reward_settings`), once, here. The scorer of
    one set joins its prompt from the frame unless given one; it may run on
    pool threads, touching no shared state but the settings' cache. The
    scorer of a batch joins every prompt first (a skippable failure there
    is that set's outcome), then scores the sets in order, up to the
    feedbacker's `max_in_flight` at once. With a cache, a prompt that
    repeats an earlier one waits for a later round, looked up after the
    earlier one was stored, so it is generated no more often than in a
    serial search; with none, it runs beside the one it repeats.
    """
    table, query = sample.table, sample.query
    rendering = render_table(table)
    frame = summarizer_frame(
        query, template=settings.template, token_budget=settings.token_budget
    )
    settings = reward_settings(settings, feedbacker, frame, rendering, query, mode)
    width = getattr(feedbacker, "max_in_flight", 1)

    def score(evidence: Evidence, prompt: str | None = None) -> float | Exception:
        try:
            if prompt is None:
                prompt = reward_prompt(rendering, evidence, query, mode, settings, frame=frame)
            return feedback_reward(
                table, evidence, query, sample.reference, mode, feedbacker, settings,
                prompt=prompt,
            )
        except JOB_FATAL_ERRORS:
            raise
        except _SKIPPABLE_ERRORS as exc:
            return exc

    def score_all(sets: list[Evidence]) -> list[float | Exception]:
        outcomes: list[float | Exception] = [0.0] * len(sets)
        prompts: dict[int, str] = {}
        rounds: list[list[int]] = []
        repeats: dict[str, int] = {}
        for i, evidence in enumerate(sets):
            try:
                prompt = reward_prompt(rendering, evidence, query, mode, settings, frame=frame)
            except _SKIPPABLE_ERRORS as exc:
                outcomes[i] = exc
                continue
            prompts[i] = prompt
            seen = repeats.get(prompt, 0) if settings.cache is not None else 0
            repeats[prompt] = seen + 1
            if seen == len(rounds):
                rounds.append([])
            rounds[seen].append(i)
        for batch in rounds:
            for i, outcome, exc in map_ordered(
                lambda i: score(sets[i], prompts[i]), batch, width
            ):
                if exc is not None:
                    raise exc  # not skippable: `score` returns those
                outcomes[i] = outcome
        return outcomes

    return score, score_all


@dataclass(frozen=True)
class SearchCandidate:
    """One evaluated (or skipped) subset in a search trace."""

    evidence: Evidence
    reward: float | None
    phase: str  # "singleton" | "accumulate"
    accepted: bool
    note: str = ""


@dataclass(frozen=True)
class SearchTrace:
    """Everything the greedy search looked at, in evaluation order."""

    candidates: tuple[SearchCandidate, ...]
    flags: tuple[str, ...] = ()

    @property
    def oracle_calls(self) -> int:
        """Feedback evaluations made: the candidates that got a reward."""
        return sum(c.reward is not None for c in self.candidates)


@dataclass(frozen=True)
class LabeledSample:
    """Evidence labels for one sample, by source, plus the merge result."""

    sample_id: str
    e_search: Evidence | None = None
    e_distill: Evidence | None = None
    e_manual: Evidence | None = None
    e_merge: Evidence | None = None
    merge_rewards: tuple[tuple[str, float], ...] = ()
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.sample_id:
            raise ValueError("sample_id must be non-empty")
        candidates = self.candidates()
        if self.e_merge is not None and candidates:
            if self.e_merge not in candidates.values():
                raise ValueError(
                    f"e_merge for {self.sample_id!r} matches no label source"
                )

    def candidates(self) -> dict[str, Evidence]:
        """Present label sources in merge-priority order."""
        present = {name: getattr(self, f"e_{name}") for name in MERGE_PRIORITY}
        return {name: ev for name, ev in present.items() if ev is not None}


def _candidate(
    evidence: Evidence, outcome: float | Exception, phase: str, accepted: bool
) -> SearchCandidate:
    """The trace entry of `evidence`: its reward, or the failure that skipped it."""
    if isinstance(outcome, Exception):
        return SearchCandidate(evidence, None, phase, False, f"skipped: {outcome}")
    return SearchCandidate(evidence, outcome, phase, accepted)


def greedy_search(
    sample: Sample,
    feedbacker: GeneratorClient,
    *,
    settings: RoleSettings = SEARCH_SETTINGS,
    step_cap: int | None = None,
    fallback: bool = True,
) -> tuple[Evidence, float, SearchTrace]:
    """Search evidence rows greedily, spending two evaluations per row, each
    a `feedback_reward` call with the feedbacker's `settings`.

    With a cache, every answer cached for this table and query is read with
    one statement before the first evaluation (`reward_settings`), and all
    2n lookups are served from that read. Phase 1 scores each singleton
    sub-table, up to the feedbacker's `max_in_flight` at once, and tallies
    the outcomes in row order. Phase 2 walks the singletons in
    descending-reward order (ties: ascending row index) and grows the result
    set one evaluation at a time, accepting an addition only on strict
    reward improvement. `step_cap` bounds the number of accepted additions.
    If nothing is ever accepted and `fallback` is set, the best singleton is
    returned and flagged. A candidate whose evaluation fails is skipped; if
    no singleton scores at all, the last such failure in row order is raised.
    """
    flags: list[str] = []
    score, score_all = _scorer(sample, "subtable", feedbacker, settings)
    singletons = [Evidence((i,)) for i in range(1, sample.table.n_rows + 1)]
    outcomes = score_all(singletons)
    candidates = [_candidate(ev, out, "singleton", False) for ev, out in zip(singletons, outcomes)]
    singles = sorted(
        ((reward, i) for i, reward in enumerate(outcomes, start=1)
         if not isinstance(reward, Exception)),
        key=lambda pair: (-pair[0], pair[1]),
    )
    if not singles:
        raise outcomes[-1]  # a table has a row, so every outcome is a failure

    held: tuple[int, ...] = ()
    held_reward = 0.0
    for _, row in singles:
        if step_cap is not None and len(held) >= step_cap:  # one row per acceptance
            flags.append("step_cap_reached")
            break
        evidence = Evidence(tuple(sorted(held + (row,))))
        outcome = score(evidence)
        accepted = not isinstance(outcome, Exception) and outcome > held_reward
        candidates.append(_candidate(evidence, outcome, "accumulate", accepted))
        if accepted:
            held, held_reward = evidence.indices, outcome

    if not held and fallback:  # nothing accepted: the best singleton stands in
        held_reward, top_row = singles[0]
        held = (top_row,)
        flags.append("fallback_top_singleton")
    elif not held:
        flags.append("no_usable_candidates")
    return Evidence(held), held_reward, SearchTrace(tuple(candidates), tuple(flags))


def exhaustive_search(
    sample: Sample,
    feedbacker: GeneratorClient,
    n_max: int = 12,
    *,
    settings: RoleSettings = SEARCH_SETTINGS,
) -> tuple[Evidence, float]:
    """Evaluate every non-empty row subset with the feedbacker's `settings`;
    the verification oracle.

    Returns the lexicographically smallest argmax. Cost is 2^n - 1
    evaluations, so tables beyond `n_max` rows are refused. With a cache,
    every lookup is served from one read, as in `greedy_search`. A failed
    evaluation raises: the oracle skips no subset.
    """
    n = sample.table.n_rows
    if n > n_max:
        raise TableTooLargeError(n, n_max)
    subsets = sorted(
        itertools.chain.from_iterable(
            itertools.combinations(range(1, n + 1), size) for size in range(1, n + 1)
        )
    )
    score, _ = _scorer(sample, "subtable", feedbacker, settings)

    def scored() -> Iterator[tuple[Evidence, float]]:
        for evidence in map(Evidence, subsets):
            if isinstance(reward := score(evidence), Exception):
                raise reward  # the oracle scores every subset: none is skipped
            yield evidence, reward

    return max(scored(), key=lambda pair: pair[1])  # first of equals: the smallest


def distill_one(
    sample: Sample,
    client: GeneratorClient,
    examples: tuple[str, ...],
    *,
    settings: RoleSettings = SEARCH_SETTINGS,
) -> tuple[LabeledSample, list[str]]:
    """Distill one sample's evidence from a model with the distiller's
    `settings` (a distill template, or None for the packaged one); never
    raises on parse or transient generation trouble, reporting it instead
    (e_distill absent)."""
    base = LabeledSample(sample_id=sample.id, e_manual=sample.manual_evidence)
    try:
        prompt = build_distill_prompt(
            sample.table,
            sample.query,
            sample.reference,
            examples,
            template=settings.template,
            sample_id=sample.id,
            token_budget=settings.token_budget,
        )
        raw = cached_generate(client, settings.cache, prompt.text, settings.cfg)
        evidence, warnings = parse_evidence_output(raw, sample.table.n_rows)
    except (NoIndicesError, PromptTooLongError) as exc:
        return base, [f"{sample.id}: {exc}"]
    except JOB_FATAL_ERRORS:
        raise
    except _SKIPPABLE_ERRORS as exc:
        return base, [f"{sample.id}: generation failed: {exc}"]
    return replace(base, e_distill=evidence), [f"{sample.id}: {w}" for w in warnings]


def merge_labels(
    labeled: LabeledSample,
    sample: Sample,
    feedbacker: GeneratorClient,
    *,
    settings: RoleSettings = SEARCH_SETTINGS,
) -> LabeledSample:
    """Pick the best label source by reward on the highlighted full table,
    scored with the feedbacker's `settings`.

    Identical candidate sets are evaluated once, up to the feedbacker's
    `max_in_flight` at once, and with a cache every answer cached for this
    table and query in highlight mode is read with one statement before the
    first evaluation (`reward_settings`). A failed evaluation raises (of
    several, the one of the earliest source). Ties go to the earlier source
    in manual > distill > search order. A single candidate wins outright,
    with no evaluation and no cache read at all.
    """
    candidates = labeled.candidates()
    if not candidates:
        raise MissingLabelError(labeled.sample_id)
    if len(candidates) == 1:
        (evidence,) = candidates.values()
        return replace(labeled, e_merge=evidence)

    sets = list(dict.fromkeys(candidates.values()))
    _, score_all = _scorer(sample, "highlight", feedbacker, settings)
    outcomes = score_all(sets)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    distinct = dict(zip(sets, outcomes))
    rewards = tuple((name, distinct[ev]) for name, ev in candidates.items())
    best = max(candidates.values(), key=distinct.__getitem__)  # first of equals wins
    return replace(labeled, e_merge=best, merge_rewards=rewards)


def labeled_to_record(labeled: LabeledSample) -> dict[str, object]:
    def enc(evidence: Evidence | None) -> list[int] | None:
        return list(evidence.indices) if evidence is not None else None

    return {
        "id": labeled.sample_id,
        "e_search": enc(labeled.e_search),
        "e_distill": enc(labeled.e_distill),
        "e_manual": enc(labeled.e_manual),
        "e_merge": enc(labeled.e_merge),
        "rewards": dict(labeled.merge_rewards),
        "flags": list(labeled.flags),
    }


def labeled_from_record(record: dict[str, object]) -> LabeledSample:
    if not isinstance(record, dict):
        raise SchemaError("record", "label record must be an object")
    raw_id = record.get("id")
    if not isinstance(raw_id, str) or not raw_id:
        raise SchemaError("id", "label record needs a non-empty string id")
    raw_rewards = record.get("rewards", {})
    if not isinstance(raw_rewards, dict):
        raise SchemaError("rewards", "rewards must be an object")
    rewards = []
    for name, value in raw_rewards.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError("rewards", f"reward for {name!r} must be a number")
        rewards.append((str(name), float(value)))
    raw_flags = record.get("flags", [])
    if not isinstance(raw_flags, list) or not all(
        isinstance(f, str) for f in raw_flags
    ):
        raise SchemaError("flags", "flags must be a list of strings")
    return LabeledSample(
        sample_id=raw_id,
        e_search=evidence_field(record, "e_search"),
        e_distill=evidence_field(record, "e_distill"),
        e_manual=evidence_field(record, "e_manual"),
        e_merge=evidence_field(record, "e_merge"),
        merge_rewards=tuple(rewards),
        flags=tuple(raw_flags),
    )


def load_labels(path: str | Path) -> dict[str, LabeledSample]:
    """Read a label file; on duplicate ids the last record wins (resume)."""
    return {
        labeled.sample_id: labeled
        for labeled in read_records(path, labeled_from_record)
    }


def _export_training(
    dataset: Dataset,
    labels: Mapping[str, LabeledSample],
    path: str | Path,
    source: str,
    strict: bool,
    record_for: Callable[[Sample, Evidence], dict[str, str]],
) -> int:
    """The loop both exports share: in dataset order, write
    `record_for(sample, evidence)` as one JSON line for each sample whose
    `source` label ("merge" or "distill") is present. A sample without one
    raises in strict mode and is skipped otherwise. Returns the count."""
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for sample in dataset:
            labeled = labels.get(sample.id)
            evidence = getattr(labeled, f"e_{source}") if labeled is not None else None
            if evidence is None:
                if strict:
                    raise MissingLabelError(sample.id, source)
                continue
            handle.write(json.dumps(record_for(sample, evidence), ensure_ascii=False))
            handle.write("\n")
            written += 1
    return written


def export_highlighter_training(
    dataset: Dataset,
    labels: Mapping[str, LabeledSample],
    path: str | Path,
    *,
    strict: bool = True,
    settings: RoleSettings = SEARCH_SETTINGS,
) -> int:
    """Write highlighter tuning records: blank prompt plus index-set completion.

    Prompts use the template and token budget of `settings` (a highlighter
    template, or None for the packaged one). The full training string for a
    record is prompt + completion, which ends "###Output\\n{i, ...}".
    Records follow dataset order. Samples without a merged label raise in
    strict mode and are skipped otherwise.
    """

    def record_for(sample: Sample, evidence: Evidence) -> dict[str, str]:
        prompt = build_highlighter_prompt(
            sample.table, sample.query, None, template=settings.template,
            sample_id=sample.id, token_budget=settings.token_budget,
        )
        return {"prompt": prompt.text, "completion": format_evidence(evidence)}

    return _export_training(dataset, labels, path, "merge", strict, record_for)


def export_summarizer_training(
    dataset: Dataset,
    labels: Mapping[str, LabeledSample],
    path: str | Path,
    *,
    source: str = "merge",
    strict: bool = True,
    settings: RoleSettings = SEARCH_SETTINGS,
) -> int:
    """Write summarizer tuning records: highlighted-table prompt, reference
    completion. `source` picks which evidence marks the table ("merge" or
    "distill"); prompts use the template and token budget of `settings`."""
    if source not in ("merge", "distill"):
        raise ValueError(f"source must be 'merge' or 'distill', got {source!r}")

    def record_for(sample: Sample, evidence: Evidence) -> dict[str, str]:
        prompt = build_summarizer_prompt(
            sample.table, evidence, sample.query, None, template=settings.template,
            sample_id=sample.id, token_budget=settings.token_budget,
        )
        return {"prompt": prompt.text, "completion": sample.reference}

    return _export_training(dataset, labels, path, source, strict, record_for)
