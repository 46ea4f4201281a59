"""Evidence-label construction: greedy search over row subsets, an
exhaustive verification oracle, few-shot distillation, reward-based merging
of label sources, and training-data export.

The greedy search evaluates the n singleton rows first, reorders them by
reward, then accumulates rows one at a time, keeping an addition only when
it strictly improves the reward. That costs exactly 2n feedback evaluations
instead of 2^n. The singletons do not depend on each other, so
`map_ordered` (which runs the batch commands' samples too) runs them up to
the feedbacker's `max_in_flight` at once, or in order on this thread when it
has none, as the offline clients do; outcomes are tallied in row order, as
in a serial search. The merge scores its distinct candidate sets alike.

A search, a merge or an exhaustive search renders its table once
(`transforms.render_table`) and joins every candidate's prompt from that
rendering. With a response cache, it first reads every answer cached for
its table and query with one statement (`feedback.reward_settings`), and
serves every lookup from that read: the singletons, each accumulation step
and each merge candidate. Only the misses are generated, and they are
stored in the cache and in the read, so a prompt asked for again is not
generated again. Cache trouble during the read makes every prompt of the
sample a miss, with one logged warning.

Each candidate is evaluated once. Retrying transient backend failures is
the HTTP client's job, within its `max_attempts`; a candidate whose call
still fails, or whose prompt is over the token budget, is skipped with a
"skipped:" note in the trace and never evaluated again. An auth failure, a
404 or a redirect is not skipped: it ends the search, as it would every
later call.
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
)
from .table_core import Dataset, Evidence, Sample, read_records
from .transforms import TableRendering, render_table

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

    With `workers` <= 1 each call runs on the calling thread as its result
    is asked for. Otherwise at most WINDOW_PER_WORKER * workers calls are
    queued or running in a pool at once; one more is submitted as each
    result is taken. Per-item exceptions are yielded, not raised, except
    JOB_FATAL_ERRORS (auth, 404, 3xx), which abort the whole job: every
    later call would fail identically, so none starts, and a queued call
    that a pool worker takes up after the error returns at once, unrun.
    The pool's module is imported here, so a command that runs everything
    on one thread never loads it.
    """
    if workers <= 1:
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


def _reward_or_error(
    sample: Sample,
    evidence: Evidence,
    mode: str,
    feedbacker: GeneratorClient,
    settings: RoleSettings,
    rendering: TableRendering,
    prompt: str | None = None,
) -> float | Exception:
    """`feedback_reward` of `evidence`, or the skippable error that replaced
    it. May run on pool threads, so it touches no shared state but the
    settings' cache, which threads may share."""
    try:
        return feedback_reward(
            sample.table, evidence, sample.query, sample.reference, mode,
            feedbacker, settings, rendering=rendering, prompt=prompt,
        )
    except JOB_FATAL_ERRORS:
        raise
    except _SKIPPABLE_ERRORS as exc:
        return exc


def _evaluate_all(
    sample: Sample,
    sets: list[Evidence],
    mode: str,
    feedbacker: GeneratorClient,
    settings: RoleSettings,
    rendering: TableRendering,
) -> list[float | Exception]:
    """`_reward_or_error` of each of `sets`, in order, up to the
    feedbacker's `max_in_flight` at once.

    Every prompt is joined from the table's `rendering` first
    (`reward_prompt`; a skippable failure there is that set's outcome), and
    each evaluation gets its prompt. With a cache (the caller's
    `CacheScope`, already read), a prompt that repeats an earlier one waits
    for a later round, looked up after the earlier one was stored, so it is
    generated no more often than in a serial search; with none, it runs
    beside the one it repeats.
    """
    width = getattr(feedbacker, "max_in_flight", 1)
    outcomes: list[float | Exception] = [0.0] * len(sets)
    prompts: dict[int, str] = {}
    rounds: list[list[int]] = []
    repeats: dict[str, int] = {}
    for i, evidence in enumerate(sets):
        try:
            prompt = reward_prompt(rendering, evidence, sample.query, mode, settings)
        except _SKIPPABLE_ERRORS as exc:
            outcomes[i] = exc
            continue
        prompts[i] = prompt
        seen = repeats.get(prompt, 0) if settings.cache is not None else 0
        repeats[prompt] = seen + 1
        if seen == len(rounds):
            rounds.append([])
        rounds[seen].append(i)

    def evaluate(i: int) -> float | Exception:
        return _reward_or_error(
            sample, sets[i], mode, feedbacker, settings, rendering, prompts[i]
        )

    for batch in rounds:
        for i, outcome, exc in map_ordered(evaluate, batch, width):
            if exc is not None:
                raise exc  # not skippable: `_reward_or_error` returns those
            outcomes[i] = outcome
    return outcomes


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
    oracle_calls: int
    flags: tuple[str, ...] = ()


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
    the outcomes in row order. Phase 2
    walks the singletons in descending-reward order (ties: ascending row
    index) and grows the result set one evaluation at a time, accepting an
    addition only on strict reward improvement. `step_cap` bounds the
    number of accepted additions. If nothing is ever accepted and
    `fallback` is set, the best singleton is returned and flagged. A
    candidate whose evaluation fails is skipped; if no singleton scores at
    all, the last such failure in row order is raised.
    """
    n = sample.table.n_rows
    candidates: list[SearchCandidate] = []
    flags: list[str] = []
    calls = 0
    last_error: Exception | None = None

    def tally(outcome: float | Exception) -> tuple[float | None, str]:
        nonlocal calls, last_error
        if isinstance(outcome, Exception):
            last_error = outcome
            return None, f"skipped: {outcome}"
        calls += 1
        return outcome, ""

    rendering = render_table(sample.table)
    settings = reward_settings(settings, feedbacker, rendering, sample.query, "subtable")
    singletons = [Evidence((i,)) for i in range(1, n + 1)]
    outcomes = _evaluate_all(sample, singletons, "subtable", feedbacker, settings, rendering)
    singles: list[tuple[float, int]] = []
    for i, (evidence, outcome) in enumerate(zip(singletons, outcomes), start=1):
        reward, note = tally(outcome)
        candidates.append(SearchCandidate(evidence, reward, "singleton", False, note))
        if reward is not None:
            singles.append((reward, i))
    if not singles and last_error is not None:
        raise last_error
    singles.sort(key=lambda pair: (-pair[0], pair[1]))

    held: tuple[int, ...] = ()
    held_reward = 0.0
    accepted_count = 0
    for _, row in singles:
        if step_cap is not None and accepted_count >= step_cap:
            flags.append("step_cap_reached")
            break
        evidence = Evidence(tuple(sorted(held + (row,))))
        reward, note = tally(
            _reward_or_error(sample, evidence, "subtable", feedbacker, settings, rendering)
        )
        accepted = reward is not None and reward > held_reward
        candidates.append(SearchCandidate(evidence, reward, "accumulate", accepted, note))
        if accepted:
            held = evidence.indices
            held_reward = reward
            accepted_count += 1

    if held:
        result, result_reward = Evidence(held), held_reward
    elif fallback and singles:
        top_reward, top_row = singles[0]
        result, result_reward = Evidence((top_row,)), top_reward
        flags.append("fallback_top_singleton")
    else:
        result, result_reward = Evidence(()), 0.0
        flags.append("no_usable_candidates")

    trace = SearchTrace(tuple(candidates), calls, tuple(flags))
    return result, result_reward, trace


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
    every lookup is served from one read, as in `greedy_search`.
    """
    n = sample.table.n_rows
    if n > n_max:
        raise TableTooLargeError(n, n_max)
    subsets = sorted(
        itertools.chain.from_iterable(
            itertools.combinations(range(1, n + 1), size) for size in range(1, n + 1)
        )
    )
    rendering = render_table(sample.table)
    settings = reward_settings(settings, feedbacker, rendering, sample.query, "subtable")
    best_evidence: Evidence | None = None
    best_reward = -1.0
    for indices in subsets:
        evidence = Evidence(indices)
        reward = feedback_reward(
            sample.table, evidence, sample.query, sample.reference, "subtable",
            feedbacker, settings, rendering=rendering,
        )
        if reward > best_reward:
            best_evidence, best_reward = evidence, reward
    assert best_evidence is not None
    return best_evidence, best_reward


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
    rendering = render_table(sample.table)
    settings = reward_settings(settings, feedbacker, rendering, sample.query, "highlight")
    outcomes = _evaluate_all(sample, sets, "highlight", feedbacker, settings, rendering)
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

    def dec(key: str) -> Evidence | None:
        raw = record.get(key)
        if raw is None:
            return None
        if not isinstance(raw, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in raw
        ):
            raise SchemaError(key, f"{key} must be null or a list of integers")
        return Evidence.from_any(raw)

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
        e_search=dec("e_search"),
        e_distill=dec("e_distill"),
        e_manual=dec("e_manual"),
        e_merge=dec("e_merge"),
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
