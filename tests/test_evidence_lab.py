"""Greedy/exhaustive evidence search, distillation, merging, and export."""

from __future__ import annotations

import json
import random
import sqlite3
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from tablehelm import evidence_lab, feedback, transforms
from tablehelm.errors import (
    JOB_FATAL_ERRORS,
    AuthError,
    EndpointNotFoundError,
    MissingLabelError,
    NoTableFoundError,
    PromptTooLongError,
    SchemaError,
    TableTooLargeError,
    TransportError,
)
from tablehelm.evidence_lab import (
    LabeledSample,
    distill_one,
    exhaustive_search,
    export_highlighter_training,
    export_summarizer_training,
    greedy_search,
    labeled_from_record,
    labeled_to_record,
    load_labels,
    merge_labels,
)
from tablehelm.feedback import (
    CountingClient,
    EchoClient,
    FixedClient,
    HttpClient,
    ResponseCache,
    RoleSettings,
    echo_oracle_generate,
)
from tablehelm.prompting import (
    OUTPUT_MARKER,
    estimate_tokens,
    load_example_blocks,
    summarizer_prompt_from_text,
)
from tablehelm.table_core import Dataset, Evidence, Sample, Table
from tablehelm.transforms import render_table


class FlakyClient:
    """Delegates, but raises TransportError on scripted call numbers."""

    def __init__(self, inner, fail_calls) -> None:
        self.inner = inner
        self.model_id = inner.model_id
        self.fail_calls = set(fail_calls)
        self.calls = 0

    def generate(self, prompt, cfg):
        self.calls += 1
        if self.calls in self.fail_calls:
            raise TransportError(f"scripted failure on call {self.calls}")
        return self.inner.generate(prompt, cfg)


class AlwaysFailingClient:
    model_id = "doomed"

    def __init__(self, error=TransportError) -> None:
        self.error = error
        self.calls = 0

    def generate(self, prompt, cfg):
        self.calls += 1
        raise self.error("scripted permanent failure")


class AlwaysStatusTransport:
    """HTTP transport stand-in that answers every post with one status."""

    def __init__(self, status: int) -> None:
        self.status = status
        self.requests = 0
        self._lock = threading.Lock()

    def post(self, body, headers, timeout):
        with self._lock:
            self.requests += 1
        return self.status, b""


class JitteryClient:
    """The echo oracle, answering after a seeded random few milliseconds so
    that concurrent calls finish out of order. A prompt showing a row of
    `fail_rows` (found by the row's first cell) raises `error` naming that
    row; `instant_rows` answer (or fail) without the delay. `max_in_flight`
    sets how many evaluations a search or merge runs at once."""

    model_id = "jittery"

    def __init__(
        self,
        max_in_flight,
        sample,
        seed=0,
        fail_rows=(),
        error=TransportError,
        instant_rows=(),
        delay_s=(0.001, 0.006),
    ) -> None:
        self.max_in_flight = max_in_flight
        rows = sample.table.rows
        self._fail = [(row, f": {rows[row - 1][0]} |") for row in fail_rows]
        self._instant = [f": {rows[row - 1][0]} |" for row in instant_rows]
        self._error = error
        self._rng = random.Random(seed)
        self._delay_s = delay_s
        self._lock = threading.Lock()
        self.calls = 0
        self.running = 0
        self.most_running = 0

    def generate(self, prompt, cfg):
        with self._lock:
            self.calls += 1
            self.running += 1
            self.most_running = max(self.most_running, self.running)
            delay = self._rng.uniform(*self._delay_s)
        try:
            if not any(marker in prompt for marker in self._instant):
                time.sleep(delay)
            for row, marker in self._fail:
                if marker in prompt:
                    raise self._error(f"scripted failure on row {row}")
            return echo_oracle_generate(prompt, cfg)
        finally:
            with self._lock:
                self.running -= 1


class TestGreedySearch:
    def test_recovers_a_planted_subset_in_2n_calls(self):
        sample, planted = support.planted_sample("gs-1", 4, 2, (1, 3))
        client = CountingClient(EchoClient())
        evidence, reward, trace = greedy_search(sample, client)
        assert evidence == planted
        assert reward == 1.0
        assert trace.oracle_calls == 8
        assert client.calls == 8
        assert trace.flags == ()

    def test_trace_records_both_phases_in_order(self):
        sample, planted = support.planted_sample("gs-2", 4, 2, (1, 3))
        _, _, trace = greedy_search(sample, EchoClient())
        singletons = [c for c in trace.candidates if c.phase == "singleton"]
        accumulate = [c for c in trace.candidates if c.phase == "accumulate"]
        assert [c.evidence for c in singletons] == [
            Evidence((i,)) for i in range(1, 5)
        ]
        assert all(not c.accepted for c in singletons)
        # Ties between the two planted singletons break to the lower index,
        # so the walk grows 1 -> {1,3} before trying the distractors.
        assert [c.evidence for c in accumulate] == [
            Evidence((1,)),
            Evidence((1, 3)),
            Evidence((1, 2, 3)),
            Evidence((1, 3, 4)),
        ]
        assert [c.accepted for c in accumulate] == [True, True, False, False]
        accepted_rewards = [c.reward for c in accumulate if c.accepted]
        assert accepted_rewards == sorted(accepted_rewards)
        assert accepted_rewards[0] < accepted_rewards[-1]

    def test_single_row_table_costs_two_calls(self):
        sample, planted = support.planted_sample("gs-3", 1, 2, (1,))
        client = CountingClient(EchoClient())
        evidence, reward, trace = greedy_search(sample, client)
        assert evidence == planted == Evidence((1,))
        assert reward == 1.0
        assert trace.oracle_calls == client.calls == 2

    def test_step_cap_bounds_accepted_additions(self):
        sample, _ = support.planted_sample("gs-4", 4, 2, (1, 3))
        evidence, _, trace = greedy_search(sample, EchoClient(), step_cap=1)
        assert evidence == Evidence((1,))
        assert "step_cap_reached" in trace.flags
        assert trace.oracle_calls == 5

    def test_step_cap_zero_falls_back_to_the_top_singleton(self):
        sample, _ = support.planted_sample("gs-5", 3, 2, (2,))
        evidence, _, trace = greedy_search(sample, EchoClient(), step_cap=0)
        assert evidence == Evidence((2,))
        assert trace.flags == ("step_cap_reached", "fallback_top_singleton")

    def test_no_improvement_falls_back_to_the_top_singleton(self, champions_sample):
        evidence, reward, trace = greedy_search(champions_sample, FixedClient(""))
        assert evidence == Evidence((1,))
        assert reward == 0.0
        assert trace.flags == ("fallback_top_singleton",)
        assert trace.oracle_calls == 6

    def test_fallback_can_be_disabled(self, champions_sample):
        evidence, reward, trace = greedy_search(
            champions_sample, FixedClient(""), fallback=False
        )
        assert evidence == Evidence(())
        assert reward == 0.0
        assert trace.flags == ("no_usable_candidates",)

    def test_total_failure_raises_the_last_error(self, champions_sample):
        client = AlwaysFailingClient()
        with pytest.raises(TransportError, match="scripted permanent failure"):
            greedy_search(champions_sample, client)
        # One call per singleton; nothing reached the growth phase.
        assert client.calls == champions_sample.table.n_rows

    def test_a_failed_call_skips_its_candidate_without_a_second_call(self):
        sample, planted = support.planted_sample("gs-6", 3, 2, (2,))
        flaky_client = FlakyClient(EchoClient(), fail_calls={1})
        evidence, _, _ = greedy_search(sample, flaky_client)
        assert evidence == planted
        # Three singletons, the first failing, then two growth steps.
        assert flaky_client.calls == 5

    def test_persistent_candidate_failure_is_skipped(self):
        sample, planted = support.planted_sample("gs-7", 3, 2, (2,))
        evidence, reward, trace = greedy_search(
            sample, FlakyClient(EchoClient(), fail_calls={1})
        )
        assert evidence == planted
        assert reward == 1.0
        first = trace.candidates[0]
        assert first.evidence == Evidence((1,))
        assert first.reward is None
        assert first.note == "skipped: scripted failure on call 1"
        # Row 1 never re-enters the walk, so two evaluations are saved.
        assert trace.oracle_calls == 4

    def test_an_always_failing_backend_spends_one_retry_budget_per_candidate(
        self, champions_sample
    ):
        transport = AlwaysStatusTransport(500)
        sleeps: list[float] = []
        client = HttpClient(
            "https://api.test/v1/chat",
            "test-model",
            max_attempts=2,
            transport=transport,
            sleep=sleeps.append,
        )
        with pytest.raises(TransportError, match="gave up after 2 attempts"):
            greedy_search(champions_sample, client)
        n = champions_sample.table.n_rows
        assert transport.requests == 2 * n
        assert sleeps == [0.5] * n

    @pytest.mark.parametrize("cached", [False, True])
    def test_a_404_ends_the_search_at_its_first_request(
        self, champions_sample, tmp_path, cached
    ):
        transport = AlwaysStatusTransport(404)
        client = HttpClient(
            "https://api.test/v1/chat", "test-model", max_in_flight=1, transport=transport
        )
        role = RoleSettings(cache=ResponseCache(tmp_path) if cached else None)
        with pytest.raises(EndpointNotFoundError, match="HTTP 404"):
            greedy_search(champions_sample, client, settings=role)
        assert transport.requests == 1
        labeled = LabeledSample(
            sample_id="champ-1", e_manual=Evidence((1,)), e_search=Evidence((2,))
        )
        with pytest.raises(EndpointNotFoundError):
            merge_labels(labeled, champions_sample, client, settings=role)
        with pytest.raises(EndpointNotFoundError):
            distill_one(champions_sample, client, load_example_blocks(), settings=role)
        assert transport.requests == 3

    def test_an_over_budget_prompt_is_rendered_once_per_candidate(
        self, champions_sample, monkeypatch
    ):
        # A search builds each candidate's prompt from the table's rendering
        # through `summarizer_prompt_from_text`, where the budget is checked.
        rendered = []

        def counting_build(*args, **kwargs):
            rendered.append(args)
            return summarizer_prompt_from_text(*args, **kwargs)

        monkeypatch.setattr(feedback, "summarizer_prompt_from_text", counting_build)
        client = CountingClient(EchoClient())
        with pytest.raises(PromptTooLongError):
            greedy_search(champions_sample, client, settings=RoleSettings(token_budget=5))
        assert len(rendered) == champions_sample.table.n_rows
        assert client.calls == 0

    def test_a_search_renders_each_row_once(self, champions_sample, monkeypatch):
        # The header and each row body are rendered once per search; every
        # one of the 2n prompts is joined from them.
        rendered = []
        original = transforms._render_cells

        def counting(cells):
            rendered.append(cells)
            return original(cells)

        monkeypatch.setattr(transforms, "_render_cells", counting)
        table = champions_sample.table
        client = CountingClient(EchoClient())
        greedy_search(champions_sample, client)
        assert client.calls == 2 * table.n_rows
        assert rendered == [table.header, *table.rows]

    def test_a_prompt_without_a_table_is_evaluated_once(self, champions_sample):
        client = AlwaysFailingClient(NoTableFoundError)
        with pytest.raises(NoTableFoundError):
            greedy_search(champions_sample, client)
        assert client.calls == champions_sample.table.n_rows


class TestFanOut:
    """Phase 1 and the merge run up to the feedbacker's `max_in_flight`
    evaluations at once; everything they report must be what one thread
    reports."""

    @pytest.mark.parametrize("fail_rows", [(), (4,)])
    @pytest.mark.parametrize("seed", range(3))
    def test_out_of_order_completion_gives_the_serial_search(self, seed, fail_rows):
        sample, planted = support.planted_sample("fan-1", 8, 2, (2, 5, 7), salt="q")
        serial = JitteryClient(1, sample, seed, fail_rows)
        fanned = JitteryClient(4, sample, seed, fail_rows)
        want = greedy_search(sample, serial)
        got = greedy_search(sample, fanned)
        assert got == want
        assert got[0] == planted
        assert serial.most_running == 1
        assert fanned.most_running > 1
        n = sample.table.n_rows
        # 2n evaluations, less the walk step a skipped singleton never gets.
        assert fanned.calls == serial.calls == 2 * n - len(fail_rows)
        assert got[2].oracle_calls == 2 * n - 2 * len(fail_rows)
        singletons = got[2].candidates[:n]
        assert [c.evidence for c in singletons] == [Evidence((i,)) for i in range(1, n + 1)]
        for row in fail_rows:
            assert singletons[row - 1].reward is None
            assert singletons[row - 1].note == f"skipped: scripted failure on row {row}"

    @pytest.mark.parametrize("seed", range(3))
    def test_with_no_singleton_scored_the_last_error_in_row_order_is_raised(self, seed):
        sample, _ = support.planted_sample("fan-2", 6, 2, (3,), salt="q")
        client = JitteryClient(4, sample, seed, fail_rows=range(1, 7))
        with pytest.raises(TransportError, match="on row 6$"):
            greedy_search(sample, client)
        assert client.calls == 6

    def test_an_auth_error_stops_the_fan_out(self):
        sample, _ = support.planted_sample("fan-3", 12, 2, (3,), salt="q")
        width = 3
        client = JitteryClient(
            width,
            sample,
            fail_rows=(1,),
            error=AuthError,
            instant_rows=(1,),
            delay_s=(0.05, 0.05),
        )
        with pytest.raises(AuthError, match="on row 1$"):
            greedy_search(sample, client)
        # Singleton 1 plus the calls already running beside it; the rest of
        # the queue is cancelled.
        assert client.calls <= 1 + width

    @pytest.mark.parametrize("cached", [False, True])
    def test_a_404_stops_the_fan_out(self, tmp_path, cached):
        sample, _ = support.planted_sample("fan-5", 12, 2, (3,), salt="q")
        width = 3
        client = JitteryClient(
            width,
            sample,
            fail_rows=(1,),
            error=EndpointNotFoundError,
            instant_rows=(1,),
            delay_s=(0.05, 0.05),
        )
        role = RoleSettings(cache=ResponseCache(tmp_path) if cached else None)
        with pytest.raises(EndpointNotFoundError, match="on row 1$"):
            greedy_search(sample, client, settings=role)
        assert client.calls <= 1 + width

    @pytest.mark.parametrize("seed", range(3))
    def test_merge_keeps_rewards_and_tie_break(self, seed):
        table = Table(header=("h1", "h2"), rows=(("dup", "row"), ("dup", "row"), ("x", "y")))
        sample = Sample(id="tie-2", table=table, query="q?", reference="dup row")
        labeled = LabeledSample(
            sample_id="tie-2",
            e_manual=Evidence((2,)),
            e_distill=Evidence((3,)),
            e_search=Evidence((1,)),
        )
        # Longer delays than the search's: three calls must still overlap.
        serial = JitteryClient(1, sample, seed, delay_s=(0.01, 0.03))
        fanned = JitteryClient(4, sample, seed, delay_s=(0.01, 0.03))
        want = merge_labels(labeled, sample, serial)
        got = merge_labels(labeled, sample, fanned)
        assert got == want
        assert got.e_merge == Evidence((2,))
        assert [name for name, _ in got.merge_rewards] == ["manual", "distill", "search"]
        assert fanned.calls == serial.calls == 3
        assert fanned.most_running > 1

    def test_counting_client_passes_the_cap_on(self):
        sample, _ = support.planted_sample("fan-4", 2, 2, (1,))
        assert CountingClient(JitteryClient(5, sample)).max_in_flight == 5
        assert CountingClient(EchoClient()).max_in_flight == 1


class ThreadNotingClient:
    """The echo oracle with no fan-out (`max_in_flight` 1), noting the
    thread of every call."""

    model_id = "thread-noting"
    max_in_flight = 1

    def __init__(self) -> None:
        self.threads = []

    def generate(self, prompt, cfg):
        self.threads.append(threading.get_ident())
        return echo_oracle_generate(prompt, cfg)


class TestWidthOne:
    """A fan-out of width 1 calls the feedbacker on the caller's thread."""

    @pytest.mark.parametrize("cached", [False, True])
    def test_a_search_makes_every_call_on_the_callers_thread(self, tmp_path, cached):
        sample, planted = support.planted_sample("one-1", 6, 2, (2, 5), salt="q")
        client = ThreadNotingClient()
        role = RoleSettings(cache=ResponseCache(tmp_path) if cached else None)
        evidence, _, trace = greedy_search(sample, client, settings=role)
        assert evidence == planted
        assert trace.oracle_calls == 12
        # With a cache a repeated prompt is served, not generated.
        assert len(client.threads) == (11 if cached else 12)
        assert set(client.threads) == {threading.get_ident()}

    def test_a_merge_makes_every_call_on_the_callers_thread(self):
        sample, planted = support.planted_sample("one-2", 5, 2, (3,), salt="q")
        labeled = LabeledSample(
            sample_id="one-2", e_manual=Evidence((1,)), e_search=planted,
            e_distill=Evidence((4,)),
        )
        client = ThreadNotingClient()
        merged = merge_labels(labeled, sample, client)
        assert merged.e_merge == planted
        assert client.threads == [threading.get_ident()] * 3

    def test_a_merge_whose_sources_agree_scores_on_the_callers_thread(self):
        # One distinct set is a fan-out of one item: it builds no pool,
        # however many calls the feedbacker could wait on at once.
        sample, planted = support.planted_sample("one-3", 5, 2, (3,), salt="q")
        labeled = LabeledSample(sample_id="one-3", e_manual=planted, e_search=planted)
        client = ThreadNotingClient()
        client.max_in_flight = 4
        merged = merge_labels(labeled, sample, client)
        assert merged.e_merge == planted
        assert client.threads == [threading.get_ident()]


class TestExhaustiveSearch:
    def test_agrees_with_greedy_on_a_planted_subset(self):
        sample, planted = support.planted_sample("ex-1", 4, 2, (2, 4))
        greedy_evidence, greedy_reward, _ = greedy_search(sample, EchoClient())
        best_evidence, best_reward = exhaustive_search(sample, EchoClient())
        assert best_evidence == greedy_evidence == planted
        assert best_reward == greedy_reward == 1.0

    def test_costs_every_nonempty_subset(self):
        sample, _ = support.planted_sample("ex-2", 3, 2, (1,))
        client = CountingClient(EchoClient())
        exhaustive_search(sample, client)
        assert client.calls == 2**3 - 1

    def test_ties_keep_the_lexicographically_smallest_subset(self):
        table = Table(
            header=("h1", "h2"),
            rows=(("dup", "row"), ("dup", "row"), ("pad", "cells")),
        )
        sample = Sample(id="ex-3", table=table, query="q?", reference="dup row")
        best_evidence, best_reward = exhaustive_search(sample, EchoClient())
        assert best_evidence == Evidence((1,))
        assert best_reward == 1.0

    def test_large_tables_are_refused(self):
        sample, _ = support.planted_sample("ex-4", 13, 1, (1,))
        with pytest.raises(TableTooLargeError):
            exhaustive_search(sample, EchoClient())

    def test_row_budget_is_configurable(self, champions_sample):
        with pytest.raises(TableTooLargeError):
            exhaustive_search(champions_sample, EchoClient(), n_max=2)

    def test_a_warm_cache_serves_every_subset(self, tmp_path):
        sample, planted = support.planted_sample("ex-5", 4, 2, (1, 3))
        role = RoleSettings(cache=ResponseCache(tmp_path))
        cold = CountingClient(EchoClient())
        cold_best = exhaustive_search(sample, cold, settings=role)
        warm = CountingClient(EchoClient())
        assert exhaustive_search(sample, warm, settings=role) == cold_best
        assert cold_best == (planted, 1.0)
        assert cold.calls == 2**4 - 1
        assert warm.calls == 0

    def test_a_subset_over_the_token_budget_raises(self):
        # The budget fits the first subset, {1}, but not the next, {1, 2}:
        # the oracle raises there instead of skipping it, as a search would.
        sample, _ = support.planted_sample("ex-6", 3, 2, (2,))
        prompt = feedback.reward_prompt(
            render_table(sample.table), Evidence((1,)), sample.query, "subtable"
        )
        budget = estimate_tokens(prompt)
        client = CountingClient(EchoClient())
        with pytest.raises(PromptTooLongError):
            exhaustive_search(sample, client, settings=RoleSettings(token_budget=budget))
        assert client.calls == 1


class TestLabeledSample:
    def test_requires_a_sample_id(self):
        with pytest.raises(ValueError):
            LabeledSample(sample_id="")

    def test_merge_must_match_a_source_when_sources_exist(self):
        with pytest.raises(ValueError):
            LabeledSample(
                sample_id="x", e_search=Evidence((1,)), e_merge=Evidence((2,))
            )

    def test_merge_only_label_is_allowed(self):
        labeled = LabeledSample(sample_id="x", e_merge=Evidence((1, 2)))
        assert labeled.candidates() == {}
        assert labeled.e_merge == Evidence((1, 2))

    def test_candidates_follow_merge_priority_order(self):
        labeled = LabeledSample(
            sample_id="x",
            e_search=Evidence((1,)),
            e_distill=Evidence((2,)),
            e_manual=Evidence((3,)),
        )
        assert list(labeled.candidates()) == ["manual", "distill", "search"]


class TestDistill:
    def test_parsable_output_becomes_a_label(self, champions_sample):
        labeled, notes = distill_one(
            champions_sample, FixedClient("{1, 3}"), load_example_blocks()
        )
        assert labeled.sample_id == "champ-1"
        assert labeled.e_distill == Evidence((1, 3))
        assert labeled.e_manual == champions_sample.manual_evidence
        assert notes == []

    def test_out_of_range_indices_are_noted_but_kept_partial(self, champions_sample):
        labeled, notes = distill_one(
            champions_sample, FixedClient("{1, 9}"), load_example_blocks()
        )
        assert labeled.e_distill == Evidence((1,))
        assert notes == ["champ-1: index 9 out of range for a 3-row table"]

    def test_empty_set_output_is_a_real_label(self, champions_sample):
        labeled, notes = distill_one(
            champions_sample, FixedClient("{}"), load_example_blocks()
        )
        assert labeled.e_distill == Evidence(())
        assert notes == []

    def test_prose_output_yields_no_label(self, champions_sample):
        labeled, notes = distill_one(
            champions_sample, FixedClient("cannot say"), load_example_blocks()
        )
        assert labeled.e_distill is None
        assert labeled.e_manual == champions_sample.manual_evidence
        assert len(notes) == 1 and notes[0].startswith("champ-1: no row indices")

    def test_transient_failure_yields_no_label(self, champions_sample):
        labeled, notes = distill_one(
            champions_sample, AlwaysFailingClient(), load_example_blocks()
        )
        assert labeled.e_distill is None
        assert notes == [
            "champ-1: generation failed: scripted permanent failure"
        ]

    def test_over_budget_prompt_is_noted(self, champions_sample):
        labeled, notes = distill_one(
            champions_sample,
            FixedClient("{1}"),
            load_example_blocks(),
            settings=RoleSettings(token_budget=10),
        )
        assert labeled.e_distill is None
        assert len(notes) == 1
        assert "exceeds budget" in notes[0]


class TestMergeLabels:
    def test_no_sources_is_an_error(self, champions_sample):
        with pytest.raises(MissingLabelError) as exc_info:
            merge_labels(
                LabeledSample(sample_id="champ-1"), champions_sample, EchoClient()
            )
        assert exc_info.value.sample_id == "champ-1"

    def test_single_source_wins_without_any_evaluation(self, champions_sample):
        labeled = LabeledSample(sample_id="champ-1", e_search=Evidence((2,)))
        client = CountingClient(EchoClient())
        merged = merge_labels(labeled, champions_sample, client)
        assert merged.e_merge == Evidence((2,))
        assert merged.merge_rewards == ()
        assert client.calls == 0

    def test_the_higher_reward_source_wins(self):
        sample, planted = support.planted_sample("mg-1", 4, 2, (2,))
        labeled = LabeledSample(
            sample_id=sample.id, e_manual=Evidence((1,)), e_search=planted
        )
        merged = merge_labels(labeled, sample, EchoClient())
        assert merged.e_merge == planted
        rewards = dict(merged.merge_rewards)
        assert set(rewards) == {"manual", "search"}
        assert rewards["search"] == 1.0
        assert rewards["search"] == max(rewards.values())
        assert rewards["manual"] < 1.0

    def test_reward_ties_break_by_source_priority(self):
        table = Table(
            header=("h1", "h2"),
            rows=(("dup", "row"), ("dup", "row")),
        )
        sample = Sample(id="tie-1", table=table, query="q?", reference="dup row")
        labeled = LabeledSample(
            sample_id="tie-1", e_manual=Evidence((2,)), e_search=Evidence((1,))
        )
        merged = merge_labels(labeled, sample, EchoClient())
        assert merged.e_merge == Evidence((2,))
        rewards = dict(merged.merge_rewards)
        assert rewards["manual"] == rewards["search"]

    def test_identical_candidates_are_evaluated_once(self, champions_sample):
        labeled = LabeledSample(
            sample_id="champ-1",
            e_manual=Evidence((2,)),
            e_distill=Evidence((2,)),
            e_search=Evidence((2,)),
        )
        client = CountingClient(EchoClient())
        merged = merge_labels(labeled, champions_sample, client)
        assert client.calls == 1
        assert merged.e_merge == Evidence((2,))
        assert [name for name, _ in merged.merge_rewards] == [
            "manual", "distill", "search",
        ]
        assert len({reward for _, reward in merged.merge_rewards}) == 1

    def test_rerun_is_deterministic(self):
        sample, planted = support.planted_sample("mg-2", 5, 2, (1, 4))
        def run():
            labeled = LabeledSample(
                sample_id=sample.id,
                e_manual=Evidence((2,)),
                e_distill=Evidence((1, 4)),
                e_search=Evidence((1,)),
            )
            return merge_labels(labeled, sample, EchoClient())
        first, second = run(), run()
        assert first.e_merge == second.e_merge == planted
        assert first.merge_rewards == second.merge_rewards


class TestLabelRecords:
    def full_label(self) -> LabeledSample:
        return LabeledSample(
            sample_id="rec-1",
            e_search=Evidence((1, 3)),
            e_distill=Evidence(()),
            e_manual=Evidence((2,)),
            e_merge=Evidence((2,)),
            merge_rewards=(("manual", 0.9), ("distill", 0.1), ("search", 0.5)),
            flags=("fallback_top_singleton",),
        )

    def test_record_round_trip_through_json(self):
        labeled = self.full_label()
        record = json.loads(json.dumps(labeled_to_record(labeled)))
        assert labeled_from_record(record) == labeled

    def test_record_shape(self):
        record = labeled_to_record(self.full_label())
        assert record == {
            "id": "rec-1",
            "e_search": [1, 3],
            "e_distill": [],
            "e_manual": [2],
            "e_merge": [2],
            "rewards": {"manual": 0.9, "distill": 0.1, "search": 0.5},
            "flags": ["fallback_top_singleton"],
        }

    @pytest.mark.parametrize(
        ("patch", "field"),
        [
            ({"id": ""}, "id"),
            ({"id": 7}, "id"),
            ({"e_search": "1,3"}, "e_search"),
            ({"e_merge": [True]}, "e_merge"),
            ({"e_search": [0]}, "e_search"),
            ({"e_distill": [-2]}, "e_distill"),
            ({"rewards": [0.5]}, "rewards"),
            ({"rewards": {"search": True}}, "rewards"),
            ({"flags": "oops"}, "flags"),
        ],
    )
    def test_bad_records_are_rejected(self, patch, field):
        record = labeled_to_record(self.full_label())
        record.update(patch)
        with pytest.raises(SchemaError) as exc_info:
            labeled_from_record(record)
        assert exc_info.value.field == field

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        one = LabeledSample(sample_id="a", e_search=Evidence((1,)))
        two = LabeledSample(sample_id="b", e_manual=Evidence((2,)))
        support.save_labels(path, [one, two])
        assert load_labels(path) == {"a": one, "b": two}

    def test_append_mode_and_last_record_wins(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        support.save_labels(path, [LabeledSample(sample_id="a", e_search=Evidence((1,)))])
        updated = LabeledSample(sample_id="a", e_search=Evidence((1, 2)))
        support.save_labels(path, [updated], append=True)
        assert path.read_text("utf-8").count("\n") == 2
        assert load_labels(path) == {"a": updated}

    def test_broken_line_is_reported_with_its_number(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"id": "a"}\nnot json\n', encoding="utf-8")
        with pytest.raises(SchemaError, match="line 2"):
            load_labels(path)

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"id": "a"}\n\n\n', encoding="utf-8")
        assert set(load_labels(path)) == {"a"}


class TestExports:
    def two_sample_dataset(self):
        first, _ = support.planted_sample("xp-1", 3, 2, (1,))
        second, _ = support.planted_sample("xp-2", 4, 2, (2, 4))
        return Dataset((first, second))

    def test_highlighter_records(self, tmp_path):
        dataset = self.two_sample_dataset()
        labels = {
            "xp-1": LabeledSample(sample_id="xp-1", e_merge=Evidence((1,))),
            "xp-2": LabeledSample(sample_id="xp-2", e_merge=Evidence((2, 4))),
        }
        path = tmp_path / "train.jsonl"
        assert export_highlighter_training(dataset, labels, path) == 2
        records = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
        assert [set(r) for r in records] == [{"prompt", "completion"}] * 2
        assert [r["completion"] for r in records] == ["{1}", "{2, 4}"]
        for record, sample in zip(records, dataset):
            assert record["prompt"].endswith(OUTPUT_MARKER + "\n")
            assert sample.query in record["prompt"]
            assert record["completion"] not in record["prompt"]

    def test_highlighter_strictness(self, tmp_path):
        dataset = self.two_sample_dataset()
        labels = {"xp-1": LabeledSample(sample_id="xp-1", e_merge=Evidence((1,)))}
        with pytest.raises(MissingLabelError) as exc_info:
            export_highlighter_training(dataset, labels, tmp_path / "strict.jsonl")
        assert exc_info.value.sample_id == "xp-2"
        written = export_highlighter_training(
            dataset, labels, tmp_path / "lenient.jsonl", strict=False
        )
        assert written == 1

    def test_label_without_merge_counts_as_missing(self, tmp_path):
        dataset = self.two_sample_dataset()
        labels = {
            "xp-1": LabeledSample(sample_id="xp-1", e_merge=Evidence((1,))),
            "xp-2": LabeledSample(sample_id="xp-2", e_search=Evidence((2,))),
        }
        with pytest.raises(MissingLabelError):
            export_highlighter_training(dataset, labels, tmp_path / "out.jsonl")

    def test_summarizer_records_star_the_merged_rows(self, tmp_path, champions_sample):
        dataset = Dataset((champions_sample,))
        labels = {
            "champ-1": LabeledSample(sample_id="champ-1", e_merge=Evidence((2,)))
        }
        path = tmp_path / "train.jsonl"
        assert export_summarizer_training(dataset, labels, path) == 1
        [record] = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
        assert "row 2 : *2000* | *PSV* | *84*" in record["prompt"]
        assert record["prompt"].endswith(OUTPUT_MARKER + "\n")
        assert record["completion"] == champions_sample.reference

    def test_summarizer_distill_source(self, tmp_path, champions_sample):
        dataset = Dataset((champions_sample,))
        labels = {
            "champ-1": LabeledSample(
                sample_id="champ-1", e_distill=Evidence((1,))
            )
        }
        path = tmp_path / "train.jsonl"
        written = export_summarizer_training(dataset, labels, path, source="distill")
        assert written == 1
        [record] = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
        assert "row 1 : *1999* | *Ajax* | *78*" in record["prompt"]

    def test_summarizer_rejects_unknown_sources(self, tmp_path, champions_sample):
        with pytest.raises(ValueError):
            export_summarizer_training(
                Dataset((champions_sample,)), {}, tmp_path / "x.jsonl", source="manual"
            )

    def test_summarizer_strictness(self, tmp_path, champions_sample):
        dataset = Dataset((champions_sample,))
        with pytest.raises(MissingLabelError):
            export_summarizer_training(dataset, {}, tmp_path / "strict.jsonl")
        written = export_summarizer_training(
            dataset, {}, tmp_path / "lenient.jsonl", strict=False
        )
        assert written == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_greedy_search_recovers_random_planted_subsets(rng_seed):
    sample, planted = support.random_planted(random.Random(rng_seed), "prop")
    client = CountingClient(EchoClient())
    evidence, reward, trace = greedy_search(sample, client)
    assert evidence == planted
    assert reward == 1.0
    assert trace.oracle_calls == client.calls == 2 * sample.table.n_rows


# ---------------------------------------------------- batched cache lookups
# Phase 1 and the merge build their prompts first and evaluate them in
# rounds, up to the feedbacker's `max_in_flight` at once. The reference below
# stands in for the whole scorer of a table: one plain `feedback_reward` call
# per set, in order on one thread, each rendering the table, over the cache
# scope of `feedback.reward_settings`, with a skippable error returned in
# place of its reward. Everything else in the search is shared.


def one_by_one(sample, mode, feedbacker, role):
    role = feedback.reward_settings(
        role, feedbacker, render_table(sample.table), sample.query, mode
    )

    def score(evidence):
        try:
            return feedback.feedback_reward(
                sample.table, evidence, sample.query, sample.reference, mode,
                feedbacker, role,
            )
        except JOB_FATAL_ERRORS:
            raise
        except evidence_lab._SKIPPABLE_ERRORS as exc:
            return exc

    return score, lambda sets: [score(evidence) for evidence in sets]


class WideEcho(EchoClient):
    """The echo oracle with a `max_in_flight`, so that batches fan out."""

    def __init__(self, width: int) -> None:
        self.max_in_flight = width


CACHE_MODES = ("none", "cold", "warm", "corrupt")

# Few cell values in two columns, so that rows, and with them the singleton
# prompts of a search, often repeat.
_cells = st.sampled_from(["a", "b", "c d", "7"])
_tables = st.lists(st.tuples(_cells, _cells), min_size=1, max_size=6).map(
    lambda rows: Table(header=("h1", "h2"), rows=tuple(rows))
)


def _evidence_in(n_rows: int):
    return st.sets(st.integers(1, n_rows), min_size=1).map(
        lambda rows: Evidence(tuple(sorted(rows)))
    )


def _cache_rows(cache):
    with sqlite3.connect(cache.path) as conn:
        rows = sorted(conn.execute("SELECT key, CAST(text AS BLOB) FROM entries"))
    conn.close()
    return rows


def _prepare(mode, directory, warm_up, damaged):
    """A cache in `mode` (None for "none"), warmed by `warm_up(cache)` and,
    for "corrupt", with the rows at the `damaged` positions of its key order
    made a BLOB or text that is not UTF-8."""
    if mode == "none":
        return None
    cache = ResponseCache(directory)
    if mode in ("warm", "corrupt"):
        warm_up(cache)
    if mode == "corrupt":
        keys = [key for key, _ in _cache_rows(cache)]
        with sqlite3.connect(cache.path) as conn:
            for position in damaged:
                if position < len(keys):
                    text = "X'00ff'" if position % 2 else "CAST(X'fffe' AS TEXT)"
                    conn.execute(f"UPDATE entries SET text = {text} WHERE key = ?",
                                 (keys[position],))
        conn.close()
    return cache


def _differential(run, mode, width, damaged):
    """`run(client, role)` with the batched lookups and with the reference,
    each on its own cache prepared alike: (result, generator calls, cache
    rows) of each."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        for side in ("batched", "reference"):

            def warm_up(cache):
                with mock.patch.object(evidence_lab, "_scorer", one_by_one):
                    run(EchoClient(), RoleSettings(cache=cache))

            cache = _prepare(mode, Path(tmp, side), warm_up, damaged)
            client = CountingClient(WideEcho(width))
            role = RoleSettings(cache=cache)
            if side == "batched":
                result = run(client, role)
            else:
                with mock.patch.object(evidence_lab, "_scorer", one_by_one):
                    result = run(client, role)
            rows = None
            if cache is not None:
                cache.close()
                rows = _cache_rows(cache)
            outcomes.append((result, client.calls, rows))
    return outcomes


@settings(max_examples=30, deadline=None)
@given(
    table=_tables,
    data=st.data(),
    mode=st.sampled_from(CACHE_MODES),
    width=st.sampled_from([1, 3]),
    damaged=st.sets(st.integers(0, 20), max_size=6),
)
def test_batched_lookups_search_as_the_one_by_one_path(table, data, mode, width, damaged):
    reference_rows = data.draw(st.lists(st.integers(1, table.n_rows), max_size=3))
    reference = " ".join(" ".join(table.rows[r - 1]) for r in reference_rows) or "a"
    sample = Sample(id="diff", table=table, query="q?", reference=reference)

    def run(client, role):
        return greedy_search(sample, client, settings=role)

    (got, got_calls, got_rows), (want, want_calls, want_rows) = _differential(
        run, mode, width, damaged
    )
    assert got == want  # evidence, reward, and the whole trace
    assert got_calls == want_calls
    assert got_rows == want_rows
    if mode == "warm":
        assert got_calls == 0


@settings(max_examples=30, deadline=None)
@given(
    table=_tables,
    data=st.data(),
    mode=st.sampled_from(CACHE_MODES),
    width=st.sampled_from([1, 3]),
    damaged=st.sets(st.integers(0, 4), max_size=3),
)
def test_batched_lookups_merge_as_the_one_by_one_path(table, data, mode, width, damaged):
    sources = data.draw(st.fixed_dictionaries({
        "e_manual": _evidence_in(table.n_rows),
        "e_distill": _evidence_in(table.n_rows),
        "e_search": _evidence_in(table.n_rows),
    }))
    sample = Sample(id="diff", table=table, query="q?", reference=" ".join(table.rows[0]))

    def run(client, role):
        return merge_labels(LabeledSample(sample_id="diff", **sources), sample, client,
                            settings=role)

    (got, got_calls, got_rows), (want, want_calls, want_rows) = _differential(
        run, mode, width, damaged
    )
    assert got == want
    assert got_calls == want_calls
    assert got_rows == want_rows


class RecordingEcho(WideEcho):
    """`WideEcho` recording each prompt it is asked for (thread-safe)."""

    def __init__(self, width: int) -> None:
        super().__init__(width)
        self.prompts: list[str] = []
        self.lock = threading.Lock()

    def generate(self, prompt, cfg):
        with self.lock:
            self.prompts.append(prompt)
        return super().generate(prompt, cfg)


def test_a_cold_cached_search_fanning_out_makes_the_calls_of_a_serial_one(tmp_path):
    # Rows that repeat, so that singletons share prompts and the later
    # accumulation steps repeat earlier prompts.
    rows = (("a", "b"), ("c", "d"), ("a", "b"), ("e", "f"), ("c", "d"), ("a", "b"))
    table = Table(header=("h1", "h2"), rows=rows)
    sample = Sample(id="fan", table=table, query="q?", reference="c d e f")
    outcomes = []
    for width in (1, 4):
        client = RecordingEcho(width)
        cache = ResponseCache(tmp_path / f"width-{width}")
        result = greedy_search(sample, client, settings=RoleSettings(cache=cache))
        cache.close()
        outcomes.append((result, sorted(client.prompts), _cache_rows(cache)))
    assert outcomes[0] == outcomes[1]
    (_, _, trace), prompts, rows_stored = outcomes[0]
    assert len(prompts) == len(set(prompts)) == len(rows_stored) < trace.oracle_calls


def test_no_cache_computes_no_scope(monkeypatch):
    def refuse(*args):
        raise AssertionError("a scope digest was computed with no cache")

    monkeypatch.setattr(feedback, "_scope_prefix", refuse)
    sample, planted = support.planted_sample("no-scope", 5, 2, (2, 4))
    assert greedy_search(sample, EchoClient())[0] == planted
    assert exhaustive_search(sample, EchoClient())[0] == planted
    labeled = LabeledSample(sample_id=sample.id, e_search=planted, e_distill=Evidence((1,)))
    assert merge_labels(labeled, sample, EchoClient()).e_merge == planted


def test_a_repeated_singleton_prompt_is_generated_once_per_cold_search(tmp_path):
    table = Table(header=("h1", "h2"), rows=(("a", "b"),) * 4 + (("c", "d"),))
    sample = Sample(id="dup", table=table, query="q?", reference="c d")
    # Each call takes 20 ms, so a repeat that ran beside the call it repeats
    # would miss the cache and be generated too.
    client = JitteryClient(4, sample, delay_s=(0.02, 0.02))
    evidence, reward, trace = greedy_search(
        sample, client, settings=RoleSettings(cache=ResponseCache(tmp_path))
    )
    assert (evidence, reward) == (Evidence((5,)), 1.0)
    assert trace.oracle_calls == 10
    # Two distinct singleton prompts; then step {5} repeats singleton 5, and
    # the steps {i, 5} for i = 1..4 all show the same two rows.
    assert client.calls == 2 + 1


class GatheringEcho(EchoClient):
    """The echo oracle at `max_in_flight` 8, recording the most calls in
    flight at once. Each call waits until 8 are in flight; a wait that times
    out stops all later ones, so calls made one after another fail the test
    without stalling it."""

    max_in_flight = 8

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.gathered = threading.Event()
        self.in_flight = self.peak = self.calls = 0

    def generate(self, prompt, cfg):
        with self.lock:
            self.calls += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            if self.in_flight == self.max_in_flight:
                self.gathered.set()
        if not self.gathered.wait(timeout=5):
            self.gathered.set()
        with self.lock:
            self.in_flight -= 1
        return super().generate(prompt, cfg)


def test_repeated_singleton_prompts_run_side_by_side_without_a_cache():
    # With no cache a repeat could not be served by an earlier call, so it
    # does not wait for one: the 8 identical singletons are all in flight.
    table = Table(header=("h1", "h2"), rows=(("a", "b"),) * 8)
    sample = Sample(id="dup", table=table, query="q?", reference="a b")
    client = GatheringEcho()
    evidence, reward, trace = greedy_search(sample, client)
    assert (evidence, reward) == (Evidence((1,)), 1.0)
    assert client.peak == 8
    assert trace.oracle_calls == client.calls == 2 * table.n_rows
