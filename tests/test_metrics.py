"""Metric checks against hand-computed values and shared invariants.

Every frozen constant below was worked out by hand from the stated formulas
(clipped n-gram precision with an epsilon floor, brevity penalty, LCS F1,
fragmentation penalty) so the asserts pin behaviour instead of mirroring the
implementation.
"""

from __future__ import annotations

import math
import re
import string
import sys
import threading
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tablehelm._porter import porter_stem
from tablehelm.errors import EmptyCorpusError
from tablehelm.metrics import (
    BLEU_EPSILON,
    METRIC_NOTES,
    _align,
    _bleu_from_stats,
    _chunk_count,
    _clipped_matches,
    _lcs_length,
    _prepared_reference,
    bleu,
    corpus_evaluate,
    eval_reward,
    meteor,
    rouge_l,
    rouge_n,
    tokenize,
)

_WORDS = ("the", "cat", "sat", "rain", "in", "spain", "falls", "on", "a", "mat")


def sentences(min_size: int = 0, max_size: int = 8) -> st.SearchStrategy[str]:
    words = st.sampled_from(_WORDS)
    return st.lists(words, min_size=min_size, max_size=max_size).map(" ".join)


class TestTokenize:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("The 1999–2000 season.", ["the", "1999–2000", "season", "."]),
            ("won't stop.", ["won", "'", "t", "stop", "."]),
            ("", []),
            ("A a", ["a", "a"]),
            ("semi;colon", ["semi", ";", "colon"]),
            ("  spaced   out ", ["spaced", "out"]),
            ("84 points!", ["84", "points", "!"]),
        ],
    )
    def test_cases(self, text, expected):
        assert tokenize(text) == expected

    def test_non_ascii_punctuation_stays_inside_tokens(self):
        # Only ASCII punctuation splits; the en dash above already shows this.
        assert tokenize("naïve—plan") == ["naïve—plan"]


class TestBleu:
    def test_exact_match_scores_one(self):
        assert bleu("The cat sat.", "the cat sat.") == 1.0

    def test_brevity_penalty_hand_value(self):
        # Hypothesis length 3 caps the order at 3; every precision is 1, so
        # only the brevity penalty exp(1 - 4/3) = 0.7165313105737893 remains.
        got = bleu("the cat sat", "the cat sat down")
        assert got == pytest.approx(math.exp(1.0 - 4.0 / 3.0), abs=1e-9)

    def test_epsilon_floor_hand_value(self):
        # p1 = 1/2 after clipping, p2 floors at epsilon/1; no brevity penalty.
        got = bleu("the the", "the")
        assert got == pytest.approx(math.sqrt(0.5 * BLEU_EPSILON), abs=1e-9)

    def test_disjoint_tokens_hand_value(self):
        got = bleu("a b", "c d")
        want = math.sqrt((BLEU_EPSILON / 2.0) * (BLEU_EPSILON / 1.0))
        assert got == pytest.approx(want, abs=1e-9)

    def test_empty_hypothesis_scores_zero(self):
        assert bleu("", "the cat") == 0.0
        assert bleu("   ", "the cat") == 0.0

    def test_empty_reference_floors_at_epsilon(self):
        assert bleu("a", "") == pytest.approx(BLEU_EPSILON, abs=1e-9)

    def test_short_exact_hypothesis_is_not_punished(self):
        # Effective order follows the hypothesis, so a one-word exact answer
        # is not zeroed for lacking bigrams.
        assert bleu("yes", "yes") == 1.0

    def test_max_order_parameter(self):
        # With max_order=1 only unigram precision counts: 1/2 of "the the".
        assert bleu("the the", "the extra", max_order=1) == pytest.approx(0.5, abs=1e-9)


class TestRouge:
    def test_unigram_f1_hand_value(self):
        assert rouge_n("a b c", "a b d", 1) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_bigram_no_overlap_scores_zero(self):
        assert rouge_n("a b", "b a", 2) == 0.0

    def test_bigram_degenerate_single_token_scores_zero(self):
        assert rouge_n("a", "a", 2) == 0.0

    def test_lcs_f1_hand_value(self):
        # LCS("a c e", "a b c d e") = 3, P = 1, R = 3/5, F1 = 0.75.
        assert rouge_l("a c e", "a b c d e") == pytest.approx(0.75, abs=1e-9)

    @pytest.mark.parametrize("hyp, ref", [("", "a"), ("a", ""), ("", "")])
    def test_empty_sides_score_zero(self, hyp, ref):
        assert rouge_n(hyp, ref, 1) == 0.0
        assert rouge_l(hyp, ref) == 0.0

    def test_recall_grows_with_correct_tokens(self):
        ref = "a b c d e"
        scores = [rouge_n(hyp, ref, 1) for hyp in ("a b", "a b c", "a b c d")]
        assert scores == sorted(scores) and scores[0] < scores[-1]
        lcs_scores = [rouge_l(hyp, ref) for hyp in ("a b", "a b c", "a b c d")]
        assert lcs_scores == sorted(lcs_scores) and lcs_scores[0] < lcs_scores[-1]


class TestMeteor:
    def test_identical_single_token_keeps_half_after_penalty(self):
        # One match in one chunk: penalty 0.5 * (1/1)^3 halves a perfect F.
        assert meteor("cat", "cat") == pytest.approx(0.5, abs=1e-9)

    def test_identical_pair_hand_value(self):
        # Two matches, one chunk: 1 - 0.5 * (1/2)^3 = 0.9375.
        assert meteor("a b", "a b") == pytest.approx(0.9375, abs=1e-9)

    def test_transposition_doubles_the_chunks(self):
        # "b a" vs "a b" aligns both tokens in two chunks: penalty 0.5.
        assert meteor("b a", "a b") == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("hyp, ref", [("cats", "cat"), ("hopping", "hopped")])
    def test_stem_stage_matches_inflections(self, hyp, ref):
        assert meteor(hyp, ref) == pytest.approx(0.5, abs=1e-9)

    def test_no_match_scores_zero(self):
        assert meteor("a", "b") == 0.0

    @pytest.mark.parametrize("hyp, ref", [("", "a"), ("a", ""), ("", "")])
    def test_empty_sides_score_zero(self, hyp, ref):
        assert meteor(hyp, ref) == 0.0

    def test_alpha_weights_precision(self):
        # One match over a two-token hypothesis: P = 1/2, R = 1.
        want_default = 0.5 * (0.5 / (0.9 * 0.5 + 0.1 * 1.0))
        assert meteor("a x", "a") == pytest.approx(want_default, abs=1e-9)
        want_harmonic = 0.5 * (2.0 * 0.5 * 1.0 / 1.5)
        assert meteor("a x", "a", alpha=0.5) == pytest.approx(want_harmonic, abs=1e-9)


class TestCorpusEvaluate:
    def test_empty_corpus_is_rejected(self):
        with pytest.raises(EmptyCorpusError):
            corpus_evaluate([])

    def test_identical_pairs_score_exactly_100(self):
        texts = [
            "the cat sat on the mat",
            "rain falls in spain",
            "the plain stays dry all year",
        ]
        report = corpus_evaluate([(t, t) for t in texts])
        assert report.bleu == 100.0
        assert report.rouge1 == 100.0
        assert report.rouge2 == 100.0
        assert report.rouge_l == 100.0
        # METEOR keeps its fragmentation penalty even on identical pairs.
        want = 100.0 * sum(
            1.0 - 0.5 * (1.0 / len(tokenize(t))) ** 3 for t in texts
        ) / len(texts)
        assert report.meteor == pytest.approx(want, abs=1e-9)
        assert report.sample_count == 3

    def test_pooled_bleu_is_not_the_mean_of_sentence_bleu(self):
        pairs = [("a b", "a b"), ("c d", "c x")]
        report = corpus_evaluate(pairs)
        # Pooled: p1 = 3/4, p2 = 1/2, no brevity penalty.
        assert report.bleu == pytest.approx(100.0 * math.sqrt(3.0 / 8.0), abs=1e-9)
        mean = 100.0 * sum(bleu(h, r) for h, r in pairs) / len(pairs)
        assert abs(report.bleu - mean) > 0.01

    def test_rouge_and_meteor_are_per_pair_means(self):
        report = corpus_evaluate([("a b", "a b"), ("x y", "p q")])
        assert report.rouge1 == 50.0
        assert report.rouge2 == 50.0
        assert report.rouge_l == 50.0
        assert report.meteor == pytest.approx(100.0 * 0.9375 / 2.0, abs=1e-9)

    def test_max_order_is_forwarded(self):
        report = corpus_evaluate([("the the", "the")], max_order=1)
        assert report.bleu == pytest.approx(50.0, abs=1e-9)

    def test_report_record_shape(self):
        report = corpus_evaluate([("a b", "a b")])
        record = report.to_record()
        assert set(record) == {
            "bleu", "rouge1", "rouge2", "rougeL", "meteor", "sample_count", "notes",
        }
        assert record["rougeL"] == report.rouge_l
        assert record["sample_count"] == 1
        assert record["notes"] == list(METRIC_NOTES)

    def test_report_formatting(self):
        report = corpus_evaluate([("a b", "a b")])
        lines = report.format_table().splitlines()
        assert lines[0] == "samples: 1"
        assert "BLEU     100.00" in lines
        assert "ROUGE-L  100.00" in lines
        assert "METEOR    93.75" in lines
        assert lines[-2:] == [f"note: {n}" for n in METRIC_NOTES]

    def test_notes_travel_with_the_report(self):
        assert corpus_evaluate([("a", "a")]).notes == METRIC_NOTES


@given(sentences(), sentences())
def test_sentence_scores_stay_in_unit_interval(hyp, ref):
    for value in (
        bleu(hyp, ref),
        rouge_n(hyp, ref, 1),
        rouge_n(hyp, ref, 2),
        rouge_l(hyp, ref),
        meteor(hyp, ref),
    ):
        assert 0.0 <= value <= 1.0


@given(sentences(), sentences())
def test_rouge_is_exactly_symmetric(a, b):
    assert rouge_n(a, b, 1) == rouge_n(b, a, 1)
    assert rouge_n(a, b, 2) == rouge_n(b, a, 2)
    assert rouge_l(a, b) == rouge_l(b, a)


@given(sentences(min_size=1))
def test_identity_pairs_score_perfectly(text):
    assert bleu(text, text) == 1.0
    assert rouge_n(text, text, 1) == 1.0
    assert rouge_l(text, text) == 1.0
    matches = len(tokenize(text))
    want = 1.0 - 0.5 * (1.0 / matches) ** 3
    assert meteor(text, text) == pytest.approx(want, abs=1e-12)


@given(sentences(), sentences())
def test_reward_is_sentence_bleu(hyp, ref):
    assert eval_reward(hyp, ref) == bleu(hyp, ref)


@given(sentences(), sentences())
def test_rouge_1_matches_independent_counter_arithmetic(hyp, ref):
    hyp_tokens, ref_tokens = tokenize(hyp), tokenize(ref)
    overlap = sum((Counter(hyp_tokens) & Counter(ref_tokens)).values())
    if overlap == 0 or not hyp_tokens or not ref_tokens:
        want = 0.0
    else:
        precision = overlap / len(hyp_tokens)
        recall = overlap / len(ref_tokens)
        want = 2.0 * precision * recall / (precision + recall)
    assert rouge_n(hyp, ref, 1) == pytest.approx(want, abs=1e-12)


# ------------------------------------------------ naive tokenizer
# The tokenizer as it was before it became one `str.translate`: a regex that
# pads each ASCII punctuation mark with a space on either side. The naive
# oracles below tokenize with it, so every comparison with them checks the
# tokenizer too.

_PUNCT_RE = re.compile("([" + re.escape(string.punctuation) + "])")


def naive_tokenize(text: str) -> list[str]:
    return _PUNCT_RE.sub(r" \1 ", text.lower()).split()


# Every code point `str.split()` splits on (all lie below U+3001), ASCII and
# other punctuation, and letters whose lowercase is longer ("İ") or another
# letter ("ẞ").
_WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())
_TOKENIZER_ALPHABET = (
    string.punctuation + _WHITESPACE + "—–«»¿¡‐“”‘’…。、・" + "İẞßÉé" + "aZ09"
)


@given(st.one_of(st.text(alphabet=_TOKENIZER_ALPHABET, max_size=40), st.text(max_size=40)))
def test_tokenize_equals_the_regex_tokenizer(text):
    assert tokenize(text) == naive_tokenize(text)


# ------------------------------------------------ naive counting oracle
# BLEU's n-gram counting as it was before references were prepared once:
# every call recounts both sides. Rewards steer the label search, so the
# metrics must equal this exactly, not approximately.


def naive_ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def naive_clipped_matches(hyp: list[str], ref: list[str], n: int) -> tuple[int, int]:
    total = max(len(hyp) - n + 1, 0)
    if total == 0:
        return 0, 0
    ref_counts = naive_ngram_counts(ref, n)
    matched = sum(
        min(count, ref_counts[gram]) for gram, count in naive_ngram_counts(hyp, n).items()
    )
    return matched, total


def naive_bleu(hypothesis: str, reference: str, max_order: int = 4) -> float:
    hyp, ref = naive_tokenize(hypothesis), naive_tokenize(reference)
    order = min(max_order, len(hyp))
    stats = [naive_clipped_matches(hyp, ref, n) for n in range(1, order + 1)]
    return _bleu_from_stats(
        [m for m, _ in stats], [t for _, t in stats], len(hyp), len(ref), order
    )


def naive_rouge_n(hypothesis: str, reference: str, n: int) -> float:
    hyp, ref = naive_tokenize(hypothesis), naive_tokenize(reference)
    overlap, hyp_total = naive_clipped_matches(hyp, ref, n)
    ref_total = max(len(ref) - n + 1, 0)
    if overlap == 0 or hyp_total == 0 or ref_total == 0:
        return 0.0
    precision, recall = overlap / hyp_total, overlap / ref_total
    return 2.0 * precision * recall / (precision + recall)


def naive_pooled_bleu(pairs: list[tuple[str, str]], max_order: int = 4) -> float:
    token_pairs = [(naive_tokenize(h), naive_tokenize(r)) for h, r in pairs]
    order = min(max_order, max(len(h) for h, _ in token_pairs))
    matches, totals = [0] * order, [0] * order
    for hyp, ref in token_pairs:
        for n in range(1, order + 1):
            m, t = naive_clipped_matches(hyp, ref, n)
            matches[n - 1] += m
            totals[n - 1] += t
    hyp_len = sum(len(h) for h, _ in token_pairs)
    ref_len = sum(len(r) for _, r in token_pairs)
    return _bleu_from_stats(matches, totals, hyp_len, ref_len, order)


# Three words, so n-grams repeat and clipping matters; short hypotheses
# (0-3 tokens) exercise the effective order.
_FEW_WORDS = ("rain", "in", "spain")


def repetitive(min_size: int = 0, max_size: int = 10) -> st.SearchStrategy[str]:
    return st.lists(st.sampled_from(_FEW_WORDS), min_size=min_size, max_size=max_size).map(
        " ".join
    )


hypotheses = st.one_of(repetitive(max_size=3), repetitive())


@given(
    st.lists(repetitive(), min_size=1, max_size=3),
    st.lists(hypotheses, min_size=1, max_size=8),
    st.integers(1, 5),
)
def test_bleu_equals_naive_counting(references, hyps, max_order):
    # Hypotheses take the references in turn, so the prepared-reference
    # cache both misses (first use of each) and hits (every later one).
    _prepared_reference.cache_clear()
    for i, hyp in enumerate(hyps):
        reference = references[i % len(references)]
        assert bleu(hyp, reference, max_order) == naive_bleu(hyp, reference, max_order)
        assert eval_reward(hyp, reference) == naive_bleu(hyp, reference)
    if len(hyps) > len(references):
        assert _prepared_reference.cache_info().hits > 0


@given(hypotheses, repetitive(), st.integers(1, 4))
def test_rouge_n_equals_naive_counting(hyp, ref, n):
    assert rouge_n(hyp, ref, n) == naive_rouge_n(hyp, ref, n)


# ------------------------------------------------------ BLEU's early stop
# `bleu` stops counting at the first order with no clipped match. The
# reference below counts every order with `_clipped_matches`.


def bleu_counting_every_order(hypothesis: str, reference: str, max_order: int = 4) -> float:
    hyp = tokenize(hypothesis)
    ref_len, ref_counts = _prepared_reference(reference, max_order)
    order = min(max_order, len(hyp))
    stats = [_clipped_matches(hyp, ref_counts[n - 1], n) for n in range(1, order + 1)]
    return _bleu_from_stats(
        [m for m, _ in stats], [t for _, t in stats], len(hyp), ref_len, order
    )


def first_unmatched_order(hypothesis: str, reference: str, max_order: int = 4) -> int | None:
    hyp = tokenize(hypothesis)
    _, ref_counts = _prepared_reference(reference, max_order)
    for n in range(1, min(max_order, len(hyp)) + 1):
        if _clipped_matches(hyp, ref_counts[n - 1], n)[0] == 0:
            return n
    return None


_REFERENCE_WORDS = [f"w{i}" for i in range(8)]


@st.composite
def stopping_pairs(draw, stop: int) -> tuple[str, str]:
    """A (hypothesis, reference) pair whose first order with no clipped
    match is `stop` (1-4), or that matches at every order up to 4 (5): a run
    of stop - 1 reference words in a row, then words the reference lacks."""
    reference = " ".join(_REFERENCE_WORDS)
    if stop == 5:
        start = draw(st.integers(0, 4))
        length = draw(st.integers(4, len(_REFERENCE_WORDS) - start))
        return " ".join(_REFERENCE_WORDS[start:start + length]), reference
    start = draw(st.integers(0, len(_REFERENCE_WORDS) - stop + 1))
    run = _REFERENCE_WORDS[start:start + stop - 1]
    tail = draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=5))
    lead = draw(st.lists(st.sampled_from(["x", "y"]), max_size=2))
    return " ".join(lead + run + tail), reference


@given(st.integers(1, 5).flatmap(lambda stop: st.tuples(st.just(stop), stopping_pairs(stop))))
def test_bleu_stopping_early_equals_counting_every_order(case):
    stop, (hyp, ref) = case
    assert first_unmatched_order(hyp, ref) == (None if stop == 5 else stop)
    assert bleu(hyp, ref).hex() == bleu_counting_every_order(hyp, ref).hex()


@given(hypotheses, repetitive(), st.integers(1, 5))
def test_bleu_equals_counting_every_order(hyp, ref, max_order):
    expected = bleu_counting_every_order(hyp, ref, max_order)
    assert bleu(hyp, ref, max_order).hex() == expected.hex()


@pytest.mark.parametrize("hyp", ["", "w3", "zz", "W3!"])
def test_empty_and_one_token_hypotheses_equal_counting_every_order(hyp):
    ref = " ".join(_REFERENCE_WORDS)
    assert bleu(hyp, ref).hex() == bleu_counting_every_order(hyp, ref).hex()


def test_threads_share_prepared_references_without_corrupting_them():
    # Search workers score against the one memoised table of prepared
    # references; more references than it keeps force evictions under load.
    references = [f"rain in spain {i} in spain rain {i % 7}" for i in range(100)]
    hypotheses = ["rain in spain", "spain rain in spain 3", "in in rain 5 spain"]
    expected = {(h, r): naive_bleu(h, r) for h in hypotheses for r in references}
    mismatches: list[tuple[str, str]] = []

    def score(offset: int) -> None:
        for k in range(len(references)):
            reference = references[(offset + k) % len(references)]
            for hyp in hypotheses:
                if bleu(hyp, reference) != expected[hyp, reference]:
                    mismatches.append((hyp, reference))

    _prepared_reference.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=score, args=(13 * i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


# ------------------------------------------------ naive METEOR alignment
# The alignment as it was before stemming was limited to the tokens the
# exact stage leaves unpaired: every token of both sides is stemmed, with
# the stemmer unmemoised. METEOR must equal it exactly.


def naive_align(hyp: list[str], ref: list[str]) -> list[tuple[int, int]]:
    stem = porter_stem.__wrapped__
    ref_used = [False] * len(ref)
    hyp_pair: list[int | None] = [None] * len(hyp)
    for i, tok in enumerate(hyp):
        for j, ref_tok in enumerate(ref):
            if not ref_used[j] and ref_tok == tok:
                ref_used[j] = True
                hyp_pair[i] = j
                break
    hyp_stems = [stem(t) for t in hyp]
    ref_stems = [stem(t) for t in ref]
    for i in range(len(hyp)):
        if hyp_pair[i] is not None:
            continue
        for j in range(len(ref)):
            if not ref_used[j] and ref_stems[j] == hyp_stems[i]:
                ref_used[j] = True
                hyp_pair[i] = j
                break
    return [(i, j) for i, j in enumerate(hyp_pair) if j is not None]


def naive_meteor(hypothesis: str, reference: str, alpha: float = 0.9) -> float:
    hyp, ref = naive_tokenize(hypothesis), naive_tokenize(reference)
    if not hyp or not ref:
        return 0.0
    pairs = naive_align(hyp, ref)
    if not pairs:
        return 0.0
    precision, recall = len(pairs) / len(hyp), len(pairs) / len(ref)
    f_mean = precision * recall / (alpha * precision + (1.0 - alpha) * recall)
    return f_mean * (1.0 - 0.5 * (_chunk_count(pairs) / len(pairs)) ** 3)


# Words that share stems in several ways (plural, -ing, -ed), so both the
# exact and the stem stage pair tokens, and repeats make the greedy order
# matter.
_STEMMY_WORDS = ("rain", "rains", "raining", "rained", "spain", "in", "fall", "falls", "cat", "cats")


def stemmy(min_size: int = 0, max_size: int = 8) -> st.SearchStrategy[str]:
    return st.lists(
        st.sampled_from(_STEMMY_WORDS), min_size=min_size, max_size=max_size
    ).map(" ".join)


# Short sides, and sides longer than one 64-bit machine word.
stemmy_sides = st.one_of(stemmy(), stemmy(min_size=65, max_size=90))


@given(stemmy_sides, stemmy_sides, st.sampled_from((0.5, 0.9)))
def test_meteor_equals_the_naive_alignment(hyp, ref, alpha):
    assert _align(tokenize(hyp), tokenize(ref)) == naive_align(tokenize(hyp), tokenize(ref))
    assert meteor(hyp, ref, alpha) == naive_meteor(hyp, ref, alpha)


# ------------------------------------------------ naive LCS
# ROUGE-L's LCS as it was before it went bit-parallel: the one-row dynamic
# programme over both token lists. The length must be equal, not close.


def naive_lcs_length(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def naive_rouge_l(hypothesis: str, reference: str) -> float:
    hyp, ref = naive_tokenize(hypothesis), naive_tokenize(reference)
    if not hyp or not ref:
        return 0.0
    lcs = naive_lcs_length(hyp, ref)
    if lcs == 0:
        return 0.0
    precision, recall = lcs / len(hyp), lcs / len(ref)
    return 2.0 * precision * recall / (precision + recall)


def _cycle(words: str, length: int) -> list[str]:
    vocab = words.split()
    return [vocab[k % len(vocab)] for k in range(length)]


class TestLcsLength:
    @pytest.mark.parametrize(
        ("a", "b"),
        [
            ([], []),
            ([], ["a"]),
            (["a"], []),
            (["a"], ["a"]),
            (["a"], ["b"]),
            (["a"], ["b", "a", "b"]),
            (["a", "b", "a"], ["a"]),
            (["a"] * 5, ["a"] * 3),
            (["a"] * 70, ["a"] * 64),
            (["a", "b", "c"], ["x", "y", "z"]),
            (_cycle("a b c", 300), _cycle("x y", 400)),
        ],
        ids=[
            "both-empty", "empty-hyp", "empty-ref", "one-token-same",
            "one-token-different", "one-token-hyp", "one-token-ref",
            "all-repeated", "all-repeated-past-64", "disjoint", "disjoint-long",
        ],
    )
    def test_edge_cases(self, a, b):
        assert _lcs_length(a, b) == naive_lcs_length(a, b)

    @pytest.mark.parametrize("length", [63, 64, 65, 127, 128, 129, 1003])
    def test_lengths_around_machine_words(self, length):
        # A reference of `length` tokens against shifted, thinned and
        # reversed copies of itself; the carry crosses every word boundary.
        ref = _cycle("rain in spain falls on the plain", length)
        for hyp in (ref[1:], ref[::2], ref[::-1], _cycle("the rain", length + 5)):
            assert _lcs_length(hyp, ref) == naive_lcs_length(hyp, ref)

    def test_a_full_match_past_1000_tokens(self):
        ref = _cycle("a b c d e f g", 1200)
        assert _lcs_length(ref, ref) == 1200
        assert _lcs_length(ref[:1001], ref) == 1001


@given(
    st.lists(st.sampled_from(_FEW_WORDS), max_size=150),
    st.lists(st.sampled_from(_FEW_WORDS), max_size=150),
)
def test_lcs_length_equals_the_naive_dp(a, b):
    assert _lcs_length(a, b) == naive_lcs_length(a, b)


# ------------------------------------------------ naive corpus scoring
# Every corpus score against the naive oracles above, summed per pair in
# pair order, as the report was computed before pairs were scored once.


def naive_report(pairs: list[tuple[str, str]], max_order: int = 4) -> dict[str, float]:
    count = len(pairs)
    return {
        "bleu": 100.0 * naive_pooled_bleu(pairs, max_order),
        "rouge1": 100.0 * sum(naive_rouge_n(h, r, 1) for h, r in pairs) / count,
        "rouge2": 100.0 * sum(naive_rouge_n(h, r, 2) for h, r in pairs) / count,
        "rouge_l": 100.0 * sum(naive_rouge_l(h, r) for h, r in pairs) / count,
        "meteor": 100.0 * sum(naive_meteor(h, r) for h, r in pairs) / count,
    }


corpus_hypotheses = st.one_of(hypotheses, stemmy_sides)
corpus_references = st.one_of(repetitive(), stemmy_sides)


@given(
    st.one_of(
        st.lists(st.tuples(corpus_hypotheses, corpus_references), min_size=1, max_size=5),
        # Every hypothesis one token long: BLEU's order is 1, so ROUGE-2
        # gets no order-2 counts from BLEU pooling.
        st.lists(
            st.tuples(st.sampled_from(_FEW_WORDS), corpus_references), min_size=1, max_size=5
        ),
    )
)
def test_corpus_scores_equal_naive_counting(pairs):
    report = corpus_evaluate(pairs)
    assert report == replace(report, **naive_report(pairs))


# ------------------------------------------------ punctuated text
# Words in mixed case, with punctuation attached or standing alone and with
# letters outside ASCII, so that the tokenizer splits and lowercases before
# n-grams are counted. Few distinct tokens, so grams repeat and clipping
# matters.
_PUNCTUATED_WORDS = (
    "Rain", "rain", "RAIN", "in", "Spain", "spain,", "(spain)", "rain.", "won't",
    "İn", "—", "a-b", "x|y", "#", "!", "ẞ",
)


def punctuated(min_size: int = 0, max_size: int = 10) -> st.SearchStrategy[str]:
    words = st.lists(st.sampled_from(_PUNCTUATED_WORDS), min_size=min_size, max_size=max_size)
    return st.one_of(words.map(" ".join), words.map("".join))


@given(
    st.lists(punctuated(), min_size=1, max_size=3),
    st.lists(st.one_of(punctuated(max_size=3), punctuated()), min_size=1, max_size=6),
    st.integers(1, 5),
)
def test_bleu_on_punctuated_text_equals_naive_counting(references, hyps, max_order):
    for i, hyp in enumerate(hyps):
        reference = references[i % len(references)]
        assert bleu(hyp, reference, max_order) == naive_bleu(hyp, reference, max_order)


@given(punctuated(), punctuated(), st.integers(1, 4))
def test_rouge_n_on_punctuated_text_equals_naive_counting(hyp, ref, n):
    assert rouge_n(hyp, ref, n) == naive_rouge_n(hyp, ref, n)


@given(st.lists(st.tuples(punctuated(min_size=1), punctuated()), min_size=1, max_size=5))
def test_corpus_scores_on_punctuated_text_equal_naive_counting(pairs):
    report = corpus_evaluate(pairs)
    assert report == replace(report, **naive_report(pairs))
