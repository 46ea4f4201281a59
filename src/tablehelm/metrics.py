"""Surface-overlap text metrics: sentence/corpus BLEU, ROUGE-1/2/L, METEOR.

All metrics share one tokenizer (lowercase, ASCII punctuation split into
standalone tokens) so scores are comparable across metrics. Sentence-level
values live in [0, 1]; corpus reports scale by 100 and round only when
formatted. METEOR uses exact and stemmed matching but no synonym stage, and
every report carries a note saying so; only the tokens left unpaired by the
exact stage are stemmed.

Sentence BLEU is the reward of the label search, which scores 2n candidates
of one n-row table against the same reference. The reference is therefore
prepared once: its tokens are counted into n-grams per order on first use,
and the result is memoised for the last `_PREPARED_REFERENCES` distinct
(reference, order) pairs, a fixed bound, so memory does not grow with the
dataset. Scores are the same as counting the reference afresh on every call.
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from ._porter import porter_stem
from .errors import EmptyCorpusError

__all__ = [
    "ScoreReport",
    "bleu",
    "corpus_evaluate",
    "eval_reward",
    "meteor",
    "rouge_l",
    "rouge_n",
    "tokenize",
]

# Substituted n-gram match count when a clipped count is zero, so one missing
# order does not zero the whole geometric mean.
BLEU_EPSILON = 0.1

METRIC_NOTES = (
    "METEOR uses exact and Porter-stem matching only; no synonym stage.",
    "Tokenizer: lowercase, ASCII punctuation isolated; "
    "scores are not comparable to detokenized BLEU implementations.",
)

_PUNCT_RE = re.compile("([" + re.escape(string.punctuation) + "])")


def tokenize(text: str) -> list[str]:
    """Lowercase and split, with each ASCII punctuation mark its own token."""
    return _PUNCT_RE.sub(r" \1 ", text.lower()).split()


# How many prepared references `bleu` keeps. A search or a merge scores all
# its candidates against one reference, so a few per worker thread suffice.
_PREPARED_REFERENCES = 64


def _ngram_counts(tokens: list[str], n: int) -> Counter[tuple[str, ...]]:
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def _clipped_matches(
    hyp: list[str], ref_counts: Counter[tuple[str, ...]], n: int
) -> tuple[int, int]:
    """(clipped match count, hypothesis n-gram count) for order n, given the
    reference's order-n counts."""
    total = max(len(hyp) - n + 1, 0)
    if total == 0:
        return 0, 0
    ref_count_of = ref_counts.get
    matched = 0
    for gram, count in _ngram_counts(hyp, n).items():
        ref_count = ref_count_of(gram)
        if ref_count:
            matched += count if count < ref_count else ref_count
    return matched, total


@lru_cache(maxsize=_PREPARED_REFERENCES)
def _prepared_reference(
    reference: str, max_order: int
) -> tuple[int, tuple[Counter[tuple[str, ...]], ...]]:
    """(token count, n-gram counts of orders 1..max_order) of a reference.
    Shared between callers and threads: read it, never change it."""
    ref = tokenize(reference)
    return len(ref), tuple(_ngram_counts(ref, n) for n in range(1, max_order + 1))


def _bleu_from_stats(
    matches: list[int], totals: list[int], hyp_len: int, ref_len: int, order: int
) -> float:
    if hyp_len == 0 or order == 0:
        return 0.0
    log_sum = 0.0
    for n in range(order):
        numer = matches[n] if matches[n] > 0 else BLEU_EPSILON
        log_sum += math.log(numer / totals[n])
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_sum / order)


def bleu(hypothesis: str, reference: str, max_order: int = 4) -> float:
    """Sentence BLEU with clipped counts and a brevity penalty.

    The effective order is min(max_order, hypothesis length) so short but
    exact hypotheses are not punished for lacking higher-order n-grams.
    Zero match counts at some order are replaced by a small epsilon instead
    of zeroing the score. An empty hypothesis scores 0.

    The reference's tokens and n-gram counts are prepared once and memoised
    for a fixed number of recent references (see the module docstring), so
    scoring many hypotheses against one reference counts it once.
    """
    hyp = tokenize(hypothesis)
    ref_len, ref_counts = _prepared_reference(reference, max_order)
    order = min(max_order, len(hyp))
    matches, totals = [], []
    for n in range(1, order + 1):
        m, t = _clipped_matches(hyp, ref_counts[n - 1], n)
        matches.append(m)
        totals.append(t)
    return _bleu_from_stats(matches, totals, len(hyp), ref_len, order)


def eval_reward(hypothesis: str, reference: str) -> float:
    """Reward used by evidence search and merging: sentence BLEU in [0, 1]."""
    return bleu(hypothesis, reference)


def rouge_n(hypothesis: str, reference: str, n: int) -> float:
    """ROUGE-N F1 over clipped n-gram overlap."""
    hyp = tokenize(hypothesis)
    ref = tokenize(reference)
    overlap, hyp_total = _clipped_matches(hyp, _ngram_counts(ref, n), n)
    ref_total = max(len(ref) - n + 1, 0)
    if overlap == 0 or hyp_total == 0 or ref_total == 0:
        return 0.0
    precision = overlap / hyp_total
    recall = overlap / ref_total
    return 2.0 * precision * recall / (precision + recall)


def _lcs_length(a: list[str], b: list[str]) -> int:
    # One-row DP; O(len(a) * len(b)) time, O(len(b)) space.
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(hypothesis: str, reference: str) -> float:
    """ROUGE-L F1 from the longest common token subsequence."""
    hyp = tokenize(hypothesis)
    ref = tokenize(reference)
    if not hyp or not ref:
        return 0.0
    lcs = _lcs_length(hyp, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(hyp)
    recall = lcs / len(ref)
    return 2.0 * precision * recall / (precision + recall)


def _align(hyp: list[str], ref: list[str]) -> list[tuple[int, int]]:
    """Greedy one-to-one alignment: exact matches first, then stem matches.
    Only tokens the exact stage left unpaired are stemmed."""
    ref_used = [False] * len(ref)
    hyp_pair: list[int | None] = [None] * len(hyp)
    for i, tok in enumerate(hyp):
        for j, ref_tok in enumerate(ref):
            if not ref_used[j] and ref_tok == tok:
                ref_used[j] = True
                hyp_pair[i] = j
                break
    unpaired = [i for i, j in enumerate(hyp_pair) if j is None]
    free = [j for j, used in enumerate(ref_used) if not used]
    if unpaired and free:
        ref_stems = {j: porter_stem(ref[j]) for j in free}
        for i in unpaired:
            stem = porter_stem(hyp[i])
            for j in free:
                if not ref_used[j] and ref_stems[j] == stem:
                    ref_used[j] = True
                    hyp_pair[i] = j
                    break
    return [(i, j) for i, j in enumerate(hyp_pair) if j is not None]


def _chunk_count(pairs: list[tuple[int, int]]) -> int:
    chunks = 0
    prev: tuple[int, int] | None = None
    for i, j in pairs:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            chunks += 1
        prev = (i, j)
    return chunks


def meteor(hypothesis: str, reference: str, alpha: float = 0.9) -> float:
    """METEOR with exact and Porter-stem matching stages (no synonyms).

    F_mean = P*R / (alpha*P + (1-alpha)*R), scaled by the fragmentation
    penalty 1 - 0.5 * (chunks / matches)^3.
    """
    hyp = tokenize(hypothesis)
    ref = tokenize(reference)
    if not hyp or not ref:
        return 0.0
    pairs = _align(hyp, ref)
    matches = len(pairs)
    if matches == 0:
        return 0.0
    precision = matches / len(hyp)
    recall = matches / len(ref)
    f_mean = precision * recall / (alpha * precision + (1.0 - alpha) * recall)
    penalty = 0.5 * (_chunk_count(pairs) / matches) ** 3
    return f_mean * (1.0 - penalty)


@dataclass(frozen=True)
class ScoreReport:
    """Corpus-level scores on a 0-100 scale, unrounded until formatted."""

    bleu: float
    rouge1: float
    rouge2: float
    rouge_l: float
    meteor: float
    sample_count: int
    notes: tuple[str, ...] = field(default=METRIC_NOTES)

    def to_record(self) -> dict[str, object]:
        return {
            "bleu": self.bleu,
            "rouge1": self.rouge1,
            "rouge2": self.rouge2,
            "rougeL": self.rouge_l,
            "meteor": self.meteor,
            "sample_count": self.sample_count,
            "notes": list(self.notes),
        }

    def format_table(self) -> str:
        rows = [
            ("BLEU", self.bleu),
            ("ROUGE-1", self.rouge1),
            ("ROUGE-2", self.rouge2),
            ("ROUGE-L", self.rouge_l),
            ("METEOR", self.meteor),
        ]
        lines = [f"samples: {self.sample_count}"]
        lines += [f"{name:<8} {value:6.2f}" for name, value in rows]
        lines += [f"note: {note}" for note in self.notes]
        return "\n".join(lines)


def corpus_evaluate(pairs: list[tuple[str, str]], max_order: int = 4) -> ScoreReport:
    """Score (hypothesis, reference) pairs as a corpus.

    BLEU pools n-gram statistics across pairs before taking the geometric
    mean; ROUGE and METEOR are averaged per pair. All values are scaled to
    0-100.
    """
    if not pairs:
        raise EmptyCorpusError("no (hypothesis, reference) pairs to score")

    token_pairs = [(tokenize(h), tokenize(r)) for h, r in pairs]
    order = min(max_order, max(len(h) for h, _ in token_pairs))
    matches = [0] * order
    totals = [0] * order
    hyp_len = ref_len = 0
    for hyp, ref in token_pairs:
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, order + 1):
            m, t = _clipped_matches(hyp, _ngram_counts(ref, n), n)
            matches[n - 1] += m
            totals[n - 1] += t
    pooled_bleu = _bleu_from_stats(matches, totals, hyp_len, ref_len, order)

    count = len(pairs)

    def mean_of(metric) -> float:
        return 100.0 * sum(metric(h, r) for h, r in pairs) / count

    return ScoreReport(
        bleu=100.0 * pooled_bleu,
        rouge1=mean_of(lambda h, r: rouge_n(h, r, 1)),
        rouge2=mean_of(lambda h, r: rouge_n(h, r, 2)),
        rouge_l=mean_of(rouge_l),
        meteor=mean_of(meteor),
        sample_count=count,
    )
