"""Surface-overlap text metrics: sentence/corpus BLEU, ROUGE-1/2/L, METEOR.

All metrics share one tokenizer (lowercase, ASCII punctuation split into
standalone tokens) so scores are comparable across metrics: one
`str.translate` pads each ASCII punctuation mark with a space on either
side, and `split()` cuts the result. Sentence-level values live in [0, 1];
corpus reports scale by 100 and round only when formatted. METEOR uses
exact and stemmed matching but no synonym stage, and every report carries a
note saying so; only the tokens left unpaired by the exact stage are
stemmed.

Sentence BLEU is the reward of the label search, which scores 2n candidates
of one n-row table against the same reference. The reference is therefore
prepared once: its tokens are counted into n-grams per order on first use,
and the result is memoised for the last `_PREPARED_REFERENCES` distinct
(reference, order) pairs, a fixed bound, so memory does not grow with the
dataset. Scores are the same as counting the reference afresh on every call.
Counting stops at the first order with no clipped match: a matching longer
gram would contain a matching gram of that order, so each later order gets
0 matches over its usual total, as counting it would give.

Clipped n-gram matches are counted in one place, `_clipped_matches`, for
BLEU and ROUGE-N alike. The hypothesis grams found in the reference are
collected in order. When none of them repeats, the clipped count is their
number. Only when one repeats are the hits counted, and each distinct gram
clipped to its count in the reference. Order-1 grams are the tokens
themselves, higher orders tuples of tokens.

`corpus_evaluate` scores each pair once: both texts are tokenized once, the
reference's n-grams are counted once and shared by pooled BLEU and
ROUGE-1/2, and the per-pair ROUGE and METEOR values are summed in pair
order. ROUGE-L takes its LCS from a bit-parallel recurrence over Python
ints (Allison & Dix, IPL 1986; Hyyrö, AWOCA 2004), and METEOR aligns from
per-token lists of free reference positions, so neither builds an
O(m*n) table or scan. Each formula has one home, shared by the public
sentence-level functions and the corpus path.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

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

# Each ASCII punctuation mark becomes itself with a space on either side.
_PUNCT_TABLE = str.maketrans({c: f" {c} " for c in string.punctuation})


def tokenize(text: str) -> list[str]:
    """Lowercase and split, with each ASCII punctuation mark its own token."""
    return text.lower().translate(_PUNCT_TABLE).split()


# An n-gram: a token for order 1, a tuple of n tokens for higher orders.
Gram = str | tuple[str, ...]

# How many prepared references `bleu` keeps. A search or a merge scores all
# its candidates against one reference, so a few per worker thread suffice.
_PREPARED_REFERENCES = 64


def _ngrams(tokens: list[str], n: int) -> Iterable[Gram]:
    """The order-n grams of `tokens` in order: the tokens themselves for
    order 1, tuples of n tokens for higher orders."""
    if n == 1:
        return tokens
    if n == 2:
        return zip(tokens, tokens[1:])
    return zip(*[tokens[i:] for i in range(n)])


def _ngram_counts(tokens: list[str], n: int) -> Counter[Gram]:
    return Counter(_ngrams(tokens, n))


def _clipped_matches(hyp: list[str], ref_counts: Counter[Gram], n: int) -> tuple[int, int]:
    """(clipped match count, hypothesis n-gram count) for order n, given the
    reference's order-n counts (see the module docstring)."""
    total = max(len(hyp) - n + 1, 0)
    if total == 0:
        return 0, 0
    hits = [gram for gram in _ngrams(hyp, n) if gram in ref_counts]
    if len(set(hits)) == len(hits):
        return len(hits), total
    matched = 0
    for gram, count in Counter(hits).items():
        ref_count = ref_counts[gram]
        matched += count if count < ref_count else ref_count
    return matched, total


@lru_cache(maxsize=_PREPARED_REFERENCES)
def _prepared_reference(reference: str, max_order: int) -> tuple[int, tuple[Counter[Gram], ...]]:
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
        if m == 0:  # a matching longer gram would hold a matching order-n one
            matches += [0] * (order - n)
            totals += [len(hyp) - k + 1 for k in range(n + 1, order + 1)]
            break
    return _bleu_from_stats(matches, totals, len(hyp), ref_len, order)


def eval_reward(hypothesis: str, reference: str) -> float:
    """Reward used by evidence search and merging: sentence BLEU in [0, 1]."""
    return bleu(hypothesis, reference)


def _f1(overlap: int, hyp_total: int, ref_total: int) -> float:
    """F1 of an overlap count against both sides' totals; 0 if any is 0.
    ROUGE-N (clipped n-grams) and ROUGE-L (the LCS) both score this way."""
    if overlap == 0 or hyp_total == 0 or ref_total == 0:
        return 0.0
    precision = overlap / hyp_total
    recall = overlap / ref_total
    return 2.0 * precision * recall / (precision + recall)


def _rouge_n(clipped: tuple[int, int], ref_len: int, n: int) -> float:
    """ROUGE-N F1 from the hypothesis's (clipped matches, n-gram count)."""
    overlap, hyp_total = clipped
    return _f1(overlap, hyp_total, max(ref_len - n + 1, 0))


def rouge_n(hypothesis: str, reference: str, n: int) -> float:
    """ROUGE-N F1 over clipped n-gram overlap."""
    hyp = tokenize(hypothesis)
    ref = tokenize(reference)
    return _rouge_n(_clipped_matches(hyp, _ngram_counts(ref, n), n), len(ref), n)


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence, bit-parallel over b.

    Bit j of `s` stands for b[j]. Each token of a updates every bit at once
    with s' = (s + u) | (s - u), u = s & mask(token), and the LCS length is
    the number of cleared bits (Allison & Dix, "A bit-string
    longest-common-subsequence algorithm", IPL 1986; Hyyrö, "Bit-parallel
    LCS-length computation revisited", AWOCA 2004): len(a) big-int steps of
    len(b) bits instead of a len(a) x len(b) table.
    """
    masks: dict[str, int] = {}
    for j, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | (1 << j)
    full = (1 << len(b)) - 1
    s = full
    mask_of = masks.get
    for tok in a:
        mask = mask_of(tok)
        if mask:
            u = s & mask
            s = ((s + u) | (s - u)) & full
    return len(b) - s.bit_count()


def _rouge_l(hyp: list[str], ref: list[str]) -> float:
    return _f1(_lcs_length(hyp, ref), len(hyp), len(ref))


def rouge_l(hypothesis: str, reference: str) -> float:
    """ROUGE-L F1 from the longest common token subsequence."""
    return _rouge_l(tokenize(hypothesis), tokenize(reference))


def _free_positions(keys: Sequence[str], positions: Sequence[int]) -> dict[str, list[int]]:
    """key -> the ascending `positions` whose key it is, stored largest
    first so that pop() hands out the first free one."""
    free: dict[str, list[int]] = {}
    for key, j in zip(reversed(keys), reversed(positions)):
        free.setdefault(key, []).append(j)
    return free


def _align(hyp: list[str], ref: list[str]) -> list[tuple[int, int]]:
    """Greedy one-to-one alignment: exact matches first, then stem matches.

    In each stage every hypothesis token, in order, takes the first free
    reference position with the same token (then the same stem), popped
    from per-key lists of free positions: O(len(hyp) + len(ref)). Only
    tokens the exact stage left unpaired are stemmed."""
    hyp_pair: list[int | None] = [None] * len(hyp)
    taken = [False] * len(ref)
    exact = _free_positions(ref, range(len(ref)))
    for i, tok in enumerate(hyp):
        slots = exact.get(tok)
        if slots:
            j = hyp_pair[i] = slots.pop()
            taken[j] = True
    unpaired = [i for i, j in enumerate(hyp_pair) if j is None]
    free = [j for j, used in enumerate(taken) if not used]
    if unpaired and free:
        stemmed = _free_positions([porter_stem(ref[j]) for j in free], free)
        for i in unpaired:
            slots = stemmed.get(porter_stem(hyp[i]))
            if slots:
                hyp_pair[i] = slots.pop()
    return [(i, j) for i, j in enumerate(hyp_pair) if j is not None]


def _chunk_count(pairs: list[tuple[int, int]]) -> int:
    chunks = 0
    prev: tuple[int, int] | None = None
    for i, j in pairs:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            chunks += 1
        prev = (i, j)
    return chunks


def _meteor(hyp: list[str], ref: list[str], alpha: float = 0.9) -> float:
    """METEOR of two token lists; see `meteor`."""
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


def meteor(hypothesis: str, reference: str, alpha: float = 0.9) -> float:
    """METEOR with exact and Porter-stem matching stages (no synonyms).

    F_mean = P*R / (alpha*P + (1-alpha)*R), scaled by the fragmentation
    penalty 1 - 0.5 * (chunks / matches)^3.
    """
    return _meteor(tokenize(hypothesis), tokenize(reference), alpha)


def _pair_stats(
    hyp: list[str], ref: list[str], order: int
) -> tuple[list[tuple[int, int]], tuple[float, float, float, float]]:
    """One tokenized pair's share of a corpus report: BLEU's (clipped
    matches, n-gram count) for orders 1..order, and its ROUGE-1, ROUGE-2,
    ROUGE-L and METEOR. The reference's n-grams are counted once, and
    ROUGE-1/2 reuse the clipped counts of orders 1 and 2 (counted here also
    when BLEU's order is lower)."""
    clipped = [
        _clipped_matches(hyp, _ngram_counts(ref, n), n)
        for n in range(1, max(order, 2) + 1)
    ]
    scores = (
        _rouge_n(clipped[0], len(ref), 1),
        _rouge_n(clipped[1], len(ref), 2),
        _rouge_l(hyp, ref),
        _meteor(hyp, ref),
    )
    return clipped[:order], scores


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

    hyps = [tokenize(hypothesis) for hypothesis, _ in pairs]
    order = min(max_order, max(len(hyp) for hyp in hyps))
    matches, totals = [0] * order, [0] * order
    hyp_len = ref_len = 0
    per_pair: list[tuple[float, float, float, float]] = []
    for hyp, (_, reference) in zip(hyps, pairs):
        ref = tokenize(reference)
        hyp_len += len(hyp)
        ref_len += len(ref)
        clipped, scores = _pair_stats(hyp, ref, order)
        for n, (matched, total) in enumerate(clipped):
            matches[n] += matched
            totals[n] += total
        per_pair.append(scores)
    pooled_bleu = _bleu_from_stats(matches, totals, hyp_len, ref_len, order)

    # ROUGE-1, ROUGE-2, ROUGE-L and METEOR, each the builtin sum of its
    # per-pair values in pair order: from Python 3.12 sum() compensates
    # float rounding, so a += loop would change the report.
    count = len(pairs)
    means = [100.0 * sum(column) / count for column in zip(*per_pair)]
    return ScoreReport(100.0 * pooled_bleu, *means, sample_count=count)
