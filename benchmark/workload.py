"""Seeded planted-table inputs for the tablehelm benchmark.

Every cell of a planted table is a unique word (a per-sample salt plus a
bijective base-26 index), and the reference is the planted rows' cells read
in row order. A summary of exactly the planted sub-table therefore scores
BLEU 1.0 against the reference, so the rows label search should find are
known by construction. They stay on the benchmark side: the program only
ever reads the JSONL that `write_jsonl` produces.

Standard library only; the same (shape, seed) always gives the same bytes.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Shape", "Planted", "make_samples", "write_jsonl"]


@dataclass(frozen=True)
class Shape:
    """Size and flavour of one generated dataset."""

    samples: int
    rows: int
    cols: int
    planted_min: int
    planted_max: int
    manual_share: float  # share of samples that carry manual evidence
    qtsumm: bool = False  # write QTSumm release records instead of canonical


@dataclass(frozen=True)
class Planted:
    """One generated sample, as the program sees it, plus its planted rows."""

    id: str
    record: dict[str, object]
    planted: tuple[int, ...]


def _word(k: int) -> str:
    """Bijective base-26 word: 0 -> 'a', 25 -> 'z', 26 -> 'aa', ..."""
    k += 1
    letters = []
    while k:
        k, rem = divmod(k - 1, 26)
        letters.append(string.ascii_lowercase[rem])
    return "".join(reversed(letters))


def _swap_one_row(rng: random.Random, planted: tuple[int, ...], n_rows: int) -> tuple[int, ...]:
    """Manual evidence that disagrees with the planted rows by one row."""
    kept = list(planted)
    kept.remove(rng.choice(kept))
    outside = [r for r in range(1, n_rows + 1) if r not in planted]
    kept.append(rng.choice(outside))
    return tuple(sorted(kept))


def make_samples(shape: Shape, seed: int, prefix: str) -> list[Planted]:
    """The seed picks salts, planted rows and which samples carry manual
    evidence; how many rows are planted and how many samples carry manual
    evidence are fixed by the shape, so every seed asks for the same work."""
    rng = random.Random(f"{prefix}:{seed}")
    # Half the manual labels agree with the planted rows and half are off by
    # one row, so merge has real disagreements to settle by reward.
    chosen = rng.sample(range(shape.samples), round(shape.manual_share * shape.samples))
    agree, swap = set(chosen[: len(chosen) // 2]), set(chosen[len(chosen) // 2 :])
    sizes = range(shape.planted_min, shape.planted_max + 1)
    out: list[Planted] = []
    for s in range(shape.samples):
        sample_id = f"{prefix}-{seed}-{s:04d}"
        salt = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))

        def cell(r: int, c: int) -> str:
            return salt + _word(r * shape.cols + c)

        header = [cell(0, c) for c in range(shape.cols)]
        rows = [
            [cell(r, c) for c in range(shape.cols)] for r in range(1, shape.rows + 1)
        ]
        size = sizes[s % len(sizes)]
        planted = tuple(sorted(rng.sample(range(1, shape.rows + 1), size)))
        reference = " ".join(c for i in planted for c in rows[i - 1])
        manual = None
        if s in agree:
            manual = planted
        elif s in swap:
            manual = _swap_one_row(rng, planted, shape.rows)
        title = f"planted table {salt}"
        query = f"Which rows of the {salt} table carry the summary?"
        if shape.qtsumm:
            record: dict[str, object] = {
                "example_id": sample_id,
                "table": {"title": title, "header": header, "rows": rows},
                "query": query,
                "summary": reference,
            }
            if manual is not None:
                record["row_ids"] = list(manual)
        else:
            record = {
                "id": sample_id,
                "title": title,
                "header": header,
                "rows": rows,
                "query": query,
                "reference": reference,
                "evidence": list(manual) if manual is not None else None,
            }
        out.append(Planted(sample_id, record, planted))
    return out


def write_jsonl(path: Path, samples: list[Planted]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sample in samples:
            handle.write(json.dumps(sample.record, ensure_ascii=False))
            handle.write("\n")
