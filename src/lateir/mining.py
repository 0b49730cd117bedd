"""Hard-negative mining and n-way training-example construction.

Both mining recipes share one windowing rule: retrieve deep (110 by
default), discard the top 10 ranks as likely unlabeled positives, then
sample uniformly without replacement from the next 100 — 25 negatives per
query for the dense recipe, 10 for the BM25 recipe.  Annotated positives
are excluded from the pool outright.  A query whose ranking has no more
than 10 entries gets no negatives; the rest of the batch is unaffected.

Sampling uses stdlib ``random.Random`` seeded per query from
(global seed, query id), so output is reproducible byte-for-byte and
independent of the order queries are processed in.

Teacher scores ride along as a (query id, document id) -> score table.
Transposition copies scores onto a translated pair universe that shares the
same id space; pairs with no source score are reported, never fabricated.
An n-way example is one query with a positive at index 0 plus n-1 distinct
negatives, each carrying its teacher score.

Teacher-score TSV, mined negatives and n-way JSONL go through the line
helpers in ``store``: a malformed line or a missing or mistyped field raises
ParseError with its line number.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .bm25 import BM25Index, search_bm25
from .errors import (
    EmptyRanking,
    InsufficientCandidates,
    MissingRun,
    MissingTeacherScore,
    ParseError,
)
from .ranking import RankedList
from .store import read_jsonl, read_rows, write_jsonl, write_rows

DEFAULT_NWAY = 32


@dataclass
class MiningConfig:
    retrieve_depth: int = 110
    discard_top: int = 10
    sample_count_dense: int = 25
    sample_count_bm25: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.discard_top >= self.retrieve_depth:
            raise ValueError("discard_top must be < retrieve_depth")
        pool = self.retrieve_depth - self.discard_top
        if self.sample_count_dense > pool or self.sample_count_bm25 > pool:
            raise ValueError("sample counts must be <= retrieve_depth - discard_top")

    @property
    def pool_size(self) -> int:
        return self.retrieve_depth - self.discard_top


def derive_seed(seed: int, query_id: str) -> int:
    """Stable per-query seed so parallel mining order cannot change output."""
    digest = hashlib.sha256(f"{seed}\x1f{query_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def mine_window(
    ranked: RankedList,
    positives: set[str],
    discard_top: int,
    pool_size: int,
    sample_count: int,
    seed: int,
) -> list[str]:
    """Sample negatives from ranks (discard_top, discard_top + pool_size].

    Discards the top `discard_top` ranks, removes annotated positives from
    the remaining pool, and samples `sample_count` ids uniformly without
    replacement.  A pool smaller than `sample_count` is returned whole.
    """
    if sample_count > pool_size:
        raise ValueError("sample_count must be <= pool_size")
    if len(ranked.entries) < discard_top + 1:
        raise EmptyRanking(
            f"ranking for {ranked.query_id!r} has {len(ranked.entries)} entries, "
            f"need more than {discard_top}"
        )
    window = ranked.entries[discard_top : discard_top + pool_size]
    pool = [doc_id for doc_id, _ in window if doc_id not in positives]
    if len(pool) <= sample_count:
        return list(pool)
    return random.Random(seed).sample(pool, sample_count)


def _mine(
    queries: Iterable[str],
    runs: Mapping[str, RankedList],
    positives: Mapping[str, set[str]],
    cfg: MiningConfig,
    sample_count: int,
) -> dict[str, list[str]]:
    """Window each query's run on its own; a run too short for the window gives []."""
    out: dict[str, list[str]] = {}
    for qid in queries:
        if qid not in runs:
            raise MissingRun(qid)
        try:
            out[qid] = mine_window(
                runs[qid],
                set(positives.get(qid, ())),
                discard_top=cfg.discard_top,
                pool_size=cfg.pool_size,
                sample_count=sample_count,
                seed=derive_seed(cfg.seed, qid),
            )
        except EmptyRanking:
            out[qid] = []
    return out


def mine_dense(
    queries: Iterable[str],
    runs: Mapping[str, RankedList],
    positives: Mapping[str, set[str]],
    cfg: MiningConfig,
) -> dict[str, list[str]]:
    """Dense-retriever recipe: window (10, 100) and 25 samples per query."""
    return _mine(queries, runs, positives, cfg, cfg.sample_count_dense)


def mine_bm25(
    queries: Mapping[str, str],
    index: BM25Index,
    positives: Mapping[str, set[str]],
    cfg: MiningConfig,
) -> dict[str, list[str]]:
    """BM25 recipe: retrieve to depth 110 internally, window (10, 100), 10 samples."""
    runs = {qid: search_bm25(index, text, index.tokenizer, k=cfg.retrieve_depth, query_id=qid)
            for qid, text in queries.items()}
    return _mine(queries, runs, positives, cfg, cfg.sample_count_bm25)


@dataclass
class TeacherScoreTable:
    """(query id, document id) -> (teacher relevance score, the text it was read from).

    Keeping each score's text makes copying scores to a new file byte-exact.
    """

    entries: dict[tuple[str, str], tuple[float, str]] = field(default_factory=dict)
    source: str = ""

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, query_id: str, doc_id: str) -> float | None:
        entry = self.entries.get((query_id, doc_id))
        return None if entry is None else entry[0]

    def add(self, query_id: str, doc_id: str, score: float, raw: str | None = None) -> None:
        key = (query_id, doc_id)
        if key in self.entries:
            raise ParseError(f"duplicate pair {key!r}")
        if not math.isfinite(score):
            raise ParseError(f"non-finite score for pair {key!r}")
        self.entries[key] = (score, repr(score) if raw is None else raw)

    @classmethod
    def from_tsv(cls, path: str | Path) -> "TeacherScoreTable":
        table = cls(source=str(path))
        for lineno, (qid, did, raw_score) in read_rows(path, 3, sep="\t"):
            try:
                table.add(qid, did, float(raw_score), raw=raw_score)
            except ValueError as exc:
                raise ParseError(f"bad score {raw_score!r}", lineno) from exc
            except ParseError as exc:
                raise ParseError(str(exc), lineno) from exc
        return table

    def write_tsv(self, path: str | Path) -> None:
        write_rows(path, ((qid, did, raw) for (qid, did), (_, raw) in self.entries.items()))


def transpose_scores(
    english_scores: TeacherScoreTable,
    pair_universe: Iterable[tuple[str, str]],
) -> tuple[TeacherScoreTable, list[tuple[str, str]]]:
    """Copy scores onto the pairs of a translated universe sharing the id space.

    Returns (table restricted to the universe, pairs with no source score).
    Scores are copied unchanged, byte-exactly when written back out.
    """
    out = TeacherScoreTable(source=english_scores.source)
    dropped: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for pair in pair_universe:
        if pair in seen:
            continue
        seen.add(pair)
        entry = english_scores.entries.get(pair)
        if entry is None:
            dropped.append(pair)
            continue
        out.entries[pair] = entry
    return out, dropped


@dataclass
class NWayExample:
    """One query, a positive at index 0, n-1 negatives, aligned teacher scores."""

    query_id: str
    passage_ids: list[str]
    teacher_scores: list[float]

    def __post_init__(self):
        if len(self.passage_ids) != len(self.teacher_scores):
            raise ValueError("passage ids and scores must align")
        if len(set(self.passage_ids)) != len(self.passage_ids):
            raise ValueError("passage ids must be distinct")

    @property
    def n(self) -> int:
        return len(self.passage_ids)


def build_nway(
    query_id: str,
    positive_id: str,
    positive_score: float,
    candidates: Sequence[tuple[str, float]],
    n: int = DEFAULT_NWAY,
    keep_set: frozenset[str] | set[str] = frozenset(),
    seed: int = 0,
) -> NWayExample:
    """Assemble one n-way example from scored negative candidates.

    Candidates present in `keep_set` are taken first, in candidate order
    (up to n-1); the remainder is filled by uniform seeded sampling from
    the other candidates.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if positive_score is None or not math.isfinite(positive_score):
        raise MissingTeacherScore((query_id, positive_id))

    deduped: list[tuple[str, float]] = []
    seen: set[str] = {positive_id}
    for doc_id, score in candidates:
        if doc_id in seen:
            continue
        if score is None or not math.isfinite(score):
            raise MissingTeacherScore((query_id, doc_id))
        seen.add(doc_id)
        deduped.append((doc_id, float(score)))
    if len(deduped) < n - 1:
        raise InsufficientCandidates(
            f"query {query_id!r}: {len(deduped)} distinct candidates, need {n - 1}"
        )

    kept = [c for c in deduped if c[0] in keep_set][:n - 1]
    chosen = list(kept)
    remaining = [c for c in deduped if c[0] not in keep_set]
    fill = (n - 1) - len(chosen)
    if fill > 0:
        chosen.extend(random.Random(derive_seed(seed, query_id)).sample(remaining, fill))

    passage_ids = [positive_id] + [doc_id for doc_id, _ in chosen]
    teacher_scores = [float(positive_score)] + [score for _, score in chosen]
    return NWayExample(query_id=query_id, passage_ids=passage_ids, teacher_scores=teacher_scores)


def write_nway_jsonl(path: str | Path, examples: Iterable[NWayExample]) -> int:
    return write_jsonl(path, ({"qid": ex.query_id, "passages": ex.passage_ids,
                               "scores": ex.teacher_scores} for ex in examples))


def read_nway_jsonl(path: str | Path) -> list[NWayExample]:
    """N-way examples, as a trainer that consumes n-way files reads them back (the
    engine itself never does); ParseError for a missing or mistyped qid, passages or scores."""
    out: list[NWayExample] = []
    for lineno, obj in read_jsonl(path):
        try:
            passages, scores = obj["passages"], obj["scores"]
            if not isinstance(passages, list) or not isinstance(scores, list):
                raise TypeError("'passages' and 'scores' must be lists")
            out.append(NWayExample(str(obj["qid"]), [str(p) for p in passages],
                                   [float(s) for s in scores]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad n-way example: {exc!r}", lineno) from exc
    return out


NEGATIVE_KEYS = ("dense_negatives", "bm25_negatives", "negatives")


def read_negatives_jsonl(path: str | Path) -> list[dict]:
    """Mining output rows {qid, positives, *_negatives, seed}; ParseError for a row
    without a string qid, or whose positives or negatives are not lists of ids."""
    out: list[dict] = []
    for lineno, row in read_jsonl(path):
        if not isinstance(row.get("qid"), str):
            raise ParseError("expected a string 'qid'", lineno)
        for key in ("positives", *NEGATIVE_KEYS):
            ids = row.get(key)
            if not (ids is None or isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
                raise ParseError(f"{key!r} must be a list of ids", lineno)
        out.append(row)
    return out
