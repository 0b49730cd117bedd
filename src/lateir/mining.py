"""Hard-negative mining and n-way training-example construction.

Every training-data rule lives here; the CLI's `mine` and `nway` stages
only read, call and write.

Both mining recipes share one windowing rule (`MiningConfig`): retrieve deep
(110 by default), discard the top 10 ranks as likely unlabeled positives,
then sample uniformly without replacement from the next 100.  The sample
count is the recipe's: DENSE_SAMPLES (25) per query for `mine_dense`,
BM25_SAMPLES (10) for `mine_bm25`.  Annotated positives are excluded from
the pool outright.  A query whose ranking has no more than 10 entries gets
no negatives; the rest of the batch is unaffected.  A negative discard, a
discard not below the depth, or a sample count outside [0, pool] is a
ValueError.

Sampling uses stdlib ``random.Random`` seeded per query from
(global seed, query id), so output is reproducible byte-for-byte and
independent of the order queries are processed in.

Teacher scores ride along as a (query id, document id) -> score table.
Transposition copies scores onto a translated pair universe that shares the
same id space; pairs with no source score are reported, never fabricated.
An n-way example is one query with a positive at index 0 plus n-1 distinct
negatives, each carrying a finite teacher score.  `assemble_nway` merges
mined rows per query and reports each query it skips, with the reason.

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
from .errors import InsufficientCandidates, MissingRun, MissingTeacherScore, ParseError
from .ranking import RankedList
from .store import read_jsonl, read_rows, write_jsonl, write_rows

DEFAULT_NWAY = 32
DENSE_SAMPLES = 25
BM25_SAMPLES = 10


@dataclass
class MiningConfig:
    retrieve_depth: int = 110
    discard_top: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.discard_top < self.retrieve_depth:
            raise ValueError(f"discard_top {self.discard_top} and retrieve_depth "
                             f"{self.retrieve_depth}: need 0 <= discard_top < retrieve_depth")

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
    replacement.  A pool smaller than `sample_count` is returned whole, so a
    ranking of `discard_top` entries or fewer gives [].
    """
    if discard_top < 0:
        raise ValueError(f"discard_top {discard_top} is negative")
    if not 0 <= sample_count <= pool_size:
        raise ValueError(f"sample count {sample_count} outside [0, {pool_size}]")
    window = ranked.entries[discard_top : discard_top + pool_size]
    pool = [doc_id for doc_id, _ in window if doc_id not in positives]
    if len(pool) <= sample_count:
        return pool
    return random.Random(seed).sample(pool, sample_count)


def _mine(
    queries: Iterable[str],
    runs: Mapping[str, RankedList],
    positives: Mapping[str, set[str]],
    cfg: MiningConfig,
    samples: int,
) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for qid in queries:
        if qid not in runs:
            raise MissingRun(qid)
        out[qid] = mine_window(runs[qid], set(positives.get(qid, ())), cfg.discard_top,
                               cfg.pool_size, samples, derive_seed(cfg.seed, qid))
    return out


def mine_dense(
    queries: Iterable[str],
    runs: Mapping[str, RankedList],
    positives: Mapping[str, set[str]],
    cfg: MiningConfig,
    samples: int = DENSE_SAMPLES,
) -> dict[str, list[str]]:
    """Dense-retriever recipe: window each query's run, 25 samples per query."""
    return _mine(queries, runs, positives, cfg, samples)


def mine_bm25(
    queries: Mapping[str, str],
    index: BM25Index,
    positives: Mapping[str, set[str]],
    cfg: MiningConfig,
    samples: int = BM25_SAMPLES,
) -> dict[str, list[str]]:
    """BM25 recipe: retrieve to `retrieve_depth` internally, window, 10 samples per query."""
    runs = {qid: search_bm25(index, text, index.tokenizer, k=cfg.retrieve_depth, query_id=qid)
            for qid, text in queries.items()}
    return _mine(queries, runs, positives, cfg, samples)


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
        if not all(map(math.isfinite, self.teacher_scores)):
            raise ValueError("teacher scores must be finite")

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


def assemble_nway(rows: Iterable[Mapping], table: TeacherScoreTable, n: int = DEFAULT_NWAY,
                  keep_set: frozenset[str] | set[str] = frozenset(), seed: int = 0
                  ) -> tuple[list[NWayExample], list[tuple[str, str]]]:
    """N-way examples from negatives rows, and (query id, reason) for each skip.

    Rows merge per query: positives once each in first-seen order, negatives
    concatenated in row order.  The first positive is used and the others are
    never candidates.  A query without a positive or its teacher score, or with
    too few candidates, is skipped; so is each candidate without a score.
    """
    positives: dict[str, dict[str, None]] = {}
    negatives: dict[str, list[str]] = {}
    for row in rows:
        positives.setdefault(row["qid"], {}).update(dict.fromkeys(row.get("positives") or []))
        negatives.setdefault(row["qid"], []).extend(
            did for key in NEGATIVE_KEYS for did in row.get(key) or [])

    examples: list[NWayExample] = []
    skipped: list[tuple[str, str]] = []
    for qid, known_positives in positives.items():
        if not known_positives:
            skipped.append((qid, "no positive"))
            continue
        positive = next(iter(known_positives))
        pos_score = table.get(qid, positive)
        if pos_score is None:
            skipped.append((qid, f"no teacher score for positive {positive}"))
            continue
        candidates = []
        for did in negatives[qid]:
            if did in known_positives:
                continue
            score = table.get(qid, did)
            if score is None:
                skipped.append((qid, f"no teacher score for candidate {did}"))
                continue
            candidates.append((did, score))
        try:
            examples.append(build_nway(qid, positive, pos_score, candidates,
                                       n=n, keep_set=keep_set, seed=seed))
        except (InsufficientCandidates, MissingTeacherScore) as exc:
            skipped.append((qid, str(exc)))
    return examples, skipped


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


def write_negatives_jsonl(path: str | Path, kind: str, negatives: Mapping[str, list[str]],
                          positives: Mapping[str, set[str]], seed: int) -> int:
    """One row per mined query: {qid, positives (sorted), <kind>_negatives, seed}."""
    return write_jsonl(path, ({"qid": qid, "positives": sorted(positives.get(qid, ())),
                               f"{kind}_negatives": negs, "seed": seed}
                              for qid, negs in negatives.items()))
