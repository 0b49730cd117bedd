"""Ranked retrieval output and TREC run file I/O.

A RankedList holds (document id, score) pairs in descending score order;
equal scores are ordered by ascending document id so output is
deterministic.  Run files use the TREC format::

    qid Q0 docid rank score run_tag

with ranks starting at 1.  Scores are written with repr() so they
round-trip exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ParseError
from .store import _replacing, read_rows


@dataclass
class RankedList:
    query_id: str
    entries: list[tuple[str, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.entries]


def ranked_from_scores(
    query_id: str,
    doc_ids: Sequence[str],
    scores: Sequence[float],
    k: int | None = None,
) -> RankedList:
    """Build a RankedList from parallel id/score sequences.

    Sorts by descending score, breaking ties by ascending document id;
    truncates to k when given.
    """
    order = sorted(zip(doc_ids, scores), key=lambda e: (-e[1], e[0]))
    if k is not None:
        order = order[:k]
    return RankedList(query_id=query_id, entries=[(d, float(s)) for d, s in order])


def write_trec_run(path: str | Path, runs: Iterable[RankedList], tag: str = "lateir") -> None:
    """Write runs in TREC format; ValueError, before any file is opened, for an empty
    tag or one holding whitespace, which would not read back as one field."""
    if tag.split() != [tag]:
        raise ValueError(f"run tag {tag!r} is empty or contains whitespace")
    with _replacing(path, text=True) as fh:
        for run in runs:
            for rank, (doc_id, score) in enumerate(run.entries, start=1):
                fh.write(f"{run.query_id} Q0 {doc_id} {rank} {score!r} {tag}\n")


def read_trec_run(path: str | Path) -> dict[str, list[tuple[str, int, float]]]:
    """Read a TREC run file into {qid: [(docid, rank, score), ...]} in file order;
    ParseError with the line number for a score that is NaN or infinite, which has
    no place in a ranking."""
    out: dict[str, list[tuple[str, int, float]]] = {}
    for lineno, (qid, _, doc_id, rank_s, score_s, _tag) in read_rows(path, 6):
        try:
            rank = int(rank_s)
            score = float(score_s)
        except ValueError as exc:
            raise ParseError(f"bad rank/score: {exc}", lineno) from exc
        if not math.isfinite(score):
            raise ParseError(f"non-finite score {score_s!r}", lineno)
        out.setdefault(qid, []).append((doc_id, rank, score))
    return out


def run_lists_from_trec(path: str | Path) -> tuple[dict[str, RankedList], list[str]]:
    """Read a run file and canonicalize each query's list (score desc, id asc).

    Returns the lists and the queries whose rank column disagrees with that order.
    """
    out: dict[str, RankedList] = {}
    disordered: list[str] = []
    for qid, rows in read_trec_run(path).items():
        ids = [doc_id for doc_id, _, _ in rows]
        if len(set(ids)) != len(ids):
            raise ParseError(f"duplicate document in run for query {qid!r}")
        out[qid] = ranked_from_scores(qid, ids, [score for _, _, score in rows])
        if [doc_id for doc_id, _, _ in sorted(rows, key=lambda r: r[1])] != out[qid].doc_ids():
            disordered.append(qid)
    return out, disordered
