"""Ranked-retrieval metrics over TREC runs and qrels.

Conventions (also recorded in every report):

* NDCG gain is 2^grade - 1 with a log2(rank + 1) discount; the ideal DCG
  ranks all judged documents by grade.
* MAP@k divides by min(|relevant|, k).
* Recall@k is |relevant in top k| / |relevant|.
* MRR@k is 1/rank of the first relevant document within the cutoff.
* A document is relevant when its grade is > 0.
* Queries judged but never retrieved, or judged with no relevant document,
  score 0 and stay in the macro-average; both counts are reported.
* Rankings are taken from run scores (descending, ties by ascending doc
  id); a run whose rank column disagrees gets a warning, not an error.

Qrels files are TREC format ``qid 0 docid grade``; runs are TREC run
format as written by the search commands.  Both are read line by line
through ``store.read_rows``, so a malformed line raises ParseError with its
line number.  Reports are written with ``store.write_json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ParseError
from .ranking import RankedList, run_lists_from_trec
from .store import read_rows

METRICS = ("ndcg", "recall", "map", "mrr")

CONVENTIONS = {
    "gain": "2^grade - 1",
    "discount": "log2(rank + 1)",
    "map_denominator": "min(relevant_count, k)",
    "relevance": "grade > 0",
    "unanswered_queries": "score 0, included in mean",
    "zero_relevant_queries": "score 0, included in mean",
    "tie_break": "descending score, then ascending doc id",
}


@dataclass(frozen=True)
class MetricSpec:
    metric: str
    k: int

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.k < 1:
            raise ValueError("cutoff k must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "MetricSpec":
        """Parse 'ndcg@10' style metric names; ValueError naming text if it is not one."""
        name, _, cutoff = text.partition("@")
        try:
            return cls(metric=name.strip().lower(), k=int(cutoff))
        except ValueError as exc:
            raise ValueError(f"bad metric {text!r}, expected metric@k: {exc}") from exc

    def __str__(self) -> str:
        return f"{self.metric}@{self.k}"


Qrels = dict[str, dict[str, int]]


def load_qrels(path: str | Path) -> Qrels:
    """Read TREC qrels; grades must be non-negative ints, pairs unique."""
    qrels: Qrels = {}
    for lineno, (qid, _, doc_id, grade_s) in read_rows(path, 4):
        try:
            grade = int(grade_s)
        except ValueError as exc:
            raise ParseError(f"bad grade {grade_s!r}", lineno) from exc
        if grade < 0:
            raise ParseError(f"negative grade {grade}", lineno)
        per_query = qrels.setdefault(qid, {})
        if doc_id in per_query:
            raise ParseError(f"duplicate pair ({qid!r}, {doc_id!r})", lineno)
        per_query[doc_id] = grade
    return qrels


def _gain(grade: int) -> float:
    return float(2**grade - 1)


def ndcg_at_k(run: RankedList, judgments: Mapping[str, int], k: int) -> float:
    """DCG over the top k divided by the ideal DCG of all judged documents."""
    ideal = sorted(judgments.values(), reverse=True)
    idcg = sum(_gain(g) / math.log2(i + 2) for i, g in enumerate(ideal[:k]))
    if idcg == 0.0:
        return 0.0
    dcg = sum(
        _gain(judgments.get(doc_id, 0)) / math.log2(i + 2)
        for i, (doc_id, _) in enumerate(run.entries[:k])
    )
    return dcg / idcg


def recall_at_k(run: RankedList, judgments: Mapping[str, int], k: int) -> float:
    relevant = {d for d, g in judgments.items() if g > 0}
    if not relevant:
        return 0.0
    hit = sum(1 for doc_id, _ in run.entries[:k] if doc_id in relevant)
    return hit / len(relevant)


def map_at_k(run: RankedList, judgments: Mapping[str, int], k: int) -> float:
    relevant = {d for d, g in judgments.items() if g > 0}
    if not relevant:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for i, (doc_id, _) in enumerate(run.entries[:k], start=1):
        if doc_id in relevant:
            hits += 1
            precision_sum += hits / i
    return precision_sum / min(len(relevant), k)


def mrr_at_k(run: RankedList, judgments: Mapping[str, int], k: int) -> float:
    relevant = {d for d, g in judgments.items() if g > 0}
    for i, (doc_id, _) in enumerate(run.entries[:k], start=1):
        if doc_id in relevant:
            return 1.0 / i
    return 0.0


_METRIC_FNS = {"ndcg": ndcg_at_k, "recall": recall_at_k, "map": map_at_k, "mrr": mrr_at_k}


def compute_metric(spec: MetricSpec, run: RankedList, judgments: Mapping[str, int]) -> float:
    return _METRIC_FNS[spec.metric](run, judgments, spec.k)


def evaluate(
    run: str | Path | Mapping[str, RankedList],
    qrels: str | Path | Qrels,
    specs: Sequence[MetricSpec],
) -> dict:
    """Score a run against qrels; returns the report as a JSON-ready dict.

    The macro-average runs over every judged query; judged queries missing
    from the run contribute 0.  Run queries without judgments are excluded
    and listed in the warnings.
    """
    warnings: list[str] = []
    if isinstance(run, (str, Path)):
        runs, disordered = run_lists_from_trec(run)
        for qid in disordered:
            warnings.append(f"run rank column disagrees with score order for query {qid!r}")
    else:
        runs = dict(run)
    if isinstance(qrels, (str, Path)):
        qrels = load_qrels(qrels)

    judged = sorted(qrels)
    unanswered = [qid for qid in judged if qid not in runs or len(runs[qid]) == 0]
    unjudged = sorted(set(runs) - set(qrels))
    zero_relevant = [
        qid for qid in judged if not any(g > 0 for g in qrels[qid].values())
    ]
    if unanswered:
        warnings.append(f"{len(unanswered)} judged queries have no results: {unanswered}")
    if unjudged:
        warnings.append(f"{len(unjudged)} run queries have no judgments and were skipped: {unjudged}")

    empty = RankedList(query_id="")
    metrics: dict[str, dict] = {}
    for spec in specs:
        per_query = {
            qid: compute_metric(spec, runs.get(qid, empty), qrels[qid]) for qid in judged
        }
        mean = sum(per_query.values()) / len(per_query) if per_query else 0.0
        metrics[str(spec)] = {"mean": mean, "per_query": per_query}

    return {
        "conventions": dict(CONVENTIONS),
        "metrics": metrics,
        "counts": {
            "judged_queries": len(judged),
            "unanswered_queries": len(unanswered),
            "unjudged_run_queries": len(unjudged),
            "zero_relevant_queries": len(zero_relevant),
        },
        "warnings": warnings,
    }
