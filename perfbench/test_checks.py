"""Tests for the benchmark's correctness checks, and its fast mode end to end.

    python3 -m pytest perfbench/test_checks.py -q

Each check is fed the program's real output on a small input (it must
pass) and then a deliberately wrong version of it (it must fail).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import lateir  # noqa: E402
from workloads import FAST_WORKLOADS  # noqa: E402


def failures(check, *args) -> int:
    t = checks.Tally()
    check(t, *args)
    assert t.attempted > 0
    return len(t.failures)


def unit(rng, rows, dim=16):
    m = rng.standard_normal((rows, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(7)
    docs = {f"d{i:02d}": unit(rng, int(rng.integers(2, 9))) for i in range(60)}
    queries = {f"q{i}": unit(rng, 5) for i in range(4)}
    return docs, queries


def as_run(ranked):
    return {r.query_id: list(r.entries) for r in ranked}


def swap_first_two(run):
    return {q: [e[1], e[0], *e[2:]] for q, e in run.items()}


def test_exact_check_accepts_the_program_and_rejects_a_wrong_ranking(corpus):
    docs, queries = corpus
    docs = {d: m.astype(np.float32) for d, m in docs.items()}  # as the index stores them
    store = lateir.EmbeddingStore(dim=16, precision="float32", kind="document", entries=docs)
    index = lateir.build_exact(store, "float32")
    run = as_run(lateir.search_exact(index, q, 5, query_id=qid) for qid, q in queries.items())
    assert failures(checks.check_exact, {5: run}, docs, queries, list(queries)) == 0
    assert failures(checks.check_exact, {5: swap_first_two(run)}, docs, queries, list(queries)) > 0
    dropped_best = {q: e[1:] + [("d59", e[-1][1])] for q, e in run.items()}
    assert failures(checks.check_exact, {5: dropped_best}, docs, queries, list(queries)) > 0


def test_compressed_check_accepts_the_program_and_rejects_a_wrong_ranking(corpus):
    docs, queries = corpus
    store = lateir.EmbeddingStore(dim=16, precision="float32", kind="document", entries=docs)
    comp = lateir.compress(store, lateir.train_codebook(store, 16, seed=1))
    for cap in (1000, 12):  # uncapped, then capped
        run = as_run(lateir.search_compressed(comp, q, 5, candidate_cap=cap, query_id=qid)
                     for qid, q in queries.items())
        assert failures(checks.check_compressed, run, comp, queries, list(queries), 5, cap) == 0
        wrong = {q: [(d, s + 0.5) if i == 0 else (d, s) for i, (d, s) in enumerate(e)] for q, e in run.items()}
        assert failures(checks.check_compressed, wrong, comp, queries, list(queries), 5, cap) > 0
        assert failures(checks.check_compressed, swap_first_two(run), comp, queries, list(queries), 5, cap) > 0


def test_bm25_check_accepts_the_program_and_rejects_a_wrong_ranking():
    texts = ["東京都の天気", "京都の天気は晴れ", "大阪の天気", "東京タワー", "天気予報と東京"] * 4
    records = [lateir.CorpusRecord(id=f"d{i:02d}", text=t + str(i)) for i, t in enumerate(texts)]
    index = lateir.build_bm25(records, lateir.Tokenizer())
    queries = {"q0": "東京の天気", "q1": "京都"}
    run = as_run(lateir.search_bm25(index, text, lateir.Tokenizer(), 4, query_id=qid)
                 for qid, text in queries.items())
    reference = checks.BM25Reference([{"id": r.id, "text": r.text} for r in records])
    assert failures(checks.check_bm25, {4: run}, reference, queries, list(queries)) == 0
    reversed_run = {q: list(reversed(e)) for q, e in run.items()}
    assert failures(checks.check_bm25, {4: reversed_run}, reference, queries, list(queries)) > 0


def test_window_check_rejects_negatives_from_the_discarded_top():
    run = {"q": [(f"d{i:03d}", 200.0 - i) for i in range(110)]}
    positives = {"q": {"d050"}}
    good = [{"qid": "q", "positives": ["d050"], "dense_negatives": [f"d{i:03d}" for i in range(20, 45)]}]
    assert failures(checks.check_window, "dense", good, run, positives, 25) == 0
    top = [{**good[0], "dense_negatives": ["d003"] + good[0]["dense_negatives"][1:]}]
    assert failures(checks.check_window, "dense", top, run, positives, 25) > 0
    positive = [{**good[0], "dense_negatives": ["d050"] + good[0]["dense_negatives"][1:]}]
    assert failures(checks.check_window, "dense", positive, run, positives, 25) > 0


def test_nway_check_rejects_a_misplaced_positive_and_a_changed_score():
    negs = [f"n{i:02d}" for i in range(31)]
    table = {("q", d): "0.5" for d in negs} | {("q", "p"): "0.9"}
    dense = [{"qid": "q", "dense_negatives": negs[:25]}]
    bm25 = [{"qid": "q", "bm25_negatives": negs[25:]}]
    good = [{"qid": "q", "passages": ["p"] + negs, "scores": [0.9] + [0.5] * 31}]
    args = ([], dense, bm25, table, {"q": {"p"}})
    assert failures(checks.check_nway, good, *args) == 0
    moved = [{**good[0], "passages": negs[:1] + ["p"] + negs[1:]}]
    assert failures(checks.check_nway, moved, *args) > 0
    rescored = [{**good[0], "scores": [0.9, 0.7] + [0.5] * 30}]
    assert failures(checks.check_nway, rescored, *args) > 0
    assert failures(checks.check_nway, [], *args) > 0  # dropped without a reason


def test_transpose_check_rejects_wrong_dropped_pairs():
    english = [["q", "a", "1.5"], ["q", "b", "2.25"]]
    universe = [("q", "a"), ("q", "b"), ("q", "c")]
    kept = [["q", "a", "1.5"], ["q", "b", "2.25"]]
    assert failures(checks.check_transpose, english, universe, [("q", "c")], kept, [["q", "c"]]) == 0
    assert failures(checks.check_transpose, english, universe, [("q", "c")], kept, [["q", "b"]]) > 0
    changed = [["q", "a", "1.50"], ["q", "b", "2.25"]]
    assert failures(checks.check_transpose, english, universe, [("q", "c")], changed, [["q", "c"]]) > 0


def test_eval_check_rejects_a_wrong_ndcg():
    run = {"q": [("a", 3.0), ("b", 2.0), ("c", 1.0)]}
    qrels = {"q": {"b": 2, "c": 1}}
    ranked = lateir.RankedList("q", run["q"])
    report = lateir.evaluate({"q": ranked}, qrels, [lateir.MetricSpec("ndcg", 10), lateir.MetricSpec("recall", 100)])
    assert failures(checks.check_eval, report, run, qrels) == 0
    report["metrics"]["ndcg@10"]["per_query"]["q"] += 0.01
    assert failures(checks.check_eval, report, run, qrels) > 0


def test_store_check_rejects_rows_that_are_not_the_normalized_input(corpus):
    docs, _ = corpus
    raw = {d: 3.0 * m for d, m in docs.items()}
    assert failures(checks.check_store, raw, docs, 1e-9) == 0
    bent = dict(docs, d00=docs["d00"][::-1])
    assert failures(checks.check_store, raw, bent, 1e-9) > 0


@pytest.mark.parametrize("workload", sorted(FAST_WORKLOADS))
def test_fast_mode_runs_every_check_without_failures(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--fast"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 100
