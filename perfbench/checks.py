"""Correctness checks computed apart from lateir.

Each check recomputes what the program should have produced from the
generated inputs (or from properties the method must have) with its own
code, and compares.  No check compares against a stored copy of earlier
output.  Every comparison made is one attempted operation of the run; every
mismatch is one failed operation, with a message saying what differed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

SCORE_TOL = 1e-9  # float64 paths: exact search, BM25, `score`
RECON_TOL = 1e-4  # the program reconstructs in float32 before float64 MaxSim
PROBE = 4
BM25_K1, BM25_B = 0.9, 0.4
WINDOW = (10, 110)  # mining: discard ranks 1-10, sample from ranks 11-110
DENSE_SAMPLES, BM25_SAMPLES, NWAY = 25, 10, 32


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# ---------------------------------------------------------------------------
# file readers (the benchmark's own)
# ---------------------------------------------------------------------------


def read_run(path: Path) -> dict[str, list[tuple[str, float]]]:
    """TREC run -> {qid: [(doc, score), ...]} in rank order."""
    rows: dict[str, list[tuple[int, str, float]]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        qid, _, doc, rank, score, _ = line.split()
        rows.setdefault(qid, []).append((int(rank), doc, float(score)))
    return {q: [(d, s) for _, d, s in sorted(r)] for q, r in rows.items()}


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(x) for x in Path(path).read_text(encoding="utf-8").splitlines() if x.strip()]


def read_tsv(path: Path) -> list[list[str]]:
    return [x.split("\t") for x in Path(path).read_text(encoding="utf-8").splitlines() if x]


# ---------------------------------------------------------------------------
# rankings
# ---------------------------------------------------------------------------


def check_ranking(t: Tally, what: str, returned, truth: dict[str, float], k: int, tol: float) -> None:
    """`returned` must be the top-k of `truth` ordered by (-score, id).

    Scores must agree within `tol`; a document may be left out only if its
    reference score is within `tol` of the lowest one returned (a near tie).
    """
    ids = [d for d, _ in returned]
    t.expect(len(ids) == len(set(ids)), f"{what}: duplicate documents")
    t.expect(len(ids) == min(k, len(truth)), f"{what}: {len(ids)} hits, expected {min(k, len(truth))}")
    keys = [(-s, d) for d, s in returned]
    t.expect(keys == sorted(keys), f"{what}: not ordered by (-score, id)")
    bad = [d for d, s in returned if d not in truth or abs(truth[d] - s) > tol]
    t.expect(not bad, f"{what}: scores of {bad[:3]} differ from the reference")
    if ids and not bad:
        kept = set(ids)
        floor = min(truth[d] for d in ids)
        missed = [d for d, s in truth.items() if d not in kept and s > floor + tol]
        t.expect(not missed, f"{what}: better documents {missed[:3]} were left out")


def maxsim_all(q: np.ndarray, tokens: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-document max of q . d^T summed over query tokens, float64."""
    sims = np.asarray(q, np.float64) @ np.asarray(tokens, np.float64).T
    return np.maximum.reduceat(sims, offsets[:-1], axis=1).sum(axis=0)


def stack(entries: dict[str, np.ndarray]) -> tuple[list[str], np.ndarray, np.ndarray]:
    ids = list(entries)
    offsets = np.concatenate([[0], np.cumsum([entries[d].shape[0] for d in ids])]).astype(np.int64)
    return ids, np.vstack([entries[d] for d in ids]).astype(np.float64), offsets


def check_store(t: Tally, raw: dict[str, np.ndarray], stored: dict[str, np.ndarray], tol: float) -> None:
    """Stored rows are the input rows scaled to unit length, ids in input order."""
    t.expect(list(raw) == list(stored), "store: ids or their order differ from the input file")
    if list(raw) != list(stored):
        return
    _, a, _ = stack(raw)
    _, b, _ = stack(stored)
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    t.expect(a.shape == b.shape and float(np.abs(a - b).max()) <= tol,
             "store: stored rows are not the normalized input rows")


def check_exact(t, runs: dict[int, dict], docs, queries, sample) -> None:
    ids, tokens, offsets = stack(docs)
    for qid in sample:
        truth = dict(zip(ids, maxsim_all(queries[qid], tokens, offsets).tolist()))
        for k, run in runs.items():
            check_ranking(t, f"exact@{k} {qid}", run.get(qid, []), truth, k, SCORE_TOL)


def unpack(packed: np.ndarray, dim: int) -> np.ndarray:
    cols = [(packed[:, j // 4] >> (2 * (j % 4))) & 3 for j in range(dim)]
    return np.stack(cols, axis=1).astype(np.int64)


def reconstruct(centroids, values, centroid_ids, packed) -> np.ndarray:
    """Centroid plus per-dimension bucket value, scaled to unit length, float64."""
    dim = centroids.shape[1]
    v = np.asarray(centroids, np.float64)[centroid_ids.astype(np.int64)]
    v += np.asarray(values, np.float64)[np.arange(dim), unpack(packed, dim)]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def check_compressed(t, run, comp, queries, sample, k, cap) -> int:
    """Rescore hits over self-reconstructed tokens; returns how many sampled queries hit the cap."""
    offsets = np.asarray(comp.offsets, np.int64)
    token_doc = np.repeat(np.arange(len(comp.doc_ids)), np.diff(offsets))
    doc_index = {d: i for i, d in enumerate(comp.doc_ids)}
    centroids = np.asarray(comp.codebook.centroids, np.float64)
    capped = 0

    def rescore(q, docs):
        flat = np.concatenate([np.arange(offsets[d], offsets[d + 1]) for d in docs])
        recon = reconstruct(centroids, comp.codec.values, comp.centroid_ids[flat], comp.packed_codes[flat])
        local = np.concatenate([[0], np.cumsum(offsets[docs + 1] - offsets[docs])[:-1]])
        return maxsim_all(q, recon, np.append(local, flat.size))

    for qid in sample:
        q = np.asarray(queries[qid], np.float64)
        sims = q @ centroids.T
        probed = np.unique(np.argsort(-sims, axis=1, kind="stable")[:, :PROBE])
        on_list = np.unique(token_doc[np.isin(comp.centroid_ids, probed)])
        returned = run.get(qid, [])
        hits = np.array([doc_index.get(d, -1) for d, _ in returned], dtype=np.int64)
        what = f"compressed {qid}"
        if not t.expect(bool(np.isin(hits, on_list).all()), f"{what}: a hit lies on no probed list"):
            continue
        if on_list.size > cap:
            capped += 1
            mine = dict(zip((comp.doc_ids[i] for i in hits), rescore(q, hits).tolist()))
            t.expect(len(returned) == k, f"{what}: {len(returned)} hits, expected {k}")
            keys = [(-s, d) for d, s in returned]
            t.expect(keys == sorted(keys), f"{what}: not ordered by (-score, id)")
            t.expect(all(abs(mine[d] - s) <= RECON_TOL for d, s in returned),
                     f"{what}: scores differ from the reconstruction")
        else:
            truth = dict(zip((comp.doc_ids[i] for i in on_list), rescore(q, on_list).tolist()))
            check_ranking(t, what, returned, truth, k, RECON_TOL)
    return capped


def bm25_tokens(text: str) -> list[str]:
    chars = [c for c in text.lower() if not c.isspace()]
    if len(chars) == 1:
        return chars
    return [chars[i] + chars[i + 1] for i in range(len(chars) - 1)]


class BM25Reference:
    """The BM25 of the module docstring over the check's own bigram tokens."""

    def __init__(self, corpus: list[dict]):
        self.postings: dict[str, list[tuple[str, int]]] = {}
        self.length: dict[str, int] = {}
        for record in corpus:
            tokens = bm25_tokens(record["text"])
            self.length[record["id"]] = len(tokens)
            for term, tf in Counter(tokens).items():
                self.postings.setdefault(term, []).append((record["id"], tf))
        self.n = len(self.length)
        self.avgdl = sum(self.length.values()) / self.n

    def scores(self, query: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for term in bm25_tokens(query):
            entries = self.postings.get(term, [])
            idf = math.log((self.n - len(entries) + 0.5) / (len(entries) + 0.5) + 1.0)
            for doc, tf in entries:
                norm = 1.0 - BM25_B + BM25_B * self.length[doc] / self.avgdl
                out[doc] = out.get(doc, 0.0) + idf * tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * norm)
        return out


def check_bm25(t, runs: dict[int, dict], reference: BM25Reference, texts: dict[str, str], sample) -> None:
    for qid in sample:
        truth = reference.scores(texts[qid])
        tol = SCORE_TOL * max(1.0, max(truth.values(), default=0.0))
        for k, run in runs.items():
            check_ranking(t, f"bm25@{k} {qid}", run.get(qid, []), truth, k, tol)


# ---------------------------------------------------------------------------
# training-data stages
# ---------------------------------------------------------------------------


def check_scores(t, english: list[list[str]], docs, queries, sample_every: int) -> None:
    """`lateir score` output equals MaxSim over the stored vectors."""
    for qid, did, raw in english[::sample_every]:
        q, d = np.asarray(queries[qid], np.float64), np.asarray(docs[did], np.float64)
        t.expect(abs(float((q @ d.T).max(axis=1).sum()) - float(raw)) <= SCORE_TOL,
                 f"score {qid} {did}: differs from MaxSim")


def check_transpose(t, english, universe, withheld, kept, dropped) -> None:
    """Kept = universe minus withheld with byte-exact score text; dropped = withheld."""
    source = {(q, d): raw for q, d, raw in english}
    expect_kept = [(q, d, source[(q, d)]) for q, d in dict.fromkeys(universe) if (q, d) in source]
    t.expect([tuple(x) for x in kept] == expect_kept, "transpose: kept scores differ from the source")
    t.expect([tuple(x) for x in dropped] == list(withheld), "transpose: dropped pairs differ from the withheld pairs")


def check_window(t, kind, rows, run, positives, samples) -> None:
    """Negatives come from ranks 11-110, exclude positives, are distinct, and number min(samples, pool)."""
    lo, hi = WINDOW
    t.expect(sorted(r["qid"] for r in rows) == sorted(run), f"mine {kind}: queries differ from the run's")
    for row in rows:
        qid, negs = row["qid"], row[f"{kind}_negatives"]
        pos = positives.get(qid, set())
        pool = [d for d, _ in run.get(qid, [])[lo:hi] if d not in pos]
        ok = (len(set(negs)) == len(negs) and set(negs) <= set(pool)
              and len(negs) == min(samples, len(pool)) and row["positives"] == sorted(pos))
        t.expect(ok, f"mine {kind} {qid}: negatives break the window law")


def check_nway(t, examples, skipped, dense, bm25, table, positives) -> None:
    """Positive first, 32 distinct passages from the mined candidates, teacher scores copied."""
    cands = {r["qid"]: r["dense_negatives"] for r in dense}
    for r in bm25:
        cands[r["qid"]] = cands.get(r["qid"], []) + r["bm25_negatives"]
    built = {ex["qid"] for ex in examples}
    for ex in examples:
        qid, passages, scores = ex["qid"], ex["passages"], ex["scores"]
        ok = (len(passages) == NWAY and len(set(passages)) == NWAY
              and passages[0] in positives.get(qid, ())
              and set(passages[1:]) <= set(cands.get(qid, []))
              and all(float(table.get((qid, p), "nan")) == s for p, s in zip(passages, scores)))
        t.expect(ok, f"nway {qid}: malformed example")
    skipped_ids = {line[0] for line in skipped}
    for qid in cands:
        if qid in built:
            continue
        distinct = {d for d in cands[qid] if d not in positives.get(qid, ()) and (qid, d) in table}
        t.expect(qid in skipped_ids and len(distinct) < NWAY - 1,
                 f"nway {qid}: no example although {len(distinct)} scored candidates exist")


def dcg(grades: list[int]) -> float:
    return sum((2.0 ** g - 1.0) / math.log2(i + 2) for i, g in enumerate(grades))


def check_eval(t, report: dict, run, qrels) -> None:
    for qid, judged in qrels.items():
        ranked = [d for d, _ in sorted(run.get(qid, []), key=lambda e: (-e[1], e[0]))]
        ideal = dcg(sorted(judged.values(), reverse=True)[:10])
        ndcg = dcg([judged.get(d, 0) for d in ranked[:10]]) / ideal if ideal else 0.0
        relevant = {d for d, g in judged.items() if g > 0}
        recall = len(relevant & set(ranked[:100])) / len(relevant) if relevant else 0.0
        for name, value in (("ndcg@10", ndcg), ("recall@100", recall)):
            got = report["metrics"][name]["per_query"].get(qid)
            t.expect(got is not None and abs(got - value) <= 1e-12, f"eval {name} {qid}: {got} != {value}")
    for name in ("ndcg@10", "recall@100"):
        per_query = report["metrics"][name]["per_query"]
        t.expect(abs(report["metrics"][name]["mean"] - sum(per_query.values()) / len(qrels)) <= 1e-12,
                 f"eval {name}: mean is not the mean over judged queries")
