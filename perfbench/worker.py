"""One benchmark phase in its own process: `build`, `serve` or `mine`.

Usage: python3 perfbench/worker.py <phase> <job.json>

The worker reads commands from standard input, one per line.  `step` runs
one unit of the phase (a build repeat, a search round, a round of CLI
stages) and answers with the unit's duration in seconds; `finish` writes the
phase's figures to ``<work>/<phase>.json`` and answers `done`.  The parent
keeps all three workers alive and lets them take turns, so each phase's
samples spread over the whole run instead of one stretch of it: the
machine's speed drifts over tens of seconds.  A process per phase keeps each
phase's peak RSS its own.  Calls into the program go through the `lateir`
module attributes at call time, so a traced run sees them through its
wrappers.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SETUP_PER_ROUND = 2  # set-up samples taken after each search round
UNTRACED_ROUNDS = 2  # traced runs: rounds before the tracer goes in, for its overhead


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class Phase:
    def __init__(self, job: dict):
        import lateir

        self.lx = lateir
        self.job = job
        self.work = Path(job["work"])
        self.w = job["workload"]
        self.traced_run = job["trace"]
        self.tracer = None
        self.out: dict = {"attempted": 0, "failed": 0, "errors": []}

    def trace(self) -> None:
        from tracing import Tracer, install

        self.tracer = Tracer()
        install(self.tracer)

    def record(self, ok: bool, what: str) -> None:
        self.out["attempted"] += 1
        if not ok:
            self.out["failed"] += 1
            self.out["errors"].append(what)


# ---------------------------------------------------------------------------
# build: ingest the embedding files, build and save the three indexes
# ---------------------------------------------------------------------------


class Build(Phase):
    """Each step ingests a few times, then builds and saves every index once."""

    def __init__(self, job: dict):
        super().__init__(job)
        if self.traced_run:
            self.trace()
        self.ingest_times: list[float] = []
        self.build_times: list[float] = []

    def step(self) -> float:
        lx, w, work, job = self.lx, self.w, self.work, self.job
        began = time.perf_counter()
        for _ in range(1 if self.traced_run else w["ingest_per_build"]):
            start = time.perf_counter()
            docs = lx.ingest_embeddings(job["docs_bin"], "document")
            lx.save_store(docs, work / "stores" / "docs")
            queries = lx.ingest_embeddings(job["queries_bin"], "query")
            lx.save_store(queries, work / "stores" / "queries")
            self.ingest_times.append(time.perf_counter() - start)
            del queries

        self.doc_tokens = docs.total_tokens
        k = w["k_centroids"]
        if k is None:  # the CLI's `--k-centroids auto`
            k = lx.default_centroid_count(self.doc_tokens)
            while k > self.doc_tokens:
                k //= 2
        self.k = k
        start = time.perf_counter()
        exact = lx.build_exact(docs, "float16")
        lx.save_exact(exact, work / "idx" / "exact")
        del exact
        codebook = lx.train_codebook(docs, k, seed=42)
        comp = lx.compress(docs, codebook)
        lx.save_compressed(comp, work / "idx" / "compressed")
        del comp, codebook
        corpus = lx.read_corpus_jsonl(job["corpus"])
        bm = lx.build_bm25(corpus, lx.Tokenizer())
        lx.save_bm25(bm, work / "idx" / "bm25")
        self.build_times.append(time.perf_counter() - start)
        return time.perf_counter() - began

    def finish(self) -> None:
        self.out.update(
            ingest_s=statistics.median(self.ingest_times),
            build_s=statistics.median(self.build_times),
            build_peak_rss_mb=_peak_rss_mb(),
            k_centroids=self.k,
            doc_tokens=self.doc_tokens,
        )
        if self.traced_run:
            t = self.tracer
            self.out["layers"] = {
                "store.ingest_s": t.total("store.ingest_embeddings"),
                "store.save_s": t.total("store.save_store"),
                "exact.build_s": t.total("exact.build_exact"),
                "exact.save_s": t.total("exact.save_exact"),
                "compressed.train_codebook_s": t.total("compressed.train_codebook"),
                "compressed.compress_s": t.total("compressed.compress"),
                "compressed.save_s": t.total("compressed.save_compressed"),
                "bm25.build_s": t.total("bm25.build_bm25"),
                "bm25.save_s": t.total("bm25.save_bm25"),
            }
            self.out["root_time"] = t.root_time()
            self.out["lexical_time"] = t.root_time(("bm25.",))


# ---------------------------------------------------------------------------
# serve: load the indexes, then search one query at a time in each mode
# ---------------------------------------------------------------------------


class Serve(Phase):
    """Each step is one round: every query in every mode, then set-up samples.

    Within a round the modes take turns query by query, so all three see the
    same stretch of time.  Every round after the first is compared with the
    first, since the program promises identical output for identical input.
    """

    def __init__(self, job: dict):
        super().__init__(job)
        lx, w = self.lx, self.w
        k, cap = w["depth"], w["candidate_cap"]
        tok = lx.Tokenizer()
        self.texts = [json.loads(x) for x in Path(job["queries"]).read_text(encoding="utf-8").splitlines()]
        start = time.perf_counter()
        qstore, exact, comp, bm = self._load()
        self.setup_times = [time.perf_counter() - start]
        self.comp, self.bm = comp, bm
        self.qids = list(qstore.entries)
        self.qmats = [qstore.entries[q] for q in self.qids]
        qids, qmats, texts = self.qids, self.qmats, self.texts
        # warm-up: lazy caches fill before any search is timed
        lx.search_exact(exact, qmats[0], k)
        lx.search_compressed(comp, qmats[0], k, candidate_cap=cap)
        lx.search_bm25(bm, texts[0]["text"], tok, k)
        self.modes = {
            "exact": lambda i, k=k: lx.search_exact(exact, qmats[i], k, query_id=qids[i]),
            "compressed": lambda i: lx.search_compressed(comp, qmats[i], k, candidate_cap=cap, query_id=qids[i]),
            "bm25": lambda i, k=k: lx.search_bm25(bm, texts[i]["text"], tok, k, query_id=texts[i]["id"]),
        }
        self.first = None
        self.plain: list[dict] = []  # untraced rounds of a traced run
        self.times: list[dict] = []

    def _load(self):
        lx, work = self.lx, self.work
        return (
            lx.load_store(work / "stores" / "queries"),
            lx.load_exact(work / "idx" / "exact"),
            lx.load_compressed(work / "idx" / "compressed"),
            lx.load_bm25(work / "idx" / "bm25"),
        )

    def step(self) -> float:
        began = time.perf_counter()
        if self.traced_run and len(self.plain) == UNTRACED_ROUNDS and self.tracer is None:
            self.trace()
        n = len(self.qids)
        spent = dict.fromkeys(self.modes, 0.0)
        results = {mode: [] for mode in self.modes}
        for i in range(n):
            for mode, search in self.modes.items():
                start = time.perf_counter()
                results[mode].append(search(i))
                spent[mode] += time.perf_counter() - start
        self.out["attempted"] += n * len(self.modes)
        (self.plain if self.traced_run and self.tracer is None else self.times).append(spent)
        if self.first is None:
            self.first = results
            self._write_runs()
        else:
            for mode in self.modes:
                self.record(results[mode] == self.first[mode], f"{mode}: a round differs from the first")
        for _ in range(SETUP_PER_ROUND):
            start = time.perf_counter()
            fresh = self._load()
            self.setup_times.append(time.perf_counter() - start)
            del fresh
        return time.perf_counter() - began

    def _write_runs(self) -> None:
        """TREC runs of the first round, plus the depth-110 runs mining starts from."""
        runs = self.work / "runs"
        runs.mkdir(exist_ok=True)
        n, k = len(self.qids), self.w["depth"]
        exact110 = self.first["exact"] if k == 110 else [self.modes["exact"](i, 110) for i in range(n)]
        bm110 = self.first["bm25"] if k == 110 else [self.modes["bm25"](i, 110) for i in range(n)]
        for name, ranked in (("exact", self.first["exact"]), ("compressed", self.first["compressed"]),
                             ("bm25", self.first["bm25"]), ("exact110", exact110), ("bm25_110", bm110)):
            self.lx.write_trec_run(runs / f"{name}.trec", ranked)

    def finish(self) -> None:
        n = len(self.qids)
        qps = {mode: n / statistics.median(r[mode] for r in self.times) for mode in self.modes}
        self.out.update(
            setup_s=statistics.median(self.setup_times),
            exact_qps=qps["exact"],
            compressed_qps=qps["compressed"],
            bm25_qps=qps["bm25"],
            search_peak_rss_mb=_peak_rss_mb(),
        )
        if not self.traced_run:
            return
        t = self.tracer
        rounds = len(self.times)
        base = statistics.median(sum(r.values()) for r in self.plain)
        traced = statistics.median(sum(r.values()) for r in self.times)
        self.out["trace_overhead_pct"] = 100.0 * (traced - base) / base
        # per round: every query in each mode and the set-up loads
        self.out["root_time"] = t.root_time() / rounds
        self.out["lexical_time"] = t.root_time(("bm25.",)) / rounds
        layers = _serve_layers(t, self.comp, self.bm, self.qmats, [x["text"] for x in self.texts],
                               self.w["candidate_cap"])
        self._write_runs()  # the same bytes again, now through the traced writer
        layers["ranking.write_trec_run_s"] = t.total("ranking.write_trec_run")
        self.out["layers"] = layers


def _serve_layers(t, comp, bm, qmats, texts, cap) -> dict:
    ms = 1000.0
    out = {
        "store.load_s": _p(t.durations("store.load_store"), 50),
        "exact.load_s": _p(t.durations("exact.load_exact"), 50),
        "compressed.load_s": _p(t.durations("compressed.load_compressed"), 50),
        "bm25.load_s": _p(t.durations("bm25.load_bm25"), 50),
    }
    for mode, fn in (("exact", "exact.search_exact"), ("compressed", "compressed.search_compressed"),
                     ("bm25", "bm25.search_bm25")):
        lat = [d * ms for d in t.durations(fn)]
        out[f"{mode}.search_ms_p50"] = _p(lat, 50)
        out[f"{mode}.search_ms_p90"] = _p(lat, 90)
        out[f"{mode}.search_samples"] = len(lat)
        out[f"{mode}.ranking_ms_p50"] = _p([d * ms for d in t.durations("ranking.ranked_from_scores", fn)], 50)
        if mode != "bm25":
            out[f"{mode}.self_ms_p50"] = _p([d * ms for d in t.self_times(fn)], 50)
    out["bm25.tokenize_ms_p50"] = _p([d * ms for d in t.durations("bm25.tokenize", "bm25.search_bm25")], 50)
    out.update(compressed_counts(comp, qmats, cap))
    out.update(bm25_counts(bm, texts))
    return out


def compressed_counts(comp, qmats, cap: int, nprobe: int = 4) -> dict:
    """Probe, candidate and decompression counts worked out from the index's public arrays."""
    centroids = comp.codebook.centroids.astype(np.float64)
    k_cent, dim = centroids.shape
    lengths = np.diff(comp.offsets)
    probed_n, cand_n, decomp, capped = [], [], [], 0
    for q in qmats:
        sims = np.asarray(q, np.float64) @ centroids.T
        probed = np.unique(np.argsort(-sims, axis=1, kind="stable")[:, :nprobe])
        cands = np.unique(np.concatenate(
            [comp.ivf_docs[comp.ivf_offsets[c] : comp.ivf_offsets[c + 1]] for c in probed]))
        probed_n.append(probed.size)
        cand_n.append(cands.size)
        if cands.size > cap:
            capped += 1
            # centroid-only MaxSim decides which candidates survive the cap
            approx = np.array([
                sims[:, comp.centroid_ids[comp.offsets[d] : comp.offsets[d + 1]].astype(np.int64)].max(axis=1).sum()
                for d in cands
            ])
            cands = cands[np.argsort(-approx, kind="stable")[:cap]]
        decomp.append(int(lengths[cands].sum()))
    total = int(comp.offsets[-1])
    return {
        "compressed.k_centroids": k_cent,
        "compressed.queries": len(qmats),
        "compressed.probed_centroids_per_query": float(np.mean(probed_n)),
        "compressed.candidates_per_query": float(np.mean(cand_n)),
        "compressed.capped_queries": capped,
        "compressed.decompressed_tokens_per_query": float(np.mean(decomp)),
        "compressed.kmeans_flops": 2.0 * total * k_cent * dim * comp.params.get("iterations", 4),
    }


def bm25_counts(bm, texts: list[str]) -> dict:
    from checks import bm25_tokens

    postings, matched = [], []
    for text in texts:
        lists = [bm.postings[term][0] for term in bm25_tokens(text) if term in bm.postings]
        postings.append(sum(x.size for x in lists))
        matched.append(np.unique(np.concatenate(lists)).size if lists else 0)
    return {
        "bm25.terms": len(bm.postings),
        "bm25.postings_per_query": float(np.mean(postings)),
        "bm25.matched_docs_per_query": float(np.mean(matched)),
    }


# ---------------------------------------------------------------------------
# mine: the training-data stages through the CLI, in-process
# ---------------------------------------------------------------------------

STAGES = ("score", "transpose", "mine-dense", "mine-bm25", "nway", "eval")


def stage_argv(work: Path, job: dict) -> list[list[str]]:
    m, seed = work / "mine", str(job["seed"])
    return [
        ["score", "--query-store", str(work / "stores" / "queries"), "--doc-store", str(work / "stores" / "docs"),
         "--pairs", str(work / "source-pairs.tsv"), "--out", str(m / "english.tsv")],
        ["transpose", "--scores", str(m / "english.tsv"), "--pairs", str(work / "pairs.tsv"),
         "--out", str(m / "scores.tsv"), "--dropped", str(m / "dropped.tsv")],
        ["mine", "dense", "--runs", str(work / "runs" / "exact110.trec"), "--positives", job["qrels"],
         "--out", str(m / "dense.jsonl"), "--seed", seed],
        ["mine", "bm25", "--index", str(work / "idx" / "bm25"), "--queries", job["queries"],
         "--positives", job["qrels"], "--out", str(m / "bm25.jsonl"), "--seed", seed],
        ["nway", "--candidates", str(m / "dense.jsonl"), "--candidates", str(m / "bm25.jsonl"),
         "--scores", str(m / "scores.tsv"), "--n", "32", "--seed", seed, "--out", str(m / "nway.jsonl")],
        ["eval", "--run", str(work / "runs" / "exact110.trec"), "--qrels", job["qrels"],
         "--metric", "ndcg@10", "--metric", "recall@100", "--out", str(m / "report.json")],
    ]


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


class Mine(Phase):
    """Each step runs the six stages once through `lateir.cli.main`, in-process."""

    def __init__(self, job: dict):
        super().__init__(job)
        import lateir.cli

        self.cli = lateir.cli
        (self.work / "mine").mkdir(exist_ok=True)
        if self.traced_run:
            self.trace()
        self.argvs = stage_argv(self.work, job)
        self.times: list[float] = []
        self.first = None

    def step(self) -> float:
        start = time.perf_counter()
        codes = [self.cli.main(argv) for argv in self.argvs]
        self.times.append(time.perf_counter() - start)
        for argv, code in zip(self.argvs, codes):
            self.record(code == 0, f"lateir {' '.join(argv[:2])} exited with {code}")
        digests = _digests(self.work / "mine")
        if self.first is None:
            self.first = digests
        else:
            self.record(digests == self.first, "CLI outputs of a round differ from the first round's")
        return self.times[-1]

    def finish(self) -> None:
        self.out["mining_qps"] = self.job["n_queries"] / statistics.median(self.times)
        if not self.traced_run:
            return
        t, rounds = self.tracer, len(self.times)
        layers = {f"cli.{s}_s": t.total(f"cli.{s}") / rounds for s in STAGES}
        layers["cli.self_s"] = sum(sum(t.self_times(f"cli.{s}")) for s in STAGES) / rounds
        for key, fn in (("ranking.read_trec_run_s", "ranking.read_trec_run"),
                        ("scoring.maxsim_s", "scoring.maxsim"),
                        ("mining.teacher_table_s", "mining.TeacherScoreTable.from_tsv"),
                        ("mining.transpose_scores_s", "mining.transpose_scores"),
                        ("mining.mine_dense_s", "mining.mine_dense"),
                        ("mining.mine_bm25_s", "mining.mine_bm25"),
                        ("mining.build_nway_s", "mining.build_nway"),
                        ("evaluation.evaluate_s", "evaluation.evaluate")):
            layers[key] = t.total(fn) / rounds
        layers["scoring.pairs"] = len(t.durations("scoring.maxsim")) / rounds
        self.out["layers"] = layers
        self.out["root_time"] = t.root_time() / rounds
        self.out["lexical_time"] = t.root_time(("cli.",)) / rounds


PHASES = {"build": Build, "serve": Serve, "mine": Mine}


def main(argv: list[str]) -> int:
    phase, job_path = argv
    # answers go to the original stdout; anything the program prints goes to the log
    answers = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(job["checkout"]) / "src"))
    worker = PHASES[phase](job)
    for line in sys.stdin:
        if line.strip() == "step":
            answers.write(f"{worker.step()!r}\n")
        elif line.strip() == "finish":
            worker.finish()
            (worker.work / f"{phase}.json").write_text(json.dumps(worker.out), encoding="utf-8")
            answers.write("done\n")
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
