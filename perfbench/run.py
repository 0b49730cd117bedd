#!/usr/bin/env python3
"""lateir benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload families --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload hubs --seed 1 --fast        # small, every check
    python3 perfbench/run.py --write-spec                           # rewrite BENCHMARK.json

Run from anywhere; the checkout is the directory above this file.  Inputs
are generated from the seed before any timer starts.  Three fresh worker
processes then drive lateir through its public API and CLI: `build` ingests
and builds the indexes, `serve` loads them and searches one query at a time
(a closed loop with one client), and `mine` runs the training-data stages
through `lateir.cli.main`.  Every output is checked against computations
made apart from the program (see checks.py).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
"""

from __future__ import annotations

import os

# Settings of the benchmark's own processes, made before NumPy loads and
# inherited by the workers.  One BLAS thread: on a shared 2-core box a
# free-running BLAS pool made repeated timings of identical code differ by
# up to 18%.  No huge-page advice from NumPy: with the kernel's THP mode at
# `madvise`, whether a fresh process's large arrays got huge pages depended
# on the host's memory fragmentation, and whole runs on identical inputs came
# out 15-22% apart; without it they agree within 3-5%.
BLAS_THREADS = 1
ENVIRONMENT = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "PYTHONHASHSEED": "0",
}
os.environ.update(ENVIRONMENT)

import argparse
import json
import math
import platform
import select
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import FAST_WORKLOADS, WORKLOADS, generate, read_embeddings  # noqa: E402
from worker import UNTRACED_ROUNDS  # noqa: E402

SERVE_SHARE = 0.4  # of --seconds, for search rounds (all three modes)
MINE_SHARE = 0.25  # of --seconds, for rounds of the CLI training-data stages
CHECK_SAMPLE = 8  # queries per run whose rankings are recomputed
STEP_TIMEOUT_S = 60  # the longest step takes about 8 s

WHY = {
    "families": "reference shape: candidate sets stay under the cap; time goes to k-means assign, probe sort and rerank",
    "hubs": "Zipf hub tokens and long-tail lengths: every query exceeds the candidate cap; exact ranks 16k documents",
    "training-data": "Japanese-like passages at depth 110: BM25, mining, score transposition, 32-way assembly and eval",
}

# name, unit, better, bound (share of the parent's median it may worsen by).
# Timings get the largest bound allowed: on the shared 2-core box whole runs
# drift together by about 10% (see README, "Steadiness").
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ingest_s", "s", "lower", 0.25),
    ("build_s", "s", "lower", 0.25),
    ("exact_qps", "1/s", "higher", 0.25),
    ("compressed_qps", "1/s", "higher", 0.25),
    ("bm25_qps", "1/s", "higher", 0.25),
    ("mining_qps", "1/s", "higher", 0.25),
    ("overlap_at_10", "ratio", "higher", 0.1),
    ("index_bytes_per_token", "B", "lower", 0.05),
    ("build_peak_rss_mb", "MB", "lower", 0.1),
    ("search_peak_rss_mb", "MB", "lower", 0.1),
]

_S, _MS, _N = "s", "ms", "count"
PER_LAYER = [
    ("store.ingest_s", _S, "lower"), ("store.save_s", _S, "lower"), ("store.load_s", _S, "lower"),
    ("exact.build_s", _S, "lower"), ("exact.save_s", _S, "lower"), ("exact.load_s", _S, "lower"),
    ("exact.search_ms_p50", _MS, "lower"), ("exact.search_ms_p90", _MS, "lower"),
    ("exact.search_samples", _N, "higher"),
    ("exact.self_ms_p50", _MS, "lower"), ("exact.ranking_ms_p50", _MS, "lower"),
    ("compressed.train_codebook_s", _S, "lower"), ("compressed.compress_s", _S, "lower"),
    ("compressed.save_s", _S, "lower"), ("compressed.load_s", _S, "lower"),
    ("compressed.search_ms_p50", _MS, "lower"), ("compressed.search_ms_p90", _MS, "lower"),
    ("compressed.search_samples", _N, "higher"),
    ("compressed.self_ms_p50", _MS, "lower"), ("compressed.ranking_ms_p50", _MS, "lower"),
    ("compressed.k_centroids", _N, "lower"), ("compressed.queries", _N, "higher"),
    ("compressed.probed_centroids_per_query", _N, "lower"),
    ("compressed.candidates_per_query", _N, "lower"), ("compressed.capped_queries", _N, "lower"),
    ("compressed.decompressed_tokens_per_query", _N, "lower"),
    ("compressed.kmeans_flops", "flop", "lower"), ("compressed.codebook_bytes", "B", "lower"),
    ("compressed.residuals_bytes", "B", "lower"), ("compressed.ivf_bytes", "B", "lower"),
    ("bm25.build_s", _S, "lower"), ("bm25.save_s", _S, "lower"), ("bm25.load_s", _S, "lower"),
    ("bm25.search_ms_p50", _MS, "lower"), ("bm25.search_ms_p90", _MS, "lower"),
    ("bm25.search_samples", _N, "higher"),
    ("bm25.tokenize_ms_p50", _MS, "lower"), ("bm25.ranking_ms_p50", _MS, "lower"),
    ("bm25.terms", _N, "lower"), ("bm25.postings_per_query", _N, "lower"),
    ("bm25.matched_docs_per_query", _N, "lower"),
    ("ranking.write_trec_run_s", _S, "lower"), ("ranking.read_trec_run_s", _S, "lower"),
    ("scoring.maxsim_s", _S, "lower"), ("scoring.pairs", _N, "higher"),
    ("mining.teacher_table_s", _S, "lower"), ("mining.transpose_scores_s", _S, "lower"),
    ("mining.mine_dense_s", _S, "lower"), ("mining.mine_bm25_s", _S, "lower"),
    ("mining.build_nway_s", _S, "lower"), ("mining.dense_negatives", _N, "higher"),
    ("mining.bm25_negatives", _N, "higher"), ("mining.pairs_dropped", _N, "lower"),
    ("mining.nway_examples", _N, "higher"),
    ("evaluation.evaluate_s", _S, "lower"),
    ("cli.score_s", _S, "lower"), ("cli.transpose_s", _S, "lower"), ("cli.mine-dense_s", _S, "lower"),
    ("cli.mine-bm25_s", _S, "lower"), ("cli.nway_s", _S, "lower"), ("cli.eval_s", _S, "lower"),
    ("cli.self_s", _S, "lower"),
    ("trace.overhead_pct", "%", "lower"), ("trace.bm25_mining_share", "ratio", "lower"),
]

RUN_SECONDS = 20


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WHY[n]} for n in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "environment": ENVIRONMENT}


class Worker:
    """A phase's process: one unit of work per `step`, its figures on `finish`."""

    def __init__(self, phase: str, job_path: Path):
        self.phase = phase
        self.log_path = job_path.parent / f"{phase}.log"
        self.log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), phase, str(job_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        self.steps = 0
        self.spent = 0.0

    def _ask(self, command: str) -> str:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [], STEP_TIMEOUT_S)
            answer = self.proc.stdout.readline() if ready else ""
        except OSError:
            answer = ""
        if not answer:
            self.stop()
            log = self.log_path.read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"{self.phase} worker failed on {command!r}:\n{log[-3000:]}")
        return answer.strip()

    def step(self) -> None:
        self.spent += float(self._ask("step"))
        self.steps += 1

    def finish(self) -> dict:
        self._ask("finish")
        self.proc.wait(timeout=STEP_TIMEOUT_S)
        return json.loads((self.log_path.parent / f"{self.phase}.json").read_text(encoding="utf-8"))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


def training_pairs(work: Path, doc_ids: list[str], qrels, seed: int) -> tuple[list, list]:
    """The pair universe to score and transpose, and the pairs withheld from the teacher.

    Per query: its positives, its depth-110 exact and BM25 hits (every pair
    mining or n-way assembly can need) and a few random extra documents.
    Every fourth query has one extra pair withheld from the source scores,
    so `transpose` must report exactly those as dropped.
    """
    exact110 = checks.read_run(work / "runs" / "exact110.trec")
    bm110 = checks.read_run(work / "runs" / "bm25_110.trec")
    rng = np.random.default_rng([seed, 7])
    universe, withheld = [], []
    for i, qid in enumerate(sorted(qrels)):
        needed = dict.fromkeys(sorted(qrels[qid]) + [d for d, _ in exact110.get(qid, [])]
                               + [d for d, _ in bm110.get(qid, [])])
        extras = [doc_ids[j] for j in rng.choice(len(doc_ids), 8, replace=False) if doc_ids[j] not in needed]
        universe += [(qid, d) for d in list(needed) + extras[:4]]
        if i % 4 == 0 and extras:
            withheld.append((qid, extras[0]))
    skip = set(withheld)
    (work / "pairs.tsv").write_text("".join(f"{q}\t{d}\n" for q, d in universe), encoding="utf-8")
    (work / "source-pairs.tsv").write_text(
        "".join(f"{q}\t{d}\n" for q, d in universe if (q, d) not in skip), encoding="utf-8")
    return universe, withheld


def run_checks(work: Path, w, inputs, universe, withheld, seed: int) -> tuple[checks.Tally, dict]:
    import lateir

    t = checks.Tally()
    runs = {name: checks.read_run(work / "runs" / f"{name}.trec")
            for name in ("exact", "compressed", "bm25", "exact110", "bm25_110")}
    raw_docs, raw_queries = read_embeddings(inputs.docs_bin), read_embeddings(inputs.queries_bin)
    docs = read_embeddings(work / "stores" / "docs" / "embeddings.bin")
    queries = read_embeddings(work / "stores" / "queries" / "embeddings.bin")
    checks.check_store(t, raw_docs, docs, 2e-3)
    checks.check_store(t, raw_queries, queries, 1e-6)

    qids = sorted(inputs.qrels_map)
    rng = np.random.default_rng([seed, 11])
    sample = sorted(rng.choice(qids, size=min(CHECK_SAMPLE, len(qids)), replace=False).tolist())
    checks.check_exact(t, {w.depth: runs["exact"], 110: runs["exact110"]}, docs, queries, sample)
    comp = lateir.load_compressed(work / "idx" / "compressed")
    capped = checks.check_compressed(t, runs["compressed"], comp, queries, sample, w.depth, w.candidate_cap)
    corpus = checks.read_jsonl(inputs.corpus)
    texts = {r["id"]: r["text"] for r in checks.read_jsonl(inputs.queries)}
    checks.check_bm25(t, {w.depth: runs["bm25"], 110: runs["bm25_110"]},
                      checks.BM25Reference(corpus), texts, sample)

    mine = work / "mine"
    counts = dict.fromkeys(("mining.dense_negatives", "mining.bm25_negatives", "mining.pairs_dropped",
                            "mining.nway_examples"), 0)
    try:
        english = checks.read_tsv(mine / "english.tsv")
        checks.check_scores(t, english, docs, queries, max(1, len(english) // 200))
        kept = checks.read_tsv(mine / "scores.tsv")
        dropped = checks.read_tsv(mine / "dropped.tsv")
        checks.check_transpose(t, english, universe, withheld, kept, dropped)
        positives = {q: {d for d, g in j.items() if g > 0} for q, j in inputs.qrels_map.items()}
        dense, bm25 = checks.read_jsonl(mine / "dense.jsonl"), checks.read_jsonl(mine / "bm25.jsonl")
        checks.check_window(t, "dense", dense, runs["exact110"], positives, checks.DENSE_SAMPLES)
        checks.check_window(t, "bm25", bm25, runs["bm25_110"], positives, checks.BM25_SAMPLES)
        nway = checks.read_jsonl(mine / "nway.jsonl")
        checks.check_nway(t, nway, checks.read_tsv(mine / "nway.jsonl.skipped.tsv"), dense, bm25,
                          {(q, d): raw for q, d, raw in kept}, positives)
        report = json.loads((mine / "report.json").read_text(encoding="utf-8"))
        checks.check_eval(t, report, runs["exact110"], inputs.qrels_map)
        counts = {
            "mining.dense_negatives": sum(len(r["dense_negatives"]) for r in dense),
            "mining.bm25_negatives": sum(len(r["bm25_negatives"]) for r in bm25),
            "mining.pairs_dropped": len(dropped),
            "mining.nway_examples": len(nway),
        }
    except FileNotFoundError as exc:  # a failed stage wrote nothing; it is already counted
        t.expect(False, f"missing output {Path(exc.filename).name}")

    top = {q: {d for d, _ in r[:10]} for q, r in runs["exact"].items()}
    overlap = [len(top[q] & {d for d, _ in runs["compressed"].get(q, [])[:10]}) / 10 for q in qids]
    comp_dir = work / "idx" / "compressed"
    derived = {
        "overlap_at_10": float(np.mean(overlap)),
        "index_bytes_per_token": sum(p.stat().st_size for p in comp_dir.iterdir()) / inputs.doc_tokens,
        "checked_capped": capped,
        "compressed.codebook_bytes": _size(comp_dir / "codebook.bin"),
        "compressed.residuals_bytes": _size(comp_dir / "residuals.bin"),
        "compressed.ivf_bytes": _size(comp_dir / "ivf.bin"),
        **counts,
    }
    return t, derived


def _size(path: Path) -> int:
    """Bytes of an index file; 0 for a file the index format does not have."""
    return path.stat().st_size if path.exists() else 0


def measure(job_path: Path, w, inputs, seed: int, seconds: float, trace: bool):
    """Drive the three workers in turns until each has done its share of the run.

    The first build, the first search round and the mining inputs come in
    that order, since each needs the one before.  After that the phase
    furthest behind its target (a number of steps, and for search and mining
    a share of --seconds) goes next, so all three spread over the run.
    """
    targets = {  # phase: (minimum steps, seconds)
        "build": (1 if trace else w.build_reps, 0.0),
        "serve": (UNTRACED_ROUNDS + math.ceil(110 / w.n_queries) if trace else 3,
                  0.0 if trace else SERVE_SHARE * seconds),
        "mine": (2, 0.0 if trace else MINE_SHARE * seconds),
    }

    def progress(phase: str) -> float:
        steps, budget = targets[phase]
        done = workers[phase]
        return min(done.steps / steps, done.spent / budget if budget else math.inf)

    workers: dict[str, Worker] = {}
    try:
        for phase in targets:
            if phase == "mine":
                doc_ids = list(read_embeddings(inputs.docs_bin))
                universe, withheld = training_pairs(job_path.parent, doc_ids, inputs.qrels_map, seed)
            workers[phase] = Worker(phase, job_path)
            workers[phase].step()
        while True:
            phase = min(workers, key=progress)
            if progress(phase) >= 1.0:
                break
            workers[phase].step()
        return {phase: done.finish() for phase, done in workers.items()}, universe, withheld
    finally:
        for done in workers.values():
            done.stop()


def run(workload: str, seed: int, seconds: float, trace: bool, fast: bool) -> dict:
    w = (FAST_WORKLOADS if fast else WORKLOADS)[workload]
    work = CHECKOUT / ".perfbench-work" / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = generate(w, seed, work / "inputs")
        job = {
            "checkout": str(CHECKOUT), "work": str(work), "workload": asdict(w), "seed": seed,
            "trace": trace, "docs_bin": str(inputs.docs_bin), "queries_bin": str(inputs.queries_bin),
            "corpus": str(inputs.corpus), "queries": str(inputs.queries), "qrels": str(inputs.qrels),
            "n_queries": w.n_queries,
        }
        job_path = work / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        phases, universe, withheld = measure(job_path, w, inputs, seed, seconds, trace)
        tally, derived = run_checks(work, w, inputs, universe, withheld, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [e for p in phases.values() for e in p["errors"]] + tally.failures
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    attempted = tally.attempted + sum(p["attempted"] for p in phases.values())
    failed = len(tally.failures) + sum(p["failed"] for p in phases.values())
    values = {**phases["build"], **phases["serve"], **phases["mine"], **derived}
    if trace:
        values.update(phases["build"]["layers"], **phases["serve"]["layers"], **phases["mine"]["layers"])
        values["trace.overhead_pct"] = phases["serve"]["trace_overhead_pct"]
        values["trace.bm25_mining_share"] = (
            sum(p["lexical_time"] for p in phases.values()) / sum(p["root_time"] for p in phases.values()))
        names = PER_LAYER
    else:
        names = END_TO_END
    metrics = {n: {"value": float(values[n]), "unit": u} for n, u, *_ in names}
    print(json.dumps({"machine": machine(), "workload": workload, "seed": seed,
                      "capped_sampled_queries": derived["checked_capped"]}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true", help="small inputs, every check, seconds not minutes")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.write_spec:
        (CHECKOUT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (CHECKOUT / "src" / "lateir" / "__init__.py").is_file():
        print(f"error: no lateir sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(CHECKOUT / "src"))
    started = time.perf_counter()
    # fast mode runs the minimum whole rounds of every phase, whatever --seconds says
    seconds = 0.0 if args.fast else args.seconds
    result = run(args.workload, args.seed, seconds, bool(args.trace), args.fast)
    print(f"run took {time.perf_counter() - started:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
