"""Seeded input generation for the three benchmark workloads.

Everything here runs before any timer starts and writes plain input files
(corpus JSONL, embedding files, qrels); the program under test sees only
those files.  The embedding-file writer and reader are the benchmark's own,
written from the format table in the README, so the checks never read
vectors through the code they check.

Workloads:

* ``families`` -- the ROADMAP reference shape: documents in families of 20
  with graded identities, 32 tokens each, queries aimed at one document's
  identity, depth 10, the default automatic centroid count.
* ``hubs`` -- many short documents with a long tail of lengths up to 512,
  tokens drawn Zipf-wise from a few hub directions, so most queries probe
  lists that together hold more documents than the candidate cap.
* ``training-data`` -- Japanese-like passages of about 150 characters with
  small dense embeddings, many training queries with graded qrels, depth 110
  (the mining depth).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM = 64
FAMILY_SIZE = 20


@dataclass(frozen=True)
class Workload:
    name: str
    n_docs: int
    n_queries: int
    depth: int  # k of the timed searches
    doc_tokens: int  # tokens per document (families, training-data)
    query_tokens: int
    k_centroids: int | None  # None = the program's automatic default
    text_words: tuple[int, int]  # words per document text (min, max)
    candidate_cap: int = 8192
    build_reps: int = 2  # ingest + build repeats in the build phase
    ingest_per_build: int = 4  # ingest samples taken before each build


WORKLOADS = {
    "families": Workload(
        "families", n_docs=2000, n_queries=50, depth=10, doc_tokens=32, query_tokens=32,
        k_centroids=None, text_words=(4, 6),
    ),
    "hubs": Workload(
        "hubs", n_docs=16000, n_queries=16, depth=10, doc_tokens=0, query_tokens=32,
        k_centroids=256, text_words=(3, 5), build_reps=3, ingest_per_build=3,
    ),
    "training-data": Workload(
        "training-data", n_docs=4000, n_queries=200, depth=110, doc_tokens=8,
        query_tokens=8, k_centroids=512, text_words=(45, 55), build_reps=3, ingest_per_build=2,
    ),
}

# Small versions that run every check in seconds; the cap on `hubs` is
# lowered so its cap path still runs on a small corpus.
FAST_WORKLOADS = {
    "families": Workload(
        "families", n_docs=300, n_queries=8, depth=10, doc_tokens=32, query_tokens=32,
        k_centroids=None, text_words=(4, 6), build_reps=1, ingest_per_build=1,
    ),
    "hubs": Workload(
        "hubs", n_docs=600, n_queries=8, depth=10, doc_tokens=0, query_tokens=32,
        k_centroids=64, text_words=(3, 5), candidate_cap=100, build_reps=1, ingest_per_build=1,
    ),
    "training-data": Workload(
        "training-data", n_docs=400, n_queries=12, depth=110, doc_tokens=8,
        query_tokens=8, k_centroids=64, text_words=(45, 55), build_reps=1, ingest_per_build=1,
    ),
}

# ---------------------------------------------------------------------------
# embedding file format (see the top-level README, "Embedding file")
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIBQ")
_PRECISIONS = {0: np.dtype("<f4"), 1: np.dtype("<f2")}


def write_embeddings(path: Path, entries: dict[str, np.ndarray], precision_code: int) -> None:
    dtype = _PRECISIONS[precision_code]
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(b"LIEM", 1, DIM, precision_code, len(entries)))
        for doc_id, matrix in entries.items():
            raw = doc_id.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)) + raw + struct.pack("<H", matrix.shape[0]))
            fh.write(np.ascontiguousarray(matrix, dtype=dtype).tobytes())


def read_embeddings(path: Path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    magic, _version, dim, code, count = _HEADER.unpack_from(data, 0)
    if magic != b"LIEM":
        raise ValueError(f"{path}: not an embedding file")
    dtype = _PRECISIONS[code]
    out: dict[str, np.ndarray] = {}
    pos = _HEADER.size
    for _ in range(count):
        (n,) = struct.unpack_from("<H", data, pos)
        doc_id = data[pos + 2 : pos + 2 + n].decode("utf-8")
        pos += 2 + n
        (rows,) = struct.unpack_from("<H", data, pos)
        pos += 2
        out[doc_id] = np.frombuffer(data, dtype, rows * dim, pos).reshape(rows, dim)
        pos += rows * dim * dtype.itemsize
    return out


# ---------------------------------------------------------------------------
# vectors and text
# ---------------------------------------------------------------------------


def _unit(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


def _perturb(rng: np.random.Generator, base: np.ndarray, rows: int, radius: float) -> np.ndarray:
    return _unit(base + (radius / np.sqrt(DIM)) * rng.standard_normal((rows, DIM)))


_KANA = [chr(c) for c in range(0x3041, 0x3094)] + [chr(c) for c in range(0x30A1, 0x30F4)]
_KANJI = [chr(0x4E00 + i) for i in range(0, 6000, 3)]


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    """Distinct 1-4 character kana/kanji words; earlier words are more frequent."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        n = int(rng.integers(1, 5))
        chars = [_KANJI[int(rng.integers(len(_KANJI)))] if rng.random() < 0.4
                 else _KANA[int(rng.integers(len(_KANA)))] for _ in range(n)]
        word = "".join(chars)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf_weights(n: int, s: float = 1.1) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** s
    return w / w.sum()


class _Text:
    """Japanese-like text: a shared Zipf vocabulary plus per-topic words."""

    def __init__(self, rng: np.random.Generator, n_topics: int):
        self.rng = rng
        common = _vocabulary(rng, 3000)
        # the two most frequent words are long enough to hold a bigram of
        # their own, so every seed's queries match about as many documents
        frequent = [w for w in common if len(w) >= 2][:2]
        self.common = frequent + [w for w in common if w not in frequent]
        self.common_p = _zipf_weights(len(self.common))
        self.frequent = frequent
        topic_words = _vocabulary(rng, 3000 + 12 * n_topics)[3000:]
        self.topic = [topic_words[12 * t : 12 * t + 12] for t in range(n_topics)]

    def words(self, topic: int, n: int, topic_share: float) -> list[str]:
        from_topic = self.rng.random(n) < topic_share
        topic_pick = self.rng.integers(0, 12, size=n)
        common_pick = self.rng.choice(len(self.common), size=n, p=self.common_p)
        return [self.topic[topic][t] if f else self.common[c]
                for f, t, c in zip(from_topic, topic_pick, common_pick)]

    @staticmethod
    def join(words: list[str]) -> str:
        # punctuation every few words, like sentence breaks
        return "".join(w + ("、" if i % 5 == 4 else "") for i, w in enumerate(words)) + "。"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    """Paths of the generated input files plus the qrels the generator wrote."""

    corpus: Path
    docs_bin: Path
    queries: Path
    queries_bin: Path
    qrels: Path
    qrels_map: dict[str, dict[str, int]]
    doc_tokens: int


def _ids(prefix: str, n: int) -> list[str]:
    width = len(str(max(n - 1, 1)))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def _families(w: Workload, rng: np.random.Generator):
    n_fam = -(-w.n_docs // FAMILY_SIZE)
    anchors = _unit(rng.standard_normal((n_fam, DIM)))
    fam = np.arange(w.n_docs) // FAMILY_SIZE
    radius = rng.uniform(0.08, 0.5, size=w.n_docs)
    ident = _unit(anchors[fam] + (radius / np.sqrt(DIM))[:, None] * rng.standard_normal((w.n_docs, DIM)))
    docs = [_perturb(rng, ident[i], w.doc_tokens, 0.5) for i in range(w.n_docs)]
    targets = rng.integers(0, w.n_docs, size=w.n_queries)
    queries = [_perturb(rng, ident[t], w.query_tokens, 0.4) for t in targets]
    return docs, queries, fam, targets


def hub_lengths(n_docs: int) -> np.ndarray:
    """Document lengths at evenly spaced quantiles of a Pareto tail capped at 512.

    Every seed gets the same multiset of lengths (only their order is
    shuffled), so total token count and index size do not vary by seed.
    """
    u = (np.arange(n_docs) + 0.5) / n_docs
    return np.minimum(512, np.floor(2.0 * (1.0 - u) ** (-1.0 / 1.6))).astype(np.int64)


def _hubs(w: Workload, rng: np.random.Generator):
    n_hubs = 12
    hubs = _unit(rng.standard_normal((n_hubs, DIM)))
    p = _zipf_weights(n_hubs, 1.2)
    lengths = rng.permutation(hub_lengths(w.n_docs))
    hub_of = rng.choice(n_hubs, size=int(lengths.sum()), p=p)
    tokens = _unit(hubs[hub_of] + (0.9 / np.sqrt(DIM)) * rng.standard_normal((hub_of.size, DIM)))
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    docs = [tokens[bounds[i] : bounds[i + 1]] for i in range(w.n_docs)]
    fam = hub_of[bounds[:-1]]  # topic of a document's text = its first token's hub
    targets = rng.integers(0, w.n_docs, size=w.n_queries)
    queries = []
    for t in targets:
        # half the query follows the target's tokens, half is fresh hub draws
        own = docs[t][rng.integers(0, docs[t].shape[0], size=w.query_tokens // 2)]
        fresh = hubs[rng.choice(n_hubs, size=w.query_tokens - own.shape[0], p=p)]
        base = np.vstack([own, fresh])
        queries.append(_unit(base + (0.5 / np.sqrt(DIM)) * rng.standard_normal(base.shape)))
    return docs, queries, fam, targets


def generate(w: Workload, seed: int, out: Path) -> Inputs:
    """Write the workload's inputs for `seed` under `out`; same seed, same bytes."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    if w.name == "hubs":
        docs, queries, topic, targets = _hubs(w, rng)
        n_topics = 12
    else:
        docs, queries, topic, targets = _families(w, rng)
        n_topics = int(topic.max()) + 1
    doc_ids, query_ids = _ids("d", w.n_docs), _ids("q", w.n_queries)
    text = _Text(rng, n_topics)
    topic_share = 0.4 if w.name == "training-data" else 0.3

    doc_words = []
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for i, doc_id in enumerate(doc_ids):
            words = text.words(int(topic[i]), int(rng.integers(w.text_words[0], w.text_words[1] + 1)), topic_share)
            doc_words.append(words)
            fh.write(json.dumps({"id": doc_id, "text": text.join(words)}, ensure_ascii=False) + "\n")

    qrels: dict[str, dict[str, int]] = {}
    with open(out / "queries.jsonl", "w", encoding="utf-8") as fh:
        for qid, t in zip(query_ids, targets):
            # words of the target document plus the two most frequent words,
            # so every query matches far more than the 10 documents mining
            # discards (mine_bm25 fails on any query that does not) and the
            # number of matches varies little from seed to seed
            own = [doc_words[t][int(j)] for j in rng.integers(0, len(doc_words[t]), size=3)]
            fh.write(json.dumps({"id": qid, "text": "".join(own + text.frequent)}, ensure_ascii=False) + "\n")
            judged = {doc_ids[t]: 2}
            if w.name == "training-data":
                sibling = int(topic[t]) * FAMILY_SIZE + int(rng.integers(FAMILY_SIZE))
                if sibling != t and sibling < w.n_docs:
                    judged[doc_ids[sibling]] = 1
            qrels[qid] = judged
    with open(out / "qrels.txt", "w", encoding="utf-8") as fh:
        for qid, judged in qrels.items():
            for doc_id, grade in sorted(judged.items()):
                fh.write(f"{qid} 0 {doc_id} {grade}\n")

    write_embeddings(out / "docs.bin", dict(zip(doc_ids, docs)), precision_code=1)
    write_embeddings(out / "queries.bin", dict(zip(query_ids, queries)), precision_code=0)
    return Inputs(
        corpus=out / "corpus.jsonl",
        docs_bin=out / "docs.bin",
        queries=out / "queries.jsonl",
        queries_bin=out / "queries.bin",
        qrels=out / "qrels.txt",
        qrels_map=qrels,
        doc_tokens=sum(d.shape[0] for d in docs),
    )
