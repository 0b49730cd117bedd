"""Lexical retrieval: pluggable tokenization, inverted index, BM25 ranking.

The default tokenizer is character bigrams over Unicode codepoints with all
whitespace removed, which needs no morphological analysis and works for
Japanese as well as space-delimited text.  Scoring uses

    idf(t) = ln((N - df + 0.5) / (df + 0.5) + 1)
    score(q, d) = sum over query tokens of
        idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avgdl))

with k1 = 0.9 and b = 0.4 by default.  The +1 inside the log keeps idf
non-negative.  Repeated query tokens contribute once per occurrence.

Index directory layout: ``postings.bin`` (array container, magic LIBP:
sorted terms, int64 posting offsets, doc indexes, term frequencies),
``doclens.bin`` (magic LIDL: doc ids, int64 lengths), ``meta.json`` (mode
``bm25``, see ``store.save_index``; tokenizer scheme, parameters, counts).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, DuplicateDocId
from .ranking import RankedList, ranked_from_scores
from .store import INDEX_FORMAT_VERSION, CorpusRecord, check_format, check_offsets
from .store import pack_strings, read_arrays, read_index_meta, save_index, unpack_strings

POSTINGS_MAGIC = b"LIBP"
DOCLENS_MAGIC = b"LIDL"

SCHEMES = ("char_bigram", "char_unigram", "whitespace")

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4


@dataclass(frozen=True)
class Tokenizer:
    scheme: str = "char_bigram"
    lowercase: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown tokenizer scheme {self.scheme!r}")


def tokenize(text: str, t: Tokenizer) -> list[str]:
    """Deterministic token sequence; empty text yields an empty sequence."""
    if t.lowercase:
        text = text.lower()
    if t.scheme == "whitespace":
        return text.split()
    chars = [c for c in text if not c.isspace()]
    if t.scheme == "char_unigram" or len(chars) == 1:
        return chars
    return [chars[i] + chars[i + 1] for i in range(len(chars) - 1)]


@dataclass
class BM25Index:
    tokenizer: Tokenizer
    k1: float
    b: float
    doc_ids: list[str]
    doc_lengths: np.ndarray  # (N,) int64 token counts
    avgdl: float
    postings: dict[str, tuple[np.ndarray, np.ndarray]]  # term -> (doc indexes, tfs)

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def idf(self, term: str) -> float:
        entry = self.postings.get(term)
        df = len(entry[0]) if entry is not None else 0
        return math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)


def build_bm25(
    corpus: Iterable[CorpusRecord],
    t: Tokenizer,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> BM25Index:
    if k1 < 0:
        raise ValueError("k1 must be >= 0")
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must be in [0, 1]")
    doc_ids: list[str] = []
    lengths: list[int] = []
    raw_postings: dict[str, list[tuple[int, int]]] = {}
    seen: set[str] = set()
    for record in corpus:
        if record.id in seen:
            raise DuplicateDocId(f"duplicate id {record.id!r}")
        seen.add(record.id)
        idx = len(doc_ids)
        doc_ids.append(record.id)
        tokens = tokenize(record.text, t)
        lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            raw_postings.setdefault(term, []).append((idx, tf))
    postings = {
        term: (
            np.array([d for d, _ in entries], dtype=np.int64),
            np.array([tf for _, tf in entries], dtype=np.int64),
        )
        for term, entries in raw_postings.items()
    }
    doc_lengths = np.array(lengths, dtype=np.int64)
    avgdl = float(doc_lengths.mean()) if len(doc_ids) else 0.0
    return BM25Index(
        tokenizer=t,
        k1=k1,
        b=b,
        doc_ids=doc_ids,
        doc_lengths=doc_lengths,
        avgdl=avgdl,
        postings=postings,
    )


def search_bm25(
    index: BM25Index, query: str, t: Tokenizer, k: int, query_id: str = ""
) -> RankedList:
    """Top-k matching documents; a query matching nothing gives an empty list."""
    if t != index.tokenizer:
        raise ConfigError(
            f"query tokenizer {t} differs from index tokenizer {index.tokenizer}"
        )
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = np.zeros(index.n_docs, dtype=np.float64)
    matched = np.zeros(index.n_docs, dtype=bool)
    for term in tokenize(query, t):
        entry = index.postings.get(term)
        if entry is None:
            continue
        docs, tfs = entry
        idf = index.idf(term)
        tf = tfs.astype(np.float64)
        norm = 1.0 - index.b + index.b * index.doc_lengths[docs] / index.avgdl
        scores[docs] += idf * tf * (index.k1 + 1.0) / (tf + index.k1 * norm)
        matched[docs] = True
    hit = np.flatnonzero(matched)
    if hit.size == 0:
        return RankedList(query_id=query_id)
    return ranked_from_scores(query_id, [index.doc_ids[i] for i in hit], scores[hit], k=k)


def save_bm25(index: BM25Index, directory: str | Path) -> None:
    terms = sorted(index.postings)
    docs, tfs = zip(*(index.postings[term] for term in terms)) if terms else ((), ())
    counts = [0] + [d.size for d in docs]
    postings = [*pack_strings(terms), np.cumsum(counts, dtype=np.int64),
                np.concatenate([np.zeros(0, np.int64), *docs]),
                np.concatenate([np.zeros(0, np.int64), *tfs])]
    doclens = [*pack_strings(index.doc_ids), index.doc_lengths]
    meta = {
        "mode": "bm25",
        "scheme": index.tokenizer.scheme,
        "lowercase": index.tokenizer.lowercase,
        "k1": index.k1,
        "b": index.b,
        "doc_count": index.n_docs,
        "term_count": len(index.postings),
        "avgdl": index.avgdl,
    }
    files = {"postings.bin": (POSTINGS_MAGIC, postings), "doclens.bin": (DOCLENS_MAGIC, doclens)}
    save_index(directory, meta, files)


def load_bm25(directory: str | Path) -> BM25Index:
    directory = Path(directory)
    number = (int, float)
    keys = {"scheme": str, "lowercase": bool, "doc_count": int, "term_count": int,
            "k1": number, "b": number, "avgdl": number}
    meta = read_index_meta(directory, "bm25", keys)
    check_format(meta["scheme"] in SCHEMES, directory, f"unknown tokenizer {meta['scheme']!r}")
    tokenizer = Tokenizer(scheme=meta["scheme"], lowercase=meta["lowercase"])
    n_docs, n_terms = meta["doc_count"], meta["term_count"]

    path = directory / "doclens.bin"
    id_blob, id_offsets, doc_lengths = read_arrays(
        path, DOCLENS_MAGIC, INDEX_FORMAT_VERSION, ["u1", "<i8", "<i8"]
    )
    doc_ids = unpack_strings(id_blob, id_offsets, path)
    shapes = (len(doc_ids), doc_lengths.shape)
    check_format(shapes == (n_docs, (n_docs,)), path, f"shapes {shapes} disagree with meta.json")

    path = directory / "postings.bin"
    term_blob, term_offsets, bounds, docs, tfs = read_arrays(
        path, POSTINGS_MAGIC, INDEX_FORMAT_VERSION, ["u1", "<i8", "<i8", "<i8", "<i8"]
    )
    terms = unpack_strings(term_blob, term_offsets, path)
    shapes = (len(terms), bounds.shape, docs.shape, tfs.shape)
    want = (n_terms, (n_terms + 1,), (docs.size,), (docs.size,))
    check_format(shapes == want, path, f"shapes {shapes} disagree with meta.json {want}")
    check_offsets(bounds, docs.size, path, "posting offsets")
    in_range = docs.size == 0 or (docs.min() >= 0 and docs.max() < n_docs)
    check_format(bool(in_range), path, f"posting doc index outside [0, {n_docs})")
    cuts = bounds.tolist()
    return BM25Index(
        tokenizer=tokenizer,
        k1=float(meta["k1"]),
        b=float(meta["b"]),
        doc_ids=doc_ids,
        doc_lengths=doc_lengths,
        avgdl=float(meta["avgdl"]),
        postings={t: (docs[lo:hi], tfs[lo:hi]) for t, lo, hi in zip(terms, cuts, cuts[1:])},
    )
