"""Lexical retrieval: pluggable tokenization, inverted index, BM25 ranking.

The default tokenizer is character bigrams over Unicode codepoints with all
whitespace removed, which needs no morphological analysis and works for
Japanese as well as space-delimited text.  Scoring uses

    idf(t) = ln((N - df + 0.5) / (df + 0.5) + 1)
    score(q, d) = sum over query tokens of
        idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avgdl))

with k1 = 0.9 and b = 0.4 by default; building or loading an index requires
a finite k1 >= 0 and b in [0, 1].  The +1 inside the log keeps idf
non-negative.  Repeated query tokens contribute once per occurrence.

Index directory layout: ``postings.bin``, an array container (magic LIBP, see
``store.save_index``) of the parameters (tokenizer ``scheme`` and
``lowercase``, ``k1``, ``b``), the sorted terms, int64 posting offsets, doc
indexes ascending within each term, term frequencies >= 1, then the doc ids.
In memory an index is these arrays plus one term -> row dict; document lengths
and avgdl are derived from the postings, never stored, and the per-term
``postings`` views are built only when first read.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, DuplicateDocId, FormatError
from .ranking import RankedList, ranked_from_scores
from .store import CorpusRecord, check_format, check_offsets, pack_strings, read_index
from .store import save_index, unpack_strings

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
    """What postings.bin holds: the postings of terms[i] are docs and tfs at
    bounds[i]:bounds[i + 1].  rows (term -> i), doc_lengths (sums of tfs) and avgdl
    are derived in __post_init__, the term -> (docs, tfs) postings on first read."""

    tokenizer: Tokenizer
    k1: float
    b: float
    doc_ids: list[str]
    terms: list[str]  # sorted
    bounds: np.ndarray  # (T + 1,) int64 posting offsets
    docs: np.ndarray  # int64 doc indexes
    tfs: np.ndarray  # int64 term frequencies
    rows: dict[str, int] = field(init=False, repr=False)  # term -> its i in terms
    doc_lengths: np.ndarray = field(init=False, repr=False)  # (N,) int64 token counts
    avgdl: float = field(init=False)

    def __post_init__(self):
        self.rows = dict(zip(self.terms, range(len(self.terms))))
        self.doc_lengths = np.zeros(self.n_docs, dtype=np.int64)
        np.add.at(self.doc_lengths, self.docs, self.tfs)  # int64 sums, no float64 copy of tfs
        self.avgdl = float(self.doc_lengths.mean()) if self.n_docs else 0.0

    @cached_property
    def postings(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        cuts = self.bounds.tolist()
        return {t: (self.docs[i:j], self.tfs[i:j]) for t, i, j in zip(self.terms, cuts, cuts[1:])}

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def idf(self, term: str) -> float:
        row = self.rows.get(term)
        df = 0 if row is None else int(self.bounds[row + 1] - self.bounds[row])
        return math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)


def _check_params(k1: float, b: float) -> None:
    """ValueError unless k1 is finite and >= 0 and b is in [0, 1] (NaN is neither)."""
    if not 0.0 <= k1 < math.inf:
        raise ValueError(f"k1 must be finite and >= 0, got {k1!r}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must be in [0, 1], got {b!r}")


def build_bm25(corpus: Iterable[CorpusRecord], t: Tokenizer, k1: float = DEFAULT_K1,
               b: float = DEFAULT_B) -> BM25Index:
    _check_params(k1, b)
    doc_ids: list[str] = []
    seen: set[str] = set()
    first: dict[str, int] = {}  # term -> number in order of first occurrence
    keys, docs, tfs = [], [], []  # one posting per distinct term of each document
    for record in corpus:
        if record.id in seen:
            raise DuplicateDocId(f"duplicate id {record.id!r}")
        seen.add(record.id)
        counts = Counter(tokenize(record.text, t))
        keys += [first.setdefault(term, len(first)) for term in counts]
        docs += [len(doc_ids)] * len(counts)
        tfs += counts.values()
        doc_ids.append(record.id)
    vocab = sorted(first)
    rank = np.empty(len(vocab), dtype=np.int64)  # first-occurrence number -> sorted position
    rank[[first[term] for term in vocab]] = np.arange(len(vocab))
    keys = rank[np.array(keys, dtype=np.int64)]
    order = np.argsort(keys, kind="stable")  # doc indexes stay ascending within a term
    bounds = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=len(vocab)), out=bounds[1:])
    return BM25Index(t, k1, b, doc_ids, vocab, bounds,
                     np.array(docs, dtype=np.int64)[order], np.array(tfs, dtype=np.int64)[order])


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
        row = index.rows.get(term)
        if row is None:
            continue
        lo, hi = index.bounds[row:row + 2].tolist()
        docs, tfs = index.docs[lo:hi], index.tfs[lo:hi]
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
    postings = [*pack_strings(index.terms), index.bounds, index.docs, index.tfs,
                *pack_strings(index.doc_ids)]
    t = index.tokenizer
    params = {"scheme": t.scheme, "lowercase": t.lowercase, "k1": index.k1, "b": index.b}
    save_index(directory, "bm25", params, postings)


def load_bm25(directory: str | Path) -> BM25Index:
    keys = {"scheme": str, "lowercase": bool, "k1": (int, float), "b": (int, float)}
    dtypes = ["u1", "<i8", "<i8", "<i8", "<i8", "u1", "<i8"]
    path, params, (term_blob, term_offsets, bounds, docs, tfs, id_blob, id_offsets) = read_index(
        directory, "bm25", keys, dtypes)
    check_format(params["scheme"] in SCHEMES, path, f"unknown tokenizer {params['scheme']!r}")
    try:
        _check_params(params["k1"], params["b"])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    terms = unpack_strings(term_blob, term_offsets, path)
    doc_ids = unpack_strings(id_blob, id_offsets, path)
    n_docs, shapes = len(doc_ids), (bounds.shape, docs.shape, tfs.shape)
    want = ((len(terms) + 1,), (docs.size,), (docs.size,))
    check_format(shapes == want, path, f"shapes {shapes} disagree with {len(terms)} terms {want}")
    check_offsets(bounds, docs.size, path, "posting offsets", min_step=1)
    in_range = docs.size == 0 or (docs.min() >= 0 and docs.max() < n_docs)
    check_format(bool(in_range), path, f"posting doc index outside [0, {n_docs})")
    check_format(bool(np.all(tfs >= 1)), path, "term frequency below 1")
    rising = docs[1:] > docs[:-1]
    rising[bounds[1:-1] - 1] = True  # each list's first doc index may be any
    check_format(bool(rising.all()), path, "doc indexes not strictly ascending in a posting list")
    return BM25Index(Tokenizer(params["scheme"], params["lowercase"]), float(params["k1"]),
                     float(params["b"]), doc_ids, terms, bounds, docs, tfs)
