"""Flat exact late-interaction search over an embedding store.

Documents are stored as one concatenated token matrix (in float32 or
float16) plus per-document offsets.  A search scores every document:
similarities are computed in float64 regardless of storage precision, so
16-bit storage only affects the vectors, never the arithmetic.

Index directory layout: ``meta.json`` (mode ``exact``, see ``store.save_index``)
and ``tokens.bin``, an array container (magic LIEX) of doc ids, int64 token
offsets and the token rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ranking import RankedList, ranked_from_scores
from .scoring import check_query
from .store import INDEX_FORMAT_VERSION, PRECISION_DTYPES, EmbeddingStore, check_format
from .store import check_offsets, pack_strings, read_arrays, read_index_meta, save_index
from .store import stack_store, unpack_strings

EXACT_MAGIC = b"LIEX"


@dataclass
class ExactIndex:
    dim: int
    precision: str
    doc_ids: list[str]
    tokens: np.ndarray  # (total_tokens, dim) in storage precision
    offsets: np.ndarray  # (n_docs + 1,) int64 token offsets per document
    _tokens64: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def tokens_f64(self) -> np.ndarray:
        if self._tokens64 is None:
            self._tokens64 = self.tokens.astype(np.float64)
        return self._tokens64


def build_exact(store: EmbeddingStore, precision: str = "float16") -> ExactIndex:
    """Build a flat index covering every document once, cast to `precision`."""
    tokens, offsets, doc_ids = stack_store(store, PRECISION_DTYPES[precision])
    return ExactIndex(
        dim=store.dim, precision=precision, doc_ids=doc_ids, tokens=tokens, offsets=offsets
    )


def search_exact(
    index: ExactIndex, q: np.ndarray, k: int, query_id: str = ""
) -> RankedList:
    """Top-min(k, N) documents by maxsim, scoring every document exactly once."""
    q = check_query(q, index.dim)
    if k < 1:
        raise ValueError("k must be >= 1")
    sims = q @ index.tokens_f64().T  # (q_tokens, total_doc_tokens)
    per_doc_max = np.maximum.reduceat(sims, index.offsets[:-1], axis=1)
    scores = per_doc_max.sum(axis=0)
    return ranked_from_scores(query_id, index.doc_ids, scores, k=k)


def save_exact(index: ExactIndex, directory: str | Path) -> None:
    meta = {
        "mode": "exact",
        "dim": index.dim,
        "precision": index.precision,
        "doc_count": index.n_docs,
        "token_count": int(index.offsets[-1]),
    }
    arrays = [*pack_strings(index.doc_ids), index.offsets, index.tokens]
    save_index(directory, meta, {"tokens.bin": (EXACT_MAGIC, arrays)})


def load_exact(directory: str | Path) -> ExactIndex:
    directory = Path(directory)
    keys = {"precision": str, "doc_count": int, "token_count": int, "dim": int}
    meta = read_index_meta(directory, "exact", keys)
    path, precision, n_docs = directory / "tokens.bin", meta["precision"], meta["doc_count"]
    check_format(precision in PRECISION_DTYPES, path, f"unknown precision {precision!r}")
    dtypes = ["u1", "<i8", "<i8", PRECISION_DTYPES[precision]]
    id_blob, id_offsets, offsets, tokens = read_arrays(path, EXACT_MAGIC, INDEX_FORMAT_VERSION, dtypes)
    doc_ids = unpack_strings(id_blob, id_offsets, path)
    shapes = (len(doc_ids), offsets.shape, tokens.shape)
    want = (n_docs, (n_docs + 1,), (meta["token_count"], meta["dim"]))
    check_format(shapes == want, path, f"shapes {shapes} disagree with meta.json {want}")
    check_offsets(offsets, len(tokens), path, "token offsets", min_step=1)
    return ExactIndex(
        dim=meta["dim"], precision=precision, doc_ids=doc_ids, tokens=tokens, offsets=offsets
    )
