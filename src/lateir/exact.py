"""Flat exact late-interaction search over an embedding store.

Documents are stored as one concatenated token matrix (in float32 or
float16) indexed by a ``store.TokenTable``.  A search scores every document:
similarities are computed in float64 regardless of storage precision, so
16-bit storage only affects the vectors, never the arithmetic.

Index directory layout: ``meta.json`` (mode ``exact``, see ``store.save_index``)
and ``tokens.bin``, an array container (magic LIEX) of the token table's
records and the token rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ranking import RankedList, ranked_from_scores
from .scoring import check_query, maxsim_per_doc
from .store import PRECISION_DTYPES, EmbeddingStore, TokenTable, check_format, read_index_meta
from .store import read_table, save_index, stack_store

EXACT_MAGIC = b"LIEX"


@dataclass
class ExactIndex(TokenTable):
    dim: int
    precision: str
    tokens: np.ndarray  # (total_tokens, dim) in storage precision
    _tokens64: np.ndarray | None = field(default=None, repr=False)

    def tokens_f64(self) -> np.ndarray:
        if self._tokens64 is None:
            self._tokens64 = self.tokens.astype(np.float64)
        return self._tokens64


def build_exact(store: EmbeddingStore, precision: str = "float16") -> ExactIndex:
    """Build a flat index covering every document once, cast to `precision`."""
    tokens, table = stack_store(store, PRECISION_DTYPES[precision])
    return ExactIndex(**vars(table), dim=store.dim, precision=precision, tokens=tokens)


def search_exact(
    index: ExactIndex, q: np.ndarray, k: int, query_id: str = ""
) -> RankedList:
    """Top-min(k, N) documents by maxsim, scoring every document exactly once."""
    q = check_query(q, index.dim)
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = maxsim_per_doc(q @ index.tokens_f64().T, index.offsets)
    return ranked_from_scores(query_id, index.doc_ids, scores, k=k)


def save_exact(index: ExactIndex, directory: str | Path) -> None:
    meta = {
        "mode": "exact",
        "dim": index.dim,
        "precision": index.precision,
        "doc_count": index.n_docs,
        "token_count": index.total_tokens,
    }
    arrays = [*index.table_arrays(), index.tokens]
    save_index(directory, meta, {"tokens.bin": (EXACT_MAGIC, arrays)})


def load_exact(directory: str | Path) -> ExactIndex:
    directory = Path(directory)
    keys = {"precision": str, "doc_count": int, "token_count": int, "dim": int}
    meta = read_index_meta(directory, "exact", keys)
    path, precision = directory / "tokens.bin", meta["precision"]
    check_format(precision in PRECISION_DTYPES, path, f"unknown precision {precision!r}")
    table, tokens = read_table(path, EXACT_MAGIC, [TokenTable, PRECISION_DTYPES[precision]], meta)
    want = (meta["token_count"], meta["dim"])
    check_format(tokens.shape == want, path, f"shape {tokens.shape} disagrees with meta {want}")
    return ExactIndex(**vars(table), dim=meta["dim"], precision=precision, tokens=tokens)
