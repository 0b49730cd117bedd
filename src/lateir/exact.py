"""Flat exact late-interaction search over an embedding store.

Documents are stored as one concatenated token matrix (in float32 or
float16) indexed by a ``store.TokenTable``.  A search scores every document:
similarities are computed in float64 regardless of storage precision, so
16-bit storage only affects the vectors, never the arithmetic.

Index directory layout: ``tokens.bin``, an array container (magic LIEX, see
``store.save_index``) of the parameters ``{}``, the token table's records and
the token rows, whose dtype (float16 or float32) is the index's precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyStore
from .ranking import RankedList, ranked_from_scores
from .scoring import check_query, maxsim_per_doc
from .store import PRECISION_DTYPES, EmbeddingStore, TokenTable, check_format, read_table
from .store import save_index


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
    if not len(store):
        raise EmptyStore("cannot index an empty store")
    tokens = store.tokens.astype(PRECISION_DTYPES[precision], copy=False)
    return ExactIndex(store.doc_ids, store.offsets, store.dim, precision, tokens)


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
    save_index(directory, "exact", {}, [*index.table_arrays(), index.tokens])


def load_exact(directory: str | Path) -> ExactIndex:
    records = [TokenTable, tuple(PRECISION_DTYPES.values())]
    path, _, (table, tokens) = read_table(directory, "exact", {}, records)
    ok = tokens.ndim == 2 and len(tokens) == table.total_tokens
    check_format(ok, path, f"token rows of shape {tokens.shape} for {table.total_tokens} tokens")
    return ExactIndex(**vars(table), dim=tokens.shape[1], precision=tokens.dtype.name,
                      tokens=tokens)
