"""Shared synthetic-data helpers for the test suite."""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from lateir.store import (
    PRECISION_DTYPES,
    EmbeddingStore,
    StoreManifest,
    normalize_matrix,
    read_embedding_file,
    write_arrays,
)


def unit_rows(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    """Random unit-norm row matrix, float64."""
    g = rng.standard_normal((rows, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def perturb_rows(
    rng: np.random.Generator, base: np.ndarray, rows: int, radius: float
) -> np.ndarray:
    """Unit rows scattered around `base` with chordal noise of the given radius."""
    dim = base.shape[-1]
    out = base + (radius / np.sqrt(dim)) * rng.standard_normal((rows, dim))
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def store_from_matrices(
    matrices: dict[str, np.ndarray],
    precision: str = "float32",
    kind: str = "document",
) -> EmbeddingStore:
    """In-memory store with rows normalized in the target precision."""
    dtype = PRECISION_DTYPES[precision]
    entries = {k: normalize_matrix(m).astype(dtype) for k, m in matrices.items()}
    dim = next(iter(entries.values())).shape[1] if entries else 0
    return EmbeddingStore(
        dim=dim,
        precision=precision,
        kind=kind,
        entries=entries,
        manifest=StoreManifest("synthetic", "1970-01-01T00:00:00+00:00", len(entries)),
    )


def random_store(
    rng: np.random.Generator,
    n_docs: int,
    dim: int,
    min_tokens: int = 1,
    max_tokens: int = 16,
    precision: str = "float32",
    kind: str = "document",
    id_prefix: str = "d",
) -> EmbeddingStore:
    matrices = {}
    width = len(str(max(n_docs - 1, 1)))
    for i in range(n_docs):
        rows = int(rng.integers(min_tokens, max_tokens + 1))
        matrices[f"{id_prefix}{i:0{width}d}"] = unit_rows(rng, rows, dim)
    return store_from_matrices(matrices, precision=precision, kind=kind)


def store_with_empty_doc(rng: np.random.Generator, dim: int = 8) -> EmbeddingStore:
    """A store of documents with 3, 2 and 0 rows, the empty one last: its constructor
    raises FormatError."""
    entries = {"a": unit_rows(rng, 3, dim), "b": unit_rows(rng, 2, dim), "c": np.zeros((0, dim))}
    return EmbeddingStore(dim=dim, precision="float32", kind="document",
                          entries={k: m.astype(np.float32) for k, m in entries.items()},
                          manifest=StoreManifest("synthetic", "", 3))


# queries that search must reject with FormatError
BAD_QUERIES = {
    "nan": np.full((2, 8), np.nan),
    "inf": np.vstack([np.eye(8)[:1], np.full((1, 8), np.inf)]),
    "zero-rows": np.zeros((0, 8)),
}


def family_corpus(
    rng: np.random.Generator,
    n_docs: int,
    tokens_per_doc: int,
    dim: int,
    family_size: int = 20,
    ident_radius: tuple[float, float] = (0.08, 0.5),
    token_radius: float = 0.5,
    precision: str = "float16",
) -> tuple[EmbeddingStore, np.ndarray]:
    """Clustered corpus: families of documents with graded identities.

    Each family shares an anchor direction; each document gets an identity
    at a random chordal radius from the anchor, and its tokens scatter
    around that identity.  Returns (store, per-document identities).
    """
    n_families = (n_docs + family_size - 1) // family_size
    anchors = unit_rows(rng, n_families, dim)
    dtype = PRECISION_DTYPES[precision]
    entries: dict[str, np.ndarray] = {}
    identities = np.empty((n_docs, dim))
    width = len(str(n_docs - 1))
    for i in range(n_docs):
        radius = float(rng.uniform(*ident_radius))
        identity = perturb_rows(rng, anchors[i // family_size], 1, radius)[0]
        identities[i] = identity
        entries[f"d{i:0{width}d}"] = perturb_rows(
            rng, identity, tokens_per_doc, token_radius
        ).astype(dtype)
    store = EmbeddingStore(
        dim=dim,
        precision=precision,
        kind="document",
        entries=entries,
        manifest=StoreManifest("synthetic", "1970-01-01T00:00:00+00:00", n_docs),
    )
    return store, identities


def family_queries(
    rng: np.random.Generator,
    identities: np.ndarray,
    n_queries: int,
    tokens_per_query: int,
    radius: float = 0.4,
) -> dict[str, np.ndarray]:
    """Queries aimed at random documents' identities."""
    out = {}
    width = len(str(max(n_queries - 1, 1)))
    for i in range(n_queries):
        target = int(rng.integers(0, identities.shape[0]))
        out[f"q{i:0{width}d}"] = perturb_rows(
            rng, identities[target], tokens_per_query, radius
        )
    return out


def file_entries(path: Path) -> tuple[int, str, list[tuple[str, np.ndarray]]]:
    """(dim, precision, [(id, rows)]) of an embedding file, each rows a copy to edit."""
    table, tokens = read_embedding_file(path)
    bounds = table.offsets.tolist()
    rows = [tokens[lo:hi].copy() for lo, hi in zip(bounds, bounds[1:])]
    return tokens.shape[1], tokens.dtype.name, list(zip(table.doc_ids, rows))


def dir_bytes(directory: Path) -> dict[str, bytes]:
    """{name: bytes} of every file in a directory."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def fail_on_call(real: Callable, n: int) -> Callable:
    """real, except that its n-th call raises OSError instead."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        if len(calls) == n:
            raise OSError("disk full")
        return real(*args, **kwargs)

    return wrapper


def read_container(path: Path) -> tuple[bytes, int, list[np.ndarray]]:
    """(magic, version, arrays) of an array container, read without any checks."""
    with open(path, "rb") as fh:
        magic, version, count = struct.unpack("<4sII", fh.read(12))
        return magic, version, [np.lib.format.read_array(fh) for _ in range(count)]


def set_item(i: int, value) -> Callable[[np.ndarray], np.ndarray]:
    """An edit for edit_container that sets array[i] = value."""

    def edit(a: np.ndarray) -> np.ndarray:
        a[i] = value
        return a

    return edit


def edit_container(path: Path, index: int, edit: Callable[[np.ndarray], np.ndarray]) -> None:
    """Replace array `index` of an array container by edit(array)."""
    magic, version, arrays = read_container(path)
    arrays[index] = edit(arrays[index].copy())
    write_arrays(path, magic, version, arrays)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240612)
