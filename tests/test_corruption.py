"""Damaged index files: every loader fails with an EngineError, never a bare error."""

import re
import shutil

import numpy as np
import pytest

from lateir.bm25 import Tokenizer, build_bm25, load_bm25, save_bm25
from lateir.compressed import compress, load_compressed, save_compressed, train_codebook
from lateir.errors import EngineError
from lateir.exact import build_exact, load_exact, save_exact
from lateir.store import CorpusRecord

from conftest import random_store

LOADERS = {"exact": load_exact, "compressed": load_compressed, "bm25": load_bm25}
FILES = [
    ("exact", "tokens.bin"),
    ("compressed", "codebook.bin"),
    ("compressed", "residuals.bin"),
    ("bm25", "postings.bin"),
    ("bm25", "doclens.bin"),
]
SHAPE_KEY = b"'shape': ("


@pytest.fixture(scope="module")
def indexes(tmp_path_factory):
    rng = np.random.default_rng(7)
    store = random_store(rng, 12, 8, min_tokens=2, max_tokens=6)
    root = tmp_path_factory.mktemp("indexes")
    save_exact(build_exact(store, "float16"), root / "exact")
    codebook = train_codebook(store, k=8, iterations=2, seed=0)
    save_compressed(compress(store, codebook), root / "compressed")
    corpus = [CorpusRecord(doc_id, f"東京 {doc_id} ab cd") for doc_id in store.doc_ids]
    save_bm25(build_bm25(corpus, Tokenizer()), root / "bm25")
    return root


def _damaged_copies(indexes, tmp_path, kind, name, variants):
    """Yield an index directory once per variant of the named file's bytes."""
    work = tmp_path / kind
    shutil.copytree(indexes / kind, work)
    for data in variants:
        (work / name).write_bytes(data)
        yield work


def inflate_shape(data: bytes, record: int) -> bytes:
    """Prefix a 9 to the first dimension in the record-th .npy header.

    One padding space before the header's newline is dropped so the header
    keeps its length and the records after it stay where they were.
    """
    start = [m.end() for m in re.finditer(re.escape(SHAPE_KEY), data)][record]
    newline = data.index(b"\n", start)
    assert data[newline - 1 : newline] == b" "
    return data[:start] + b"9" + data[start : newline - 1] + data[newline:]


@pytest.mark.parametrize("kind, name", FILES)
def test_truncated_file(indexes, tmp_path, kind, name):
    data = (indexes / kind / name).read_bytes()
    # every cut through the container header and the first .npy header, then a spread
    cuts = sorted(set(range(160)) | set(np.linspace(0, len(data) - 1, 60).astype(int)))
    variants = (data[:cut] for cut in cuts if cut < len(data))
    for work in _damaged_copies(indexes, tmp_path, kind, name, variants):
        with pytest.raises(EngineError):
            LOADERS[kind](work)


@pytest.mark.parametrize("kind, name", FILES)
def test_inflated_shape(indexes, tmp_path, kind, name):
    data = (indexes / kind / name).read_bytes()
    records = data.count(SHAPE_KEY)
    assert records >= 1
    variants = (inflate_shape(data, r) for r in range(records))
    for work in _damaged_copies(indexes, tmp_path, kind, name, variants):
        with pytest.raises(EngineError):
            LOADERS[kind](work)


@pytest.mark.parametrize("kind, name", FILES)
def test_flipped_bytes(indexes, tmp_path, kind, name):
    data = (indexes / kind / name).read_bytes()
    rng = np.random.default_rng(len(data))
    positions = sorted(set(range(min(len(data), 200))) | set(rng.integers(0, len(data), 200).tolist()))

    def flipped():
        for pos in positions:
            damaged = bytearray(data)
            damaged[pos] ^= 0xFF
            yield bytes(damaged)

    for work in _damaged_copies(indexes, tmp_path, kind, name, flipped()):
        try:
            LOADERS[kind](work)
        except EngineError:
            pass
