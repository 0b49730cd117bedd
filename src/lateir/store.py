"""Token-embedding data model, normalization, and on-disk formats.

A token matrix is a plain ``(rows, dim)`` numpy array, one unit-normalized
row per token.  Documents may carry at most 512 tokens, queries at most 64.

Embedding file format (little-endian throughout)::

    header:  magic b"LIEM" | u32 version (=1) | u32 dim
             | u8 precision (0 = float32, 1 = float16) | u64 entry count
    entry:   u16 id length | id bytes (UTF-8) | u16 token count
             | token_count * dim values in the declared precision, row-major

A persisted store is a directory holding ``embeddings.bin`` in that format
plus ``manifest.json``.

Stores and the exact and compressed indexes are TokenTables: doc ids plus
int64 token offsets, document i owning token rows offsets[i]:offsets[i + 1]
of one token matrix.  An index saves its table as three container records
(``table_arrays``), read and checked against ``meta.json`` by ``read_table``.
In memory, a store is that matrix in the store's precision, its table, and a
read-only ``entries`` view (id -> rows); ingestion normalizes the matrix in
blocks of ``_ROW_BLOCK`` rows, and both it and ``load_store`` reject zero-norm
rows and NaN or infinite values.

An index directory holds array containers plus ``meta.json``, which records
its ``mode`` and ``format_version`` (``save_index`` / ``read_index_meta``);
a BM25 index is one container, ``postings.bin`` (see ``bm25``).
Every index file is an array container: magic (4 bytes) | u32 format
version | u32 array count, then one ``.npy`` record per array.
Strings are stored as a UTF-8 blob (uint8) plus int64 byte offsets, and a
record's strings must be distinct.
Stores, containers, JSON metadata and text outputs are written to a temporary
sibling, then renamed; ``read_json`` checks each metadata key's JSON type.

Every line-oriented text file (runs, qrels, pairs, teacher scores, corpus,
negatives and n-way JSONL) is read by ``read_rows`` or ``read_jsonl`` and
written by ``write_rows`` or ``write_jsonl``; a malformed line, invalid
UTF-8 included, raises ParseError with its line number.  Corpus files are
JSONL with one ``{"id": ..., "text": ...}`` object per line.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import tokenize
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DuplicateDocId, FormatError, LengthError, ParseError, ZeroVectorRow

EMBEDDING_MAGIC = b"LIEM"
EMBEDDING_FORMAT_VERSION = 1
INDEX_FORMAT_VERSION = 4
_HEADER = struct.Struct("<4sIIBQ")
_ARRAYS_HEADER = struct.Struct("<4sII")

MAX_DOC_TOKENS = 512
MAX_QUERY_TOKENS = 64
_ROW_BLOCK = 8192  # rows ingest normalizes at a time: bounds its float64 temporaries

PRECISION_DTYPES = {"float32": np.dtype("<f4"), "float16": np.dtype("<f2")}
_PRECISION_CODES = {"float32": 0, "float16": 1}
_CODE_PRECISIONS = {v: k for k, v in _PRECISION_CODES.items()}

KINDS = ("document", "query")


def token_limit(kind: str) -> int:
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    return MAX_DOC_TOKENS if kind == "document" else MAX_QUERY_TOKENS


@dataclass
class CorpusRecord:
    id: str
    text: str


@dataclass
class StoreManifest:
    corpus: str
    created: str
    entry_count: int


def normalize_matrix(m: np.ndarray) -> np.ndarray:
    """Unit-normalize every row of a token matrix.

    Directions are preserved; math runs in float64 and the result is
    float64.  Raises ZeroVectorRow for rows with norm below 1e-12.
    """
    v = np.asarray(m, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"expected a 2-d token matrix, got shape {v.shape}")
    norms = np.linalg.norm(v, axis=1)
    bad = np.flatnonzero(norms < 1e-12)
    if bad.size:
        raise ZeroVectorRow(int(bad[0]))
    return v / norms[:, None]


def write_embedding_file(
    path: str | Path,
    dim: int,
    precision: str,
    entries: Iterable[tuple[str, np.ndarray]],
) -> int:
    """Write entries to an embedding file through a temporary sibling (see
    _replacing); returns the entry count."""
    if precision not in PRECISION_DTYPES:
        raise ValueError(f"unknown precision {precision!r}")
    dtype = PRECISION_DTYPES[precision]
    entries = list(entries)
    with _replacing(path) as fh:
        fh.write(
            _HEADER.pack(
                EMBEDDING_MAGIC,
                EMBEDDING_FORMAT_VERSION,
                dim,
                _PRECISION_CODES[precision],
                len(entries),
            )
        )
        for doc_id, matrix in entries:
            matrix = np.asarray(matrix)
            if matrix.ndim != 2 or matrix.shape[1] != dim:
                raise FormatError(
                    f"entry {doc_id!r} has shape {matrix.shape}, expected (*, {dim})"
                )
            id_bytes = doc_id.encode("utf-8")
            fh.write(struct.pack("<H", len(id_bytes)))
            fh.write(id_bytes)
            fh.write(struct.pack("<H", matrix.shape[0]))
            fh.write(np.ascontiguousarray(matrix, dtype=dtype).tobytes())
    return len(entries)


def read_embedding_file(path: str | Path) -> tuple[int, str, list[tuple[str, np.ndarray]]]:
    """Read an embedding file, returning (dim, precision, entries)."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, dim, prec_code, count = _HEADER.unpack_from(data, 0)
    if magic != EMBEDDING_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != EMBEDDING_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if prec_code not in _CODE_PRECISIONS:
        raise FormatError(f"{path}: unknown precision code {prec_code}")
    if dim < 1:
        raise FormatError(f"{path}: invalid dim {dim}")
    precision = _CODE_PRECISIONS[prec_code]
    dtype = PRECISION_DTYPES[precision]

    entries: list[tuple[str, np.ndarray]] = []
    seen: set[str] = set()
    offset = _HEADER.size
    for _ in range(count):
        try:
            (id_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            doc_id = data[offset : offset + id_len].decode("utf-8")
            offset += id_len
            (rows,) = struct.unpack_from("<H", data, offset)
            offset += 2
            nbytes = rows * dim * dtype.itemsize
            if offset + nbytes > len(data):
                raise FormatError(f"{path}: truncated entry {doc_id!r}")
            matrix = np.frombuffer(data, dtype=dtype, count=rows * dim, offset=offset)
            offset += nbytes
        except (struct.error, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: corrupt entry table: {exc}") from exc
        if rows < 1:
            raise FormatError(f"{path}: entry {doc_id!r} has zero tokens")
        if doc_id in seen:
            raise FormatError(f"{path}: duplicate id {doc_id!r}")
        seen.add(doc_id)
        entries.append((doc_id, matrix.reshape(rows, dim)))
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing bytes")
    return dim, precision, entries


@contextmanager
def _replacing(path: str | Path, text: bool = False):
    """A binary (or UTF-8 text) handle on a temporary sibling that is renamed over
    path on success, so a write that fails part way leaves any previous file intact."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w" if text else "wb", encoding="utf-8" if text else None) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """Pretty-printed, key-sorted JSON plus a newline, so equal objects give equal bytes."""
    with _replacing(path) as fh:
        fh.write((json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def read_json(path: str | Path, keys: Mapping[str, type | tuple[type, ...]]) -> dict:
    """A JSON object holding every key in keys with a value of the given type(s),
    a bool counting only as a bool; FormatError naming path otherwise."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path}: unreadable JSON: {exc}") from exc
    check_format(isinstance(obj, dict), path, "not a JSON object")
    _check_keys(obj, path, keys)
    return obj


def _check_keys(obj: dict, path: str | Path, keys: Mapping[str, type | tuple[type, ...]]):
    for key, types in keys.items():
        value, name = obj.get(key), getattr(types, "__name__", "number")
        ok = isinstance(value, types) and (types is bool or not isinstance(value, bool))
        check_format(ok, path, f"key {key!r} missing or not of type {name}")


def save_index(directory: str | Path, meta: dict, files: Mapping[str, tuple[bytes, Sequence]]):
    """Write array containers {name: (magic, arrays)}, then meta.json plus format_version."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, (magic, arrays) in files.items():
        write_arrays(directory / name, magic, INDEX_FORMAT_VERSION, arrays)
    write_json(directory / "meta.json", {**meta, "format_version": INDEX_FORMAT_VERSION})


def _index_meta_path(directory: str | Path) -> Path:
    """directory/meta.json; FormatError asking for a rebuild for an exact index from
    before format 3, which named it index-meta.json."""
    path = Path(directory) / "meta.json"
    old = path.with_name("index-meta.json")
    check_format(path.exists() or not old.exists(), old, "format before 3; rebuild the index")
    return path


def read_index_meta(directory: str | Path, mode: str, keys: Mapping) -> dict:
    """An index directory's meta.json holding keys (see read_json); FormatError
    unless it also records INDEX_FORMAT_VERSION and `mode`."""
    path = _index_meta_path(directory)
    meta = read_json(path, {"format_version": int})
    version = meta["format_version"]
    check_format(version == INDEX_FORMAT_VERSION, path, f"version {version}; rebuild the index")
    check_format(meta.get("mode") == mode, path, f"mode {meta.get('mode')!r}, expected {mode!r}")
    _check_keys(meta, path, keys)
    return meta


def index_mode(directory: str | Path) -> str:
    """The mode (exact, compressed or bm25) recorded in an index directory's meta.json."""
    return read_json(_index_meta_path(directory), {"mode": str})["mode"]


@contextmanager
def _reading(path: str | Path):
    """A UTF-8 text handle on path; invalid UTF-8 is a ParseError at its line."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            bad = (n for n, line in enumerate(fh, start=1) if re.search("[\udc80-\udcff]", line))
            raise ParseError("invalid UTF-8", next(bad, None)) from exc


def read_rows(path: str | Path, fields: int, sep: str | None = None
              ) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for each non-blank line, split on whitespace or on sep;
    ParseError with the line number for a line without exactly `fields` fields."""
    with _reading(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(sep)
            if len(parts) != fields:
                if parts and parts != [""]:
                    raise ParseError(f"expected {fields} fields, got {len(parts)}", lineno)
                continue
            yield lineno, parts


def write_rows(path: str | Path, rows: Iterable[Sequence[str]]) -> None:
    """One tab-separated line per row."""
    with _replacing(path, text=True) as fh:
        fh.writelines("\t".join(row) + "\n" for row in rows)


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSONL file; ParseError
    with the line number for invalid JSON or a line that is not an object."""
    with _reading(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", lineno) from exc
            if not isinstance(obj, dict):
                raise ParseError(f"expected a JSON object, got {type(obj).__name__}", lineno)
            yield lineno, obj


def write_jsonl(path: str | Path, objs: Iterable[dict]) -> int:
    """One ensure_ascii=False JSON object per line; returns the count."""
    count = 0
    with _replacing(path, text=True) as fh:
        for obj in objs:
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
            count += 1
    return count


def check_format(cond: bool, path: str | Path, message: str) -> None:
    """Raise FormatError naming path unless cond holds."""
    if not cond:
        raise FormatError(f"{path}: {message}")


def check_offsets(offsets: np.ndarray, end: int, path: str | Path, what: str, min_step: int = 0):
    """FormatError unless offsets is 1-d and runs from 0 to end in steps of >= min_step."""
    ok = offsets.ndim == 1 and offsets.size > 0 and offsets[0] == 0 and offsets[-1] == end
    check_format(ok and bool(np.all(np.diff(offsets) >= min_step)), path, f"bad {what}")


def write_arrays(path: str | Path, magic: bytes, version: int, arrays: Sequence[np.ndarray]):
    """Write an array container through a temporary sibling (see _replacing)."""
    with _replacing(path) as fh:
        fh.write(_ARRAYS_HEADER.pack(magic, version, len(arrays)))
        for array in arrays:
            np.lib.format.write_array(fh, np.ascontiguousarray(array), allow_pickle=False)


def read_arrays(path: str | Path, magic: bytes, version: int, dtypes: Sequence) -> list[np.ndarray]:
    """Read an array container holding one array per entry of dtypes.  Each
    record's dtype, order and size are checked before its data is read."""
    size = os.stat(path).st_size
    arrays = []
    with open(path, "rb") as fh:
        head = fh.read(_ARRAYS_HEADER.size)
        check_format(len(head) == _ARRAYS_HEADER.size, path, "truncated header")
        file_magic, file_version, count = _ARRAYS_HEADER.unpack(head)
        check_format(file_magic == magic, path, f"bad magic {file_magic!r}")
        check_format(file_version == version, path, f"version {file_version}; rebuild the index")
        check_format(count == len(dtypes), path, f"{count} arrays, expected {len(dtypes)}")
        for i, dtype in enumerate(map(np.dtype, dtypes)):
            try:  # numpy raises any of these for a malformed .npy header
                major, _ = np.lib.format.read_magic(fh)
                check_format(major in (1, 2), path, f"array {i}: .npy version {major}")
                read_header = getattr(np.lib.format, f"read_array_header_{major}_0")
                shape, fortran_order, file_dtype = read_header(fh)
                n = math.prod(shape)
                check_format(
                    file_dtype == dtype and not fortran_order and min(shape, default=0) >= 0
                    and n * dtype.itemsize <= size - fh.tell(),
                    path, f"array {i}: {file_dtype} {shape} in {size - fh.tell()} bytes",
                )
                arrays.append(np.fromfile(fh, dtype=dtype, count=n).reshape(shape))
            except (ValueError, SyntaxError, tokenize.TokenError) as exc:
                raise FormatError(f"{path}: array {i}: {exc}") from exc
        check_format(fh.tell() == size, path, "trailing bytes")
    return arrays


def pack_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Strings as a UTF-8 blob (uint8) plus n + 1 int64 byte offsets."""
    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.cumsum([0] + [len(b) for b in encoded], dtype=np.int64)
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), offsets


def unpack_strings(blob: np.ndarray, offsets: np.ndarray, path: str | Path) -> list[str]:
    """Inverse of pack_strings; FormatError for bad offsets, bad UTF-8 or a repeated string."""
    check_offsets(offsets, blob.size, path, "string offsets")
    raw, bounds = blob.tobytes(), offsets.tolist()
    try:
        strings = [raw[lo:hi].decode("utf-8") for lo, hi in zip(bounds, bounds[1:])]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    check_format(len(set(strings)) == len(strings), path, "duplicate string")
    return strings


@dataclass
class TokenTable:
    """Documents as runs of token rows: document i owns rows offsets[i]:offsets[i + 1].
    Saved as three container records: doc ids (blob, byte offsets) and the offsets."""

    doc_ids: list[str]
    offsets: np.ndarray  # (n_docs + 1,) int64, rising from 0 in steps of >= 1

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def total_tokens(self) -> int:
        return int(self.offsets[-1])

    def token_counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def token_docs(self) -> np.ndarray:
        """The document index of every token row."""
        return np.repeat(np.arange(self.n_docs, dtype=np.int64), self.token_counts())

    def rows_of(self, docs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(flat, bounds): the token rows of docs in order, those of docs[j] at
        flat[bounds[j]:bounds[j + 1]]."""
        starts = self.offsets[docs]
        lengths = self.offsets[docs + 1] - starts
        bounds = np.zeros(len(docs) + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        return np.repeat(starts - bounds[:-1], lengths) + np.arange(bounds[-1]), bounds

    def table_arrays(self) -> list[np.ndarray]:
        """The table's three container records."""
        return [*pack_strings(self.doc_ids), self.offsets]


def read_table(path: str | Path, magic: bytes, records: list, meta: Mapping) -> list:
    """The arrays of an index container holding the dtypes in records, with a
    TokenTable, checked against meta.json's counts, where records holds TokenTable."""
    at = records.index(TokenTable)
    dtypes = [*records[:at], "u1", "<i8", "<i8", *records[at + 1 :]]
    arrays = read_arrays(path, magic, INDEX_FORMAT_VERSION, dtypes)
    doc_ids, offsets = unpack_strings(*arrays[at : at + 2], path), arrays[at + 2]
    counts, n_docs = (len(doc_ids), offsets.shape), meta["doc_count"]
    check_format(counts == (n_docs, (n_docs + 1,)), path,
                 f"ids and offsets {counts} disagree with meta.json doc_count {n_docs}")
    check_offsets(offsets, meta["token_count"], path, "token offsets", min_step=1)
    return [*arrays[:at], TokenTable(doc_ids, offsets), *arrays[at + 3 :]]


@dataclass(init=False)
class EmbeddingStore(TokenTable):
    """A collection's token rows as one matrix in the store's precision, indexed by
    its TokenTable in ingestion order; immutable after ingestion."""

    dim: int
    precision: str
    kind: str
    tokens: np.ndarray  # (total_tokens, dim) in the store's precision
    manifest: StoreManifest

    def __init__(self, dim: int, precision: str, kind: str, entries: Mapping[str, np.ndarray],
                 manifest: StoreManifest | None = None):
        """Stack entries (id -> matrix) in precision; FormatError unless each is (rows >= 1, dim)."""
        for doc_id, matrix in entries.items():
            if matrix.ndim != 2 or matrix.shape[1] != dim:
                raise FormatError(f"entry {doc_id!r} has shape {matrix.shape}, expected (*, {dim})")
            if not len(matrix):
                raise FormatError(f"document {doc_id!r} has zero tokens")
        matrices, dtype = list(entries.values()), PRECISION_DTYPES[precision]
        super().__init__(list(entries), np.cumsum([0] + [len(m) for m in matrices], dtype=np.int64))
        self.dim, self.precision, self.kind = dim, precision, kind
        self.tokens = np.concatenate([np.empty((0, dim), dtype), *matrices], dtype=dtype)
        self.manifest = manifest or StoreManifest("", "", 0)

    def __len__(self) -> int:
        return self.n_docs

    @cached_property
    def entries(self) -> Mapping[str, np.ndarray]:
        """Read-only id -> that document's rows of tokens (a view)."""
        bounds = self.offsets.tolist()
        rows = (self.tokens[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
        return MappingProxyType(dict(zip(self.doc_ids, rows)))


def _created_stamp(path: str | Path) -> str:
    # Derived from the source file's mtime rather than the wall clock so
    # that re-running ingestion on identical inputs is byte-reproducible.
    mtime = os.stat(path).st_mtime
    return datetime.fromtimestamp(mtime, tz=timezone.utc).isoformat(timespec="seconds")


def _check_lengths(store: EmbeddingStore) -> None:
    """LengthError for the store's first document over its kind's token limit."""
    counts, limit = store.token_counts(), token_limit(store.kind)
    too_long = np.flatnonzero(counts > limit)
    if too_long.size:
        raise LengthError(store.doc_ids[too_long[0]], int(counts[too_long[0]]), limit)


def _checked_rows(store: EmbeddingStore, start: int, stop: int) -> np.ndarray:
    """store.tokens[start:stop]; ZeroVectorRow for the first zero-norm row in it, FormatError
    for the first NaN or infinite value, each naming the entry and the row within it."""
    block = store.tokens[start:stop]
    norms = np.linalg.norm(block.astype(np.float64), axis=1)
    bad = np.flatnonzero(~(norms >= 1e-12) | np.isinf(norms))  # zero, NaN or infinite
    if bad.size:
        doc = int(np.searchsorted(store.offsets, start + bad[0], "right")) - 1
        doc_id, row = store.doc_ids[doc], int(start + bad[0] - store.offsets[doc])
        if np.isfinite(norms[bad[0]]):
            raise ZeroVectorRow(row, doc_id)
        raise FormatError(f"entry {doc_id!r} row {row} has a non-finite value")
    return block


def ingest_embeddings(path: str | Path, kind: str) -> EmbeddingStore:
    """Load an embedding file into a normalized in-memory store.

    Every row is unit-normalized (in the file's precision), the per-kind
    token limit is enforced, and ingestion order is preserved.  The first
    document in file order that is too long (LengthError), has a zero-norm
    row (ZeroVectorRow) or a NaN or infinite value (FormatError) decides the
    error, which names the entry and, for a row, its index in the entry.
    """
    limit = token_limit(kind)
    dim, precision, raw = read_embedding_file(path)
    manifest = StoreManifest(Path(path).stem, _created_stamp(path), len(raw))
    store = EmbeddingStore(dim, precision, kind, dict(raw), manifest)
    too_long = np.flatnonzero(store.token_counts() > limit)
    end = int(store.offsets[too_long[0]]) if too_long.size else store.total_tokens
    for start in range(0, end, _ROW_BLOCK):
        block = _checked_rows(store, start, min(start + _ROW_BLOCK, end))
        # normalize-then-cast each row until it maps to itself (at most 6 rounds),
        # so that re-ingesting a saved store reproduces its bits
        rows, cur = np.arange(len(block)), block
        for _ in range(6):
            nxt = normalize_matrix(cur).astype(block.dtype)
            moved = (nxt != cur).any(axis=1)  # before the write: in round 1, cur is block
            block[rows] = nxt
            rows, cur = rows[moved], nxt[moved]
            if not rows.size:
                break
    _check_lengths(store)
    return store


def cast_precision(store: EmbeddingStore, target: str) -> EmbeddingStore:
    """Return a copy of the store with values round-to-nearest in target precision."""
    if target not in PRECISION_DTYPES:
        raise ValueError(f"unknown precision {target!r}")
    return EmbeddingStore(store.dim, target, store.kind, store.entries, replace(store.manifest))


def save_store(store: EmbeddingStore, directory: str | Path) -> None:
    """Persist a store as <dir>/embeddings.bin + <dir>/manifest.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_embedding_file(
        directory / "embeddings.bin", store.dim, store.precision, store.entries.items()
    )
    manifest = {
        "corpus": store.manifest.corpus,
        "created": store.manifest.created,
        "entry_count": len(store),
        "dim": store.dim,
        "precision": store.precision,
        "kind": store.kind,
    }
    write_json(directory / "manifest.json", manifest)


def load_store(directory: str | Path) -> EmbeddingStore:
    """Load a store persisted by save_store. Values are trusted as normalized; the
    kind, its token limit and that no row is zero, NaN or infinite are checked."""
    directory = Path(directory)
    keys = {"dim": int, "precision": str, "entry_count": int, "corpus": str, "created": str,
            "kind": str}
    meta = read_json(directory / "manifest.json", keys)
    kind = meta["kind"]
    check_format(kind in KINDS, directory / "manifest.json", f"unknown kind {kind!r}")
    dim, precision, raw = read_embedding_file(directory / "embeddings.bin")
    if dim != meta["dim"] or precision != meta["precision"]:
        raise FormatError(f"{directory}: manifest disagrees with embeddings.bin")
    if len(raw) != meta["entry_count"]:
        raise FormatError(f"{directory}: manifest entry_count disagrees with data")
    manifest = StoreManifest(meta["corpus"], meta["created"], meta["entry_count"])
    store = EmbeddingStore(dim, precision, kind, dict(raw), manifest)
    _check_lengths(store)
    for start in range(0, store.total_tokens, _ROW_BLOCK):
        _checked_rows(store, start, start + _ROW_BLOCK)
    return store


def read_corpus_jsonl(path: str | Path) -> list[CorpusRecord]:
    """Read a JSONL corpus; texts must be strings, ids strings or integers (read as
    their digits) that are non-empty, unique and hold no whitespace."""
    records: list[CorpusRecord] = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path):
        if "id" not in obj or "text" not in obj:
            raise ParseError("expected object with 'id' and 'text'", lineno)
        doc_id, text = obj["id"], obj["text"]
        if not isinstance(text, str):
            raise ParseError("'text' is not a JSON string", lineno)
        if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
            raise ParseError("'id' is neither a JSON string nor an integer", lineno)
        doc_id = str(doc_id)
        if not doc_id:
            raise ParseError("empty id", lineno)
        if doc_id.split() != [doc_id]:
            raise ParseError(f"id {doc_id!r} contains whitespace", lineno)
        if doc_id in seen:
            raise DuplicateDocId(f"duplicate id {doc_id!r} at line {lineno}")
        seen.add(doc_id)
        records.append(CorpusRecord(id=doc_id, text=text))
    return records
