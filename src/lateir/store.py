"""Token-embedding data model, normalization, and on-disk formats.

A token matrix is a plain ``(rows, dim)`` numpy array, one unit-normalized
row per token.  Documents may carry at most 512 tokens, queries at most 64.

Embedding file format (little-endian throughout)::

    header:  magic b"LIEM" | u32 version (=1) | u32 dim
             | u8 precision (0 = float32, 1 = float16) | u64 entry count
    entry:   u16 id length | id bytes (UTF-8) | u16 token count
             | token_count * dim values in the declared precision, row-major

The writer rejects an id or a row count that does not fit its u16 field.
A persisted store is a directory holding ``embeddings.bin`` in that format
plus ``manifest.json``; one pass reads the file into a table and a matrix.

Stores and the exact and compressed indexes are TokenTables: doc ids plus
int64 token offsets, document i owning token rows offsets[i]:offsets[i + 1]
of one token matrix.  An index saves its table as three container records
(``table_arrays``), read and checked against each other by ``read_table``.
In memory, a store is that matrix in the store's precision (read-only once
loaded), its table, and a read-only ``entries`` view (id -> rows); ingestion
normalizes the matrix in blocks of ``_ROW_BLOCK`` rows, and both it and
``load_store`` reject zero-norm rows and NaN or infinite values.

An index directory holds exactly one array container, its mode's
(``INDEX_CONTAINERS``: ``tokens.bin``, ``residuals.bin`` or ``postings.bin``),
whose record 0 holds the index's parameters as a UTF-8 JSON object
(``save_index`` / ``read_index``); ``index_mode`` names it.
An array container is: magic (4 bytes) | u32 format version | u32 array
count, then one ``.npy`` record per array.
Strings are stored as a UTF-8 blob (uint8) plus int64 byte offsets, and a
record's strings must be distinct.
Stores, containers, JSON metadata and text outputs are written to a temporary
sibling, then renamed, so an index is replaced by one rename; a store
directory renames its two files only once both are written, its manifest last
(``_replacing_files``).  ``read_json`` checks each metadata key's JSON type.

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
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DuplicateDocId, FormatError, LengthError, ParseError, ZeroVectorRow

EMBEDDING_MAGIC = b"LIEM"
EMBEDDING_FORMAT_VERSION = 1
INDEX_FORMAT_VERSION = 6
# mode -> (file name, magic) of its index container
INDEX_CONTAINERS = {"exact": ("tokens.bin", b"LIEX"), "compressed": ("residuals.bin", b"LIRC"),
                    "bm25": ("postings.bin", b"LIBP")}
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
    dtype, rows = PRECISION_DTYPES[precision], []
    for doc_id, matrix in entries:
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != dim:
            raise FormatError(f"entry {doc_id!r} has shape {matrix.shape}, expected (*, {dim})")
        rows.append((doc_id, len(matrix), np.ascontiguousarray(matrix, dtype)))
    _write_entries(path, dim, precision, rows)
    return len(rows)


def _write_entries(path: str | Path, dim: int, precision: str, entries: Sequence[tuple]):
    """Write an embedding file of (id, row count, the rows' bytes in precision) entries,
    one header bytes object and one buffer per entry, through _replacing."""

    def pieces():
        for doc_id, count, rows in entries:
            id_bytes = doc_id.encode("utf-8")
            if max(len(id_bytes), count) > 0xFFFF:
                raise FormatError(f"entry {doc_id!r} has an id of {len(id_bytes)} UTF-8 bytes "
                                  f"and {count} rows; each may be at most 65535")
            yield struct.pack("<H", len(id_bytes)) + id_bytes + struct.pack("<H", count)
            yield rows

    with _replacing(path) as fh:
        code = _PRECISION_CODES[precision]
        fh.write(_HEADER.pack(EMBEDDING_MAGIC, EMBEDDING_FORMAT_VERSION, dim, code, len(entries)))
        fh.writelines(pieces())


def read_embedding_file(path: str | Path) -> tuple[TokenTable, np.ndarray]:
    """Read an embedding file in one pass: (table, tokens), its buffer less the headers."""
    data = np.fromfile(path, dtype=np.uint8)
    check_format(len(data) >= _HEADER.size, path, "truncated header")
    magic, version, dim, prec_code, count = _HEADER.unpack_from(data, 0)
    check_format(magic == EMBEDDING_MAGIC, path, f"bad magic {magic!r}")
    check_format(version == EMBEDDING_FORMAT_VERSION, path, f"unsupported version {version}")
    check_format(prec_code in _CODE_PRECISIONS, path, f"unknown precision code {prec_code}")
    check_format(dim >= 1, path, f"invalid dim {dim}")
    dtype = PRECISION_DTYPES[_CODE_PRECISIONS[prec_code]]

    counts, offset, end = {}, _HEADER.size, 0  # id -> rows; rows moved so far end at end
    with memoryview(data) as view:
        for _ in range(count):
            try:
                (id_len,) = struct.unpack_from("<H", view, offset)
                doc_id = str(view[offset + 2 : offset + 2 + id_len], "utf-8")
                (rows,) = struct.unpack_from("<H", view, offset + 2 + id_len)
            except (struct.error, UnicodeDecodeError) as exc:
                raise FormatError(f"{path}: corrupt entry table: {exc}") from exc
            offset += 4 + id_len
            nbytes = rows * dim * dtype.itemsize
            if offset + nbytes > len(data):
                raise FormatError(f"{path}: truncated entry {doc_id!r}")
            if rows < 1:
                raise FormatError(f"{path}: entry {doc_id!r} has zero tokens")
            if doc_id in counts:
                raise FormatError(f"{path}: duplicate id {doc_id!r}")
            counts[doc_id] = rows
            view[end : end + nbytes] = view[offset : offset + nbytes]  # shifts left, overlap-safe
            end, offset = end + nbytes, offset + nbytes
    check_format(offset == len(data), path, f"{len(data) - offset} trailing bytes")
    data.resize(end, refcheck=False)  # hands the headers' bytes back
    table = TokenTable(list(counts), np.cumsum([0, *counts.values()], dtype=np.int64))
    return table, data.view(dtype).reshape(-1, dim)


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


@contextmanager
def _replacing_files(directory: str | Path, names: Sequence[str]):
    """{name: temporary sibling of directory/name} for the block to write; once it has
    succeeded, each replaces its file in the order named, so a write that fails part way
    leaves every previous file of the directory intact."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tmps = {name: directory / f"{name}.tmp" for name in names}
    try:
        yield tmps
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        raise
    for name, tmp in tmps.items():
        os.replace(tmp, directory / name)


def write_json(path: str | Path, obj) -> None:
    """Pretty-printed, key-sorted JSON plus a newline, so equal objects give equal bytes;
    ValueError, leaving any previous file, if obj holds a NaN or infinity."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def read_json(path: str | Path, keys: Mapping[str, type | tuple[type, ...]]) -> dict:
    """A JSON object holding every key in keys with a value of the given type(s),
    a bool counting only as a bool; FormatError naming path otherwise, also for
    the NaN and Infinity constants, which are not JSON."""
    return _json_object(Path(path).read_bytes(), path, keys)


def _reject_constant(name: str):
    raise ValueError(f"non-standard constant {name}")


def _json_object(data: bytes, path: str | Path, keys: Mapping) -> dict:
    """data as a UTF-8 JSON object holding keys (see read_json)."""
    try:
        obj = json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    except ValueError as exc:
        raise FormatError(f"{path}: unreadable JSON: {exc}") from exc
    check_format(isinstance(obj, dict), path, "not a JSON object")
    for key, types in keys.items():
        value, name = obj.get(key), getattr(types, "__name__", "number")
        ok = isinstance(value, types) and (types is bool or not isinstance(value, bool))
        check_format(ok, path, f"key {key!r} missing or not of type {name}")
    return obj


def save_index(directory: str | Path, mode: str, params: dict, arrays: Sequence):
    """Write mode's index container in directory through _replacing, record 0 holding
    params as a UTF-8 JSON object, then remove any other mode's container and the
    meta.json of format 5 and before."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name, magic = INDEX_CONTAINERS[mode]
    blob = np.frombuffer(json.dumps(params, sort_keys=True).encode("utf-8"), np.uint8)
    write_arrays(directory / name, magic, INDEX_FORMAT_VERSION, [blob, *arrays])
    for other in [*(other for other, _ in INDEX_CONTAINERS.values()), "meta.json"]:
        if other != name:
            (directory / other).unlink(missing_ok=True)


def index_mode(directory: str | Path) -> str:
    """The mode (exact, compressed or bm25) of the one index container in directory;
    FormatError asking for a rebuild if it holds none or several."""
    names = {p.name for p in Path(directory).iterdir()}
    held = [mode for mode, (name, _) in INDEX_CONTAINERS.items() if name in names]
    found = ", ".join(INDEX_CONTAINERS[mode][0] for mode in held) or "no index container"
    check_format(len(held) == 1, directory, f"holds {found}; rebuild the index")
    return held[0]


def read_index(directory: str | Path, mode: str, keys: Mapping, dtypes: Sequence
               ) -> tuple[Path, dict, list[np.ndarray]]:
    """(path, parameters, arrays) of directory's index container, which must be mode's:
    record 0 a JSON object holding keys (see read_json), then arrays of dtypes (see
    read_arrays)."""
    found = index_mode(directory)
    check_format(found == mode, directory, f"mode {found!r}, expected {mode!r}")
    name, magic = INDEX_CONTAINERS[mode]
    path = Path(directory) / name
    blob, *arrays = read_arrays(path, magic, INDEX_FORMAT_VERSION, ["u1", *dtypes])
    return path, _json_object(blob.tobytes(), path, keys), arrays


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
    """One ensure_ascii=False JSON object per line; returns the count.  ValueError,
    leaving any previous file, if an object holds a NaN or infinity."""
    count = 0
    with _replacing(path, text=True) as fh:
        for obj in objs:
            fh.write(json.dumps(obj, ensure_ascii=False, allow_nan=False) + "\n")
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
    """Read an array container holding one array per entry of dtypes, a dtype or a
    tuple of the dtypes allowed.  Each record's dtype, order and size are checked
    before its data is read."""
    size = os.stat(path).st_size
    arrays = []
    with open(path, "rb") as fh:
        head = fh.read(_ARRAYS_HEADER.size)
        check_format(len(head) == _ARRAYS_HEADER.size, path, "truncated header")
        file_magic, file_version, count = _ARRAYS_HEADER.unpack(head)
        check_format(file_magic == magic, path, f"bad magic {file_magic!r}")
        check_format(file_version == version, path, f"version {file_version}; rebuild the index")
        check_format(count == len(dtypes), path, f"{count} arrays, expected {len(dtypes)}")
        for i, want in enumerate(dtypes):
            allowed = [np.dtype(d) for d in (want if isinstance(want, tuple) else [want])]
            try:  # numpy raises any of these for a malformed .npy header
                major, _ = np.lib.format.read_magic(fh)
                check_format(major in (1, 2), path, f"array {i}: .npy version {major}")
                read_header = getattr(np.lib.format, f"read_array_header_{major}_0")
                shape, fortran_order, file_dtype = read_header(fh)
                n = math.prod(shape)
                check_format(
                    file_dtype in allowed and not fortran_order and min(shape, default=0) >= 0
                    and n * file_dtype.itemsize <= size - fh.tell(),
                    path, f"array {i}: {file_dtype} {shape} in {size - fh.tell()} bytes",
                )
                arrays.append(np.fromfile(fh, dtype=file_dtype, count=n).reshape(shape))
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


def read_table(directory: str | Path, mode: str, keys: Mapping, records: list
               ) -> tuple[Path, dict, list]:
    """read_index, TokenTable in records standing for a token table's three records,
    returned as one TokenTable whose ids and offsets agree."""
    at = records.index(TokenTable)
    dtypes = [*records[:at], "u1", "<i8", "<i8", *records[at + 1 :]]
    path, params, arrays = read_index(directory, mode, keys, dtypes)
    doc_ids, offsets = unpack_strings(*arrays[at : at + 2], path), arrays[at + 2]
    check_format(offsets.shape == (len(doc_ids) + 1,), path,
                 f"{len(doc_ids)} doc ids but token offsets of shape {offsets.shape}")
    check_offsets(offsets, offsets[-1], path, "token offsets", min_step=1)
    return path, params, [*arrays[:at], TokenTable(doc_ids, offsets), *arrays[at + 3 :]]


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
        offsets = np.cumsum([0] + [len(m) for m in matrices], dtype=np.int64)
        tokens = np.concatenate([np.empty((0, dim), dtype), *matrices], dtype=dtype)
        store = self.from_table(TokenTable(list(entries), offsets), tokens, kind, manifest)
        vars(self).update(vars(store))

    @classmethod
    def from_table(cls, table: TokenTable, tokens: np.ndarray, kind: str,
                   manifest: StoreManifest | None = None) -> EmbeddingStore:
        """The store of table over tokens, its (total_tokens, dim) matrix in a store
        precision, which fixes dim and precision; copies neither."""
        store = cls.__new__(cls)
        TokenTable.__init__(store, table.doc_ids, table.offsets)
        store.dim, store.precision, store.kind = tokens.shape[1], tokens.dtype.name, kind
        store.tokens, store.manifest = tokens, manifest or StoreManifest("", "", 0)
        return store

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
    table, tokens = read_embedding_file(path)
    manifest = StoreManifest(Path(path).stem, _created_stamp(path), table.n_docs)
    store = EmbeddingStore.from_table(table, tokens, kind, manifest)
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
    store.tokens.flags.writeable = False
    return store


def save_store(store: EmbeddingStore, directory: str | Path) -> None:
    """Persist a store as <dir>/embeddings.bin + <dir>/manifest.json, replacing the
    directory's files only once both are written (see _replacing_files)."""
    manifest = {
        "corpus": store.manifest.corpus,
        "created": store.manifest.created,
        "entry_count": len(store),
        "dim": store.dim,
        "precision": store.precision,
        "kind": store.kind,
    }
    tokens = np.ascontiguousarray(store.tokens, PRECISION_DTYPES[store.precision])
    view, row_bytes = memoryview(tokens.reshape(-1).view(np.uint8)), store.dim * tokens.itemsize
    bounds = store.offsets.tolist()
    entries = [(doc_id, hi - lo, view[lo * row_bytes : hi * row_bytes])
               for doc_id, lo, hi in zip(store.doc_ids, bounds, bounds[1:])]
    with _replacing_files(directory, ["embeddings.bin", "manifest.json"]) as tmp:
        _write_entries(tmp["embeddings.bin"], store.dim, store.precision, entries)
        write_json(tmp["manifest.json"], manifest)


def load_store(directory: str | Path) -> EmbeddingStore:
    """Load a store persisted by save_store. Values are trusted as normalized; the
    kind, its token limit and that no row is zero, NaN or infinite are checked."""
    directory = Path(directory)
    keys = {"dim": int, "precision": str, "entry_count": int, "corpus": str, "created": str,
            "kind": str}
    meta = read_json(directory / "manifest.json", keys)
    kind = meta["kind"]
    check_format(kind in KINDS, directory / "manifest.json", f"unknown kind {kind!r}")
    manifest = StoreManifest(meta["corpus"], meta["created"], meta["entry_count"])
    table, tokens = read_embedding_file(directory / "embeddings.bin")
    store = EmbeddingStore.from_table(table, tokens, kind, manifest)
    if (store.dim, store.precision) != (meta["dim"], meta["precision"]):
        raise FormatError(f"{directory}: manifest disagrees with embeddings.bin")
    if len(store) != meta["entry_count"]:
        raise FormatError(f"{directory}: manifest entry_count disagrees with data")
    _check_lengths(store)
    for start in range(0, store.total_tokens, _ROW_BLOCK):
        _checked_rows(store, start, start + _ROW_BLOCK)
    store.tokens.flags.writeable = False
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
