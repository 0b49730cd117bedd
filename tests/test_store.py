"""Embedding store: normalization, binary format, precision casts."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lateir.store
from lateir.errors import (
    DuplicateDocId,
    EmptyStore,
    FormatError,
    LengthError,
    ParseError,
    ZeroVectorRow,
)
from lateir.store import (
    EMBEDDING_MAGIC,
    PRECISION_DTYPES,
    EmbeddingStore,
    TokenTable,
    cast_precision,
    ingest_embeddings,
    load_store,
    normalize_matrix,
    pack_strings,
    read_arrays,
    read_corpus_jsonl,
    read_embedding_file,
    read_json,
    read_jsonl,
    read_rows,
    save_store,
    unpack_strings,
    write_arrays,
    write_embedding_file,
    write_json,
    write_jsonl,
    write_rows,
)
from lateir.exact import build_exact
from lateir.ranking import RankedList, write_trec_run

from conftest import random_store, store_with_empty_doc, unit_rows

# each text writer and one item it writes
TEXT_WRITERS = {
    "rows": (write_rows, ("q1", "d1", "0.5")),
    "jsonl": (write_jsonl, {"qid": "q1"}),
    "trec": (write_trec_run, RankedList("q1", [("d1", 0.5)])),
}


def scalar_norm(row):
    """Independent scalar-loop L2 norm."""
    total = 0.0
    for x in row:
        total += float(x) * float(x)
    return total**0.5


class TestNormalize:
    def test_already_unit(self):
        out = normalize_matrix(np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_three_four_five(self):
        row = [3.0, 4.0]
        expected = [x / scalar_norm(row) for x in row]
        out = normalize_matrix(np.array([row]))
        np.testing.assert_allclose(out[0], expected, atol=1e-12)
        np.testing.assert_allclose(out[0], [0.6, 0.8], atol=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroVectorRow) as info:
            normalize_matrix(np.array([[0.0, 0.0]]))
        assert info.value.row_index == 0

    def test_zero_row_index_reported(self):
        with pytest.raises(ZeroVectorRow) as info:
            normalize_matrix(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        assert info.value.row_index == 1

    def test_idempotent(self, rng):
        m = rng.standard_normal((50, 16)) * rng.uniform(0.01, 100)
        once = normalize_matrix(m)
        twice = normalize_matrix(once)
        np.testing.assert_allclose(twice, once, atol=1e-7)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6).filter(lambda x: abs(x) > 1e-3),
                min_size=4,
                max_size=4,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_unit_norm_property(self, rows):
        out = normalize_matrix(np.array(rows, dtype=np.float64))
        norms = np.linalg.norm(out, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_unit_dot_products_bounded(self, rng):
        # dot(u, v) in [-1, 1] within 1e-6 on 1,000 random pairs
        u = unit_rows(rng, 1000, 32)
        v = unit_rows(rng, 1000, 32)
        dots = np.einsum("ij,ij->i", u, v)
        assert dots.max() <= 1 + 1e-6
        assert dots.min() >= -1 - 1e-6


class TestEmbeddingFile:
    def _entries(self, rng, n=3, rows=5, dim=4):
        return [(f"doc{i}", unit_rows(rng, rows, dim)) for i in range(n)]

    def test_round_trip(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        entries = self._entries(rng)
        write_embedding_file(path, 4, "float32", entries)
        dim, precision, back = read_embedding_file(path)
        assert (dim, precision) == (4, "float32")
        assert [d for d, _ in back] == [d for d, _ in entries]
        for (_, a), (_, b) in zip(entries, back):
            np.testing.assert_array_equal(np.asarray(a, dtype=np.float32), b)

    def test_float16_round_trip(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        entries = self._entries(rng, dim=6)
        write_embedding_file(path, 6, "float16", entries)
        _, precision, back = read_embedding_file(path)
        assert precision == "float16"
        assert back[0][1].dtype == np.float16

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            read_embedding_file(path)

    def test_truncated(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        write_embedding_file(path, 4, "float32", self._entries(rng))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            read_embedding_file(path)

    def test_trailing_bytes(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        write_embedding_file(path, 4, "float32", self._entries(rng))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            read_embedding_file(path)

    def test_duplicate_id(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        m = unit_rows(rng, 2, 4)
        write_embedding_file(path, 4, "float32", [("a", m), ("a", m)])
        with pytest.raises(FormatError, match="duplicate"):
            read_embedding_file(path)

    def test_magic_bytes_on_disk(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        write_embedding_file(path, 4, "float32", self._entries(rng, n=1))
        assert path.read_bytes()[:4] == EMBEDDING_MAGIC


class TestIngest:
    def test_counts_preserved(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        write_embedding_file(
            path, 4, "float32", [(f"doc{i}", unit_rows(rng, 5, 4)) for i in range(3)]
        )
        store = ingest_embeddings(path, "document")
        assert len(store) == 3
        assert store.dim == 4
        assert store.doc_ids == ["doc0", "doc1", "doc2"]
        assert store.manifest.entry_count == 3

    def test_document_limit_512(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        write_embedding_file(path, 4, "float32", [("big", unit_rows(rng, 513, 4))])
        with pytest.raises(LengthError) as info:
            ingest_embeddings(path, "document")
        assert info.value.doc_id == "big"
        assert info.value.limit == 512

    def test_document_at_limit_ok(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        write_embedding_file(path, 4, "float32", [("big", unit_rows(rng, 512, 4))])
        assert len(ingest_embeddings(path, "document")) == 1

    def test_query_limit_64(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        write_embedding_file(path, 4, "float32", [("q", unit_rows(rng, 65, 4))])
        with pytest.raises(LengthError):
            ingest_embeddings(path, "query")
        write_embedding_file(path, 4, "float32", [("q", unit_rows(rng, 64, 4))])
        assert len(ingest_embeddings(path, "query")) == 1

    def test_rows_normalized_after_ingest(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        scaled = unit_rows(rng, 8, 16) * rng.uniform(0.2, 5.0, size=(8, 1))
        write_embedding_file(path, 16, "float32", [("d", scaled)])
        store = ingest_embeddings(path, "document")
        norms = np.linalg.norm(store.entries["d"].astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-3)

    @pytest.mark.parametrize("precision", ["float32", "float16"])
    def test_serialize_reingest_identical(self, tmp_path, rng, precision):
        # format round-trip: ingest -> re-serialize -> re-ingest is the identity
        first = tmp_path / "first.bin"
        write_embedding_file(
            first,
            8,
            precision,
            [(f"d{i}", rng.standard_normal((6, 8))) for i in range(10)],
        )
        store1 = ingest_embeddings(first, "document")
        second = tmp_path / "second.bin"
        write_embedding_file(second, 8, precision, store1.entries.items())
        store2 = ingest_embeddings(second, "document")
        assert store1.doc_ids == store2.doc_ids
        for doc_id in store1.entries:
            np.testing.assert_array_equal(store1.entries[doc_id], store2.entries[doc_id])

    def test_save_load_store(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        write_embedding_file(
            path, 4, "float16", [(f"d{i}", unit_rows(rng, 3, 4)) for i in range(4)]
        )
        store = ingest_embeddings(path, "document")
        save_store(store, tmp_path / "store")
        back = load_store(tmp_path / "store")
        assert back.kind == "document"
        assert back.precision == "float16"
        assert back.doc_ids == store.doc_ids
        for doc_id in store.entries:
            np.testing.assert_array_equal(store.entries[doc_id], back.entries[doc_id])

    def test_failed_save_keeps_previous_store(self, tmp_path, rng, monkeypatch):
        store = random_store(rng, 3, 8)
        save_store(store, tmp_path / "store")
        real = np.ascontiguousarray
        written = []

        def fail_on_second_entry(matrix, dtype=None):
            written.append(matrix)
            if len(written) == 2:
                raise OSError("disk full")
            return real(matrix, dtype=dtype)

        with monkeypatch.context() as patch:
            patch.setattr(lateir.store.np, "ascontiguousarray", fail_on_second_entry)
            with pytest.raises(OSError):
                save_store(random_store(rng, 3, 8), tmp_path / "store")
        assert len(written) == 2  # the first entry was written before the second failed
        back = load_store(tmp_path / "store")
        assert back.doc_ids == store.doc_ids
        np.testing.assert_array_equal(back.tokens, store.tokens)
        assert sorted(p.name for p in (tmp_path / "store").iterdir()) == [
            "embeddings.bin", "manifest.json"
        ]

    @staticmethod
    def _file_with(path, rng, defects, precision="float32"):
        """Documents a, b, c of 3 rows (dim 8); a defect puts nan, inf or a zero row at
        row 1 of its document, or gives it 65 rows ("long")."""
        entries = []
        for doc_id in "abc":
            defect = defects.get(doc_id)
            m = unit_rows(rng, 65 if defect == "long" else 3, 8)
            if defect in ("nan", "inf", "-inf"):
                m[1, 2] = float(defect)
            elif defect == "zero":
                m[1] = 0.0
            entries.append((doc_id, m))
        write_embedding_file(path, 8, precision, entries)

    @pytest.mark.parametrize("precision", ["float32", "float16"])
    @pytest.mark.parametrize(
        "defects, error, doc_id",
        [
            ({"b": "nan"}, FormatError, "b"),
            ({"b": "inf"}, FormatError, "b"),
            ({"c": "-inf"}, FormatError, "c"),
            ({"b": "zero"}, ZeroVectorRow, "b"),
            ({"b": "long"}, LengthError, "b"),
            # the first failing document in file order decides
            ({"a": "long", "b": "nan"}, LengthError, "a"),
            ({"a": "nan", "b": "long"}, FormatError, "a"),
            ({"a": "zero", "b": "nan"}, ZeroVectorRow, "a"),
            ({"a": "nan", "c": "zero"}, FormatError, "a"),
            ({"b": "zero", "c": "long"}, ZeroVectorRow, "b"),
        ],
        ids=["nan", "inf", "-inf", "zero", "long", "long-nan", "nan-long", "zero-nan", "nan-zero",
             "zero-long"],
    )
    def test_first_bad_document_named(self, tmp_path, rng, precision, defects, error, doc_id):
        path = tmp_path / "e.bin"
        self._file_with(path, rng, defects, precision)
        with pytest.raises(error) as info:
            ingest_embeddings(path, "query")
        assert f"entry {doc_id!r}" in str(info.value)
        if error is FormatError:
            assert "row 1 " in str(info.value) and "non-finite" in str(info.value)
        else:
            assert info.value.doc_id == doc_id
        if error is ZeroVectorRow:
            assert info.value.row_index == 1

    def test_load_checks_kind_and_length(self, tmp_path, rng):
        save_store(random_store(rng, 2, 8, min_tokens=65, max_tokens=70), tmp_path / "s")
        assert len(load_store(tmp_path / "s")) == 2  # documents may have 65 rows
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        for kind, error in [("banana", FormatError), ("query", LengthError)]:
            write_json(tmp_path / "s" / "manifest.json", {**manifest, "kind": kind})
            with pytest.raises(error) as info:
                load_store(tmp_path / "s")
            assert (kind in str(info.value)) if kind == "banana" else info.value.doc_id == "d0"


    @pytest.mark.parametrize("precision", ["float32", "float16"])
    @pytest.mark.parametrize("value, error", [(np.nan, FormatError), (np.inf, FormatError),
                                              (0.0, ZeroVectorRow)], ids=["nan", "inf", "zero"])
    def test_load_rejects_damaged_row(self, tmp_path, rng, precision, value, error):
        save_store(random_store(rng, 4, 8, min_tokens=3, max_tokens=5, precision=precision),
                   tmp_path / "s")
        path = tmp_path / "s" / "embeddings.bin"
        dim, _, entries = read_embedding_file(path)
        rows = entries[2][1].copy()
        rows[1, 3 if error is FormatError else slice(None)] = value
        entries[2] = ("d2", rows)
        write_embedding_file(path, dim, precision, entries)
        with pytest.raises(error) as info:
            load_store(tmp_path / "s")
        assert "entry 'd2' row 1 " in str(info.value)


class TestBlockIngest:
    """Ingest normalizes the token matrix in blocks of lateir.store._ROW_BLOCK rows."""

    @staticmethod
    def per_document(raw, dtype):
        """The reference: normalize and cast each document until it maps to itself, at
        most 6 times; returns the rows and how many rounds each document took."""
        out, rounds = {}, {}
        for doc_id, cur in raw:
            for n in range(1, 7):
                nxt = normalize_matrix(cur).astype(dtype)
                done = cur.dtype == nxt.dtype and np.array_equal(cur, nxt)
                cur = nxt
                if done:
                    break
            out[doc_id], rounds[doc_id] = cur, n
        return out, rounds

    @pytest.mark.parametrize("precision", ["float32", "float16"])
    def test_equals_per_document_reference(self, tmp_path, rng, precision):
        block = lateir.store._ROW_BLOCK
        lengths = rng.integers(1, 200, size=230)
        assert lengths.sum() > 2 * block
        entries = [(f"d{i:03d}", rng.standard_normal((n, 8)) * rng.uniform(1e-3, 1e3))
                   for i, n in enumerate(lengths)]
        path = tmp_path / "e.bin"
        write_embedding_file(path, 8, precision, entries)
        store = ingest_embeddings(path, "document")
        dtype = PRECISION_DTYPES[precision]
        expected, rounds = self.per_document(read_embedding_file(path)[2], dtype)
        offsets = store.offsets
        assert any(offsets[i] < block < offsets[i + 1] for i in range(len(lengths)))
        assert max(rounds.values()) >= 3  # some rows changed again in round 2
        assert store.tokens.dtype == dtype
        for doc_id, rows in expected.items():
            assert store.entries[doc_id].tobytes() == rows.tobytes(), doc_id

    def test_bad_row_in_a_later_block_named(self, tmp_path, rng):
        block = lateir.store._ROW_BLOCK
        entries = [(f"d{i}", unit_rows(rng, 100, 4)) for i in range(block // 100 + 5)]
        doc, row = block // 100 + 1, 37  # global row > block
        entries[doc][1][row] = 0.0
        path = tmp_path / "e.bin"
        write_embedding_file(path, 4, "float16", entries)
        with pytest.raises(ZeroVectorRow) as info:
            ingest_embeddings(path, "document")
        assert (info.value.doc_id, info.value.row_index) == (f"d{doc}", row)


class TestCastPrecision:
    def test_f32_f16_f32_error_bound(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        write_embedding_file(
            path, 32, "float32", [("d", rng.standard_normal((64, 32)))]
        )
        store = ingest_embeddings(path, "document")
        down = cast_precision(store, "float16")
        up = cast_precision(down, "float32")
        orig = store.entries["d"].astype(np.float64)
        back = up.entries["d"].astype(np.float64)
        mask = (np.abs(orig) >= 2**-14) & (np.abs(orig) <= 1.0)
        rel = np.abs(back[mask] - orig[mask]) / np.abs(orig[mask])
        assert rel.max() <= 2**-10

    def test_f16_matches_scalar_reference(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        write_embedding_file(path, 16, "float32", [("d", rng.standard_normal((8, 16)))])
        store = ingest_embeddings(path, "document")
        down = cast_precision(store, "float16")
        for orig, cast in zip(store.entries["d"].ravel(), down.entries["d"].ravel()):
            ref = struct.unpack("<e", struct.pack("<e", float(orig)))[0]
            assert float(cast) == ref

    def test_same_precision_identity(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        write_embedding_file(path, 4, "float32", [("d", unit_rows(rng, 3, 4))])
        store = ingest_embeddings(path, "document")
        same = cast_precision(store, "float32")
        np.testing.assert_array_equal(store.entries["d"], same.entries["d"])
        assert same.entries["d"].dtype == np.float32

    def test_one_survives_half_round_trip(self):
        assert np.float16(1.0) == 1.0
        assert np.float32(np.float16(np.float32(1.0))) == 1.0

    def test_ordering_and_ids_unchanged(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        write_embedding_file(
            path, 4, "float32", [(f"d{i}", unit_rows(rng, 2, 4)) for i in (3, 1, 2)]
        )
        store = ingest_embeddings(path, "document")
        down = cast_precision(store, "float16")
        assert down.doc_ids == store.doc_ids
        assert down.dim == store.dim


class TestCorpusJsonl:
    def test_read(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "a", "text": "東京都"}\n{"id": "b", "text": "hello"}\n',
            encoding="utf-8",
        )
        records = read_corpus_jsonl(path)
        assert [(r.id, r.text) for r in records] == [("a", "東京都"), ("b", "hello")]

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
        with pytest.raises(DuplicateDocId):
            read_corpus_jsonl(path)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "text": "x"}\nnot json\n')
        with pytest.raises(ParseError) as info:
            read_corpus_jsonl(path)
        assert info.value.line == 2

    def test_empty_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "", "text": "x"}\n')
        with pytest.raises(ParseError):
            read_corpus_jsonl(path)

    @pytest.mark.parametrize("doc_id", ["a b", "a\tb", "a\nb", " a", "a\u3000b"])
    def test_whitespace_in_id_rejected(self, tmp_path, doc_id):
        # a TREC run line splits on whitespace, so such an id could not be read back
        path = tmp_path / "c.jsonl"
        lines = [{"id": "ok", "text": "x"}, {"id": doc_id, "text": "y"}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(ParseError) as info:
            read_corpus_jsonl(path)
        assert info.value.line == 2


    @pytest.mark.parametrize("line", [
        '{"id": "d2", "text": null}', '{"id": "d2", "text": 5}', '{"id": "d2", "text": ["x"]}',
        '{"id": null, "text": "x"}', '{"id": true, "text": "x"}', '{"id": 2.0, "text": "x"}',
        '{"id": ["d2"], "text": "x"}', '{"id": {}, "text": "x"}',
    ])
    def test_mistyped_id_or_text_rejected(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "d1", "text": "x"}\n' + line + "\n")
        with pytest.raises(ParseError) as info:
            read_corpus_jsonl(path)
        assert info.value.line == 2
        assert ("'text'" if '"text": "x"' not in line else "'id'") in str(info.value)

    def test_integer_id_read_as_digits(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": 7, "text": "x"}\n{"id": -3, "text": "y"}\n')
        assert [r.id for r in read_corpus_jsonl(path)] == ["7", "-3"]


class TestTextLines:
    def test_whitespace_rows_skip_blank_lines(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("a b\n\n   \t \nc  d\n", encoding="utf-8")
        assert list(read_rows(path, 2)) == [(1, ["a", "b"]), (4, ["c", "d"])]

    def test_tab_rows_skip_only_empty_lines(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("q1\td 1\n\nq2\t\n", encoding="utf-8")
        assert list(read_rows(path, 2, sep="\t")) == [(1, ["q1", "d 1"]), (3, ["q2", ""])]
        path.write_text("q1\td1\n \n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            list(read_rows(path, 2, sep="\t"))
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "sep, line",
        [(None, "a b c"), (None, "a"), ("\t", "a\tb\tc"), ("\t", "a b"), ("\t", "a\tb\t")],
    )
    def test_wrong_field_count(self, tmp_path, sep, line):
        path = tmp_path / "rows.txt"
        path.write_text(f"x{sep or ' '}y\n{line}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="expected 2 fields") as info:
            list(read_rows(path, 2, sep=sep))
        assert info.value.line == 2

    def test_jsonl_skips_whitespace_lines(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n  \n\t\n {"b": [2]} \n', encoding="utf-8")
        assert list(read_jsonl(path)) == [(1, {"a": 1}), (4, {"b": [2]})]

    @pytest.mark.parametrize("line", ["{", "[1]", '"s"', "3", "null", "true"])
    def test_jsonl_line_must_be_an_object(self, tmp_path, line):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            list(read_jsonl(path))
        assert info.value.line == 2

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_invalid_utf8_line_past_first_read(self, tmp_path, eol):
        # far more than one buffered read of good lines before the bad one
        path = tmp_path / "x.jsonl"
        path.write_bytes((('{"a": 1}' + eol) * 3000 + '{"a": "\udcff"}' + eol)
                         .encode("utf-8", "surrogateescape"))
        for reader in (read_jsonl, lambda p: read_rows(p, 2)):
            with pytest.raises(ParseError, match="UTF-8") as info:
                list(reader(path))
            assert info.value.line == 3001

    @pytest.mark.parametrize("name", TEXT_WRITERS)
    def test_failed_write_keeps_previous_file(self, tmp_path, name):
        writer, item = TEXT_WRITERS[name]
        path = tmp_path / "out"
        writer(path, [item])
        before = path.read_bytes()

        def failing():
            yield item
            yield item
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            writer(path, failing())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_writers(self, tmp_path):
        assert write_jsonl(tmp_path / "x.jsonl", [{"id": "東京", "n": [1.5]}, {}]) == 2
        written = (tmp_path / "x.jsonl").read_text(encoding="utf-8")
        assert written == '{"id": "東京", "n": [1.5]}\n{}\n'
        write_rows(tmp_path / "x.tsv", [("q1", "d1", "0.5"), ["q2", "東"]])
        assert (tmp_path / "x.tsv").read_text(encoding="utf-8") == "q1\td1\t0.5\nq2\t東\n"
        assert next(read_rows(tmp_path / "x.tsv", 3, sep="\t")) == (1, ["q1", "d1", "0.5"])


class TestMetadataJson:
    KEYS = {"dim": int, "name": str, "flag": bool, "avg": (int, float)}

    def test_round_trip(self, tmp_path):
        meta = {"dim": 8, "name": "x", "flag": False, "avg": 2, "extra": None}
        write_json(tmp_path / "m.json", meta)
        assert read_json(tmp_path / "m.json", self.KEYS) == meta
        written = (tmp_path / "m.json").read_text()
        assert written == json.dumps(meta, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "text",
        [
            '{"name": "x", "flag": true, "avg": 1.5}',
            '{"dim": "8", "name": "x", "flag": true, "avg": 1}',
            '{"dim": true, "name": "x", "flag": true, "avg": 1}',
            '{"dim": 8, "name": "x", "flag": 1, "avg": 1}',
            '{"dim": 8, "name": "x", "flag": true, "avg": false}',
            '{"dim": 8, "name": null, "flag": true, "avg": 1}',
            "[8]", '{"dim": 8', "", "\xff",
        ],
    )
    def test_rejected(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(FormatError, match="m.json"):
            read_json(path, self.KEYS)

    def test_write_replaces_atomically(self, tmp_path, monkeypatch):
        path = tmp_path / "m.json"
        write_json(path, {"a": 1})

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(lateir.store.os, "replace", failing_replace)
        with pytest.raises(OSError):
            write_json(path, {"a": 2})
        assert json.loads(path.read_text()) == {"a": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


class TestEmbeddingStore:
    def test_layout(self, rng):
        a, b = unit_rows(rng, 3, 8), unit_rows(rng, 2, 8)
        store = EmbeddingStore(dim=8, precision="float16", kind="document", entries={"a": a, "b": b})
        assert store.tokens.dtype == np.float16 and store.tokens.shape == (5, 8)
        assert store.offsets.tolist() == [0, 3, 5] and store.doc_ids == ["a", "b"]
        assert (len(store), store.n_docs, store.total_tokens) == (2, 2, 5)
        np.testing.assert_array_equal(store.tokens, np.vstack([a, b]).astype(np.float16))
        assert list(store.entries) == ["a", "b"]
        for doc_id, (lo, hi) in {"a": (0, 3), "b": (3, 5)}.items():
            assert store.entries[doc_id].base is store.tokens  # a view, not a copy
            np.testing.assert_array_equal(store.entries[doc_id], store.tokens[lo:hi])

    def test_entries_read_only(self, rng):
        store = random_store(rng, 3, 8)
        with pytest.raises(TypeError):
            store.entries["d1"] = unit_rows(rng, 2, 8)
        with pytest.raises(TypeError):
            del store.entries["d1"]
        assert list(store.entries) == store.doc_ids == ["d0", "d1", "d2"]

    def test_empty_store(self):
        empty = EmbeddingStore(dim=8, precision="float32", kind="document", entries={})
        assert empty.tokens.shape == (0, 8) and empty.offsets.tolist() == [0]
        assert (len(empty), empty.total_tokens, dict(empty.entries)) == (0, 0, {})
        with pytest.raises(EmptyStore):
            build_exact(empty)

    def test_zero_row_document(self, rng):
        with pytest.raises(FormatError, match="'c' has zero tokens"):
            store_with_empty_doc(rng)

    @pytest.mark.parametrize("shape", [(2, 4), (8,), (2, 8, 1)])
    def test_wrong_shape_rejected(self, rng, shape):
        entries = {"a": unit_rows(rng, 3, 8), "b": np.ones(shape)}
        with pytest.raises(FormatError, match="'b' has shape"):
            EmbeddingStore(dim=8, precision="float32", kind="document", entries=entries)


class TestTokenTable:
    LENGTHS = [3, 1, 4, 1, 5, 2, 6]

    def _table(self):
        offsets = np.cumsum([0] + self.LENGTHS, dtype=np.int64)
        return TokenTable([f"d{i}" for i in range(len(self.LENGTHS))], offsets)

    @pytest.mark.parametrize("docs", [[0], [6], [3], [0, 6], [6, 2, 5, 0], [1, 3], list(range(7))])
    def test_rows_of_matches_per_document_loop(self, docs):
        table = self._table()
        flat, bounds = table.rows_of(np.array(docs, dtype=np.int64))
        rows = [list(range(table.offsets[d], table.offsets[d + 1])) for d in docs]
        assert flat.tolist() == [t for run in rows for t in run]
        assert bounds.tolist() == [sum(len(run) for run in rows[:i]) for i in range(len(docs) + 1)]

    def test_counts_and_token_docs(self):
        table = self._table()
        assert (table.n_docs, table.total_tokens) == (7, sum(self.LENGTHS))
        assert table.token_counts().tolist() == self.LENGTHS
        expected = [d for d, n in enumerate(self.LENGTHS) for _ in range(n)]
        assert table.token_docs().tolist() == expected


class TestArrayContainer:
    DTYPES = ["<f2", "<i8", "u1", "<u4"]

    def _arrays(self, rng):
        return [
            rng.standard_normal((5, 3)).astype("<f2"),
            np.arange(7, dtype="<i8"),
            np.zeros(0, dtype="u1"),
            rng.integers(0, 1 << 32, size=(2, 2, 2)).astype("<u4"),
        ]

    def test_round_trip(self, tmp_path, rng):
        arrays = self._arrays(rng)
        write_arrays(tmp_path / "a.bin", b"TEST", 3, arrays)
        back = read_arrays(tmp_path / "a.bin", b"TEST", 3, self.DTYPES)
        assert len(back) == len(arrays)
        for a, b in zip(arrays, back):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "magic, version, dtypes",
        [
            (b"NOPE", 3, DTYPES),
            (b"TEST", 1, DTYPES),
            (b"TEST", 3, DTYPES[:3]),
            (b"TEST", 3, ["<f4"] + DTYPES[1:]),
        ],
    )
    def test_header_and_dtype_checked(self, tmp_path, rng, magic, version, dtypes):
        write_arrays(tmp_path / "a.bin", b"TEST", 3, self._arrays(rng))
        with pytest.raises(FormatError):
            read_arrays(tmp_path / "a.bin", magic, version, dtypes)

    def test_old_version_asks_for_rebuild(self, tmp_path):
        write_arrays(tmp_path / "a.bin", b"TEST", 1, [np.zeros(2)])
        with pytest.raises(FormatError, match="rebuild the index"):
            read_arrays(tmp_path / "a.bin", b"TEST", 2, ["<f8"])

    def test_fortran_order_rejected(self, tmp_path):
        path = tmp_path / "a.bin"
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sII", b"TEST", 1, 1))
            np.lib.format.write_array(fh, np.asfortranarray(np.ones((3, 2))))
        with pytest.raises(FormatError):
            read_arrays(path, b"TEST", 1, ["<f8"])

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "a.bin"
        write_arrays(path, b"TEST", 1, [np.ones(3)])
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="trailing"):
            read_arrays(path, b"TEST", 1, ["<f8"])

    def test_failed_write_keeps_previous_file(self, tmp_path, rng):
        path = tmp_path / "a.bin"
        write_arrays(path, b"TEST", 3, self._arrays(rng))
        before = path.read_bytes()
        # an object array cannot be written without pickling, so the write
        # fails after the header and the first array are already out
        with pytest.raises(ValueError):
            write_arrays(path, b"TEST", 3, [np.ones(4), np.array([None, 1], dtype=object)])
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]

    def test_strings_round_trip(self):
        # one empty string first, then one last: a repeated string is rejected (below)
        for strings in (["", "doc-1", "東京都", "é"], ["doc-1", "東京都", "é", ""]):
            blob, offsets = pack_strings(strings)
            assert blob.dtype == np.uint8 and offsets.dtype == np.int64
            assert offsets.shape == (len(strings) + 1,)
            assert unpack_strings(blob, offsets, "x") == strings
        assert unpack_strings(*pack_strings([]), "x") == []

    @pytest.mark.parametrize("strings", [["", "doc-1", "東京都", "é", ""], ["a", "b", "a"]])
    def test_repeated_string_rejected(self, strings):
        with pytest.raises(FormatError, match="duplicate"):
            unpack_strings(*pack_strings(strings), "x")

    @pytest.mark.parametrize(
        "offsets", [[0, 2, 1, 5], [1, 3, 5], [0, 3, 6], [0, 5, 5, 5, 9], [], [0, 3, 5]]
    )
    def test_bad_string_offsets_or_utf8_rejected(self, offsets):
        blob, _ = pack_strings(["ab", "東"])  # 2 + 3 bytes; splitting inside 東 is bad UTF-8
        with pytest.raises(FormatError):
            unpack_strings(blob, np.array(offsets, dtype=np.int64), "x")
