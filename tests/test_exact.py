"""Exact flat index: brute-force parity, ordering contract, persistence."""

import numpy as np
import pytest

from lateir.errors import DimMismatch, EmptyStore, FormatError, NonFiniteScore
from lateir.exact import build_exact, load_exact, save_exact, search_exact
from lateir.scoring import maxsim
from lateir.store import EmbeddingStore, StoreManifest

from conftest import BAD_QUERIES, edit_container, random_store, store_from_matrices, unit_rows
from conftest import store_with_empty_doc


def brute_force_rank(store, q, k=None):
    """Oracle: maxsim per document + stable sort by (-score, id)."""
    scored = [(doc_id, maxsim(q, m)) for doc_id, m in store.entries.items()]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k] if k is not None else scored


def verbatim_corpus(rng, dim=8):
    """One document contains the query tokens exactly; the rest are orthogonal."""
    q = np.eye(dim)[:3]
    match = np.vstack([q, np.eye(dim)[3:5]])
    others = {f"other{i}": np.eye(dim)[5 + i : 6 + i] for i in range(dim - 5)}
    store = store_from_matrices({"match": match, **others})
    return store, q


class TestBuild:
    def test_coverage_in_order(self, rng):
        store = random_store(rng, 3, 8)
        index = build_exact(store, "float32")
        assert index.doc_ids == store.doc_ids
        assert index.n_docs == 3
        assert int(index.offsets[-1]) == store.total_tokens

    def test_empty_store(self):
        empty = EmbeddingStore(
            dim=4, precision="float32", kind="document", entries={},
            manifest=StoreManifest("x", "", 0),
        )
        with pytest.raises(EmptyStore):
            build_exact(empty, "float32")

    def test_zero_row_document_rejected(self, rng):
        with pytest.raises(FormatError, match="'c' has zero tokens"):
            build_exact(store_with_empty_doc(rng))

    def test_precision_cast(self, rng):
        store = random_store(rng, 4, 8, precision="float32")
        index = build_exact(store, "float16")
        assert index.tokens.dtype == np.float16

    def test_f16_scores_close_to_f32(self, rng):
        store = random_store(rng, 100, 64, min_tokens=4, max_tokens=24)
        idx32 = build_exact(store, "float32")
        idx16 = build_exact(store, "float16")
        worst = 0.0
        for _ in range(100):
            q = unit_rows(rng, int(rng.integers(1, 17)), 64)
            s32 = dict(search_exact(idx32, q, k=100).entries)
            s16 = dict(search_exact(idx16, q, k=100).entries)
            diff = max(abs(s32[d] - s16[d]) for d in s32)
            worst = max(worst, diff / q.shape[0])
        assert worst < 1e-2  # per query token


class TestSearch:
    def test_verbatim_match_ranked_first(self, rng):
        store, q = verbatim_corpus(rng)
        index = build_exact(store, "float32")
        result = search_exact(index, q, k=1)
        assert result.entries[0][0] == "match"
        assert result.entries[0][1] == pytest.approx(q.shape[0], abs=1e-6)

    def test_k_larger_than_corpus(self, rng):
        store = random_store(rng, 5, 8)
        index = build_exact(store, "float32")
        assert len(search_exact(index, unit_rows(rng, 2, 8), k=50)) == 5

    def test_brute_force_parity(self, rng):
        store = random_store(rng, 200, 16, min_tokens=2, max_tokens=12)
        index = build_exact(store, "float32")
        for _ in range(20):
            q = unit_rows(rng, int(rng.integers(1, 9)), 16)
            got = search_exact(index, q, k=200)
            expected = brute_force_rank(store, q)
            assert got.doc_ids() == [d for d, _ in expected]
            np.testing.assert_allclose(
                [s for _, s in got.entries], [s for _, s in expected], atol=1e-9
            )

    def test_deterministic(self, rng):
        store = random_store(rng, 50, 8)
        index = build_exact(store, "float16")
        q = unit_rows(rng, 4, 8)
        first = search_exact(index, q, k=10)
        for _ in range(3):
            assert search_exact(index, q, k=10).entries == first.entries

    def test_prefix_property(self, rng):
        store = random_store(rng, 60, 8)
        index = build_exact(store, "float32")
        q = unit_rows(rng, 3, 8)
        for k in range(1, 30):
            small = search_exact(index, q, k=k).doc_ids()
            big = search_exact(index, q, k=k + 1).doc_ids()
            assert big[:k] == small

    def test_tie_break_ascending_id(self, rng):
        m = unit_rows(rng, 4, 8)
        store = store_from_matrices({"zz": m, "aa": m.copy(), "mm": m.copy()})
        index = build_exact(store, "float32")
        result = search_exact(index, unit_rows(rng, 2, 8), k=3)
        assert result.doc_ids() == ["aa", "mm", "zz"]

    def test_scores_non_increasing(self, rng):
        store = random_store(rng, 40, 8)
        index = build_exact(store, "float32")
        scores = [s for _, s in search_exact(index, unit_rows(rng, 3, 8), k=40).entries]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_non_finite_document_refused(self, rng):
        # a store built from a mapping takes its rows unchecked
        rows = {f"d{i}": unit_rows(rng, 3, 8).astype(np.float32) for i in range(4)}
        rows["d1"][2, 0] = np.nan
        index = build_exact(EmbeddingStore(8, "float32", "document", rows), "float32")
        with pytest.raises(NonFiniteScore, match="document 1 of 4"):
            search_exact(index, unit_rows(rng, 2, 8), k=4)

    def test_dim_mismatch(self, rng):
        index = build_exact(random_store(rng, 3, 8), "float32")
        with pytest.raises(DimMismatch):
            search_exact(index, unit_rows(rng, 2, 16), k=1)

    @pytest.mark.parametrize("name", BAD_QUERIES)
    def test_non_finite_or_empty_query_rejected(self, rng, name):
        index = build_exact(random_store(rng, 3, 8), "float32")
        with pytest.raises(FormatError):
            search_exact(index, BAD_QUERIES[name], k=1)

    def test_k_validated(self, rng):
        index = build_exact(random_store(rng, 3, 8), "float32")
        with pytest.raises(ValueError):
            search_exact(index, unit_rows(rng, 2, 8), k=0)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, rng):
        store = random_store(rng, 10, 8, precision="float16")
        index = build_exact(store, "float16")
        save_exact(index, tmp_path / "idx")
        assert [p.name for p in (tmp_path / "idx").iterdir()] == ["tokens.bin"]
        back = load_exact(tmp_path / "idx")
        assert back.doc_ids == index.doc_ids
        assert back.precision == "float16"
        np.testing.assert_array_equal(back.tokens, index.tokens)
        q = unit_rows(rng, 3, 8)
        assert search_exact(back, q, k=10).entries == search_exact(index, q, k=10).entries

    def test_precision_is_the_token_record_dtype(self, tmp_path, rng):
        store = random_store(rng, 10, 8)
        save_exact(build_exact(store, "float32"), tmp_path / "idx")
        back = load_exact(tmp_path / "idx")
        assert (back.precision, back.tokens.dtype, back.dim) == ("float32", np.float32, 8)

    # tokens.bin arrays: 0 parameters, 1-2 doc ids, 3 token offsets, 4 token rows
    @pytest.mark.parametrize(
        "index, edit",
        [(4, lambda a: a.astype("<f8")), (4, lambda a: a[:-1]), (4, lambda a: a.reshape(-1)),
         (3, lambda a: a[:-1]), (2, lambda a: a[:-1])],
        ids=["float64-rows", "rows-short", "rows-flat", "offsets-short", "ids-short"],
    )
    def test_records_cross_checked(self, tmp_path, rng, index, edit):
        save_exact(build_exact(random_store(rng, 10, 8), "float16"), tmp_path / "idx")
        edit_container(tmp_path / "idx" / "tokens.bin", index, edit)
        with pytest.raises(FormatError):
            load_exact(tmp_path / "idx")
