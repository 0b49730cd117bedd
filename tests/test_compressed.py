"""Compressed index: k-means, residual codec, inverted lists, staged search."""

import json
import struct

import numpy as np
import pytest

from lateir.compressed import (
    Codebook,
    CompressedIndex,
    ResidualCodec,
    compress,
    default_centroid_count,
    load_compressed,
    pack_codes,
    save_compressed,
    search_compressed,
    train_codebook,
    unpack_codes,
)
from lateir.errors import BadCentroidId, DimMismatch, EmptyStore, FormatError, InsufficientTokens
from lateir.exact import build_exact, save_exact, search_exact
from lateir.store import EmbeddingStore
from lateir.scoring import maxsim
from conftest import (
    BAD_QUERIES,
    edit_container,
    family_corpus,
    family_queries,
    random_store,
    read_container,
    set_item,
    store_from_matrices,
    store_with_empty_doc,
    unit_rows,
)


class TestPacking:
    def test_round_trip_all_patterns(self, rng):
        for dim in (1, 3, 4, 5, 8, 13, 64):
            codes = rng.integers(0, 4, size=(40, dim)).astype(np.uint8)
            packed = pack_codes(codes)
            assert packed.shape == (40, (dim + 3) // 4)
            np.testing.assert_array_equal(unpack_codes(packed, dim), codes)

    def test_exhaustive_single_byte(self):
        quads = np.array([[a, b, c, d] for a in range(4) for b in range(4)
                          for c in range(4) for d in range(4)], dtype=np.uint8)
        np.testing.assert_array_equal(unpack_codes(pack_codes(quads), 4), quads)

    def test_packed_length(self):
        codes = np.zeros((2, 10), dtype=np.uint8)
        assert pack_codes(codes).shape[1] == 3  # ceil(10 / 4)


class TestDefaultCentroidCount:
    def test_power_of_two(self):
        for total in (10, 1000, 320_000, 5_000_000):
            k = default_centroid_count(total)
            assert k & (k - 1) == 0
            assert k >= 16 * total**0.5 * 0.999

    def test_examples(self):
        assert default_centroid_count(320_000) == 16384  # 16*sqrt = 9051 -> next pow2
        assert default_centroid_count(1024) == 512  # 16*32 = 512, already a power of two


class TestTrainCodebook:
    def test_antipodal_clusters(self, rng):
        mean = unit_rows(rng, 1, 16)[0]
        a = mean + 0.05 * rng.standard_normal((40, 16))
        b = -mean + 0.05 * rng.standard_normal((40, 16))
        store = store_from_matrices({"a": a, "b": b})
        codebook = train_codebook(store, k=2, iterations=8, seed=3)
        for row in codebook.centroids.astype(np.float64):
            angle = np.arccos(np.clip(abs(np.dot(row, mean)), -1, 1))
            assert angle < 0.05

    def test_k_equals_tokens_zero_distortion(self, rng):
        tokens = unit_rows(rng, 12, 8)
        store = store_from_matrices({"d": tokens})
        codebook = train_codebook(store, k=12, iterations=4, seed=0)
        sims = tokens @ codebook.centroids.T.astype(np.float64)
        np.testing.assert_allclose(sims.max(axis=1), 1.0, atol=1e-5)

    def test_deterministic(self, rng):
        store = random_store(rng, 30, 8, min_tokens=4, max_tokens=10)
        a = train_codebook(store, k=16, iterations=5, seed=7)
        b = train_codebook(store, k=16, iterations=5, seed=7)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_seed_changes_output(self, rng):
        store = random_store(rng, 30, 8, min_tokens=4, max_tokens=10)
        a = train_codebook(store, k=16, iterations=2, seed=1)
        b = train_codebook(store, k=16, iterations=2, seed=2)
        assert not np.array_equal(a.centroids, b.centroids)

    def test_insufficient_tokens(self, rng):
        store = store_from_matrices({"d": unit_rows(rng, 5, 8)})
        with pytest.raises(InsufficientTokens):
            train_codebook(store, k=6)

    def test_empty_store_rejected(self, rng):
        empty = EmbeddingStore(dim=8, precision="float32", kind="document", entries={})
        with pytest.raises(EmptyStore):
            train_codebook(empty, k=1)
        codebook = train_codebook(random_store(rng, 4, 8), k=2, iterations=1)
        with pytest.raises(EmptyStore):
            compress(empty, codebook)

    def test_zero_row_document_rejected(self, rng):
        # the store's constructor rejects the document, so no builder ever sees it
        with pytest.raises(FormatError, match="'c' has zero tokens"):
            train_codebook(store_with_empty_doc(rng), k=2)

    def test_centroids_unit(self, rng):
        store = random_store(rng, 50, 16, min_tokens=2, max_tokens=8)
        codebook = train_codebook(store, k=32, iterations=3, seed=0)
        norms = np.linalg.norm(codebook.centroids.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-3)


class TestCompress:
    def test_conservation(self, rng):
        store = random_store(rng, 40, 16, min_tokens=2, max_tokens=20)
        codebook = train_codebook(store, k=16, iterations=3, seed=0)
        index = compress(store, codebook)
        assert index.total_tokens == store.total_tokens
        assert list(index.token_counts()) == [m.shape[0] for m in store.entries.values()]

    def test_inverted_lists_partition_tokens(self, rng):
        store = random_store(rng, 25, 8, min_tokens=1, max_tokens=9)
        codebook = train_codebook(store, k=8, iterations=3, seed=1)
        index = compress(store, codebook)
        pairs = [
            (c, int(doc))
            for c in range(codebook.k)
            for doc in index.ivf_docs[index.ivf_offsets[c] : index.ivf_offsets[c + 1]]
        ]
        assert len(pairs) == len(set(pairs))
        token_doc = np.repeat(np.arange(index.n_docs), index.token_counts())
        expected = set(zip(index.centroid_ids.tolist(), token_doc.tolist()))
        assert set(pairs) == expected
        assert int(index.ivf_offsets[-1]) == len(expected)

    def test_ivf_membership_is_nearest_centroid(self, rng):
        store = random_store(rng, 10, 8, min_tokens=2, max_tokens=6)
        codebook = train_codebook(store, k=4, iterations=3, seed=0)
        index = compress(store, codebook)
        for doc in range(index.n_docs):
            for t in range(index.offsets[doc], index.offsets[doc + 1]):
                c = int(index.centroid_ids[t])
                lo, hi = index.ivf_offsets[c], index.ivf_offsets[c + 1]
                assert doc in index.ivf_docs[lo:hi]

    def test_token_equal_to_centroid(self, rng):
        # residual is zero, so reconstruction differs from the centroid only
        # by the per-dimension representative offsets
        base = unit_rows(rng, 6, 8)
        store = store_from_matrices({"d": base})
        codebook = train_codebook(store, k=6, iterations=6, seed=0)
        index = compress(store, codebook)
        tokens = store.entries["d"].astype(np.float64)
        for pos in range(6):
            t = int(index.centroid_ids[pos])
            centroid = codebook.centroids[t].astype(np.float64)
            if not np.allclose(tokens[pos], centroid, atol=1e-6):
                continue
            codes = unpack_codes(index.packed_codes[pos : pos + 1], 8)[0]
            rep = index.codec.values[np.arange(8), codes].astype(np.float64)
            raw = centroid + rep
            recon = raw / np.linalg.norm(raw)
            got = index.decode(np.array([pos]))[0]
            max_offset = np.abs(index.codec.values).max()
            assert np.abs(got.astype(np.float64) - centroid).max() <= 2 * max_offset + 1e-6
            np.testing.assert_allclose(got.astype(np.float64), recon, atol=1e-6)

    def test_round_trip_error_within_bucket_width(self, rng):
        store = random_store(rng, 60, 8, min_tokens=2, max_tokens=16)
        codebook = train_codebook(store, k=16, iterations=4, seed=0)
        index = compress(store, codebook)
        tokens = np.vstack([m.astype(np.float32) for m in store.entries.values()])
        assign = index.centroid_ids.astype(np.int64)
        residuals = tokens - codebook.centroids[assign]
        codes = unpack_codes(index.packed_codes, 8)
        reps = index.codec.values[np.arange(8)[None, :], codes]
        err = np.abs(residuals - reps)
        lo = residuals.min(axis=0)
        hi = residuals.max(axis=0)
        for d in range(8):
            edges = np.concatenate(([lo[d]], index.codec.cutoffs[d], [hi[d]]))
            widths = np.diff(edges)
            allowed = widths[codes[:, d]]
            assert np.all(err[:, d] <= allowed + 1e-6)

    def test_dim_mismatch(self, rng):
        store = random_store(rng, 10, 8)
        other = random_store(rng, 10, 16)
        codebook = train_codebook(other, k=4, iterations=2, seed=0)
        with pytest.raises(DimMismatch):
            compress(store, codebook)

    def test_reconstruction_cosine(self, rng):
        # threshold fixed from an oracle run on this clustered configuration
        store, _ = family_corpus(rng, 300, 16, 32)
        k = default_centroid_count(store.total_tokens)
        while k > store.total_tokens:
            k //= 2
        codebook = train_codebook(store, k=k, iterations=4, seed=0)
        index = compress(store, codebook)
        tokens = np.vstack([m.astype(np.float64) for m in store.entries.values()])
        codes = unpack_codes(index.packed_codes, 32)
        recon = (
            codebook.centroids[index.centroid_ids.astype(np.int64)]
            + index.codec.values[np.arange(32)[None, :], codes]
        ).astype(np.float64)
        recon /= np.linalg.norm(recon, axis=1, keepdims=True)
        cosines = np.einsum("ij,ij->i", tokens / np.linalg.norm(tokens, axis=1, keepdims=True), recon)
        assert cosines.mean() >= 0.85


class TestDecompress:
    def test_zero_representatives_give_centroid(self, rng):
        centroids = unit_rows(rng, 4, 8).astype(np.float32)
        index = CompressedIndex(
            ["d"], np.array([0, 4], dtype=np.int64),
            codebook=Codebook(centroids=centroids, seed=0),
            codec=ResidualCodec(
                cutoffs=np.zeros((8, 3), np.float32), values=np.zeros((8, 4), np.float32)
            ),
            centroid_ids=np.array([2, 0, 3, 2], dtype=np.uint32),
            packed_codes=np.zeros((4, 2), dtype=np.uint8),
            params={},
        )
        got = index.decode(np.arange(4))
        np.testing.assert_allclose(got, centroids[[2, 0, 3, 2]], atol=1e-6)
        np.testing.assert_array_equal(index.ivf_offsets, [0, 1, 1, 2, 3])
        np.testing.assert_array_equal(index.ivf_docs, [0, 0, 0])

    def test_decompress_unit_norm(self, rng):
        store = random_store(rng, 20, 8)
        codebook = train_codebook(store, k=8, iterations=3, seed=0)
        index = compress(store, codebook)
        vecs = index.decode(np.arange(index.total_tokens))
        assert vecs.dtype == np.float32
        norms = np.linalg.norm(vecs.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-3)


class TestSearch:
    def _built(self, rng, n_docs=120, dim=16, tokens=8, k=32):
        store, identities = family_corpus(rng, n_docs, tokens, dim, family_size=10)
        if k is None:
            k = default_centroid_count(store.total_tokens)
            while k > store.total_tokens:
                k //= 2
        codebook = train_codebook(store, k=k, iterations=4, seed=0)
        return store, compress(store, codebook), identities

    @pytest.mark.parametrize("name", BAD_QUERIES)
    def test_non_finite_or_empty_query_rejected(self, rng, name):
        _, index, _ = self._built(rng, n_docs=40, dim=8, tokens=4, k=8)
        with pytest.raises(FormatError):
            search_compressed(index, BAD_QUERIES[name], k=1)

    def test_exhaustive_limit_equals_exact_over_decompressed(self, rng):
        store, index, _ = self._built(rng)
        dim = store.dim
        # oracle: exact search over each document's decoded vectors, one document at a time
        recon_entries = {
            doc_id: index.decode(np.arange(index.offsets[i], index.offsets[i + 1]))
            for i, doc_id in enumerate(index.doc_ids)
        }
        for _ in range(5):
            q = unit_rows(rng, 4, dim)
            got = search_compressed(
                index, q, k=index.n_docs, nprobe=index.codebook.k, candidate_cap=index.n_docs
            )
            oracle = sorted(
                ((d, maxsim(q, m)) for d, m in recon_entries.items()),
                key=lambda e: (-e[1], e[0]),
            )
            assert got.doc_ids() == [d for d, _ in oracle]
            np.testing.assert_allclose(
                [s for _, s in got.entries], [s for _, s in oracle], atol=1e-9
            )

    def test_separation_preserved(self, rng):
        # corpus with one verbatim match and orthogonal distractors
        dim = 16
        q = np.eye(dim)[:3]
        matrices = {"match": np.vstack([q, np.eye(dim)[3:5]])}
        for i in range(dim - 5):
            matrices[f"other{i}"] = np.eye(dim)[5 + i : 6 + i]
        store = store_from_matrices(matrices)
        codebook = train_codebook(store, k=8, iterations=4, seed=0)
        index = compress(store, codebook)
        got = search_compressed(index, q, k=1, nprobe=4, candidate_cap=16)
        exact = search_exact(build_exact(store, "float32"), q, k=1)
        assert got.entries[0][0] == "match"
        assert got.entries[0][0] == exact.entries[0][0]

    def test_overlap_improves_with_nprobe(self, rng):
        store, index, identities = self._built(rng, n_docs=400, tokens=16, k=None)
        exact_index = build_exact(store, "float32")
        queries = family_queries(rng, identities, 20, 16)
        overlaps = []
        for nprobe in (1, 4, index.codebook.k):
            total = 0.0
            for q in queries.values():
                approx = set(search_compressed(index, q, 10, nprobe=nprobe,
                                               candidate_cap=400).doc_ids())
                exact = set(search_exact(exact_index, q, 10).doc_ids())
                total += len(approx & exact) / 10
            overlaps.append(total / len(queries))
        assert overlaps[2] >= overlaps[0]
        assert overlaps[2] >= 0.9

    def test_candidate_cap_respected(self, rng):
        store, index, _ = self._built(rng)
        q = unit_rows(rng, 4, store.dim)
        got = search_compressed(index, q, k=5, nprobe=index.codebook.k, candidate_cap=5)
        assert len(got) == 5

    def test_parameter_validation(self, rng):
        store, index, _ = self._built(rng, n_docs=20)
        q = unit_rows(rng, 2, store.dim)
        with pytest.raises(ValueError):
            search_compressed(index, q, k=0)
        with pytest.raises(ValueError):
            search_compressed(index, q, k=5, candidate_cap=4)
        with pytest.raises(DimMismatch):
            search_compressed(index, unit_rows(rng, 2, store.dim * 2), k=1)

    def test_deterministic(self, rng):
        store, index, _ = self._built(rng, n_docs=50)
        q = unit_rows(rng, 3, store.dim)
        first = search_compressed(index, q, k=10)
        for _ in range(3):
            assert search_compressed(index, q, k=10).entries == first.entries


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, rng):
        store = random_store(rng, 30, 12, min_tokens=2, max_tokens=9)
        codebook = train_codebook(store, k=8, iterations=3, seed=5)
        index = compress(store, codebook)
        save_compressed(index, tmp_path / "idx")
        back = load_compressed(tmp_path / "idx")
        np.testing.assert_array_equal(back.codebook.centroids, index.codebook.centroids)
        np.testing.assert_array_equal(back.codec.cutoffs, index.codec.cutoffs)
        np.testing.assert_array_equal(back.codec.values, index.codec.values)
        assert back.doc_ids == index.doc_ids
        np.testing.assert_array_equal(back.offsets, index.offsets)
        np.testing.assert_array_equal(back.centroid_ids, index.centroid_ids)
        np.testing.assert_array_equal(back.packed_codes, index.packed_codes)
        np.testing.assert_array_equal(back.ivf_offsets, index.ivf_offsets)
        np.testing.assert_array_equal(back.ivf_docs, index.ivf_docs)
        q = unit_rows(rng, 3, 12)
        assert (
            search_compressed(back, q, k=10).entries
            == search_compressed(index, q, k=10).entries
        )

    def test_identical_bytes_across_builds(self, tmp_path, rng):
        store = random_store(rng, 30, 12, min_tokens=2, max_tokens=9)
        for name in ("one", "two"):
            codebook = train_codebook(store, k=8, iterations=3, seed=5)
            save_compressed(compress(store, codebook), tmp_path / name)
        for filename in ("codebook.bin", "residuals.bin", "meta.json"):
            assert (tmp_path / "one" / filename).read_bytes() == (
                tmp_path / "two" / filename
            ).read_bytes(), filename

    def test_doc_table_records_match_exact_index(self, tmp_path, rng):
        store = random_store(rng, 30, 12, min_tokens=2, max_tokens=9)
        save_exact(build_exact(store), tmp_path / "exact")
        save_compressed(compress(store, train_codebook(store, k=8, seed=5)), tmp_path / "comp")
        _, _, exact = read_container(tmp_path / "exact" / "tokens.bin")
        _, _, comp = read_container(tmp_path / "comp" / "residuals.bin")
        # doc id blob, doc id offsets, token offsets
        for a, b in zip(exact[0:3], comp[2:5], strict=True):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestLoadChecks:
    """load_compressed rejects arrays that disagree with meta.json or the codebook."""

    @pytest.fixture
    def saved(self, tmp_path, rng):
        store = random_store(rng, 12, 8, min_tokens=2, max_tokens=6)
        codebook = train_codebook(store, k=8, iterations=2, seed=0)
        save_compressed(compress(store, codebook), tmp_path / "idx")
        return tmp_path / "idx"

    def test_centroid_id_out_of_range(self, saved):
        edit_container(saved / "residuals.bin", 5, set_item(3, 10**6))
        with pytest.raises(BadCentroidId):
            load_compressed(saved)

    # residuals.bin arrays: 0 cutoffs, 1 values, 2-3 doc ids, 4 token offsets,
    # 5 centroid ids, 6 packed codes
    @pytest.mark.parametrize(
        "index, edit",
        [
            (0, lambda a: a[:, :2]),
            (1, lambda a: a[:-1]),
            (6, lambda a: a[:, :-1]),
            (6, lambda a: a[:-1]),
            (5, lambda a: a[:-1]),
            (3, lambda a: a[:-1]),
            (4, lambda a: a[:-1]),
            (4, lambda a: a + 1),
            (4, set_item(-1, 10**6)),
            (4, set_item(2, 1)),
            (4, set_item(1, 0)),
        ],
        ids=[
            "cutoffs", "values", "code-width", "code-rows", "centroid-ids", "doc-ids",
            "offset-count", "offsets-from-1", "offsets-past-end", "offsets-decrease",
            "empty-doc",
        ],
    )
    def test_arrays_checked(self, saved, index, edit):
        edit_container(saved / "residuals.bin", index, edit)
        with pytest.raises(FormatError):
            load_compressed(saved)

    @pytest.mark.parametrize("key", ["doc_count", "token_count", "k_centroids", "dim"])
    def test_meta_counts_checked(self, saved, key):
        meta = json.loads((saved / "meta.json").read_text(encoding="utf-8"))
        meta[key] += 1
        (saved / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(FormatError):
            load_compressed(saved)

    @pytest.mark.parametrize("name", ["codebook.bin", "residuals.bin"])
    def test_version_one_file_rejected(self, saved, name):
        data = bytearray((saved / name).read_bytes())
        data[4:8] = struct.pack("<I", 1)
        (saved / name).write_bytes(bytes(data))
        with pytest.raises(FormatError, match="rebuild the index"):
            load_compressed(saved)
