"""Tokenization and BM25 ranking against a naive full-scan reference."""

import math
import struct

import numpy as np
import pytest

from lateir.bm25 import (
    Tokenizer,
    build_bm25,
    load_bm25,
    save_bm25,
    search_bm25,
    tokenize,
)
from lateir.cli import main
from lateir.errors import ConfigError, DuplicateDocId, FormatError
from lateir.store import CorpusRecord

from conftest import dir_bytes, edit_container, fail_on_call, set_item


def naive_bm25(corpus, t, query, k1, b):
    """Direct formula evaluation over a full corpus scan."""
    docs = {r.id: tokenize(r.text, t) for r in corpus}
    n = len(docs)
    avgdl = sum(len(v) for v in docs.values()) / n if n else 0.0
    scores = {}
    for doc_id, tokens in docs.items():
        score = 0.0
        hit = False
        for term in tokenize(query, t):
            tf = tokens.count(term)
            if tf == 0:
                continue
            hit = True
            df = sum(1 for other in docs.values() if term in other)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(tokens) / avgdl))
        if hit:
            scores[doc_id] = score
    return scores


def random_corpus(rng, n_docs, vocab=("ab", "cd", "ef", "gh", "ij", "kl"), max_len=12):
    records = []
    for i in range(n_docs):
        words = rng.choice(vocab, size=int(rng.integers(1, max_len)))
        records.append(CorpusRecord(id=f"d{i:03d}", text=" ".join(words)))
    return records


class TestTokenize:
    def test_japanese_bigrams(self):
        assert tokenize("東京都", Tokenizer("char_bigram")) == ["東京", "京都"]

    def test_single_codepoint(self):
        assert tokenize("a", Tokenizer("char_bigram")) == ["a"]

    def test_whitespace_scheme(self):
        assert tokenize("ab cd", Tokenizer("whitespace")) == ["ab", "cd"]

    def test_bigram_strips_whitespace(self):
        # 5 codepoints, 4 after whitespace removal -> 3 bigrams
        assert tokenize("ab cd", Tokenizer("char_bigram")) == ["ab", "bc", "cd"]

    def test_bigram_count_law(self):
        for text in ("猫", "猫犬", "猫犬鳥", "a b c d"):
            stripped = [c for c in text if not c.isspace()]
            got = tokenize(text, Tokenizer("char_bigram"))
            assert len(got) == max(len(stripped) - 1, 1)

    def test_empty_text(self):
        for scheme in ("char_bigram", "char_unigram", "whitespace"):
            assert tokenize("", Tokenizer(scheme)) == []

    def test_unigram(self):
        assert tokenize("東京", Tokenizer("char_unigram")) == ["東", "京"]

    def test_lowercasing(self):
        assert tokenize("AB", Tokenizer("char_bigram", lowercase=True)) == ["ab"]
        assert tokenize("AB", Tokenizer("char_bigram", lowercase=False)) == ["AB"]

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            Tokenizer("words")

    def test_deterministic(self):
        t = Tokenizer("char_bigram")
        assert tokenize("同じ文字列", t) == tokenize("同じ文字列", t)


class TestBuild:
    def test_shared_term_posting(self):
        corpus = [CorpusRecord("a", "xy"), CorpusRecord("b", "xy"), CorpusRecord("c", "zz")]
        index = build_bm25(corpus, Tokenizer("char_bigram"))
        docs, tfs = index.postings["xy"]
        assert len(docs) == 2
        assert list(tfs) == [1, 1]

    def test_single_doc_avgdl(self):
        corpus = [CorpusRecord("a", "abcd")]
        index = build_bm25(corpus, Tokenizer("char_bigram"))
        assert index.avgdl == 3.0  # "abcd" -> 3 bigrams

    def test_duplicate_doc_id(self):
        corpus = [CorpusRecord("a", "xy"), CorpusRecord("a", "zz")]
        with pytest.raises(DuplicateDocId):
            build_bm25(corpus, Tokenizer("char_bigram"))

    def test_lengths_sum_to_doc_length(self, rng):
        corpus = [CorpusRecord("empty", ""), *random_corpus(rng, 20), CorpusRecord("blank", " \n")]
        t = Tokenizer("char_bigram")
        index = build_bm25(corpus, t)
        totals = {i: 0 for i in range(len(corpus))}
        for docs, tfs in index.postings.values():
            for d, tf in zip(docs, tfs):
                totals[int(d)] += int(tf)
        for i, record in enumerate(corpus):
            assert totals[i] == index.doc_lengths[i] == len(tokenize(record.text, t))
        assert index.doc_lengths[0] == index.doc_lengths[-1] == 0
        assert index.doc_lengths.dtype == np.int64
        assert index.avgdl == float(np.mean(index.doc_lengths))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_bm25([], Tokenizer(), k1=-0.1)
        with pytest.raises(ValueError):
            build_bm25([], Tokenizer(), b=1.5)

    def test_idf_nonnegative(self, rng):
        corpus = random_corpus(rng, 30)
        index = build_bm25(corpus, Tokenizer("char_bigram"))
        for term in index.postings:
            assert index.idf(term) >= 0.0


class TestArrays:
    """An index is its arrays plus rows; postings is a view built on first read."""

    QUERIES = ("abcd", "ghij kl", "zz", "", "ab ab ef")

    @pytest.fixture(params=["built", "loaded"])
    def case(self, request, tmp_path, rng):
        corpus = random_corpus(rng, 30) + [CorpusRecord("empty", " ")]
        t = Tokenizer("char_bigram")
        index = build_bm25(corpus, t)
        if request.param == "loaded":
            save_bm25(index, tmp_path / "bm25")
            index = load_bm25(tmp_path / "bm25")
        return corpus, t, index

    def test_search_and_idf_never_build_postings(self, case):
        corpus, t, index = case
        for query in self.QUERIES:
            search_bm25(index, query, t, k=len(corpus))
        for term in [*index.terms, "qq"]:
            index.idf(term)
        assert "postings" not in vars(index)

    def test_idf_bit_identical_to_reference(self, case):
        corpus, t, index = case
        tokens = [set(tokenize(r.text, t)) for r in corpus]
        for term in [*index.terms, "qq"]:
            df = 0
            for doc in tokens:  # reference count: documents holding the term
                df += term in doc
            n = len(corpus)
            assert index.idf(term) == math.log((n - df + 0.5) / (df + 0.5) + 1.0), term

    def test_rows_number_the_terms(self, case):
        _, _, index = case
        assert len(index.rows) == len(index.terms)
        for i, term in enumerate(index.terms):
            assert index.rows[term] == i

    @pytest.mark.parametrize("n_docs", [0, 12])
    def test_postings_are_the_slices_once_read(self, tmp_path, rng, n_docs):
        built = build_bm25(random_corpus(rng, n_docs), Tokenizer())
        save_bm25(built, tmp_path / "bm25")
        for index in (built, load_bm25(tmp_path / "bm25")):
            postings = index.postings
            assert list(postings) == index.terms
            for i, term in enumerate(index.terms):
                lo, hi = index.bounds[i], index.bounds[i + 1]
                docs, tfs = postings[term]
                assert np.array_equal(docs, index.docs[lo:hi])
                assert np.array_equal(tfs, index.tfs[lo:hi])
            assert vars(index)["postings"] is postings is index.postings


class TestSearch:
    def test_unique_match_ranked_first(self):
        corpus = [
            CorpusRecord("x", "りんごを食べた"),
            CorpusRecord("y", "東京に行った"),
            CorpusRecord("z", "犬と散歩した"),
        ]
        t = Tokenizer("char_bigram")
        index = build_bm25(corpus, t)
        result = search_bm25(index, "りんご", t, k=3)
        assert result.entries[0][0] == "x"

    def test_hand_computed_toy_corpus(self):
        corpus = [
            CorpusRecord("d1", "ab ab cd"),
            CorpusRecord("d2", "ab ef"),
            CorpusRecord("d3", "gh ij"),
        ]
        t = Tokenizer("whitespace")
        index = build_bm25(corpus, t, k1=0.9, b=0.4)
        expected = naive_bm25(corpus, t, "ab cd", 0.9, 0.4)
        got = dict(search_bm25(index, "ab cd", t, k=3).entries)
        assert set(got) == set(expected)
        for doc_id in expected:
            assert got[doc_id] == pytest.approx(expected[doc_id], abs=1e-6)

    def test_no_match_is_empty(self):
        corpus = [CorpusRecord("a", "xyxy")]
        t = Tokenizer("char_bigram")
        index = build_bm25(corpus, t)
        assert len(search_bm25(index, "qq", t, k=5)) == 0

    def test_naive_reference_parity(self, rng):
        t = Tokenizer("whitespace")
        for trial in range(10):
            corpus = random_corpus(rng, int(rng.integers(3, 100)))
            index = build_bm25(corpus, t, k1=0.9, b=0.4)
            for _ in range(5):
                query = " ".join(rng.choice(["ab", "cd", "ef", "zz"], size=3))
                expected = naive_bm25(corpus, t, query, 0.9, 0.4)
                got = dict(search_bm25(index, query, t, k=len(corpus)).entries)
                assert set(got) == set(expected)
                for doc_id, score in expected.items():
                    assert got[doc_id] == pytest.approx(score, abs=1e-6)

    def test_repeated_query_terms_count_twice(self):
        corpus = [CorpusRecord("a", "ab cd"), CorpusRecord("b", "ab ef")]
        t = Tokenizer("whitespace")
        index = build_bm25(corpus, t)
        single = dict(search_bm25(index, "ab", t, k=2).entries)
        double = dict(search_bm25(index, "ab ab", t, k=2).entries)
        for doc_id in single:
            assert double[doc_id] == pytest.approx(2 * single[doc_id], abs=1e-9)

    def test_unrelated_doc_changes_scores_only_via_avgdl(self, rng):
        t = Tokenizer("whitespace")
        corpus = random_corpus(rng, 20)
        extended = corpus + [CorpusRecord("zzz", "qq rr ss")]  # shares no term
        for docs in (corpus, extended):
            index = build_bm25(docs, t, k1=0.9, b=0.4)
            expected = naive_bm25(docs, t, "ab cd", 0.9, 0.4)
            got = dict(search_bm25(index, "ab cd", t, k=len(docs)).entries)
            for doc_id, score in expected.items():
                assert got[doc_id] == pytest.approx(score, abs=1e-6)

    def test_tie_break_ascending_id(self):
        corpus = [CorpusRecord("zz", "ab"), CorpusRecord("aa", "ab")]
        t = Tokenizer("whitespace")
        index = build_bm25(corpus, t)
        assert search_bm25(index, "ab", t, k=2).doc_ids() == ["aa", "zz"]

    def test_tokenizer_mismatch_rejected(self):
        corpus = [CorpusRecord("a", "ab")]
        index = build_bm25(corpus, Tokenizer("whitespace"))
        with pytest.raises(ConfigError):
            search_bm25(index, "ab", Tokenizer("char_bigram"), k=1)

    def test_k_truncates(self, rng):
        corpus = [CorpusRecord(f"d{i}", "ab cd") for i in range(10)]
        t = Tokenizer("whitespace")
        index = build_bm25(corpus, t)
        assert len(search_bm25(index, "ab", t, k=4)) == 4


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, rng):
        corpus = random_corpus(rng, 25) + [CorpusRecord("empty", " ")]
        t = Tokenizer("char_bigram")
        index = build_bm25(corpus, t, k1=1.2, b=0.75)
        save_bm25(index, tmp_path / "bm25")
        back = load_bm25(tmp_path / "bm25")
        assert back.tokenizer == t
        assert back.k1 == 1.2 and back.b == 0.75
        assert (back.doc_ids, back.terms, back.avgdl) == (index.doc_ids, index.terms, index.avgdl)
        for name in ("bounds", "docs", "tfs", "doc_lengths"):
            got, want = getattr(back, name), getattr(index, name)
            assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want), name
        assert back.postings.keys() == index.postings.keys()
        query = "abcdef"
        assert (
            search_bm25(back, query, t, k=25).entries
            == search_bm25(index, query, t, k=25).entries
        )

    def test_empty_index_round_trip(self, tmp_path):
        index = build_bm25([], Tokenizer())
        save_bm25(index, tmp_path / "bm25")
        for got in (index, load_bm25(tmp_path / "bm25")):
            assert got.n_docs == 0 and got.avgdl == 0.0 and got.terms == [] and got.postings == {}
            assert got.bounds.tolist() == [0]
            assert got.docs.size == got.tfs.size == got.doc_lengths.size == 0

    def test_failed_save_keeps_previous_index(self, tmp_path, rng, monkeypatch):
        # the third record's write fails: no byte of the old index changes
        t = Tokenizer("char_bigram")
        save_bm25(build_bm25(random_corpus(rng, 15), t), tmp_path / "bm25")
        before = dir_bytes(tmp_path / "bm25")
        run = search_bm25(load_bm25(tmp_path / "bm25"), "abcdef", t, k=10).entries
        monkeypatch.setattr(np.lib.format, "write_array", fail_on_call(np.lib.format.write_array, 3))
        with pytest.raises(OSError, match="disk full"):
            save_bm25(build_bm25(random_corpus(rng, 20), t, k1=1.5), tmp_path / "bm25")
        assert dir_bytes(tmp_path / "bm25") == before
        assert search_bm25(load_bm25(tmp_path / "bm25"), "abcdef", t, k=10).entries == run

    def test_identical_bytes_across_builds(self, tmp_path, rng):
        corpus = random_corpus(rng, 15)
        t = Tokenizer("char_bigram")
        for name in ("one", "two"):
            save_bm25(build_bm25(corpus, t), tmp_path / name)
        assert dir_bytes(tmp_path / "one").keys() == {"postings.bin"}
        assert dir_bytes(tmp_path / "one") == dir_bytes(tmp_path / "two")


class TestLoadChecks:
    @pytest.fixture
    def saved(self, tmp_path, rng):
        save_bm25(build_bm25(random_corpus(rng, 10), Tokenizer("char_bigram")), tmp_path / "bm25")
        return tmp_path / "bm25"

    def _expect_format_error(self, directory, match=None):
        with pytest.raises(FormatError, match=match):
            load_bm25(directory)

    @pytest.mark.parametrize("name", ["postings.bin"])
    def test_file_version_checked(self, saved, name):
        data = bytearray((saved / name).read_bytes())
        data[4:8] = struct.pack("<I", 1)
        (saved / name).write_bytes(bytes(data))
        self._expect_format_error(saved, "rebuild the index")

    # postings.bin arrays: 0 parameters, 1-2 terms, 3 posting offsets, 4 doc indexes, 5 tfs
    @pytest.mark.parametrize(
        "edit", [lambda a: a[::-1], lambda a: a - 1, lambda a: a[:-1]],
        ids=["reversed", "shifted", "short"],
    )
    def test_posting_offsets_checked(self, saved, edit):
        edit_container(saved / "postings.bin", 3, edit)
        self._expect_format_error(saved)

    @pytest.mark.parametrize("value", [10, -1], ids=["doc-count", "negative"])
    def test_doc_index_out_of_range(self, saved, value):
        edit_container(saved / "postings.bin", 4, set_item(0, value))
        self._expect_format_error(saved, "doc index")

    # postings.bin arrays 4 (doc indexes) and 5 (tfs); the first term's list holds
    # two or more documents, so doc-twice repeats its first document in it
    @pytest.mark.parametrize(
        "record, edit, match",
        [(5, set_item(0, 0), "term frequency"), (5, set_item(0, -3), "term frequency"),
         (4, lambda a: a[[0, 0, *range(2, a.size)]], "ascending")],
        ids=["tf-zero", "tf-negative", "doc-twice"],
    )
    def test_inconsistent_postings_rejected(self, saved, capsys, record, edit, match):
        edit_container(saved / "postings.bin", record, edit)
        self._expect_format_error(saved, match)
        queries = saved.parent / "queries.jsonl"
        queries.write_text('{"id": "q", "text": "ab"}\n', encoding="utf-8")
        argv = ["bm25", "search", "--index", str(saved), "--queries", str(queries),
                "--out", str(saved.parent / "run.trec")]
        assert main(argv) == 2
        assert match in capsys.readouterr().err

    def test_term_without_postings_rejected(self, saved):
        edit_container(saved / "postings.bin", 3, set_item(1, 0))
        self._expect_format_error(saved, "posting offsets")
