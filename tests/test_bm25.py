"""Tokenization and BM25 ranking against a naive full-scan reference."""

import math
import struct

import pytest

from lateir.bm25 import (
    Tokenizer,
    build_bm25,
    load_bm25,
    save_bm25,
    search_bm25,
    tokenize,
)
from lateir.errors import ConfigError, DuplicateDocId, FormatError
from lateir.store import CorpusRecord

from conftest import edit_container, set_item


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
        corpus = random_corpus(rng, 20)
        t = Tokenizer("char_bigram")
        index = build_bm25(corpus, t)
        totals = {i: 0 for i in range(len(corpus))}
        for docs, tfs in index.postings.values():
            for d, tf in zip(docs, tfs):
                totals[int(d)] += int(tf)
        for i, record in enumerate(corpus):
            assert totals[i] == len(tokenize(record.text, t))

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
        corpus = random_corpus(rng, 25)
        t = Tokenizer("char_bigram")
        index = build_bm25(corpus, t, k1=1.2, b=0.75)
        save_bm25(index, tmp_path / "bm25")
        back = load_bm25(tmp_path / "bm25")
        assert back.tokenizer == t
        assert back.k1 == 1.2 and back.b == 0.75
        assert back.doc_ids == index.doc_ids
        assert back.avgdl == index.avgdl
        query = "abcdef"
        assert (
            search_bm25(back, query, t, k=25).entries
            == search_bm25(index, query, t, k=25).entries
        )

    def test_empty_index_round_trip(self, tmp_path):
        save_bm25(build_bm25([], Tokenizer()), tmp_path / "bm25")
        back = load_bm25(tmp_path / "bm25")
        assert back.n_docs == 0 and back.avgdl == 0.0

    def test_identical_bytes_across_builds(self, tmp_path, rng):
        corpus = random_corpus(rng, 15)
        t = Tokenizer("char_bigram")
        for name in ("one", "two"):
            save_bm25(build_bm25(corpus, t), tmp_path / name)
        for filename in ("postings.bin", "doclens.bin", "meta.json"):
            assert (tmp_path / "one" / filename).read_bytes() == (
                tmp_path / "two" / filename
            ).read_bytes()


class TestLoadChecks:
    @pytest.fixture
    def saved(self, tmp_path, rng):
        save_bm25(build_bm25(random_corpus(rng, 10), Tokenizer("char_bigram")), tmp_path / "bm25")
        return tmp_path / "bm25"

    def _expect_format_error(self, directory, match=None):
        with pytest.raises(FormatError, match=match):
            load_bm25(directory)

    @pytest.mark.parametrize("name", ["postings.bin", "doclens.bin"])
    def test_file_version_checked(self, saved, name):
        data = bytearray((saved / name).read_bytes())
        data[4:8] = struct.pack("<I", 1)
        (saved / name).write_bytes(bytes(data))
        self._expect_format_error(saved, "rebuild the index")

    # postings.bin arrays: 0-1 terms, 2 posting offsets, 3 doc indexes, 4 tfs
    @pytest.mark.parametrize(
        "edit", [lambda a: a[::-1], lambda a: a - 1, lambda a: a[:-1]],
        ids=["reversed", "shifted", "short"],
    )
    def test_posting_offsets_checked(self, saved, edit):
        edit_container(saved / "postings.bin", 2, edit)
        self._expect_format_error(saved)

    @pytest.mark.parametrize("value", [10, -1], ids=["doc-count", "negative"])
    def test_doc_index_out_of_range(self, saved, value):
        edit_container(saved / "postings.bin", 3, set_item(0, value))
        self._expect_format_error(saved, "doc index")
