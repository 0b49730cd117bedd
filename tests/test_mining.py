"""Hard-negative windows, score transposition, n-way construction."""

import pytest

from lateir.bm25 import Tokenizer, build_bm25
from lateir.errors import InsufficientCandidates, MissingRun, MissingTeacherScore, ParseError
from lateir.mining import (
    BM25_SAMPLES,
    DENSE_SAMPLES,
    MiningConfig,
    NWayExample,
    TeacherScoreTable,
    assemble_nway,
    build_nway,
    derive_seed,
    mine_bm25,
    mine_dense,
    mine_window,
    read_negatives_jsonl,
    read_nway_jsonl,
    transpose_scores,
    write_negatives_jsonl,
    write_nway_jsonl,
)
from lateir.ranking import RankedList
from lateir.store import CorpusRecord


def ranking(n, qid="q1"):
    """Ranks 1..n map to ids r001..r{n}, scores descending."""
    return RankedList(
        query_id=qid, entries=[(f"r{i:03d}", float(n - i)) for i in range(1, n + 1)]
    )


def rank_of(doc_id):
    return int(doc_id[1:])


class TestMiningConfig:
    def test_defaults(self):
        cfg = MiningConfig()
        assert (cfg.retrieve_depth, cfg.discard_top) == (110, 10)
        assert (DENSE_SAMPLES, BM25_SAMPLES) == (25, 10)
        assert cfg.pool_size == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            MiningConfig(retrieve_depth=10, discard_top=10)
        with pytest.raises(ValueError):
            mine_dense(["q1"], {"q1": ranking(110)}, {}, MiningConfig(), samples=101)

    @pytest.mark.parametrize("depth, discard", [(30, -3), (-2, -5), (0, 0), (5, 6)])
    def test_bad_window_rejected(self, depth, discard):
        with pytest.raises(ValueError, match="need 0 <= discard_top < retrieve_depth"):
            MiningConfig(retrieve_depth=depth, discard_top=discard)


class TestMineWindow:
    def test_dense_window(self):
        got = mine_window(ranking(110), set(), 10, 100, 25, seed=1)
        assert len(got) == 25
        assert len(set(got)) == 25
        assert all(11 <= rank_of(d) <= 110 for d in got)

    def test_bm25_window(self):
        got = mine_window(ranking(110), set(), 10, 100, 10, seed=1)
        assert len(got) == 10
        assert all(11 <= rank_of(d) <= 110 for d in got)

    def test_pool_exhausted(self):
        got = mine_window(ranking(12), set(), 10, 100, 25, seed=1)
        assert got == ["r011", "r012"]

    def test_too_short_ranking(self):
        assert mine_window(ranking(10), set(), 10, 100, 25, seed=1) == []
        assert mine_window(RankedList("q"), set(), 10, 100, 25, seed=1) == []

    def test_positives_excluded_all_seeds(self):
        positives = {"r015"}
        for seed in range(100):
            got = mine_window(ranking(110), positives, 10, 100, 25, seed=seed)
            assert "r015" not in got

    def test_positive_below_discard_also_excluded(self):
        # pool of exactly sample_count + 1 with one positive: every seed must
        # return the whole remaining pool
        got = mine_window(ranking(36), {"r020"}, 10, 100, 25, seed=3)
        assert len(got) == 25
        assert "r020" not in got

    def test_deterministic(self):
        a = mine_window(ranking(110), set(), 10, 100, 25, seed=9)
        b = mine_window(ranking(110), set(), 10, 100, 25, seed=9)
        assert a == b

    def test_seed_changes_sample(self):
        a = mine_window(ranking(110), set(), 10, 100, 25, seed=1)
        b = mine_window(ranking(110), set(), 10, 100, 25, seed=2)
        assert a != b

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            mine_window(ranking(110), set(), 10, 100, 101, seed=0)

    @pytest.mark.parametrize("discard, pool, samples, match", [
        (-3, 100, 25, "discard_top -3 is negative"),
        (10, 100, -1, r"sample count -1 outside \[0, 100\]"),
        (10, -2, 0, r"sample count 0 outside \[0, -2\]"),
    ])
    def test_bad_window_rejected(self, discard, pool, samples, match):
        with pytest.raises(ValueError, match=match):
            mine_window(ranking(30), set(), discard, pool, samples, seed=1)

    def test_zero_samples(self):
        assert mine_window(ranking(110), set(), 10, 100, 0, seed=1) == []


class TestMineDense:
    def test_counts(self):
        runs = {f"q{i}": ranking(110, qid=f"q{i}") for i in range(3)}
        got = mine_dense(runs.keys(), runs, {}, MiningConfig(seed=5))
        assert sorted(got) == ["q0", "q1", "q2"]
        assert all(len(v) == 25 for v in got.values())

    def test_deterministic(self):
        runs = {"q0": ranking(110, "q0"), "q1": ranking(110, "q1")}
        cfg = MiningConfig(seed=11)
        assert mine_dense(runs.keys(), runs, {}, cfg) == mine_dense(runs.keys(), runs, {}, cfg)

    def test_queries_get_independent_streams(self):
        runs = {"q0": ranking(110, "q0"), "q1": ranking(110, "q1")}
        got = mine_dense(runs.keys(), runs, {}, MiningConfig(seed=11))
        assert got["q0"] != got["q1"]

    def test_missing_run(self):
        with pytest.raises(MissingRun) as info:
            mine_dense(["q0", "q9"], {"q0": ranking(110)}, {}, MiningConfig())
        assert info.value.query_id == "q9"

    def test_short_run_gets_no_negatives(self):
        runs = {"q0": ranking(110, "q0"), "q1": ranking(10, "q1"), "q2": RankedList("q2")}
        got = mine_dense(runs.keys(), runs, {}, MiningConfig(seed=5))
        assert got["q1"] == [] and got["q2"] == []
        assert got["q0"] == mine_dense(["q0"], runs, {}, MiningConfig(seed=5))["q0"]
        assert len(got["q0"]) == 25

    def test_positive_never_sampled_over_seeds(self):
        runs = {"q0": ranking(110, "q0")}
        positives = {"q0": {"r015", "r042"}}
        for seed in range(100):
            got = mine_dense(runs.keys(), runs, positives, MiningConfig(seed=seed))
            assert not positives["q0"] & set(got["q0"])


class TestMineBM25:
    def _index(self, n_docs=110):
        # every document shares the common term "xx" so all match any query
        # containing it; "top" makes low-numbered docs score higher
        corpus = []
        for i in range(n_docs):
            boost = "top " * max(0, 30 - i)
            corpus.append(CorpusRecord(f"r{i + 1:03d}", f"{boost}xx"))
        return build_bm25(corpus, Tokenizer("whitespace"))

    def test_window_definition(self):
        index = self._index()
        got = mine_bm25({"q0": "top xx"}, index, {}, MiningConfig(seed=0))
        assert len(got["q0"]) == 10

    def test_exact_110_corpus_pool(self):
        index = self._index(110)
        got = mine_bm25({"q0": "xx"}, index, {}, MiningConfig(seed=0))
        # with a single shared term, ranking is by length norm; pool is ranks 11-110
        assert len(got["q0"]) == 10

    def test_deterministic(self):
        index = self._index()
        queries = {"q0": "top xx", "q1": "xx"}
        cfg = MiningConfig(seed=4)
        assert mine_bm25(queries, index, {}, cfg) == mine_bm25(queries, index, {}, cfg)

    def test_short_ranking_gets_no_negatives(self):
        # "rare" is in 5 of 300 documents: too few to survive the discard window
        corpus = [CorpusRecord(f"r{i:03d}", "xx rare" if i < 5 else "xx") for i in range(300)]
        index = build_bm25(corpus, Tokenizer("whitespace"))
        got = mine_bm25({"q0": "rare", "q1": "xx"}, index, {}, MiningConfig(seed=0))
        assert got["q0"] == []
        assert len(got["q1"]) == 10

    def test_excludes_top_lexical_matches(self):
        index = self._index()
        got = mine_bm25({"q0": "top xx"}, index, {}, MiningConfig(seed=0))
        # ranks 1-10 are the most "top"-heavy docs r001..r010
        assert not {f"r{i:03d}" for i in range(1, 11)} & set(got["q0"])


class TestTranspose:
    def _table(self):
        table = TeacherScoreTable(source="teacher")
        table.add("q1", "d1", 3.25, raw="3.2500")
        table.add("q1", "d2", -1.5)
        table.add("q2", "d9", 0.125, raw="1.25e-1")
        return table

    def test_full_coverage(self):
        table = self._table()
        out, dropped = transpose_scores(table, [("q1", "d1"), ("q2", "d9")])
        assert dropped == []
        assert out.entries == {("q1", "d1"): (3.25, "3.2500"), ("q2", "d9"): (0.125, "1.25e-1")}

    def test_unknown_pairs_dropped_and_reported(self):
        table = self._table()
        out, dropped = transpose_scores(
            table, [("q1", "d1"), ("qX", "dX"), ("q1", "dZ")]
        )
        assert dropped == [("qX", "dX"), ("q1", "dZ")]
        assert ("qX", "dX") not in out.entries

    def test_scores_copied_byte_exactly(self, tmp_path):
        table = self._table()
        out, _ = transpose_scores(table, [("q1", "d1"), ("q2", "d9")])
        path = tmp_path / "t.tsv"
        out.write_tsv(path)
        lines = path.read_text().splitlines()
        assert lines == ["q1\td1\t3.2500", "q2\td9\t1.25e-1"]

    def test_tsv_round_trip(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("q1\td1\t3.2500\nq1\td2\t-1.5\n")
        table = TeacherScoreTable.from_tsv(path)
        assert table.get("q1", "d1") == 3.25
        out = tmp_path / "copy.tsv"
        table.write_tsv(out)
        assert out.read_text() == path.read_text()

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("q1\td1\t1\nq1\td1\t2\n")
        with pytest.raises(ParseError) as info:
            TeacherScoreTable.from_tsv(path)
        assert (str(info.value), info.value.line) == ("line 2: duplicate pair ('q1', 'd1')", 2)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("q1\td1\t1\nq1\td2\tnan\n")
        with pytest.raises(ParseError) as info:
            TeacherScoreTable.from_tsv(path)
        assert (str(info.value), info.value.line) == (
            "line 2: non-finite score for pair ('q1', 'd2')", 2)


class TestBuildNway:
    def _candidates(self, n, prefix="c"):
        return [(f"{prefix}{i:03d}", float(i)) for i in range(n)]

    def test_keep_set_priority(self):
        candidates = self._candidates(60)
        keep = {f"c{i:03d}" for i in range(40)}
        ex = build_nway("q", "pos", 9.0, candidates, n=32, keep_set=keep, seed=0)
        assert ex.passage_ids[0] == "pos"
        assert ex.passage_ids[1:] == [f"c{i:03d}" for i in range(31)]
        assert ex.teacher_scores[0] == 9.0

    def test_empty_keep_set_uniform(self):
        candidates = self._candidates(60)
        a = build_nway("q", "pos", 9.0, candidates, n=32, seed=3)
        b = build_nway("q", "pos", 9.0, candidates, n=32, seed=3)
        assert a.passage_ids == b.passage_ids
        c = build_nway("q", "pos", 9.0, candidates, n=32, seed=4)
        assert a.passage_ids != c.passage_ids

    def test_partial_keep_set(self):
        candidates = self._candidates(60)
        keep = {"c005", "c010", "c015", "c020", "c025"}
        ex = build_nway("q", "pos", 9.0, candidates, n=32, keep_set=keep, seed=1)
        assert ex.passage_ids[1:6] == ["c005", "c010", "c015", "c020", "c025"]
        assert len(ex.passage_ids) == 32
        assert len(set(ex.passage_ids)) == 32
        assert not keep & set(ex.passage_ids[6:])

    def test_scores_aligned(self):
        candidates = self._candidates(40)
        scores = dict(candidates)
        ex = build_nway("q", "pos", 9.0, candidates, n=32, seed=0)
        for doc_id, score in zip(ex.passage_ids[1:], ex.teacher_scores[1:]):
            assert score == scores[doc_id]

    def test_positive_not_among_negatives(self):
        candidates = [("pos", 1.0)] + self._candidates(40)
        ex = build_nway("q", "pos", 9.0, candidates, n=32, seed=0)
        assert ex.passage_ids.count("pos") == 1

    def test_candidate_dedup(self):
        candidates = self._candidates(31) + self._candidates(31)
        ex = build_nway("q", "pos", 9.0, candidates, n=32, seed=0)
        assert len(set(ex.passage_ids)) == 32

    def test_insufficient_candidates(self):
        with pytest.raises(InsufficientCandidates):
            build_nway("q", "pos", 9.0, self._candidates(30), n=32, seed=0)

    def test_missing_positive_score(self):
        with pytest.raises(MissingTeacherScore) as info:
            build_nway("q", "pos", None, self._candidates(40), n=32, seed=0)
        assert info.value.pair == ("q", "pos")

    def test_missing_candidate_score(self):
        candidates = self._candidates(40)
        candidates[5] = ("c005", None)
        with pytest.raises(MissingTeacherScore):
            build_nway("q", "pos", 9.0, candidates, n=32, seed=0)

    def test_default_is_32_way(self):
        ex = build_nway("q", "pos", 9.0, self._candidates(60), seed=0)
        assert ex.n == 32

    def test_other_n(self):
        ex = build_nway("q", "pos", 9.0, self._candidates(80), n=64, seed=0)
        assert ex.n == 64


class TestAssembleNway:
    def _table(self, pairs):
        table = TeacherScoreTable()
        for i, (qid, did) in enumerate(pairs):
            table.add(qid, did, float(i))
        return table

    def test_rows_merge_per_query_in_order(self):
        rows = [
            {"qid": "q", "positives": ["p1"], "dense_negatives": ["a", "p2", "b"]},
            {"qid": "r", "positives": ["rp"], "negatives": ["w", "x", "y", "z"]},
            {"qid": "q", "positives": ["p2", "p1"], "bm25_negatives": ["c", "a"],
             "dense_negatives": ["d"]},
        ]
        table = self._table([("q", d) for d in ("p1", "p2", "a", "b", "c", "d")]
                            + [("r", d) for d in ("rp", "w", "x", "y", "z")])
        keep = frozenset("abcdwxyz")
        examples, skipped = assemble_nway(rows, table, n=5, keep_set=keep)
        assert skipped == []
        assert [ex.query_id for ex in examples] == ["q", "r"]
        # the first positive is used, the other positive is never a candidate, and
        # candidates keep row order: dense before bm25 within a row
        assert examples[0].passage_ids == ["p1", "a", "b", "d", "c"]
        assert examples[0].teacher_scores == [0.0, 2.0, 3.0, 5.0, 4.0]

    def test_skip_reasons_in_order(self):
        rows = [
            {"qid": "qa", "positives": [], "dense_negatives": ["a"]},
            {"qid": "qb", "positives": ["pb"], "dense_negatives": ["a", "b"]},
            {"qid": "qc", "positives": ["pc"], "dense_negatives": ["a", "x", "b", "c"]},
            {"qid": "qd", "positives": ["pd"], "bm25_negatives": ["a", "a"]},
        ]
        table = self._table([("qb", "a"), ("qb", "b"), ("qc", "pc"), ("qc", "a"), ("qc", "b"),
                             ("qc", "c"), ("qd", "pd"), ("qd", "a")])
        examples, skipped = assemble_nway(rows, table, n=3)
        assert skipped == [
            ("qa", "no positive"),
            ("qb", "no teacher score for positive pb"),
            ("qc", "no teacher score for candidate x"),
            ("qd", "query 'qd': 1 distinct candidates, need 2"),
        ]
        assert [ex.query_id for ex in examples] == ["qc"]
        assert "x" not in examples[0].passage_ids

    def test_keep_set_and_seed_reach_build_nway(self):
        negatives = [f"c{i:02d}" for i in range(40)]
        table = self._table([("q", d) for d in ["pos", *negatives]])
        keep = {"c07", "c30"}
        examples, _ = assemble_nway([{"qid": "q", "positives": ["pos"], "negatives": negatives}],
                                    table, n=8, keep_set=keep, seed=5)
        candidates = [(d, table.get("q", d)) for d in negatives]
        assert examples == [build_nway("q", "pos", 0.0, candidates, n=8, keep_set=keep, seed=5)]
        assert examples[0].passage_ids[1:3] == ["c07", "c30"]


class TestNegativesJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "negatives.jsonl"
        negatives = {"q2": ["d3", "d1"], "q1": []}
        assert write_negatives_jsonl(path, "bm25", negatives, {"q2": {"d9", "d0"}}, 7) == 2
        assert read_negatives_jsonl(path) == [
            {"qid": "q2", "positives": ["d0", "d9"], "bm25_negatives": ["d3", "d1"], "seed": 7},
            {"qid": "q1", "positives": [], "bm25_negatives": [], "seed": 7},
        ]


class TestNWayExample:
    def test_non_finite_score_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                NWayExample("q", ["a", "b"], [1.0, bad])

    def test_validates_alignment(self):
        with pytest.raises(ValueError):
            NWayExample("q", ["a", "b"], [1.0])

    def test_validates_distinct(self):
        with pytest.raises(ValueError):
            NWayExample("q", ["a", "a"], [1.0, 2.0])

    def test_jsonl_round_trip(self, tmp_path):
        ex = build_nway("q", "pos", 9.0, [(f"c{i}", float(i)) for i in range(40)], seed=0)
        path = tmp_path / "nway.jsonl"
        assert write_nway_jsonl(path, [ex]) == 1
        back = read_nway_jsonl(path)
        assert back[0].query_id == "q"
        assert back[0].passage_ids == ex.passage_ids
        assert back[0].teacher_scores == ex.teacher_scores


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(42, "q1") == derive_seed(42, "q1")

    def test_varies_by_query_and_seed(self):
        assert derive_seed(42, "q1") != derive_seed(42, "q2")
        assert derive_seed(42, "q1") != derive_seed(43, "q1")
