"""IR metrics against hand-computed fixtures and a naive reference."""

import math

import pytest

from lateir.errors import ParseError
from lateir.evaluation import (
    MetricSpec,
    evaluate,
    load_qrels,
    map_at_k,
    mrr_at_k,
    ndcg_at_k,
    recall_at_k,
)
from lateir.ranking import RankedList, write_trec_run


def naive_metrics(ranked_ids, judgments, k):
    """Independent scalar reference for ndcg/recall/map/mrr at one cutoff."""
    relevant = {d for d, g in judgments.items() if g > 0}
    top = ranked_ids[:k]

    dcg = 0.0
    for i, doc_id in enumerate(top, start=1):
        dcg += (2 ** judgments.get(doc_id, 0) - 1) / math.log2(i + 1)
    ideal = sorted(judgments.values(), reverse=True)[:k]
    idcg = 0.0
    for i, grade in enumerate(ideal, start=1):
        idcg += (2**grade - 1) / math.log2(i + 1)
    ndcg = dcg / idcg if idcg > 0 else 0.0

    recall = (sum(1 for d in top if d in relevant) / len(relevant)) if relevant else 0.0

    hits, precision_sum = 0, 0.0
    for i, doc_id in enumerate(top, start=1):
        if doc_id in relevant:
            hits += 1
            precision_sum += hits / i
    ap = precision_sum / min(len(relevant), k) if relevant else 0.0

    mrr = 0.0
    for i, doc_id in enumerate(top, start=1):
        if doc_id in relevant:
            mrr = 1.0 / i
            break
    return {"ndcg": ndcg, "recall": recall, "map": ap, "mrr": mrr}


def run_of(ids, qid="q1"):
    return RankedList(query_id=qid, entries=[(d, float(len(ids) - i)) for i, d in enumerate(ids)])


class TestMetricSpec:
    def test_parse(self):
        spec = MetricSpec.parse("ndcg@10")
        assert (spec.metric, spec.k) == ("ndcg", 10)
        assert str(spec) == "ndcg@10"
        assert MetricSpec.parse("Recall@3").metric == "recall"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            MetricSpec.parse("ndcg")
        with pytest.raises(ValueError):
            MetricSpec.parse("bleu@4")
        with pytest.raises(ValueError):
            MetricSpec.parse("ndcg@0")

    @pytest.mark.parametrize("text", ["ndcg@ten", "ndcg", "bleu@4", "ndcg@0", "@10"])
    def test_parse_error_names_the_spec(self, text):
        with pytest.raises(ValueError, match=f"bad metric '{text}'"):
            MetricSpec.parse(text)


class TestNdcg:
    def test_relevant_at_rank_1(self):
        assert ndcg_at_k(run_of(["a", "b"]), {"a": 1}, 10) == 1.0

    def test_relevant_at_rank_2(self):
        got = ndcg_at_k(run_of(["b", "a"]), {"a": 1}, 10)
        assert got == pytest.approx(1 / math.log2(3), abs=1e-9)
        assert got == pytest.approx(0.63093, abs=1e-5)

    def test_relevant_outside_cutoff(self):
        ids = [f"x{i}" for i in range(10)] + ["a"]
        assert ndcg_at_k(run_of(ids), {"a": 3}, 10) == 0.0

    def test_graded_gains(self):
        judgments = {"a": 3, "b": 1}
        got = ndcg_at_k(run_of(["b", "a"]), judgments, 10)
        dcg = (2**1 - 1) / math.log2(2) + (2**3 - 1) / math.log2(3)
        idcg = (2**3 - 1) / math.log2(2) + (2**1 - 1) / math.log2(3)
        assert got == pytest.approx(dcg / idcg, abs=1e-12)

    def test_ideal_ordering_scores_one(self):
        judgments = {"a": 3, "b": 2, "c": 1}
        assert ndcg_at_k(run_of(["a", "b", "c"]), judgments, 10) == pytest.approx(1.0)

    def test_no_relevant_scores_zero(self):
        assert ndcg_at_k(run_of(["a"]), {}, 10) == 0.0
        assert ndcg_at_k(run_of(["a"]), {"a": 0}, 10) == 0.0


class TestRecall:
    def test_both_in_top_3(self):
        assert recall_at_k(run_of(["a", "b", "c"]), {"a": 1, "b": 1}, 3) == 1.0

    def test_one_of_two(self):
        assert recall_at_k(run_of(["a", "x", "y"]), {"a": 1, "b": 1}, 3) == 0.5

    def test_four_relevant_two_retrieved(self):
        judgments = {"a": 1, "b": 1, "c": 1, "d": 1}
        assert recall_at_k(run_of(["a", "x", "b"]), judgments, 3) == 0.5

    def test_monotone_in_k(self):
        judgments = {"a": 1, "b": 1, "c": 1}
        run = run_of(["x", "a", "y", "b", "z", "c"])
        values = [recall_at_k(run, judgments, k) for k in range(1, 7)]
        assert all(x <= y for x, y in zip(values, values[1:]))


class TestMap:
    def test_single_relevant_rank_1(self):
        assert map_at_k(run_of(["a", "x"]), {"a": 1}, 10) == 1.0

    def test_single_relevant_rank_3(self):
        assert map_at_k(run_of(["x", "y", "a"]), {"a": 1}, 10) == pytest.approx(1 / 3)

    def test_ranks_1_and_4(self):
        got = map_at_k(run_of(["a", "x", "y", "b"]), {"a": 1, "b": 1}, 10)
        assert got == pytest.approx((1.0 + 2 / 4) / 2, abs=1e-12)
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_denominator_uses_cutoff(self):
        judgments = {f"r{i}": 1 for i in range(5)}
        run = run_of(["r0", "r1", "r2"])
        assert map_at_k(run, judgments, 2) == pytest.approx((1.0 + 1.0) / 2)


class TestMrr:
    def test_first_relevant_rank(self):
        assert mrr_at_k(run_of(["x", "a"]), {"a": 1}, 10) == 0.5

    def test_outside_cutoff(self):
        assert mrr_at_k(run_of(["x", "y", "a"]), {"a": 1}, 2) == 0.0


class TestNaiveReferenceParity:
    def test_randomized_instances(self, rng):
        for _ in range(200):
            n_docs = int(rng.integers(1, 30))
            ids = [f"d{i}" for i in range(n_docs)]
            order = [ids[i] for i in rng.permutation(n_docs)]
            judgments = {
                d: int(rng.integers(0, 4)) for d in ids if rng.random() < 0.4
            }
            run = run_of(order)
            k = int(rng.integers(1, 15))
            expected = naive_metrics(order, judgments, k)
            assert ndcg_at_k(run, judgments, k) == pytest.approx(expected["ndcg"], abs=1e-9)
            assert recall_at_k(run, judgments, k) == pytest.approx(expected["recall"], abs=1e-9)
            assert map_at_k(run, judgments, k) == pytest.approx(expected["map"], abs=1e-9)
            assert mrr_at_k(run, judgments, k) == pytest.approx(expected["mrr"], abs=1e-9)


class TestQrelsFile:
    def test_load(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 2\nq1 0 d2 0\nq2 0 d9 1\n")
        qrels = load_qrels(path)
        assert qrels == {"q1": {"d1": 2, "d2": 0}, "q2": {"d9": 1}}

    def test_duplicate_pair(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 2\nq1 0 d1 1\n")
        with pytest.raises(ParseError) as info:
            load_qrels(path)
        assert info.value.line == 2

    def test_negative_grade(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 -1\n")
        with pytest.raises(ParseError):
            load_qrels(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 d1 2\n")
        with pytest.raises(ParseError):
            load_qrels(path)


class TestEvaluate:
    def _qrels(self):
        return {"q1": {"a": 1, "b": 1}, "q2": {"c": 2}}

    def test_perfect_run(self):
        runs = {"q1": run_of(["a", "b"], "q1"), "q2": run_of(["c"], "q2")}
        report = evaluate(runs, self._qrels(), [MetricSpec.parse("ndcg@10"), MetricSpec.parse("recall@3")])
        assert report["metrics"]["ndcg@10"]["mean"] == pytest.approx(1.0)
        assert report["metrics"]["recall@3"]["mean"] == pytest.approx(1.0)

    def test_empty_run(self):
        report = evaluate({}, self._qrels(), [MetricSpec.parse("map@10")])
        assert report["metrics"]["map@10"]["mean"] == 0.0
        assert report["counts"]["unanswered_queries"] == 2
        assert any("no results" in w for w in report["warnings"])

    def test_unjudged_run_query_warned_and_excluded(self):
        runs = {
            "q1": run_of(["a"], "q1"),
            "q2": run_of(["c"], "q2"),
            "q9": run_of(["zz"], "q9"),
        }
        report = evaluate(runs, self._qrels(), [MetricSpec.parse("ndcg@10")])
        assert "q9" not in report["metrics"]["ndcg@10"]["per_query"]
        assert any("q9" in w for w in report["warnings"])

    def test_zero_relevant_counted(self):
        qrels = {"q1": {"a": 1}, "q2": {"x": 0}}
        runs = {"q1": run_of(["a"], "q1"), "q2": run_of(["x"], "q2")}
        report = evaluate(runs, qrels, [MetricSpec.parse("ndcg@10")])
        assert report["counts"]["zero_relevant_queries"] == 1
        assert report["metrics"]["ndcg@10"]["mean"] == pytest.approx(0.5)

    def test_five_query_fixture(self):
        qrels = {
            "q1": {"a": 2, "b": 1},
            "q2": {"c": 1},
            "q3": {"d": 3, "e": 1, "f": 1},
            "q4": {"g": 1},
            "q5": {},
        }
        runs = {
            "q1": run_of(["a", "x", "b"], "q1"),
            "q2": run_of(["x", "c"], "q2"),
            "q3": run_of(["e", "d", "y", "f"], "q3"),
            "q4": run_of(["x", "y"], "q4"),
        }
        report = evaluate(runs, qrels, [MetricSpec.parse("ndcg@10"), MetricSpec.parse("map@10")])
        for qid in ("q1", "q2", "q3", "q4"):
            expected = naive_metrics(runs[qid].doc_ids(), qrels[qid], 10)
            per_query = report["metrics"]["ndcg@10"]["per_query"]
            assert per_query[qid] == pytest.approx(expected["ndcg"], abs=1e-9)
            assert report["metrics"]["map@10"]["per_query"][qid] == pytest.approx(
                expected["map"], abs=1e-9
            )
        assert report["metrics"]["ndcg@10"]["per_query"]["q5"] == 0.0

    def test_run_file_round_trip(self, tmp_path):
        runs = [run_of(["a", "b", "x"], "q1"), run_of(["c"], "q2")]
        run_path = tmp_path / "run.trec"
        write_trec_run(run_path, runs, tag="test")
        qrels_path = tmp_path / "qrels.txt"
        qrels_path.write_text("q1 0 a 1\nq1 0 b 1\nq2 0 c 1\n")
        report = evaluate(run_path, qrels_path, [MetricSpec.parse("recall@3")])
        assert report["metrics"]["recall@3"]["mean"] == pytest.approx(1.0)

    def test_permuted_run_lines_same_result(self, tmp_path):
        qrels_path = tmp_path / "qrels.txt"
        qrels_path.write_text("q1 0 a 1\nq1 0 b 1\n")
        lines = [
            "q1 Q0 a 1 3.0 t\n",
            "q1 Q0 x 2 2.0 t\n",
            "q1 Q0 b 3 1.0 t\n",
        ]
        (tmp_path / "r1.trec").write_text("".join(lines))
        (tmp_path / "r2.trec").write_text("".join(reversed(lines)))
        spec = [MetricSpec.parse("ndcg@10")]
        a = evaluate(tmp_path / "r1.trec", qrels_path, spec)
        b = evaluate(tmp_path / "r2.trec", qrels_path, spec)
        assert a["metrics"] == b["metrics"]

    def test_disordered_rank_column_warns(self, tmp_path):
        qrels_path = tmp_path / "qrels.txt"
        qrels_path.write_text("q1 0 a 1\n")
        (tmp_path / "run.trec").write_text(
            "q1 Q0 a 1 1.0 t\nq1 Q0 b 2 5.0 t\n"  # rank column contradicts scores
        )
        report = evaluate(tmp_path / "run.trec", qrels_path, [MetricSpec.parse("ndcg@10")])
        assert any("rank column" in w for w in report["warnings"])

    def test_conventions_recorded(self):
        report = evaluate({}, {}, [MetricSpec.parse("ndcg@10")])
        assert report["conventions"]["gain"] == "2^grade - 1"
        assert "map_denominator" in report["conventions"]
