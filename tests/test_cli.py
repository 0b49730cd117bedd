"""CLI: each subcommand, config-file resolution, manifests, determinism."""

import json
import shutil

import numpy as np
import pytest

import lateir
from lateir.cli import COMMANDS, main, run_pipeline
from lateir.errors import ConfigError
from lateir.ranking import read_trec_run
from lateir.store import read_embedding_file, write_embedding_file

from conftest import perturb_rows, unit_rows


@pytest.fixture
def workspace(tmp_path, rng):
    """Corpus + embeddings + qrels for a 40-doc, 6-query setup."""
    dim = 16
    n_docs, n_queries = 40, 6
    identities = unit_rows(rng, n_docs, dim)

    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for i in range(n_docs):
            fh.write(json.dumps({"id": f"d{i:02d}", "text": f"文書 {i} text"}) + "\n")

    doc_entries = [
        (f"d{i:02d}", perturb_rows(rng, identities[i], 6, 0.4)) for i in range(n_docs)
    ]
    doc_bin = tmp_path / "docs.bin"
    write_embedding_file(doc_bin, dim, "float16", doc_entries)

    targets = list(range(n_queries))
    query_entries = [
        (f"q{i}", perturb_rows(rng, identities[targets[i]], 4, 0.3))
        for i in range(n_queries)
    ]
    queries_jsonl = tmp_path / "queries.jsonl"
    with open(queries_jsonl, "w", encoding="utf-8") as fh:
        for i in range(n_queries):
            fh.write(json.dumps({"id": f"q{i}", "text": f"query {i} 文書"}) + "\n")
    query_bin = tmp_path / "queries.bin"
    write_embedding_file(query_bin, dim, "float32", query_entries)

    qrels = tmp_path / "qrels.txt"
    with open(qrels, "w", encoding="utf-8") as fh:
        for i in range(n_queries):
            fh.write(f"q{i} 0 d{targets[i]:02d} 1\n")

    return tmp_path


def run_ok(args):
    assert main(args) == 0


class TestIngest:
    def test_ingest_and_manifest(self, workspace, capsys):
        out = workspace / "docstore"
        run_ok([
            "ingest", "--corpus", str(workspace / "corpus.jsonl"),
            "--embeddings", str(workspace / "docs.bin"),
            "--out", str(out), "--kind", "doc",
        ])
        assert (out / "embeddings.bin").exists()
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert set(manifest["inputs"]) == {"corpus", "embeddings"}
        assert all(len(v["sha256"]) == 64 for v in manifest["inputs"].values())

    def test_unknown_embedding_id_rejected(self, workspace, tmp_path, rng):
        bad = tmp_path / "bad.bin"
        write_embedding_file(bad, 16, "float32", [("nope", unit_rows(rng, 2, 16))])
        code = main([
            "ingest", "--corpus", str(workspace / "corpus.jsonl"),
            "--embeddings", str(bad), "--out", str(tmp_path / "s"), "--kind", "doc",
        ])
        assert code == 2

    @pytest.mark.parametrize("value, message", [(np.nan, "non-finite"), (-np.inf, "non-finite"),
                                                (0.0, "zero norm")])
    def test_bad_row_rejected_by_name(self, workspace, tmp_path, rng, capsys, value, message):
        rows = unit_rows(rng, 4, 16)
        rows[2] = value
        bad = tmp_path / "bad.bin"
        write_embedding_file(bad, 16, "float16", [("d00", unit_rows(rng, 3, 16)), ("d01", rows)])
        code = main([
            "ingest", "--corpus", str(workspace / "corpus.jsonl"),
            "--embeddings", str(bad), "--out", str(tmp_path / "s"), "--kind", "doc",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "entry 'd01' row 2" in err and message in err
        assert not (tmp_path / "s").exists()

    def test_damaged_store_rejected_by_index(self, workspace, capsys):
        _ingest_both(workspace)
        path = workspace / "docstore" / "embeddings.bin"
        dim, precision, entries = read_embedding_file(path)
        rows = entries[3][1].copy()
        rows[2, 0] = np.nan
        entries[3] = (entries[3][0], rows)
        write_embedding_file(path, dim, precision, entries)
        code = main(["index", "--store", str(workspace / "docstore"),
                     "--out", str(workspace / "idx")])
        err = capsys.readouterr().err
        assert code == 2
        assert "entry 'd03' row 2 has a non-finite value" in err
        assert not (workspace / "idx").exists()

    @pytest.mark.parametrize("line", ['{"id": null, "text": "x"}', '{"id": "q9", "text": null}'])
    def test_mistyped_corpus_line_rejected(self, workspace, capsys, line):
        queries = workspace / "bad.jsonl"
        good = (workspace / "queries.jsonl").read_text(encoding="utf-8")
        queries.write_text(good + line + "\n", encoding="utf-8")
        bm25 = workspace / "bm25-idx"
        run_ok(["bm25", "build", "--corpus", str(workspace / "corpus.jsonl"), "--out", str(bm25)])
        capsys.readouterr()
        for argv in (
            ["ingest", "--corpus", str(queries), "--embeddings", str(workspace / "queries.bin"),
             "--out", str(workspace / "qstore2"), "--kind", "query"],
            ["bm25", "build", "--corpus", str(queries), "--out", str(workspace / "bm25-q")],
            ["bm25", "search", "--index", str(bm25), "--queries", str(queries),
             "--out", str(workspace / "bm25.trec")],
            ["mine", "bm25", "--index", str(bm25), "--queries", str(queries),
             "--positives", str(workspace / "qrels.txt"), "--out", str(workspace / "negs.jsonl")],
        ):
            assert main(argv) == 2, argv
            assert "line 7" in capsys.readouterr().err, argv

    def test_missing_required_option(self, workspace, capsys):
        code = main(["ingest", "--corpus", str(workspace / "corpus.jsonl")])
        assert code == 2
        assert "--embeddings" in capsys.readouterr().err


def _ingest_both(workspace):
    run_ok([
        "ingest", "--corpus", str(workspace / "corpus.jsonl"),
        "--embeddings", str(workspace / "docs.bin"),
        "--out", str(workspace / "docstore"), "--kind", "doc",
    ])
    run_ok([
        "ingest", "--corpus", str(workspace / "queries.jsonl"),
        "--embeddings", str(workspace / "queries.bin"),
        "--out", str(workspace / "qstore"), "--kind", "query",
    ])


class TestSearchPipeline:
    def test_exact_search_and_eval(self, workspace, capsys):
        _ingest_both(workspace)
        run_ok([
            "index", "--store", str(workspace / "docstore"),
            "--out", str(workspace / "exact-idx"), "--mode", "exact",
        ])
        run = workspace / "run.trec"
        run_ok([
            "search", "--index", str(workspace / "exact-idx"),
            "--queries", str(workspace / "qstore"), "--k", "10",
            "--out", str(run),
        ])
        rows = read_trec_run(run)
        assert len(rows) == 6
        first = next(iter(rows.values()))
        assert [rank for _, rank, _ in first] == list(range(1, 11))

        report_path = workspace / "report.json"
        run_ok([
            "eval", "--run", str(run), "--qrels", str(workspace / "qrels.txt"),
            "--metric", "ndcg@10", "--metric", "recall@3", "--metric", "map@10",
            "--out", str(report_path),
        ])
        report = json.loads(report_path.read_text())
        assert report["metrics"]["ndcg@10"]["mean"] > 0.9  # queries aim at their doc
        out = capsys.readouterr().out
        assert "ndcg@10" in out

    def test_compressed_search(self, workspace):
        _ingest_both(workspace)
        run_ok([
            "index", "--store", str(workspace / "docstore"),
            "--out", str(workspace / "comp-idx"), "--mode", "compressed",
            "--k-centroids", "32", "--iterations", "3", "--seed", "7",
        ])
        run = workspace / "comp.trec"
        run_ok([
            "search", "--index", str(workspace / "comp-idx"),
            "--queries", str(workspace / "qstore"), "--k", "5",
            "--out", str(run), "--nprobe", "8", "--candidate-cap", "40",
        ])
        rows = read_trec_run(run)
        assert len(rows) == 6

    def test_search_rerunnable_identical_bytes(self, workspace):
        _ingest_both(workspace)
        run_ok([
            "index", "--store", str(workspace / "docstore"),
            "--out", str(workspace / "exact-idx"), "--mode", "exact",
        ])
        outputs = []
        for name in ("a.trec", "b.trec"):
            run_ok([
                "search", "--index", str(workspace / "exact-idx"),
                "--queries", str(workspace / "qstore"), "--k", "10",
                "--out", str(workspace / name),
            ])
            outputs.append((workspace / name).read_bytes())
        assert outputs[0] == outputs[1]
        manifests = [
            (workspace / f"{n}.manifest.json").read_text() for n in ("a.trec", "b.trec")
        ]
        assert manifests[0] == manifests[1]

    def test_index_hash_ignores_build_paths(self, workspace):
        # one store at two paths: the index built from each hashes the same
        _ingest_both(workspace)
        shutil.copytree(workspace / "docstore", workspace / "docstore-copy")
        hashes = []
        for store in ("docstore", "docstore-copy"):
            index, run = workspace / f"{store}-idx", workspace / f"{store}.trec"
            run_ok(["index", "--store", str(workspace / store), "--out", str(index)])
            run_ok(["search", "--index", str(index), "--queries", str(workspace / "qstore"),
                    "--out", str(run)])
            manifest = json.loads((workspace / f"{store}.trec.manifest.json").read_text())
            hashes.append(manifest["inputs"]["index"]["sha256"])
        assert hashes[0] == hashes[1]


class TestScore:
    def test_score_stdout(self, workspace, capsys):
        _ingest_both(workspace)
        pairs = workspace / "pairs.tsv"
        pairs.write_text("q0\td00\nq1\td05\n")
        run_ok([
            "score", "--query-store", str(workspace / "qstore"),
            "--doc-store", str(workspace / "docstore"), "--pairs", str(pairs),
        ])
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert len(out_lines) == 2
        qid, did, score = out_lines[0].split("\t")
        assert (qid, did) == ("q0", "d00")
        assert float(score) > 0

    def test_unknown_pair_id(self, workspace):
        _ingest_both(workspace)
        pairs = workspace / "pairs.tsv"
        pairs.write_text("q0\tmissing\n")
        assert main([
            "score", "--query-store", str(workspace / "qstore"),
            "--doc-store", str(workspace / "docstore"), "--pairs", str(pairs),
        ]) == 2


class TestBM25Cli:
    def test_id_with_whitespace_rejected(self, workspace, capsys):
        corpus = workspace / "spaced.jsonl"
        corpus.write_text('{"id": "d00", "text": "x"}\n{"id": "a b", "text": "y"}\n')
        assert main(["bm25", "build", "--corpus", str(corpus),
                     "--out", str(workspace / "bm25-idx")]) == 2
        assert "line 2" in capsys.readouterr().err
        assert not (workspace / "bm25-idx").exists()

    def test_build_and_search(self, workspace):
        idx = workspace / "bm25-idx"
        run_ok([
            "bm25", "build", "--corpus", str(workspace / "corpus.jsonl"),
            "--out", str(idx), "--tokenizer", "char-bigram",
        ])
        assert (idx / "postings.bin").exists()
        run = workspace / "bm25.trec"
        run_ok([
            "bm25", "search", "--index", str(idx),
            "--queries", str(workspace / "queries.jsonl"), "--k", "20",
            "--out", str(run),
        ])
        assert read_trec_run(run)


class TestMiningCli:
    def _dense_run(self, workspace):
        # deep exact run over the toy corpus
        _ingest_both(workspace)
        run_ok([
            "index", "--store", str(workspace / "docstore"),
            "--out", str(workspace / "exact-idx"), "--mode", "exact",
        ])
        run_ok([
            "search", "--index", str(workspace / "exact-idx"),
            "--queries", str(workspace / "qstore"), "--k", "40",
            "--out", str(workspace / "deep.trec"),
        ])

    def test_mine_dense(self, workspace):
        self._dense_run(workspace)
        out = workspace / "dense.jsonl"
        run_ok([
            "mine", "dense", "--runs", str(workspace / "deep.trec"),
            "--positives", str(workspace / "qrels.txt"), "--out", str(out),
            "--retrieve-depth", "40", "--discard-top", "5", "--samples", "8",
            "--seed", "3",
        ])
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 6
        for row in rows:
            assert len(row["dense_negatives"]) == 8
            assert not set(row["dense_negatives"]) & set(row["positives"])

    def test_mine_dense_rerun_identical_bytes(self, workspace):
        self._dense_run(workspace)
        blobs = []
        for _ in range(2):
            run_ok([
                "mine", "dense", "--runs", str(workspace / "deep.trec"),
                "--positives", str(workspace / "qrels.txt"),
                "--out", str(workspace / "dense.jsonl"),
                "--retrieve-depth", "40", "--discard-top", "5", "--samples", "8",
                "--seed", "3",
            ])
            blobs.append((workspace / "dense.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_mine_bm25(self, workspace):
        idx = workspace / "bm25-idx"
        run_ok([
            "bm25", "build", "--corpus", str(workspace / "corpus.jsonl"),
            "--out", str(idx),
        ])
        out = workspace / "bm25neg.jsonl"
        run_ok([
            "mine", "bm25", "--index", str(idx),
            "--queries", str(workspace / "queries.jsonl"),
            "--positives", str(workspace / "qrels.txt"), "--out", str(out),
            "--retrieve-depth", "40", "--discard-top", "5", "--samples", "6",
            "--seed", "3",
        ])
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 6
        for row in rows:
            assert len(row["bm25_negatives"]) <= 6

    def test_short_bm25_ranking_skipped_not_fatal(self, workspace):
        idx = workspace / "bm25-idx"
        run_ok(["bm25", "build", "--corpus", str(workspace / "corpus.jsonl"), "--out", str(idx)])
        queries = workspace / "queries.jsonl"
        with open(queries, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "q9", "text": "無関係"}) + "\n")  # matches no document
        out = workspace / "bm25neg.jsonl"
        run_ok([
            "mine", "bm25", "--index", str(idx), "--queries", str(queries),
            "--positives", str(workspace / "qrels.txt"), "--out", str(out),
            "--retrieve-depth", "40", "--discard-top", "5", "--samples", "6",
        ])
        rows = {row["qid"]: row for row in map(json.loads, out.read_text().splitlines())}
        assert rows["q9"]["bm25_negatives"] == []
        assert all(len(rows[f"q{i}"]["bm25_negatives"]) == 6 for i in range(6))
        scores = workspace / "scores.tsv"
        scores.write_text("".join(f"q{i}\td{j:02d}\t{j}\n" for i in range(6) for j in range(40)))
        nway = workspace / "nway.jsonl"
        run_ok(["nway", "--candidates", str(out), "--scores", str(scores), "--n", "4",
                "--out", str(nway)])
        skipped = (workspace / "nway.jsonl.skipped.tsv").read_text().splitlines()
        assert [line.split("\t")[0] for line in skipped] == ["q9"]
        assert len(nway.read_text().splitlines()) == 6

    def test_nway_from_mined(self, workspace):
        self._dense_run(workspace)
        run_ok([
            "mine", "dense", "--runs", str(workspace / "deep.trec"),
            "--positives", str(workspace / "qrels.txt"),
            "--out", str(workspace / "dense.jsonl"),
            "--retrieve-depth", "40", "--discard-top", "5", "--samples", "20",
            "--seed", "3",
        ])
        scores = workspace / "scores.tsv"
        with open(scores, "w") as fh:
            for i in range(6):
                for j in range(40):
                    fh.write(f"q{i}\td{j:02d}\t{1.0 + j / 40:.4f}\n")
        keep = workspace / "keep.txt"
        keep.write_text("d20\nd21\n")
        out = workspace / "nway.jsonl"
        run_ok([
            "nway", "--candidates", str(workspace / "dense.jsonl"),
            "--scores", str(scores), "--out", str(out),
            "--n", "8", "--keep", str(keep), "--seed", "5",
        ])
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 6
        for row in rows:
            assert len(row["passages"]) == 8
            assert len(set(row["passages"])) == 8
            assert len(row["scores"]) == 8

    def test_transpose(self, workspace):
        scores = workspace / "en.tsv"
        scores.write_text("q1\td1\t0.125000\nq1\td2\t3.5\n")
        pairs = workspace / "pairs.tsv"
        pairs.write_text("q1\td1\nq1\tdX\n")
        out = workspace / "ja.tsv"
        dropped = workspace / "dropped.tsv"
        run_ok([
            "transpose", "--scores", str(scores), "--pairs", str(pairs),
            "--out", str(out), "--dropped", str(dropped),
        ])
        assert out.read_text() == "q1\td1\t0.125000\n"
        assert dropped.read_text() == "q1\tdX\n"


    def test_sample_count_checked_only_for_the_mined_kind(self, workspace):
        # the pool (depth - discard) holds the requested sample count but not the
        # other kind's default (25 for dense, 10 for BM25)
        self._dense_run(workspace)
        run_ok(["bm25", "build", "--corpus", str(workspace / "corpus.jsonl"),
                "--out", str(workspace / "bm25-idx")])
        positives = ["--positives", str(workspace / "qrels.txt"), "--samples", "5"]
        run_ok(["mine", "dense", "--runs", str(workspace / "deep.trec"), *positives,
                "--out", str(workspace / "dense.jsonl"), "--retrieve-depth", "15"])
        run_ok(["mine", "bm25", "--index", str(workspace / "bm25-idx"),
                "--queries", str(workspace / "queries.jsonl"), *positives,
                "--out", str(workspace / "bm25neg.jsonl"), "--retrieve-depth", "30"])
        for name, key in (("dense.jsonl", "dense_negatives"), ("bm25neg.jsonl", "bm25_negatives")):
            rows = [json.loads(line) for line in (workspace / name).read_text().splitlines()]
            assert len(rows) == 6 and all(len(row[key]) <= 5 for row in rows)


class TestManifests:
    def test_every_stage_names_its_command_and_given_inputs(self, workspace):
        w = {name: str(workspace / name) for name in (
            "corpus.jsonl", "docs.bin", "queries.jsonl", "queries.bin", "qrels.txt", "docstore",
            "qstore", "exact-idx", "deep.trec", "pairs.tsv", "english.tsv", "bm25-idx",
            "bm25.trec", "dense.jsonl", "bm25neg.jsonl", "scores.tsv", "dropped.tsv",
            "keep.txt", "nway.jsonl", "nway-keep.jsonl", "report.json")}
        (workspace / "pairs.tsv").write_text(
            "".join(f"q{i}\td{j:02d}\n" for i in range(6) for j in range(40)))
        (workspace / "keep.txt").write_text("d20\nd21\n")
        mining = ["--positives", w["qrels.txt"], "--retrieve-depth", "40", "--discard-top", "5",
                  "--samples", "8"]
        nway = ["nway", "--candidates", w["dense.jsonl"], "--candidates", w["bm25neg.jsonl"],
                "--scores", w["scores.tsv"], "--n", "8"]
        # command, argv, manifest path, expected input names
        stages = [
            ("ingest", ["ingest", "--corpus", w["corpus.jsonl"], "--embeddings", w["docs.bin"],
                        "--out", w["docstore"], "--kind", "doc"],
             "docstore/run-manifest.json", {"corpus", "embeddings"}),
            ("ingest", ["ingest", "--corpus", w["queries.jsonl"], "--embeddings", w["queries.bin"],
                        "--out", w["qstore"], "--kind", "query"],
             "qstore/run-manifest.json", {"corpus", "embeddings"}),
            ("index", ["index", "--store", w["docstore"], "--out", w["exact-idx"]],
             "exact-idx/run-manifest.json", {"store"}),
            ("search", ["search", "--index", w["exact-idx"], "--queries", w["qstore"],
                        "--k", "40", "--out", w["deep.trec"]],
             "deep.trec.manifest.json", {"index", "queries"}),
            ("score", ["score", "--query-store", w["qstore"], "--doc-store", w["docstore"],
                       "--pairs", w["pairs.tsv"], "--out", w["english.tsv"]],
             "english.tsv.manifest.json", {"query-store", "doc-store", "pairs"}),
            ("transpose", ["transpose", "--scores", w["english.tsv"], "--pairs", w["pairs.tsv"],
                           "--out", w["scores.tsv"], "--dropped", w["dropped.tsv"]],
             "scores.tsv.manifest.json", {"scores", "pairs"}),
            ("bm25-build", ["bm25", "build", "--corpus", w["corpus.jsonl"], "--out", w["bm25-idx"]],
             "bm25-idx/run-manifest.json", {"corpus"}),
            ("bm25-search", ["bm25", "search", "--index", w["bm25-idx"],
                             "--queries", w["queries.jsonl"], "--out", w["bm25.trec"]],
             "bm25.trec.manifest.json", {"index", "queries"}),
            ("mine-dense", ["mine", "dense", "--runs", w["deep.trec"], *mining,
                            "--out", w["dense.jsonl"]],
             "dense.jsonl.manifest.json", {"runs", "positives"}),
            ("mine-bm25", ["mine", "bm25", "--index", w["bm25-idx"], "--queries", w["queries.jsonl"],
                           *mining, "--out", w["bm25neg.jsonl"]],
             "bm25neg.jsonl.manifest.json", {"index", "queries", "positives"}),
            ("nway", [*nway, "--out", w["nway.jsonl"]],
             "nway.jsonl.manifest.json", {"candidates0", "candidates1", "scores"}),
            ("nway", [*nway, "--keep", w["keep.txt"], "--out", w["nway-keep.jsonl"]],
             "nway-keep.jsonl.manifest.json", {"candidates0", "candidates1", "scores", "keep"}),
            ("eval", ["eval", "--run", w["deep.trec"], "--qrels", w["qrels.txt"],
                      "--metric", "ndcg@10", "--out", w["report.json"]],
             "report.json.manifest.json", {"run", "qrels"}),
        ]
        assert {stage[0] for stage in stages} == set(COMMANDS)
        for command, argv, manifest_path, inputs in stages:
            run_ok(argv)
            manifest = json.loads((workspace / manifest_path).read_text())
            assert manifest["command"] == command
            assert set(manifest["inputs"]) == inputs, command
        manifest = json.loads((workspace / "nway.jsonl.manifest.json").read_text())
        candidates = [manifest["inputs"][f"candidates{i}"]["path"] for i in range(2)]
        assert candidates == [w["dense.jsonl"], w["bm25neg.jsonl"]]

    def test_failed_stage_writes_outputs_but_no_manifest(self, workspace, capsys):
        candidates = workspace / "cands.jsonl"
        candidates.write_text('{"qid": "q0", "positives": ["d00"], "dense_negatives": ["d01"]}\n')
        scores = workspace / "scores.tsv"
        scores.write_text("q0\td00\t2.0\nq0\td01\t1.0\n")
        out = workspace / "nway.jsonl"
        assert main(["nway", "--candidates", str(candidates), "--scores", str(scores),
                     "--n", "4", "--out", str(out)]) == 2
        assert "no n-way examples" in capsys.readouterr().err
        assert out.read_text() == ""
        assert (workspace / "nway.jsonl.skipped.tsv").read_text().startswith("q0\t")
        assert not (workspace / "nway.jsonl.manifest.json").exists()

    def test_stdout_output_writes_no_manifest(self, workspace, capsys):
        run = workspace / "fixture.trec"
        run.write_text("q0 Q0 d00 1 2.0 t\n")
        run_ok(["eval", "--run", str(run), "--qrels", str(workspace / "qrels.txt"),
                "--metric", "ndcg@10"])
        assert "ndcg@10" in capsys.readouterr().out
        assert not list(workspace.glob("*manifest.json"))


class TestConfigFile:
    def test_options_from_config(self, workspace):
        cfg = workspace / "pipeline.cfg"
        cfg.write_text(
            "[ingest]\n"
            f"corpus = {workspace / 'corpus.jsonl'}\n"
            f"embeddings = {workspace / 'docs.bin'}\n"
            f"out = {workspace / 'cfgstore'}\n"
            "kind = doc\n"
        )
        run_ok(["ingest", "--config", str(cfg)])
        assert (workspace / "cfgstore" / "embeddings.bin").exists()

    def test_flag_overrides_config(self, workspace):
        cfg = workspace / "pipeline.cfg"
        cfg.write_text(
            "[ingest]\n"
            f"corpus = {workspace / 'corpus.jsonl'}\n"
            f"embeddings = {workspace / 'docs.bin'}\n"
            f"out = {workspace / 'one'}\n"
            "kind = doc\n"
        )
        run_ok(["ingest", "--config", str(cfg), "--out", str(workspace / "two")])
        assert not (workspace / "one").exists()
        assert (workspace / "two" / "embeddings.bin").exists()

    def test_pipeline_command(self, workspace):
        cfg = workspace / "pipeline.cfg"
        cfg.write_text(
            "[ingest]\n"
            f"corpus = {workspace / 'corpus.jsonl'}\n"
            f"embeddings = {workspace / 'docs.bin'}\n"
            f"out = {workspace / 'pstore'}\n"
            "kind = doc\n"
        )
        run_ok(["pipeline", "--config", str(cfg), "--stage", "ingest"])
        assert (workspace / "pstore" / "embeddings.bin").exists()

    def test_run_pipeline_api(self, workspace):
        cfg = workspace / "pipeline.cfg"
        cfg.write_text(
            "[ingest]\n"
            f"corpus = {workspace / 'corpus.jsonl'}\n"
            f"embeddings = {workspace / 'docs.bin'}\n"
            f"out = {workspace / 'astore'}\n"
            "kind = doc\n"
        )
        assert run_pipeline(cfg, "ingest") == 0

    def test_pipeline_eval_stage(self, workspace, capsys):
        run = workspace / "fixture.trec"
        run.write_text("q0 Q0 d00 1 2.0 t\nq0 Q0 d09 2 1.0 t\n")
        qrels = workspace / "fixture-qrels.txt"
        qrels.write_text("q0 0 d00 1\n")
        cfg = workspace / "pipeline.cfg"
        cfg.write_text(
            "[eval]\n"
            f"run = {run}\n"
            f"qrels = {qrels}\n"
            "metric = ndcg@10 recall@3\n"
            f"out = {workspace / 'fixture-report.json'}\n"
        )
        run_ok(["pipeline", "--config", str(cfg), "--stage", "eval"])
        report = json.loads((workspace / "fixture-report.json").read_text())
        assert report["metrics"]["ndcg@10"]["mean"] == pytest.approx(1.0)
        assert report["metrics"]["recall@3"]["mean"] == pytest.approx(1.0)

    def test_missing_store_path_names_field(self, workspace, capsys):
        assert main(["index", "--out", str(workspace / "idx")]) == 2
        assert "--store" in capsys.readouterr().err

    def test_missing_config_file(self, workspace, capsys):
        assert main(["ingest", "--config", str(workspace / "nope.cfg")]) == 2

    def _eval_config(self, workspace, extra):
        """A config whose [eval] section evaluates a one-line run, plus extra lines."""
        run = workspace / "fixture.trec"
        run.write_text("q0 Q0 d00 1 2.0 t\n")
        cfg = workspace / "typo.cfg"
        cfg.write_text(f"[eval]\nrun = {run}\nqrels = {workspace / 'qrels.txt'}\n"
                       f"metric = ndcg@10\n{extra}")
        return cfg

    @pytest.mark.parametrize(
        "extra, named",
        [("outs = report.json\n", ["[eval]", "'outs'"]),
         ("[evall]\nout = report.json\n", ["[evall]"]),
         ("outs = report.json\n[DEFAULT]\nouts = a.json\n", ["[eval]", "'outs'"]),
         ("[eval]\nout = report.json\n", ["section 'eval' already exists"]),
         ("out\n", ["typo.cfg", "'out"])],
        ids=["unknown-key", "unknown-section", "unknown-key-also-in-default", "repeated-section",
             "unparsable"],
    )
    def test_unknown_config_entry_rejected(self, workspace, capsys, extra, named):
        cfg = self._eval_config(workspace, extra)
        for argv in (["eval", "--config", str(cfg)],
                     ["pipeline", "--config", str(cfg), "--stage", "eval"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert all(name in err for name in named), err
        with pytest.raises(ConfigError) as info:
            run_pipeline(cfg, "eval")
        assert all(name in str(info.value) for name in named)
        assert not list(workspace.glob("report.json*"))

    def test_default_section_applies_where_known(self, workspace, capsys):
        cfg = self._eval_config(workspace, "")
        cfg.write_text("[DEFAULT]\nseed = 7\n" + cfg.read_text())  # eval has no --seed
        run_ok(["eval", "--config", str(cfg)])
        assert "ndcg@10" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "stage, lines, name",
        [("search", "index = i\nqueries = q\nk = ten\n", "--k"),
         ("index", "store = s\nout = o\nk-centroids = abc\n", "--k-centroids"),
         ("index", "store = s\nout = o\nk-centroids = 0\n", "--k-centroids"),
         ("bm25-build", "corpus = c\nout = o\nno-lowercase = maybe\n", "--no-lowercase")],
        ids=["int", "centroids-word", "centroids-zero", "flag"],
    )
    def test_mistyped_config_value_names_option(self, workspace, capsys, stage, lines, name):
        cfg = workspace / "typed.cfg"
        cfg.write_text(f"[{stage}]\n{lines}")
        assert main(["pipeline", "--config", str(cfg), "--stage", stage]) == 2
        assert f"'{name}'" in capsys.readouterr().err
        with pytest.raises(ConfigError, match=name):
            run_pipeline(cfg, stage)

    @pytest.mark.parametrize("value", ["abc", "0", "-4", "2.5"])
    def test_k_centroids_flag_checked_by_name(self, workspace, capsys, value):
        argv = ["index", "--store", str(workspace / "s"), "--out", str(workspace / "o"),
                "--mode", "compressed", "--k-centroids", value]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "argument --k-centroids" in capsys.readouterr().err


class TestCliContract:
    def test_help_for_every_subcommand(self, capsys):
        for args in (
            ["ingest"], ["index"], ["search"], ["score"], ["transpose"],
            ["nway"], ["eval"], ["pipeline"], ["bm25", "build"], ["bm25", "search"],
            ["mine", "dense"], ["mine", "bm25"],
        ):
            with pytest.raises(SystemExit) as info:
                main(args + ["--help"])
            assert info.value.code == 0
            assert "usage" in capsys.readouterr().out

    def test_search_takes_mode_from_index(self, capsys):
        with pytest.raises(SystemExit):
            main(["search", "--help"])
        assert "--mode" not in capsys.readouterr().out

    def test_unknown_flag_is_error(self, workspace, capsys):
        with pytest.raises(SystemExit) as info:
            main(["ingest", "--bogus", "x"])
        assert info.value.code == 2

    def test_bad_metric_named(self, workspace, capsys):
        run = workspace / "fixture.trec"
        run.write_text("q0 Q0 d00 1 2.0 t\n")
        assert main(["eval", "--run", str(run), "--qrels", str(workspace / "qrels.txt"),
                     "--metric", "ndcg@ten"]) == 2
        assert "bad metric 'ndcg@ten'" in capsys.readouterr().err

    def test_package_all_resolves(self):
        assert len(lateir.__all__) == len(set(lateir.__all__))
        assert [name for name in lateir.__all__ if not hasattr(lateir, name)] == []

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal width
        assert "lateir" in out
        assert "index=4" in out and "bm25=" not in out and "array container" in out
