"""Command-line entry point.

One binary exposes the whole pipeline: ingest, index, search, score, bm25,
mine, transpose, nway, and eval, plus a `pipeline` command that runs a
stage straight from a config file.

Options resolve in precedence order: explicit flag > config file value >
built-in default.  The config file is INI-style with one section per stage
(`[ingest]`, `[bm25-build]`, ...); keys are the long flag names without
dashes.  All randomness flows from explicit seeds.

Each handler returns its output path and parameters, or None when it
printed to stdout.  One runner, `_run`, resolves a command's options, calls
its handler and, once the stage has succeeded, writes the output's manifest:
the tool version, the parameters, and the SHA-256 of each option marked
`input`, so identical inputs and config reproduce identical output bytes.
A stage that fails writes no manifest.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from . import __version__
from .bm25 import Tokenizer, build_bm25, load_bm25, save_bm25, search_bm25
from .compressed import (
    DEFAULT_CANDIDATE_CAP,
    DEFAULT_ITERATIONS,
    DEFAULT_NPROBE,
    compress,
    default_centroid_count,
    load_compressed,
    save_compressed,
    search_compressed,
    train_codebook,
)
from .errors import (
    ConfigError,
    EngineError,
    InsufficientCandidates,
    MissingTeacherScore,
)
from .evaluation import MetricSpec, evaluate, load_qrels
from .exact import build_exact, load_exact, save_exact, search_exact
from .mining import (
    DEFAULT_NWAY,
    NEGATIVE_KEYS,
    MiningConfig,
    TeacherScoreTable,
    build_nway,
    mine_bm25,
    mine_dense,
    read_negatives_jsonl,
    transpose_scores,
    write_nway_jsonl,
)
from .ranking import run_lists_from_trec, write_trec_run
from .scoring import maxsim
from .store import EMBEDDING_FORMAT_VERSION, INDEX_FORMAT_VERSION, index_mode, ingest_embeddings
from .store import load_store, read_corpus_jsonl, read_rows, save_store, write_json, write_jsonl
from .store import write_rows

FORMAT_VERSIONS = {"embedding": EMBEDDING_FORMAT_VERSION, "index": INDEX_FORMAT_VERSION}


@dataclass(frozen=True)
class Opt:
    name: str
    type: Callable = str
    default: Any = None
    required: bool = False
    multi: bool = False
    flag: bool = False
    choices: tuple[str, ...] | None = None
    help: str = ""
    input: bool = False  # hashed into the manifest; a multi option as name0..n

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


def _sha256_path(path: Path) -> str:
    """Content hash of a file, or of a directory's files by sorted name, leaving out
    run-manifest.json, which records the paths the directory was built from."""
    digest = hashlib.sha256()
    if path.is_dir():
        files = (p for p in path.rglob("*") if p.is_file() and p.name != "run-manifest.json")
        for child in sorted(files):
            digest.update(child.relative_to(path).as_posix().encode("utf-8"))
            digest.update(bytes.fromhex(_sha256_path(child)))
        return digest.hexdigest()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out: Path, command: str, inputs: dict[str, str], params: dict) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "format_versions": FORMAT_VERSIONS,
        "inputs": {
            name: {"path": str(path), "sha256": _sha256_path(Path(path))}
            for name, path in inputs.items()
        },
        "parameters": params,
    }
    target = out / "run-manifest.json" if out.is_dir() else Path(str(out) + ".manifest.json")
    write_json(target, manifest)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _bool_from_config(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _resolve_options(
    command: str, opts: Sequence[Opt], ns: argparse.Namespace
) -> dict[str, Any]:
    given = vars(ns)
    config = None
    config_path = given.get("config")
    if config_path:
        config = configparser.ConfigParser(interpolation=None)
        if not config.read(config_path, encoding="utf-8"):
            raise ConfigError(f"config file not found: {config_path}")
    resolved: dict[str, Any] = {}
    for opt in opts:
        value = given.get(opt.dest)
        if value is None and config is not None and config.has_option(command, opt.name):
            raw = config.get(command, opt.name)
            if opt.flag:
                value = _bool_from_config(raw)
            elif opt.multi:
                value = [opt.type(v) for v in raw.split()]
            else:
                value = opt.type(raw)
        if value is None:
            if opt.required:
                raise ConfigError(f"{command}: missing required option '--{opt.name}'")
            value = opt.default
        if opt.choices is not None and value is not None and value not in opt.choices:
            raise ConfigError(f"{command}: '--{opt.name}' must be one of {opt.choices}")
        resolved[opt.dest] = value
    return resolved


# ----------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------

KIND_NAMES = {"doc": "document", "query": "query"}
Result = tuple[Path, dict] | None  # output path and manifest parameters; None: stdout


def cmd_ingest(o: dict) -> Result:
    corpus = read_corpus_jsonl(o["corpus"])
    corpus_ids = {r.id for r in corpus}
    store = ingest_embeddings(o["embeddings"], KIND_NAMES[o["kind"]])
    unknown = [doc_id for doc_id in store.entries if doc_id not in corpus_ids]
    if unknown:
        raise ConfigError(
            f"{len(unknown)} embedding ids are not in the corpus (first: {unknown[0]!r})"
        )
    store.manifest.corpus = Path(o["corpus"]).stem
    out = Path(o["out"])
    save_store(store, out)
    _say(f"ingested {len(store)} {o['kind']} matrices (dim {store.dim}) into {out}")
    return out, {"kind": o["kind"], "dim": store.dim, "precision": store.precision,
                 "entries": len(store)}


def cmd_index(o: dict) -> Result:
    store = load_store(o["store"])
    out = Path(o["out"])
    if o["mode"] == "exact":
        index = build_exact(store, o["precision"])
        save_exact(index, out)
        params = {"mode": "exact", "precision": o["precision"], "docs": index.n_docs}
    else:
        total = store.total_tokens
        if o["k_centroids"] == "auto":
            k = default_centroid_count(total)
            while k > total:
                k //= 2
        else:
            k = int(o["k_centroids"])
        codebook = train_codebook(store, k, iterations=o["iterations"], seed=o["seed"])
        index = compress(store, codebook)
        index.params["iterations"] = o["iterations"]
        save_compressed(index, out)
        params = {
            "mode": "compressed",
            "k_centroids": k,
            "iterations": o["iterations"],
            "seed": o["seed"],
            "docs": index.n_docs,
            "tokens": index.total_tokens,
        }
    _say(f"built {o['mode']} index over {len(store)} documents in {out}")
    return out, params


def cmd_search(o: dict) -> Result:
    index_dir = Path(o["index"])
    mode = index_mode(index_dir)
    if mode == "bm25":
        raise ConfigError(f"{index_dir} is a BM25 index; search it with `lateir bm25 search`")
    queries = load_store(o["queries"])
    if mode == "exact":
        index, search, options = load_exact(index_dir), search_exact, {}
    else:
        index, search = load_compressed(index_dir), search_compressed
        options = {"nprobe": o["nprobe"], "candidate_cap": o["candidate_cap"]}
    runs = [search(index, matrix, o["k"], query_id=qid, **options)
            for qid, matrix in queries.entries.items()]
    out = Path(o["out"])
    write_trec_run(out, runs, tag=o["run_tag"])
    _say(f"searched {len(runs)} queries ({mode}) into {out}")
    return out, {"mode": mode, "k": o["k"], "nprobe": o["nprobe"],
                 "candidate_cap": o["candidate_cap"], "run_tag": o["run_tag"]}


def cmd_score(o: dict) -> Result:
    query_store = load_store(o["query_store"])
    doc_store = load_store(o["doc_store"])
    rows = []
    for lineno, (qid, did) in read_rows(o["pairs"], 2, sep="\t"):
        if qid not in query_store.entries:
            raise ConfigError(f"{o['pairs']}:{lineno}: unknown query id {qid!r}")
        if did not in doc_store.entries:
            raise ConfigError(f"{o['pairs']}:{lineno}: unknown document id {did!r}")
        rows.append((qid, did, repr(maxsim(query_store.entries[qid], doc_store.entries[did]))))
    if not o["out"]:
        sys.stdout.writelines("\t".join(row) + "\n" for row in rows)
        return None
    write_rows(o["out"], rows)
    _say(f"scored {len(rows)} pairs into {o['out']}")
    return Path(o["out"]), {"pairs_scored": len(rows), "similarity": "maxsim, float64 accumulation"}


def cmd_bm25_build(o: dict) -> Result:
    tokenizer = Tokenizer(scheme=o["tokenizer"].replace("-", "_"), lowercase=not o["no_lowercase"])
    corpus = read_corpus_jsonl(o["corpus"])
    index = build_bm25(corpus, tokenizer, k1=o["k1"], b=o["b"])
    out = Path(o["out"])
    save_bm25(index, out)
    _say(f"indexed {index.n_docs} documents, {len(index.postings)} terms into {out}")
    return out, {"tokenizer": tokenizer.scheme, "lowercase": tokenizer.lowercase,
                 "k1": o["k1"], "b": o["b"], "docs": index.n_docs, "terms": len(index.postings)}


def cmd_bm25_search(o: dict) -> Result:
    index = load_bm25(o["index"])
    queries = read_corpus_jsonl(o["queries"])
    runs = [
        search_bm25(index, q.text, index.tokenizer, o["k"], query_id=q.id) for q in queries
    ]
    out = Path(o["out"])
    write_trec_run(out, runs, tag=o["run_tag"])
    _say(f"searched {len(runs)} queries into {out}")
    return out, {"k": o["k"], "run_tag": o["run_tag"]}


def cmd_mine(o: dict) -> Result:
    """`mine dense` mines the --runs file, `mine bm25` searches --index for --queries."""
    kind = "dense" if "runs" in o else "bm25"
    qrels = load_qrels(o["positives"])
    positives = {qid: {d for d, g in judged.items() if g > 0} for qid, judged in qrels.items()}
    # both counts take --samples, so the other recipe's default is not checked against the pool
    cfg = MiningConfig(
        retrieve_depth=o["retrieve_depth"],
        discard_top=o["discard_top"],
        sample_count_dense=o["samples"],
        sample_count_bm25=o["samples"],
        seed=o["seed"],
    )
    if kind == "dense":
        runs, _ = run_lists_from_trec(o["runs"])
        negatives = mine_dense(runs.keys(), runs, positives, cfg)
    else:
        queries = {q.id: q.text for q in read_corpus_jsonl(o["queries"])}
        negatives = mine_bm25(queries, load_bm25(o["index"]), positives, cfg)
    rows = [
        {
            "qid": qid,
            "positives": sorted(positives.get(qid, ())),
            f"{kind}_negatives": negs,
            "seed": cfg.seed,
        }
        for qid, negs in negatives.items()
    ]
    out = Path(o["out"])
    write_jsonl(out, rows)
    _say(f"mined {kind} negatives for {len(rows)} queries into {out}")
    return out, {"retrieve_depth": cfg.retrieve_depth, "discard_top": cfg.discard_top,
                 "samples": o["samples"], "seed": cfg.seed}


def cmd_transpose(o: dict) -> Result:
    table = TeacherScoreTable.from_tsv(o["scores"])
    pairs = ((qid, did) for _, (qid, did) in read_rows(o["pairs"], 2, sep="\t"))
    kept, dropped = transpose_scores(table, pairs)
    kept.write_tsv(o["out"])
    write_rows(o["dropped"], dropped)
    _say(f"transposed {len(kept)} scores into {o['out']} ({len(dropped)} pairs dropped)")
    return Path(o["out"]), {"kept": len(kept), "dropped": len(dropped)}


def cmd_nway(o: dict) -> Result:
    table = TeacherScoreTable.from_tsv(o["scores"])
    keep_set = frozenset(did for _, (did,) in read_rows(o["keep"], 1)) if o["keep"] else frozenset()

    # merge candidate files per query: positives once each in first-seen order,
    # negatives lists concatenated in file order
    positives: dict[str, dict[str, None]] = {}
    negatives: dict[str, list[str]] = {}
    for path in o["candidates"]:
        for row in read_negatives_jsonl(path):
            positives.setdefault(row["qid"], {}).update(dict.fromkeys(row.get("positives") or []))
            negatives.setdefault(row["qid"], []).extend(
                did for key in NEGATIVE_KEYS for did in row.get(key) or [])

    examples = []
    skipped: list[tuple[str, str]] = []
    for qid, known_positives in positives.items():
        if not known_positives:
            skipped.append((qid, "no positive"))
            continue
        positive = next(iter(known_positives))
        pos_score = table.get(qid, positive)
        if pos_score is None:
            skipped.append((qid, f"no teacher score for positive {positive}"))
            continue
        candidates = []
        for did in negatives[qid]:
            if did in known_positives:
                continue
            score = table.get(qid, did)
            if score is None:
                skipped.append((qid, f"no teacher score for candidate {did}"))
                continue
            candidates.append((did, score))
        try:
            examples.append(
                build_nway(
                    qid, positive, pos_score, candidates,
                    n=o["n"], keep_set=keep_set, seed=o["seed"],
                )
            )
        except (InsufficientCandidates, MissingTeacherScore) as exc:
            skipped.append((qid, str(exc)))
    out = Path(o["out"])
    write_nway_jsonl(out, examples)
    write_rows(Path(o["skipped"]) if o["skipped"] else Path(str(out) + ".skipped.tsv"), skipped)
    if not examples:
        raise ConfigError("no n-way examples could be built (see skipped report)")
    _say(f"built {len(examples)} {o['n']}-way examples into {out} ({len(skipped)} skipped)")
    return out, {"n": o["n"], "seed": o["seed"], "examples": len(examples),
                 "skipped": len(skipped), "distillation": "KL(teacher || student)"}


def cmd_eval(o: dict) -> Result:
    specs = [MetricSpec.parse(m) for m in o["metric"]]
    report = evaluate(o["run"], o["qrels"], specs)
    for name, values in report["metrics"].items():
        print(f"{name}\tmean\t{values['mean']:.6f}")
    for warning in report["warnings"]:
        _say(f"warning: {warning}")
    if not o["out"]:
        return None
    write_json(o["out"], report)
    _say(f"wrote report to {o['out']}")
    return Path(o["out"]), {"metrics": [str(s) for s in specs]}


# ----------------------------------------------------------------------
# command table and argument wiring
# ----------------------------------------------------------------------

COMMANDS: dict[str, tuple[list[Opt], Callable[[dict], Result]]] = {
    "ingest": (
        [
            Opt("corpus", required=True, input=True, help="corpus JSONL with id/text per line"),
            Opt("embeddings", required=True, input=True, help="binary embedding file"),
            Opt("out", required=True, help="output store directory"),
            Opt("kind", choices=("doc", "query"), required=True, help="entry kind"),
        ],
        cmd_ingest,
    ),
    "index": (
        [
            Opt("store", required=True, input=True, help="ingested document store directory"),
            Opt("out", required=True, help="output index directory"),
            Opt("mode", choices=("exact", "compressed"), default="exact"),
            Opt("precision", choices=("float32", "float16"), default="float16",
                help="storage precision for exact mode"),
            Opt("k-centroids", default="auto", help="centroid count or 'auto'"),
            Opt("iterations", type=int, default=DEFAULT_ITERATIONS, help="k-means iterations"),
            Opt("seed", type=int, default=42),
        ],
        cmd_index,
    ),
    "search": (
        [
            Opt("index", required=True, input=True, help="index directory"),
            Opt("queries", required=True, input=True, help="query store directory"),
            Opt("k", type=int, default=10),
            Opt("out", required=True, help="output TREC run file"),
            Opt("nprobe", type=int, default=DEFAULT_NPROBE),
            Opt("candidate-cap", type=int, default=DEFAULT_CANDIDATE_CAP),
            Opt("run-tag", default="lateir"),
        ],
        cmd_search,
    ),
    "score": (
        [
            Opt("query-store", required=True, input=True),
            Opt("doc-store", required=True, input=True),
            Opt("pairs", required=True, input=True, help="TSV of qid<TAB>did pairs"),
            Opt("out", help="output TSV (default: stdout)"),
        ],
        cmd_score,
    ),
    "bm25-build": (
        [
            Opt("corpus", required=True, input=True),
            Opt("out", required=True),
            Opt("tokenizer", choices=("char-bigram", "char-unigram", "whitespace"),
                default="char-bigram"),
            Opt("k1", type=float, default=0.9),
            Opt("b", type=float, default=0.4),
            Opt("no-lowercase", flag=True, default=False),
        ],
        cmd_bm25_build,
    ),
    "bm25-search": (
        [
            Opt("index", required=True, input=True),
            Opt("queries", required=True, input=True, help="queries JSONL with id/text per line"),
            Opt("k", type=int, default=110),
            Opt("out", required=True),
            Opt("run-tag", default="bm25"),
        ],
        cmd_bm25_search,
    ),
    "mine-dense": (
        [
            Opt("runs", required=True, input=True, help="TREC run file at depth >= retrieve-depth"),
            Opt("positives", required=True, input=True,
                help="qrels file; grades > 0 are positives"),
            Opt("out", required=True, help="output negatives JSONL"),
            Opt("retrieve-depth", type=int, default=110),
            Opt("discard-top", type=int, default=10),
            Opt("samples", type=int, default=25),
            Opt("seed", type=int, default=42),
        ],
        cmd_mine,
    ),
    "mine-bm25": (
        [
            Opt("index", required=True, input=True, help="bm25 index directory"),
            Opt("queries", required=True, input=True, help="queries JSONL"),
            Opt("positives", required=True, input=True),
            Opt("out", required=True),
            Opt("retrieve-depth", type=int, default=110),
            Opt("discard-top", type=int, default=10),
            Opt("samples", type=int, default=10),
            Opt("seed", type=int, default=42),
        ],
        cmd_mine,
    ),
    "transpose": (
        [
            Opt("scores", required=True, input=True, help="source teacher scores TSV"),
            Opt("pairs", required=True, input=True, help="pair universe TSV"),
            Opt("out", required=True),
            Opt("dropped", required=True, help="output TSV of pairs without scores"),
        ],
        cmd_transpose,
    ),
    "nway": (
        [
            Opt("candidates", required=True, multi=True, input=True,
                help="negatives JSONL (repeatable; lists merge per query)"),
            Opt("scores", required=True, input=True, help="teacher scores TSV"),
            Opt("out", required=True),
            Opt("n", type=int, default=DEFAULT_NWAY),
            Opt("keep", input=True, help="file of doc ids to keep ahead of random fill"),
            Opt("seed", type=int, default=42),
            Opt("skipped", help="skipped-queries report (default: <out>.skipped.tsv)"),
        ],
        cmd_nway,
    ),
    "eval": (
        [
            Opt("run", required=True, input=True),
            Opt("qrels", required=True, input=True),
            Opt("metric", required=True, multi=True, help="e.g. ndcg@10 (repeatable)"),
            Opt("out", help="write the JSON report here"),
        ],
        cmd_eval,
    ),
}


def _add_command_parser(subparsers, name: str, command: str) -> None:
    parser = subparsers.add_parser(name, help=f"{command} stage")
    for opt in COMMANDS[command][0]:
        if opt.flag:
            kind = {"action": "store_const", "const": True}
        elif opt.multi:
            kind = {"action": "append", "type": opt.type}
        else:
            kind = {"type": opt.type, "choices": opt.choices}
        parser.add_argument(f"--{opt.name}", dest=opt.dest, default=None, help=opt.help, **kind)
    parser.add_argument("--config", default=None, help="INI config file with per-stage sections")
    parser.set_defaults(_command=command)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lateir", description="late-interaction retrieval pipeline"
    )
    version = f"lateir {__version__} (formats: " + ", ".join(
        f"{k}={v}" for k, v in FORMAT_VERSIONS.items()
    ) + "; indexes: array container)"
    parser.add_argument("--version", action="version", version=version)
    subparsers = parser.add_subparsers(dest="command", required=True)

    # single commands first, then groups: command `bm25-build` is `lateir bm25 build`
    groups: dict[str, Any] = {}
    for command in sorted(COMMANDS, key=lambda c: "-" in c):
        group, _, sub = command.partition("-")
        if not sub:
            _add_command_parser(subparsers, command, command)
            continue
        if group not in groups:
            group_parser = subparsers.add_parser(group, help=f"{group} stages")
            groups[group] = group_parser.add_subparsers(dest="subcommand", required=True)
        _add_command_parser(groups[group], sub, command)

    pipeline = subparsers.add_parser("pipeline", help="run one stage from a config file")
    pipeline.add_argument("--config", required=True)
    pipeline.add_argument("--stage", required=True, choices=sorted(COMMANDS))
    pipeline.set_defaults(_command="pipeline")
    return parser


def _run(command: str, ns: argparse.Namespace) -> int:
    """Run one stage and, once it has succeeded, write its output's manifest."""
    opts, handler = COMMANDS[command]
    o = _resolve_options(command, opts, ns)
    if (result := handler(o)) is not None:
        inputs: dict[str, str] = {}
        for opt in (opt for opt in opts if opt.input and o[opt.dest]):
            if opt.multi:
                inputs.update((f"{opt.name}{i}", p) for i, p in enumerate(o[opt.dest]))
            else:
                inputs[opt.name] = o[opt.dest]
        _write_manifest(result[0], command, inputs, result[1])
    return 0


def run_pipeline(config: str | Path, stage: str) -> int:
    """Execute one stage with options taken from the config file."""
    if stage not in COMMANDS:
        raise ConfigError(f"unknown stage {stage!r}")
    return _run(stage, argparse.Namespace(config=str(config)))


def main(argv: Sequence[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns._command == "pipeline":
            return run_pipeline(ns.config, ns.stage)
        return _run(ns._command, ns)
    except (EngineError, ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
