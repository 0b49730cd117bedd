"""Damaged index, parameter, metadata and text files: every loader fails with
an EngineError, never a bare error, and the CLI exits 2."""

import json
import re
import shutil

import numpy as np
import pytest

from lateir.bm25 import Tokenizer, build_bm25, load_bm25, save_bm25
from lateir.cli import _sha256_path, main
from lateir.compressed import compress, load_compressed, save_compressed, search_compressed
from lateir.compressed import train_codebook
from lateir.errors import EngineError, FormatError, NonFiniteScore, ParseError
from lateir.evaluation import load_qrels
from lateir.exact import build_exact, load_exact, save_exact, search_exact
from lateir.mining import TeacherScoreTable, read_negatives_jsonl, read_nway_jsonl
from lateir.ranking import read_trec_run
from lateir.store import CorpusRecord, load_store, pack_strings, read_corpus_jsonl, read_rows
from lateir.store import INDEX_FORMAT_VERSION, save_store, write_arrays

from conftest import dir_bytes, fail_on_call, random_store, read_container

LOADERS = {
    "store": load_store, "exact": load_exact, "compressed": load_compressed, "bm25": load_bm25
}
FILES = [
    ("exact", "tokens.bin"),
    ("compressed", "residuals.bin"),
    ("bm25", "postings.bin"),
    ("store", "embeddings.bin"),
]
CONTAINERS = [(kind, name) for kind, name in FILES if kind != "store"]  # .npy records
SHAPE_KEY = b"'shape': ("


@pytest.fixture(scope="module")
def indexes(tmp_path_factory):
    rng = np.random.default_rng(7)
    store = random_store(rng, 12, 8, min_tokens=2, max_tokens=6)
    root = tmp_path_factory.mktemp("indexes")
    save_exact(build_exact(store, "float16"), root / "exact")
    codebook = train_codebook(store, k=8, iterations=2, seed=0)
    save_compressed(compress(store, codebook), root / "compressed")
    corpus = [CorpusRecord(doc_id, f"東京 {doc_id} ab cd") for doc_id in store.doc_ids]
    save_bm25(build_bm25(corpus, Tokenizer()), root / "bm25")
    save_store(store, root / "store")
    save_store(random_store(rng, 3, 8, kind="query", id_prefix="q"), root / "queries")
    (root / "queries.jsonl").write_text('{"id": "q0", "text": "東京 ab"}\n', encoding="utf-8")
    return root


def _damaged_copies(indexes, tmp_path, kind, name, variants):
    """Yield an index directory once per variant of the named file's bytes."""
    work = tmp_path / kind
    shutil.copytree(indexes / kind, work)
    for data in variants:
        (work / name).write_bytes(data)
        yield work


def inflate_shape(data: bytes, record: int) -> bytes:
    """Prefix a 9 to the first dimension in the record-th .npy header.

    One padding space before the header's newline is dropped so the header
    keeps its length and the records after it stay where they were.
    """
    start = [m.end() for m in re.finditer(re.escape(SHAPE_KEY), data)][record]
    newline = data.index(b"\n", start)
    assert data[newline - 1 : newline] == b" "
    return data[:start] + b"9" + data[start : newline - 1] + data[newline:]


@pytest.mark.parametrize("kind, name", FILES)
def test_truncated_file(indexes, tmp_path, kind, name):
    data = (indexes / kind / name).read_bytes()
    # every cut through the container header and the first .npy header, then a spread
    cuts = sorted(set(range(160)) | set(np.linspace(0, len(data) - 1, 60).astype(int)))
    variants = (data[:cut] for cut in cuts if cut < len(data))
    for work in _damaged_copies(indexes, tmp_path, kind, name, variants):
        with pytest.raises(EngineError):
            LOADERS[kind](work)


@pytest.mark.parametrize("kind, name", CONTAINERS)
def test_inflated_shape(indexes, tmp_path, kind, name):
    data = (indexes / kind / name).read_bytes()
    records = data.count(SHAPE_KEY)
    assert records >= 1
    variants = (inflate_shape(data, r) for r in range(records))
    for work in _damaged_copies(indexes, tmp_path, kind, name, variants):
        with pytest.raises(EngineError):
            LOADERS[kind](work)


@pytest.mark.parametrize("kind, name", FILES)
def test_flipped_bytes(indexes, tmp_path, kind, name):
    data = (indexes / kind / name).read_bytes()
    rng = np.random.default_rng(len(data))
    positions = sorted(set(range(min(len(data), 200))) | set(rng.integers(0, len(data), 200).tolist()))

    def flipped():
        for pos in positions:
            damaged = bytearray(data)
            damaged[pos] ^= 0xFF
            yield bytes(damaged)

    for work in _damaged_copies(indexes, tmp_path, kind, name, flipped()):
        try:
            LOADERS[kind](work)
        except EngineError:
            pass


# --- JSON metadata: a missing key or a truncated file is a FormatError -----

META = {("store", "manifest.json"): ["corpus", "created", "dim", "entry_count", "kind", "precision"]}
# the keys of each index's parameters, record 0 of its container
PARAMS = {"exact": [], "compressed": ["bucket_sample_limit", "nbits", "seed"],
          "bm25": ["b", "k1", "lowercase", "scheme"]}
INDEX_KINDS = tuple(PARAMS)


def test_suite_names_every_saved_file(indexes):
    """FILES and META name exactly the files of each saved store and index directory."""
    for kind in LOADERS:
        named = {name for k, name in [*FILES, *META] if k == kind}
        assert named == {p.name for p in (indexes / kind).iterdir()}, kind


def _reader_argv(indexes, tmp_path, kind, work):
    """A CLI command that loads the damaged directory `work` of the given kind."""
    out = str(tmp_path / "out")
    if kind == "store":
        return ["index", "--store", str(work), "--out", out]
    if kind == "bm25":
        return ["bm25", "search", "--index", str(work), "--queries", str(indexes / "queries.jsonl"),
                "--out", out]
    return ["search", "--index", str(work), "--queries", str(indexes / "queries"), "--out", out]


def _meta_variants(data: bytes, keys):
    """The metadata file once without each required key, then cut short."""
    meta = json.loads(data)
    for key in keys:
        yield json.dumps({k: v for k, v in meta.items() if k != key}).encode("utf-8")
    # a cut that keeps the closing brace leaves valid JSON, so stop before it
    yield from (data[:cut] for cut in range(len(data) - 2))


@pytest.mark.parametrize("kind, name", list(META))
def test_damaged_metadata(indexes, tmp_path, kind, name):
    data = (indexes / kind / name).read_bytes()
    LOADERS[kind](indexes / kind)  # the undamaged directory loads
    variants = _meta_variants(data, META[kind, name])
    for work in _damaged_copies(indexes, tmp_path, kind, name, variants):
        with pytest.raises(EngineError):
            LOADERS[kind](work)


@pytest.mark.parametrize("kind, name", list(META))
def test_damaged_metadata_cli_exits_2(indexes, tmp_path, kind, name, capsys):
    data = (indexes / kind / name).read_bytes()
    keys = META[kind, name]
    variants = list(_meta_variants(data, keys))[: len(keys)] + [data[: len(data) // 2], b""]
    for work in _damaged_copies(indexes, tmp_path, kind, name, variants):
        assert main(_reader_argv(indexes, tmp_path, kind, work)) == 2
        assert str(work) in capsys.readouterr().err


@pytest.mark.parametrize("kind, name, key, value", [("store", "manifest.json", "kind", None)])
def test_mistyped_metadata(indexes, tmp_path, kind, name, key, value):
    meta = json.loads((indexes / kind / name).read_bytes())
    variant = json.dumps({**meta, key: value}).encode("utf-8")
    for work in _damaged_copies(indexes, tmp_path, kind, name, [variant, b"[1, 2]"]):
        with pytest.raises(EngineError):
            LOADERS[kind](work)


@pytest.mark.parametrize("key, message", [("dim", "manifest disagrees with embeddings.bin"),
                                          ("precision", "manifest disagrees with embeddings.bin"),
                                          ("entry_count", "entry_count disagrees with data")])
def test_manifest_disagreeing_with_data(indexes, tmp_path, key, message):
    meta = json.loads((indexes / "store" / "manifest.json").read_bytes())
    other = {"dim": meta["dim"] + 1, "entry_count": meta["entry_count"] + 1,
             "precision": {"float16": "float32", "float32": "float16"}[meta["precision"]]}
    variant = json.dumps({**meta, key: other[key]}).encode("utf-8")
    for work in _damaged_copies(indexes, tmp_path, "store", "manifest.json", [variant]):
        with pytest.raises(FormatError, match=message):
            load_store(work)


# --- record 0: an index's parameters as one UTF-8 JSON object ----------------

def _params(indexes, kind) -> bytes:
    """Record 0 of kind's index container."""
    return read_container(indexes / kind / dict(CONTAINERS)[kind])[2][0].tobytes()


def _params_copies(indexes, tmp_path, kind, blobs):
    """Yield a copy of kind's index directory once per blob as its record 0."""
    name = dict(CONTAINERS)[kind]
    magic, version, arrays = read_container(indexes / kind / name)
    work = tmp_path / kind
    shutil.copytree(indexes / kind, work)
    for blob in blobs:
        arrays[0] = np.frombuffer(blob, dtype=np.uint8)
        write_arrays(work / name, magic, version, arrays)
        yield work


def _params_variants(indexes, kind) -> list[bytes]:
    """kind's parameters once without each key, then cut short, then not a JSON object
    or not UTF-8."""
    blob = _params(indexes, kind)
    params = json.loads(blob)
    assert sorted(params) == PARAMS[kind]
    missing = [json.dumps({k: v for k, v in params.items() if k != key}).encode("utf-8")
               for key in params]
    return [*missing, *(blob[:cut] for cut in range(len(blob))), b"[1, 2]", b"\xff{}"]


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_damaged_params(indexes, tmp_path, kind):
    LOADERS[kind](indexes / kind)  # the undamaged directory loads
    for work in _params_copies(indexes, tmp_path, kind, _params_variants(indexes, kind)):
        with pytest.raises(FormatError):
            LOADERS[kind](work)


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_damaged_params_cli_exits_2(indexes, tmp_path, kind, capsys):
    for work in _params_copies(indexes, tmp_path, kind, _params_variants(indexes, kind)):
        assert main(_reader_argv(indexes, tmp_path, kind, work)) == 2
        assert str(work) in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, key, value",
    [("bm25", "scheme", "morphemes"), ("bm25", "lowercase", 1), ("bm25", "k1", "0.9"),
     ("bm25", "k1", float("nan")), ("bm25", "k1", -3), ("bm25", "b", 7),
     ("compressed", "seed", "7"), ("compressed", "seed", True), ("compressed", "nbits", 3)],
)
def test_mistyped_params(indexes, tmp_path, kind, key, value, capsys):
    variant = json.dumps({**json.loads(_params(indexes, kind)), key: value}).encode("utf-8")
    for work in _params_copies(indexes, tmp_path, kind, [variant]):
        with pytest.raises(FormatError):
            LOADERS[kind](work)
        assert main(_reader_argv(indexes, tmp_path, kind, work)) == 2
        assert str(work) in capsys.readouterr().err


# --- a NaN in an index's vectors: exact token rows, compressed bucket values --

NAN_RECORDS = {"exact": 4, "compressed": 3}


@pytest.mark.parametrize("kind", NAN_RECORDS)
def test_search_refuses_non_finite_document_score(indexes, tmp_path, kind, capsys):
    name, at = dict(CONTAINERS)[kind], NAN_RECORDS[kind]
    work = tmp_path / kind
    shutil.copytree(indexes / kind, work)
    magic, version, arrays = read_container(work / name)
    arrays[at] = arrays[at].copy()
    arrays[at][0, 0] = np.nan
    write_arrays(work / name, magic, version, arrays)
    query = load_store(indexes / "queries").tokens[:2]
    search = {"exact": search_exact, "compressed": search_compressed}[kind]
    with pytest.raises(NonFiniteScore, match="NaN or infinite"):
        search(LOADERS[kind](work), query, k=3)
    before = sorted(tmp_path.iterdir())
    assert main(_reader_argv(indexes, tmp_path, kind, work)) == 2
    assert "NaN or infinite" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before  # no run, manifest or temporary file


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_centroid_rejected_at_load(indexes, tmp_path, value, capsys):
    # a NaN centroid is never among a query token's most similar, so its documents
    # would drop out of every search unnoticed
    work = tmp_path / "compressed"
    shutil.copytree(indexes / "compressed", work)
    magic, version, arrays = read_container(work / "residuals.bin")
    arrays[1] = arrays[1].copy()  # the (K, dim) centroids
    arrays[1][3, 0] = value
    write_arrays(work / "residuals.bin", magic, version, arrays)
    with pytest.raises(FormatError, match="residuals.bin.*centroid value is NaN or infinite"):
        load_compressed(work)
    before = sorted(tmp_path.iterdir())
    assert main(_reader_argv(indexes, tmp_path, "compressed", work)) == 2
    assert "centroid value is NaN or infinite" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before  # no run, manifest or temporary file


# --- an index directory holds one container, which names its mode -----------


@pytest.mark.parametrize(
    "kind, other", [(kind, other) for kind in INDEX_KINDS for other in INDEX_KINDS if other != kind]
)
def test_loader_rejects_other_index_kind(indexes, kind, other):
    with pytest.raises(FormatError) as info:
        LOADERS[kind](indexes / other)
    message = str(info.value)
    assert repr(kind) in message and repr(other) in message


def _previous_format_copy(indexes, tmp_path, kind):
    """kind's index in the previous format: the container without its parameters
    record, and meta.json."""
    name, old = dict(CONTAINERS)[kind], INDEX_FORMAT_VERSION - 1
    magic, _, arrays = read_container(indexes / kind / name)
    work = tmp_path / kind
    work.mkdir()
    write_arrays(work / name, magic, old, arrays[1:])
    (work / "meta.json").write_text(json.dumps({"mode": kind, "format_version": old}))
    return work


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_old_format_version_asks_for_rebuild(indexes, tmp_path, kind):
    old = INDEX_FORMAT_VERSION - 1
    with pytest.raises(FormatError, match=f"version {old}; rebuild the index"):
        LOADERS[kind](_previous_format_copy(indexes, tmp_path, kind))


def test_exact_index_before_format_3_asks_for_rebuild(indexes, tmp_path, capsys):
    # formats 1 and 2 kept an exact index as embeddings.bin plus index-meta.json
    work = tmp_path / "exact"
    shutil.copytree(indexes / "store", work)
    (work / "manifest.json").rename(work / "index-meta.json")
    with pytest.raises(FormatError, match="rebuild the index"):
        load_exact(work)
    assert main(_reader_argv(indexes, tmp_path, "exact", work)) == 2
    assert "rebuild the index" in capsys.readouterr().err


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_directory_without_one_container_asks_for_rebuild(indexes, tmp_path, kind):
    empty, both = tmp_path / "empty", tmp_path / "both"
    empty.mkdir()
    shutil.copytree(indexes / kind, both)
    other = next(k for k in INDEX_KINDS if k != kind)
    shutil.copy(indexes / other / dict(CONTAINERS)[other], both)
    for work in (empty, both):
        with pytest.raises(FormatError, match="rebuild the index"):
            LOADERS[kind](work)


SAVERS = {"exact": save_exact, "compressed": save_compressed, "bm25": save_bm25}


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_save_replaces_another_kinds_index(indexes, tmp_path, kind):
    other = next(k for k in INDEX_KINDS if k != kind)
    work = tmp_path / other
    shutil.copytree(indexes / other, work)
    SAVERS[kind](LOADERS[kind](indexes / kind), work)
    assert dir_bytes(work) == dir_bytes(indexes / kind)


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_rebuild_over_previous_format_leaves_one_file(indexes, tmp_path, kind):
    work = _previous_format_copy(indexes, tmp_path, kind)
    SAVERS[kind](LOADERS[kind](indexes / kind), work)
    assert [p.name for p in work.iterdir()] == [dict(CONTAINERS)[kind]]
    assert _sha256_path(work) == _sha256_path(indexes / kind)  # as hashed into manifests


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_failed_save_leaves_directory_unchanged(indexes, tmp_path, kind, monkeypatch):
    other = next(k for k in INDEX_KINDS if k != kind)
    work = tmp_path / other
    shutil.copytree(indexes / other, work)
    index = LOADERS[kind](indexes / kind)
    # the second record's write fails
    monkeypatch.setattr(np.lib.format, "write_array", fail_on_call(np.lib.format.write_array, 2))
    with pytest.raises(OSError, match="disk full"):
        SAVERS[kind](index, work)
    assert dir_bytes(work) == dir_bytes(indexes / other)  # and no .tmp file is left


# each string record: index kind, file, position of its blob (its offsets follow)
STRING_RECORDS = {
    "exact-ids": ("exact", "tokens.bin", 1),
    "compressed-ids": ("compressed", "residuals.bin", 4),
    "bm25-ids": ("bm25", "postings.bin", 6),
    "bm25-terms": ("bm25", "postings.bin", 1),
}


@pytest.mark.parametrize("record", STRING_RECORDS)
def test_repeated_string_rejected(indexes, tmp_path, record):
    kind, name, at = STRING_RECORDS[record]
    work = tmp_path / kind
    shutil.copytree(indexes / kind, work)
    magic, version, arrays = read_container(work / name)
    raw, cuts = arrays[at].tobytes(), arrays[at + 1].tolist()
    strings = [raw[lo:hi].decode("utf-8") for lo, hi in zip(cuts, cuts[1:])]
    strings[1] = strings[0]  # same count, so every record's shape still agrees
    arrays[at : at + 2] = pack_strings(strings)
    write_arrays(work / name, magic, version, arrays)
    with pytest.raises(FormatError, match="duplicate"):
        LOADERS[kind](work)


def test_search_sends_bm25_index_to_bm25_search(indexes, tmp_path, capsys):
    argv = ["search", "--index", str(indexes / "bm25"), "--queries", str(indexes / "queries"),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "bm25 search" in capsys.readouterr().err


# --- line-oriented text files: ParseError with the bad line's number --------

# each text file's reader and a well-formed line for row i
TEXT_FILES = {
    "corpus": (read_corpus_jsonl, '{{"id": "d{i}", "text": "東京 {i}"}}'),
    "run": (read_trec_run, "q1 Q0 d{i} {i} 0.{i} t"),
    "qrels": (load_qrels, "q1 0 d{i} 1"),
    "scores": (TeacherScoreTable.from_tsv, "q1\td{i}\t0.{i}"),
    "pairs": (lambda path: list(read_rows(path, 2, sep="\t")), "q0\td{i}"),
    "negatives": (read_negatives_jsonl,
                  '{{"qid": "q1", "positives": ["d1"], "dense_negatives": ["d{i}"], "seed": 1}}'),
    "nway": (read_nway_jsonl,
             '{{"qid": "q{i}", "passages": ["d{i}", "x{i}"], "scores": [1.0, 0.{i}]}}'),
}
# invalid JSON; a line that is not an object; a missing or mistyped field;
# a wrong field count; a non-numeric rank, grade or score; a non-finite run,
# teacher or n-way score; a grade outside [0, 1023]; a repeated teacher-score pair
NOT_OBJECTS = ["[1, 2]", '"q1"', "3.5"]
BAD_LINES = {
    "corpus": ['{"id": "x", "text": ', *NOT_OBJECTS, '{"id": "x"}', '{"text": "t"}'],
    "run": ["q1 Q0 x 9 0.5", "q1 Q0 x 9 0.5 t extra", "q1 Q0 x nine 0.5 t", "q1 Q0 x 9 high t",
            "q1 Q0 x 9 nan t", "q1 Q0 x 9 -inf t"],
    "qrels": ["q1 0 x", "q1 0 x 1 extra", "q1 0 x high", "q1 0 x 1.5", "q1 0 x -1", "q1 0 x 1024"],
    "scores": ["q1\tx", "q1\tx\t0.5\textra", "q1\tx\thigh", "q1 x 0.5", "q1\tx\tnan",
               "q1\td1\t0.5"],
    "pairs": ["q0\tx\textra", "q0", "q0 x"],
    "negatives": [
        '{"qid": ', *NOT_OBJECTS, '{"positives": ["d1"]}', '{"qid": 7}',
        '{"qid": "q9", "positives": 5}', '{"qid": "q9", "bm25_negatives": "d1"}',
        '{"qid": "q9", "dense_negatives": [1, 2]}',
    ],
    "nway": [
        "{", *NOT_OBJECTS, '{"qid": "q9", "passages": ["a", "b"]}',
        '{"qid": "q9", "passages": 5, "scores": [1.0]}',
        '{"qid": "q9", "passages": "ab", "scores": [1, 2]}',
        '{"qid": "q9", "passages": ["a", "b"], "scores": [1.0, "high"]}',
        '{"qid": "q9", "passages": ["a", "a"], "scores": [1.0, 2.0]}',
        '{"qid": "q9", "passages": ["a", "b"], "scores": [1.0, NaN]}',
        '{"qid": "q9", "passages": ["a", "b"], "scores": [Infinity, 1.0]}',
        '{"qid": "q9", "passages": ["a", "b"], "scores": [1.0, "-inf"]}',
    ],
}


def write_text_file(path, kind, line3):
    """Line 1 well-formed, line 2 blank, line 3 as given, line 4 well-formed."""
    good = TEXT_FILES[kind][1]
    lines = [good.format(i=1), "", line3, good.format(i=4)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_utf8_file(path, kind, eol="\n", bad=b"\xff\xfe"):
    """Three well-formed lines ending in eol, the bytes `bad` opening line 2."""
    lines = [TEXT_FILES[kind][1].format(i=i).encode("utf-8") for i in (1, 2, 3)]
    lines[1] = bad + lines[1]
    path.write_bytes(b"".join(line + eol.encode("ascii") for line in lines))
    return path


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("kind", TEXT_FILES)
def test_invalid_utf8_is_parse_error(tmp_path, kind, eol):
    reader = TEXT_FILES[kind][0]
    assert reader(write_utf8_file(tmp_path / "good", kind, eol, bad=b""))
    with pytest.raises(ParseError) as info:
        reader(write_utf8_file(tmp_path / "bad", kind, eol))
    assert info.value.line == 2


@pytest.mark.parametrize("kind", TEXT_FILES)
def test_text_file_well_formed(tmp_path, kind):
    reader, good = TEXT_FILES[kind]
    rows = reader(write_text_file(tmp_path / "f", kind, good.format(i=3)))
    assert len(rows) == (1 if kind in ("run", "qrels") else 3)  # run and qrels group by query


@pytest.mark.parametrize("kind, bad", [(k, bad) for k, bads in BAD_LINES.items() for bad in bads])
def test_malformed_text_line(tmp_path, kind, bad):
    with pytest.raises(ParseError) as info:
        TEXT_FILES[kind][0](write_text_file(tmp_path / "f", kind, bad))
    assert info.value.line == 3


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """Well-formed inputs for every CLI stage that reads a text file."""
    root = tmp_path_factory.mktemp("stage-inputs")
    rng = np.random.default_rng(3)
    save_store(random_store(rng, 5, 8, id_prefix="d"), root / "docs")
    save_store(random_store(rng, 2, 8, kind="query", id_prefix="q"), root / "queries")
    for kind, (_, good) in TEXT_FILES.items():
        write_text_file(root / kind, kind, good.format(i=3))
    return root


def stage_argv(stage, f):
    """The CLI command for a stage, reading the inputs named in `f`."""
    return {
        "score": ["score", "--query-store", f["queries"], "--doc-store", f["docs"],
                  "--pairs", f["pairs"], "--out", f["out"]],
        "transpose": ["transpose", "--scores", f["scores"], "--pairs", f["pairs"],
                      "--out", f["out"], "--dropped", f["out"] + ".dropped"],
        "mine-dense": ["mine", "dense", "--runs", f["run"], "--positives", f["qrels"],
                       "--out", f["out"]],
        "nway": ["nway", "--candidates", f["negatives"], "--scores", f["scores"], "--n", "2",
                 "--out", f["out"]],
        "eval": ["eval", "--run", f["run"], "--qrels", f["qrels"], "--metric", "ndcg@10",
                 "--out", f["out"]],
    }[stage]


STAGE_INPUTS = {
    "score": ["pairs"], "transpose": ["scores", "pairs"], "mine-dense": ["run", "qrels"],
    "nway": ["negatives", "scores"], "eval": ["run", "qrels"],
}


def _files(stage_inputs, tmp_path):
    return {p.name: str(p) for p in stage_inputs.iterdir()} | {"out": str(tmp_path / "out")}


@pytest.mark.parametrize("stage", STAGE_INPUTS)
def test_stage_accepts_inputs(stage_inputs, tmp_path, stage):
    assert main(stage_argv(stage, _files(stage_inputs, tmp_path))) == 0


@pytest.mark.parametrize(
    "stage, kind, bad",
    [(stage, kind, bad) for stage, kinds in STAGE_INPUTS.items() for kind in kinds
     for bad in BAD_LINES[kind]],
)
def test_stage_rejects_malformed_line(stage_inputs, tmp_path, capsys, stage, kind, bad):
    files = _files(stage_inputs, tmp_path)
    files[kind] = str(write_text_file(tmp_path / kind, kind, bad))
    assert main(stage_argv(stage, files)) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "stage, kind", [(stage, kind) for stage, kinds in STAGE_INPUTS.items() for kind in kinds]
)
def test_stage_rejects_invalid_utf8(stage_inputs, tmp_path, capsys, stage, kind):
    files = _files(stage_inputs, tmp_path)
    files[kind] = str(write_utf8_file(tmp_path / kind, kind))
    assert main(stage_argv(stage, files)) == 2
    assert "line 2" in capsys.readouterr().err


def test_keep_file_takes_one_id_per_line(stage_inputs, tmp_path, capsys):
    argv = stage_argv("nway", _files(stage_inputs, tmp_path)) + ["--keep", str(tmp_path / "keep")]
    (tmp_path / "keep").write_text("d3\n\n  d4 \n", encoding="utf-8")
    assert main(argv) == 0
    (tmp_path / "keep").write_text("d3\n\nd4 d1\n", encoding="utf-8")
    assert main(argv) == 2
    assert "line 3" in capsys.readouterr().err
