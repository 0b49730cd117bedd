"""Late-interaction retrieval engine and training-data tooling.

Token-level MaxSim scoring and search (exact or 2-bit quantized), BM25,
hard-negative mining, n-way distillation example construction, and IR
metric evaluation over TREC-format files.
"""

from .bm25 import BM25Index, Tokenizer, build_bm25, load_bm25, save_bm25, search_bm25, tokenize
from .compressed import (
    Codebook,
    CompressedIndex,
    ResidualCodec,
    compress,
    default_centroid_count,
    load_compressed,
    save_compressed,
    search_compressed,
    train_codebook,
)
from .evaluation import (
    MetricSpec,
    evaluate,
    load_qrels,
    map_at_k,
    mrr_at_k,
    ndcg_at_k,
    recall_at_k,
)
from .exact import ExactIndex, build_exact, load_exact, save_exact, search_exact
from .mining import (
    MiningConfig,
    NWayExample,
    TeacherScoreTable,
    build_nway,
    mine_bm25,
    mine_dense,
    mine_window,
    transpose_scores,
)
from .ranking import RankedList, ranked_from_scores, read_trec_run, write_trec_run
from .scoring import (
    NWayScoreVector,
    kl_distill_grad,
    kl_distill_loss,
    maxsim,
    maxsim_grad_query,
)
from .store import (
    CorpusRecord,
    EmbeddingStore,
    ingest_embeddings,
    load_store,
    normalize_matrix,
    read_corpus_jsonl,
    read_embedding_file,
    save_store,
    write_embedding_file,
)

__version__ = "0.1.0"

__all__ = [
    "BM25Index",
    "Codebook",
    "CompressedIndex",
    "CorpusRecord",
    "EmbeddingStore",
    "ExactIndex",
    "MetricSpec",
    "MiningConfig",
    "NWayExample",
    "NWayScoreVector",
    "RankedList",
    "ResidualCodec",
    "TeacherScoreTable",
    "Tokenizer",
    "build_bm25",
    "build_exact",
    "build_nway",
    "compress",
    "default_centroid_count",
    "evaluate",
    "ingest_embeddings",
    "kl_distill_grad",
    "kl_distill_loss",
    "load_bm25",
    "load_compressed",
    "load_exact",
    "load_qrels",
    "load_store",
    "map_at_k",
    "maxsim",
    "maxsim_grad_query",
    "mine_bm25",
    "mine_dense",
    "mine_window",
    "mrr_at_k",
    "ndcg_at_k",
    "normalize_matrix",
    "ranked_from_scores",
    "read_corpus_jsonl",
    "read_embedding_file",
    "read_trec_run",
    "recall_at_k",
    "save_bm25",
    "save_compressed",
    "save_exact",
    "save_store",
    "search_bm25",
    "search_compressed",
    "search_exact",
    "tokenize",
    "train_codebook",
    "transpose_scores",
    "write_embedding_file",
    "write_trec_run",
]
