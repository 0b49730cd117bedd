"""Compressed token-vector index: centroids + 2-bit residual codes.

Every document token is stored as (nearest centroid id, 2-bit per-dimension
residual code).  The centroid codebook comes from spherical k-means: assign
by maximum dot product, re-estimate each centroid as the normalized mean of
its members, re-seed empty clusters from the points farthest from their
assigned centroid.  Residuals are bucketed per dimension at the quartiles of
the corpus residual distribution; each bucket reconstructs to its
midpoint-of-bucket quantile.  Codes pack 4 per byte.

Search runs in three stages: (1) probe the `nprobe` most similar centroids
per query token, ties to the lowest centroid id, and collect the documents on
their inverted lists, (2) keep the `candidate_cap` candidates with the best
approximate score computed over centroids only, ties to the lowest document
index, (3) rerank the survivors by exact maxsim over ``CompressedIndex.decode``,
the one reconstruction: centroid plus each dimension's bucket value,
unit-normalized.  Stages 1 and 2 select by partition (``_largest``), never by
a full sort.

The inverted lists hold each document once per centroid it has a token
on, in ascending order; ``CompressedIndex`` derives them from the centroid
ids when it is constructed, by ``compress`` or ``load_compressed``.

Index directory layout: one array container (see ``store.save_index``), so
a build's parameters, centroids and codes are renamed into place together::

    residuals.bin  magic LIRC: the parameters (``seed``, ``nbits``,
                   ``bucket_sample_limit``) | (K, dim) float32 centroids |
                   (dim, 3) float32 bucket cutoffs | (dim, 4) float32 bucket
                   values | the ``store.TokenTable`` records | uint32 centroid
                   id and ceil(dim/4) packed code bytes per token
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BadCentroidId, DimMismatch, EmptyStore, InsufficientTokens
from .ranking import RankedList, ranked_from_scores
from .scoring import check_query, maxsim_per_doc
from .store import EmbeddingStore, TokenTable, check_format, read_table, save_index

DEFAULT_NPROBE = 4
DEFAULT_CANDIDATE_CAP = 8192
DEFAULT_ITERATIONS = 4
BUCKET_SAMPLE_LIMIT = 1 << 20

_ASSIGN_CHUNK = 4096


@dataclass
class Codebook:
    centroids: np.ndarray  # (K, dim) float32, unit rows
    seed: int

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


@dataclass
class ResidualCodec:
    """Shared per-dimension bucket tables: 3 cutoffs and 4 reconstruction values."""

    cutoffs: np.ndarray  # (dim, 3) float32
    values: np.ndarray  # (dim, 4) float32


@dataclass
class CompressedIndex(TokenTable):
    codebook: Codebook
    codec: ResidualCodec
    centroid_ids: np.ndarray  # (total_tokens,) uint32, each < K
    packed_codes: np.ndarray  # (total_tokens, ceil(dim/4)) uint8
    ivf_offsets: np.ndarray = field(init=False)  # (K + 1,) int64
    ivf_docs: np.ndarray = field(init=False)  # int64 doc indexes by centroid, ascending in each
    params: dict

    def __post_init__(self):
        self.ivf_offsets, self.ivf_docs = _inverted_lists(
            self.centroid_ids, self.token_docs(), self.codebook.k
        )

    def decode(self, rows: np.ndarray) -> np.ndarray:
        """The given token rows reconstructed as centroid + each dimension's bucket
        value, unit-normalized (float32)."""
        dim = self.codebook.dim
        codes = unpack_codes(self.packed_codes[rows], dim)
        recon = self.codebook.centroids[self.centroid_ids[rows].astype(np.int64)]
        recon += self.codec.values[np.arange(dim)[None, :], codes]
        return _unit_rows_f32(recon)


def default_centroid_count(total_tokens: int) -> int:
    """round(16 * sqrt(total tokens)) rounded up to the next power of two, then halved
    until it is at most the token count, as train_codebook requires."""
    if total_tokens < 1:
        raise ValueError("need at least one token")
    base = max(1, round(16.0 * math.sqrt(total_tokens)))
    k = 1 << math.ceil(math.log2(base))
    while k > total_tokens:
        k //= 2
    return k


def _unit_rows_f32(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float32)
    norms = np.linalg.norm(m.astype(np.float64), axis=1)
    norms[norms < 1e-12] = 1.0
    return (m / norms[:, None].astype(np.float32)).astype(np.float32)


def _assign(tokens: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid (max dot) per token; returns (assignments, best sims)."""
    n = tokens.shape[0]
    assign = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float32)
    ct = centroids.T
    for start in range(0, n, _ASSIGN_CHUNK):
        sims = tokens[start : start + _ASSIGN_CHUNK] @ ct
        idx = sims.argmax(axis=1)
        assign[start : start + _ASSIGN_CHUNK] = idx
        best[start : start + _ASSIGN_CHUNK] = np.take_along_axis(
            sims, idx[:, None], axis=1
        )[:, 0]
        del sims
    return assign, best


def train_codebook(
    store: EmbeddingStore, k: int, iterations: int = DEFAULT_ITERATIONS, seed: int = 0
) -> Codebook:
    """Spherical k-means over every token in the store; deterministic given seed."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not len(store):
        raise EmptyStore("cannot index an empty store")
    tokens = store.tokens.astype(np.float32, copy=False)
    total = tokens.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > total:
        raise InsufficientTokens(f"requested {k} centroids from {total} tokens")

    rng = np.random.default_rng(seed)
    init = rng.choice(total, size=k, replace=False)
    centroids = _unit_rows_f32(tokens[init])

    for _ in range(iterations):
        assign, best = _assign(tokens, centroids)
        counts = np.bincount(assign, minlength=k)
        sums = np.empty((k, tokens.shape[1]), dtype=np.float64)
        for d in range(tokens.shape[1]):
            sums[:, d] = np.bincount(assign, weights=tokens[:, d], minlength=k)
        norms = np.linalg.norm(sums, axis=1)
        dead = (counts == 0) | (norms < 1e-12)
        norms[dead] = 1.0
        centroids = (sums / norms[:, None]).astype(np.float32)
        n_dead = int(dead.sum())
        if n_dead:
            # farthest points: lowest similarity to their assigned centroid
            farthest = np.argsort(best, kind="stable")[:n_dead]
            centroids[np.flatnonzero(dead)] = _unit_rows_f32(tokens[farthest])
    return Codebook(centroids=centroids, seed=seed)


def _quantize(residuals: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
    """Bucket each residual value: code = number of cutoffs strictly below it."""
    codes = np.zeros(residuals.shape, dtype=np.uint8)
    for cutoff in cutoffs.T:
        codes += residuals > cutoff
    return codes


def pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack 2-bit codes 4 per byte (value j at bit offset 2*(j % 4))."""
    codes = np.asarray(codes, dtype=np.uint8)
    n, dim = codes.shape
    padded_dim = 4 * ((dim + 3) // 4)
    if padded_dim != dim:
        codes = np.concatenate(
            [codes, np.zeros((n, padded_dim - dim), dtype=np.uint8)], axis=1
        )
    quads = codes.reshape(n, padded_dim // 4, 4)
    shifts = np.array([0, 2, 4, 6], dtype=np.uint8)
    return (quads << shifts).sum(axis=2, dtype=np.uint16).astype(np.uint8)


def unpack_codes(packed: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of pack_codes; returns (n, dim) uint8 values in {0, 1, 2, 3}."""
    packed = np.asarray(packed, dtype=np.uint8)
    shifts = np.array([0, 2, 4, 6], dtype=np.uint8)
    quads = (packed[:, :, None] >> shifts) & 3
    return quads.reshape(packed.shape[0], -1)[:, :dim]


def compress(store: EmbeddingStore, codebook: Codebook) -> CompressedIndex:
    """Quantize every token of the store against the codebook."""
    if not len(store):
        raise EmptyStore("cannot index an empty store")
    tokens = store.tokens.astype(np.float32, copy=False)
    if tokens.shape[1] != codebook.dim:
        raise DimMismatch(
            f"store dim {tokens.shape[1]} != codebook dim {codebook.dim}"
        )
    total = tokens.shape[0]
    assign, _ = _assign(tokens, codebook.centroids)
    residuals = tokens - codebook.centroids[assign]

    if total > BUCKET_SAMPLE_LIMIT:
        rng = np.random.default_rng(codebook.seed)
        sample = residuals[np.sort(rng.choice(total, BUCKET_SAMPLE_LIMIT, replace=False))]
    else:
        sample = residuals
    cutoffs = np.quantile(sample, [0.25, 0.5, 0.75], axis=0).T.astype(np.float32)
    values = np.quantile(sample, [0.125, 0.375, 0.625, 0.875], axis=0).T.astype(np.float32)
    codec = ResidualCodec(cutoffs=cutoffs, values=values)

    codes = _quantize(residuals, cutoffs)
    packed = pack_codes(codes)

    return CompressedIndex(
        store.doc_ids, store.offsets,
        codebook=codebook,
        codec=codec,
        centroid_ids=assign.astype(np.uint32),
        packed_codes=packed,
        params={"seed": codebook.seed, "nbits": 2, "bucket_sample_limit": BUCKET_SAMPLE_LIMIT},
    )


def _inverted_lists(centroid_ids: np.ndarray, token_doc: np.ndarray, k: int):
    """(ivf_offsets, ivf_docs): each document once per centroid it has a token on."""
    order = np.argsort(centroid_ids, kind="stable")
    cids, docs = centroid_ids[order], token_doc[order]
    # the stable sort keeps token order within a list, so docs ascend and repeats are adjacent
    keep = np.ones(cids.size, dtype=bool)
    keep[1:] = (cids[1:] != cids[:-1]) | (docs[1:] != docs[:-1])
    counts = np.bincount(cids[keep], minlength=k)
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64), docs[keep]


def _largest(values: np.ndarray, n: int) -> np.ndarray:
    """Mask of the n largest entries along the last axis, ties to the lowest index: the
    entries a stable argsort(-values)[..., :n] picks, found by one partition."""
    width = values.shape[-1]
    if n >= width:
        return np.ones(values.shape, dtype=bool)
    kth = np.partition(values, width - n, axis=-1)[..., width - n, None]  # the n-th largest
    chosen = values >= kth
    if (chosen.sum(axis=-1) == n).all():
        return chosen
    tied = values == kth  # a tie straddles the n-th value: keep its lowest indexes
    room = n - (chosen & ~tied).sum(axis=-1, keepdims=True)
    return chosen & (~tied | (np.cumsum(tied, axis=-1) <= room))


def search_compressed(
    index: CompressedIndex,
    q: np.ndarray,
    k: int,
    nprobe: int = DEFAULT_NPROBE,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
    query_id: str = "",
) -> RankedList:
    """Probe inverted lists, cap candidates by centroid-level score, rerank exactly."""
    if k < 1 or nprobe < 1:
        raise ValueError("k and nprobe must be >= 1")
    if candidate_cap < k:
        raise ValueError("candidate_cap must be >= k")
    q = check_query(q, index.codebook.dim)

    centroids64 = index.codebook.centroids.astype(np.float64)
    qsims = q @ centroids64.T  # (q_tokens, K)
    probed = np.flatnonzero(_largest(qsims, nprobe).any(axis=0))

    # stage 1: all documents appearing on the probed centroids' inverted lists
    pieces = [
        index.ivf_docs[index.ivf_offsets[c] : index.ivf_offsets[c + 1]] for c in probed
    ]
    candidates = np.unique(np.concatenate(pieces))
    if candidates.size == 0:
        return RankedList(query_id=query_id)

    # stage 2: approximate score = maxsim over centroid vectors only
    if candidates.size > candidate_cap:
        flat, bounds = index.rows_of(candidates)
        approx = maxsim_per_doc(qsims[:, index.centroid_ids[flat].astype(np.int64)], bounds)
        candidates = candidates[_largest(approx, candidate_cap)]

    # stage 3: decode the candidates' tokens and rerank by exact maxsim
    flat, bounds = index.rows_of(candidates)
    recon = index.decode(flat).astype(np.float64)
    scores = maxsim_per_doc(q @ recon.T, bounds)
    ids = [index.doc_ids[c] for c in candidates]
    return ranked_from_scores(query_id, ids, scores, k=k)


def save_compressed(index: CompressedIndex, directory: str | Path) -> None:
    arrays = [index.codebook.centroids, index.codec.cutoffs, index.codec.values,
              *index.table_arrays(), index.centroid_ids, index.packed_codes]
    save_index(directory, "compressed", index.params, arrays)


def load_compressed(directory: str | Path) -> CompressedIndex:
    """Load an index, checking its records against each other before search uses it:
    the (K, dim) centroids fix the other shapes, the token offsets the row counts."""
    keys = {"seed": int, "nbits": int, "bucket_sample_limit": int}
    records = ["<f4", "<f4", "<f4", TokenTable, "<u4", "u1"]
    path, params, (centroids, cutoffs, values, table, centroid_ids, packed) = read_table(
        directory, "compressed", keys, records)
    check_format(params["nbits"] == 2, path, f"nbits {params['nbits']}, expected 2")
    check_format(centroids.ndim == 2, path, f"centroids of shape {centroids.shape}")
    # a NaN centroid never ranks among a token's nearest, so its documents would be lost
    check_format(np.isfinite(centroids).all(), path, "a centroid value is NaN or infinite")
    (k, dim), total = centroids.shape, table.total_tokens
    shapes = (cutoffs.shape, values.shape, centroid_ids.shape, packed.shape)
    want = ((dim, 3), (dim, 4), (total,), (total, (dim + 3) // 4))
    check_format(shapes == want, path, f"shapes {shapes} disagree with {k} x {dim} centroids "
                                       f"and {total} tokens {want}")
    if total and int(centroid_ids.max()) >= k:
        raise BadCentroidId(f"{path}: centroid id {int(centroid_ids.max())} not in [0, {k})")

    return CompressedIndex(
        **vars(table),
        codebook=Codebook(centroids=centroids, seed=params["seed"]),
        codec=ResidualCodec(cutoffs=cutoffs, values=values),
        centroid_ids=centroid_ids,
        packed_codes=packed,
        params=params,
    )
