"""Late-interaction scoring math.

The relevance of a document to a query is the sum, over query tokens, of
each token's maximum dot product against the document's tokens.  Inputs are
assumed unit-normalized row-wise, so dot product equals cosine similarity.
All reductions accumulate in float64 regardless of storage precision.

Also implements the listwise distillation objective used to train on n-way
examples: KL(teacher || student) over temperature-softened softmax
distributions of the two score vectors, plus its analytic gradient with
respect to the student scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, FormatError, NonFiniteScore


def _as_f64_pair(q: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q = np.asarray(q, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if q.ndim != 2 or d.ndim != 2:
        raise ValueError("token matrices must be 2-d")
    if q.shape[1] != d.shape[1]:
        raise DimMismatch(f"query dim {q.shape[1]} != document dim {d.shape[1]}")
    return q, d


def check_query(q: np.ndarray, dim: int) -> np.ndarray:
    """The query as float64: DimMismatch unless it is (rows, dim), FormatError
    if it has no rows or a non-finite value."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != dim:
        raise DimMismatch(f"query shape {q.shape} does not match index dim {dim}")
    if q.shape[0] == 0 or not np.isfinite(q).all():
        raise FormatError("query has no rows or a non-finite value")
    return q


def maxsim(q: np.ndarray, d: np.ndarray) -> float:
    """Sum over query tokens of the max similarity against document tokens."""
    q, d = _as_f64_pair(q, d)
    sims = q @ d.T
    return float(sims.max(axis=1).sum())


def maxsim_per_doc(token_sims: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """maxsim of each document from (query token, document token) similarities whose
    columns hold document j's tokens at bounds[j]:bounds[j + 1] (no empty run)."""
    return np.maximum.reduceat(token_sims, bounds[:-1], axis=1).sum(axis=0)


def maxsim_grad_query(q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Gradient of maxsim with respect to the query matrix.

    Row i is the document token achieving the max for query token i; ties
    break toward the lowest document-token index (deterministic
    subgradient).
    """
    q, d = _as_f64_pair(q, d)
    sims = q @ d.T
    best = sims.argmax(axis=1)  # argmax returns the first (lowest) index on ties
    return d[best]


@dataclass
class NWayScoreVector:
    """Aligned student/teacher scores for one query's n candidates.

    Index 0 is the positive by convention; n >= 2.
    """

    student: np.ndarray
    teacher: np.ndarray

    def __post_init__(self):
        self.student = np.asarray(self.student, dtype=np.float64)
        self.teacher = np.asarray(self.teacher, dtype=np.float64)
        if self.student.ndim != 1 or self.teacher.ndim != 1:
            raise ValueError("score vectors must be 1-d")
        if self.student.shape != self.teacher.shape:
            raise ValueError(
                f"student has {self.student.size} scores, teacher {self.teacher.size}"
            )
        if self.student.size < 2:
            raise ValueError("need at least 2 candidates")

    @property
    def n(self) -> int:
        return self.student.size


def _log_softmax(x: np.ndarray, temperature: float) -> np.ndarray:
    # max-subtraction stabilization
    z = x / temperature
    z = z - z.max()
    return z - np.log(np.exp(z).sum())


def _check_finite(v: NWayScoreVector) -> None:
    if not (np.isfinite(v.student).all() and np.isfinite(v.teacher).all()):
        raise NonFiniteScore("score vector contains NaN or infinity")


def kl_distill_loss(v: NWayScoreVector, temperature: float = 1.0) -> float:
    """KL(softmax(teacher/T) || softmax(student/T)); always >= 0."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    _check_finite(v)
    log_p = _log_softmax(v.teacher, temperature)
    log_q = _log_softmax(v.student, temperature)
    p = np.exp(log_p)
    # clamp away the tiny negative values float rounding can produce
    return max(0.0, float(np.sum(p * (log_p - log_q))))


def kl_distill_grad(v: NWayScoreVector, temperature: float = 1.0) -> np.ndarray:
    """Gradient of kl_distill_loss w.r.t. the student scores; sums to 0."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    _check_finite(v)
    p = np.exp(_log_softmax(v.teacher, temperature))
    q = np.exp(_log_softmax(v.student, temperature))
    return (q - p) / temperature
