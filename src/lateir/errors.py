"""Exception types raised across the engine.

All errors derive from EngineError so callers (and the CLI) can catch the
whole family at once.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package."""


class ZeroVectorRow(EngineError):
    """A token row had (numerically) zero norm and cannot be normalized."""

    def __init__(self, row_index: int, doc_id: str | None = None):
        where = f"row {row_index}" if doc_id is None else f"entry {doc_id!r} row {row_index}"
        super().__init__(f"{where} has zero norm")
        self.row_index = row_index
        self.doc_id = doc_id


class FormatError(EngineError):
    """A binary or text input did not conform to its declared format."""


class LengthError(EngineError):
    """A token matrix exceeded the per-kind token limit."""

    def __init__(self, doc_id: str, count: int, limit: int):
        super().__init__(f"entry {doc_id!r} has {count} tokens, limit is {limit}")
        self.doc_id = doc_id
        self.count = count
        self.limit = limit


class DimMismatch(EngineError):
    """Two operands disagreed on embedding dimensionality."""


class EmptyStore(EngineError):
    """An operation required a non-empty embedding store."""


class InsufficientTokens(EngineError):
    """Fewer tokens available than centroids requested."""


class BadCentroidId(EngineError):
    """A residual code referenced a centroid outside the codebook."""


class DuplicateDocId(EngineError):
    """The same document id appeared twice in one corpus."""


class MissingRun(EngineError):
    """No retrieval run was supplied for a query that needs one."""

    def __init__(self, query_id: str):
        super().__init__(f"no run for query {query_id!r}")
        self.query_id = query_id


class InsufficientCandidates(EngineError):
    """Not enough distinct negative candidates to fill an n-way example."""


class MissingTeacherScore(EngineError):
    """A (query, document) pair lacked a teacher relevance score."""

    def __init__(self, pair: tuple[str, str]):
        super().__init__(f"no teacher score for pair {pair!r}")
        self.pair = pair


class NonFiniteScore(EngineError):
    """A score vector contained NaN or infinity."""


class ParseError(EngineError):
    """A text input file failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(EngineError):
    """Invalid or incomplete pipeline configuration."""
