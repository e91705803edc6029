"""Exception hierarchy. Every error carries a stable machine-readable code.

An error that a bad argument causes is also a ``ValueError``, so the CLI
treats it as a usage error (exit 2)."""

from __future__ import annotations


class ScalingFilterError(Exception):
    """Base class for all toolkit errors."""

    code = "error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


# corpus I/O
class RecordError(ScalingFilterError):
    """A single JSONL record failed validation; carries shard path and line number."""

    code = "record-error"

    def __init__(self, message: str, shard: str = "", line_no: int = 0):
        super().__init__(message)
        self.shard = shard
        self.line_no = line_no


class EmptyTextError(RecordError):
    code = "empty-text"


class EncodingError(RecordError):
    code = "encoding"


class InvalidIdError(RecordError):
    code = "invalid-id"


class IdNotInCorpusError(ScalingFilterError):
    code = "id-not-in-corpus"


# n-gram models
class NoTrainingDataError(ScalingFilterError):
    code = "no-training-data"


class InvalidPairSpecError(ScalingFilterError, ValueError):
    code = "invalid-pair-spec"


# scoring
class InvalidPerplexityError(ScalingFilterError):
    code = "invalid-perplexity"


class ScorerUnavailableError(ScalingFilterError):
    code = "scorer-unavailable"


class ErrorBudgetExceededError(ScalingFilterError):
    code = "error-budget-exceeded"


class WorkerDiedError(ScalingFilterError):  # a forked worker of score or embed
    code = "worker-died"


# selection
class EmptySelectionInputError(ScalingFilterError, ValueError):
    code = "empty-selection-input"


class InvalidClassifierScoreError(ScalingFilterError, ValueError):
    code = "invalid-classifier-score"


# diversity
class EmbedderUnavailableError(ScalingFilterError):
    code = "embedder-unavailable"


class DegenerateEmbeddingError(ScalingFilterError):
    code = "degenerate-embedding"


class NotPsdError(ScalingFilterError):
    code = "not-psd"


class CorpusTooSmallError(ScalingFilterError):
    code = "corpus-too-small"


# scaling laws
class InvalidExponentError(ScalingFilterError, ValueError):
    code = "invalid-exponent"


class NumericRangeError(ScalingFilterError):
    code = "numeric-range"


class InvalidSecantError(ScalingFilterError, ValueError):
    code = "invalid-secant"


class ConditionRegionViolatedError(ScalingFilterError):
    code = "condition-region-violated"
