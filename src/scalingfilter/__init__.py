"""Reference-free pretraining-data quality filtering toolkit.

Scores documents by the perplexity ratio between two same-data models of
unequal capacity, selects high-quality subsets under several policies,
measures filtered-set semantic diversity via eigenvalue entropy, and
numerically verifies the scaling-law reasoning behind the score.
"""

from .corpus import CorpusManifest, Document, read_corpus, write_corpus
from .diversity import semantic_diversity, subsample_diversity
from .ngram import MetaModelPair, NGramModel, train_pair
from .scaling import ScalingLawParams, expected_loss, optimal_allocation
from .scoring import PerplexityModel, QualityScore, RemotePerplexityModel, quality_factor, score_corpus
from .selection import (
    SelectionResult,
    pareto_noisy_threshold,
    percentile_gate,
    select_temperature,
    select_topk,
)

__version__ = "0.1.0"

__all__ = [
    "CorpusManifest",
    "Document",
    "MetaModelPair",
    "NGramModel",
    "PerplexityModel",
    "QualityScore",
    "RemotePerplexityModel",
    "ScalingLawParams",
    "SelectionResult",
    "expected_loss",
    "optimal_allocation",
    "pareto_noisy_threshold",
    "percentile_gate",
    "quality_factor",
    "read_corpus",
    "score_corpus",
    "select_temperature",
    "select_topk",
    "semantic_diversity",
    "subsample_diversity",
    "train_pair",
    "write_corpus",
]
