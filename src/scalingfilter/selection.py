"""Document selection policies over per-document scores.

Four policies:

* top-k by quality factor (keeps the ceil(keep_rate * n) largest d),
* temperature sampling without replacement (Gumbel-perturbed keys, so the
  kept set follows softmax(d / tau) weights; tau -> 0 recovers top-k and
  tau -> inf recovers uniform sampling),
* percentile gating on the larger model's perplexity (keeps the middle
  band between two empirical percentiles),
* Pareto noisy thresholding of external classifier scores (keep when
  s > 1 - x with x drawn from a unit-scale Pareto with shape alpha).

All stochastic policies are pure functions of (inputs, parameters, seed).
Each policy checks its own parameters before it selects anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import corpus as corpus_io
from .corpus import CorpusManifest, Document
from .errors import (
    EmptySelectionInputError,
    IdNotInCorpusError,
    InvalidClassifierScoreError,
)
from .scoring import QualityScore
from .seeding import rng_for

# the paper's protocol: keep 70%, gate at the 15th/85th percentiles (the same 70%), Pareto alpha 9
KEEP_RATE = 0.7
GATE_LO_PCT = 15.0
GATE_HI_PCT = 85.0
PARETO_ALPHA = 9.0


@dataclass
class SelectionResult:
    kept_ids: list[str]
    method: str
    params: dict
    seed: Optional[int] = None  # None: the policy draws nothing
    threshold_used: Optional[float] = None
    input_count: int = 0

    @property
    def kept_count(self) -> int:
        return len(self.kept_ids)

    def audit(self) -> dict:
        return {
            "input": self.input_count,
            "kept": self.kept_count,
            "dropped": self.input_count - self.kept_count,
            "method": self.method,
            "params": self.params,
            "seed": self.seed,
            "threshold_used": self.threshold_used,
        }

    def write(self, kept_path: str | Path, audit_path: str | Path) -> None:
        Path(kept_path).write_text("".join(i + "\n" for i in self.kept_ids), encoding="utf-8")
        corpus_io.write_json(audit_path, self.audit())


def _check_keep_rate(keep_rate: float) -> None:
    if not 0.0 < keep_rate <= 1.0:
        raise ValueError(f"keep_rate must be in (0, 1], got {keep_rate!r}")


def _top_k(doc_ids: Sequence[str], keys: Sequence[float], keep_rate: float) -> tuple[list[str], float]:
    """The ids of the ceil(keep_rate * n) largest keys, in input order, and the smallest kept key.

    Ties break by (key descending, doc_id ascending); ceil guarantees at
    least the requested fraction survives.
    """
    if not doc_ids:
        raise EmptySelectionInputError("no scores to select from")
    k = min(len(keys), math.ceil(keep_rate * len(keys)))
    ranked = sorted(zip([-key for key in keys], doc_ids))
    kept = {doc_id for _, doc_id in ranked[:k]}
    return [doc_id for doc_id in doc_ids if doc_id in kept], -ranked[k - 1][0]


def select_topk(scores: Sequence[QualityScore], keep_rate: float = KEEP_RATE) -> SelectionResult:
    """Keep the ceil(keep_rate * n) documents with the largest quality factor.

    Ties break by (d descending, doc_id ascending); kept_ids preserve the
    input order of ``scores``.
    """
    _check_keep_rate(keep_rate)
    kept_ids, threshold = _top_k([s.doc_id for s in scores], [s.d for s in scores], keep_rate)
    return SelectionResult(kept_ids, "topk", {"keep_rate": keep_rate},
                           threshold_used=threshold, input_count=len(scores))


def select_temperature(
    scores: Sequence[QualityScore],
    keep_rate: float = KEEP_RATE,
    *,
    tau: float,
    seed: int = 0,
) -> SelectionResult:
    """Sample k documents without replacement with weights softmax(d / tau).

    Realized as top-k over Gumbel-perturbed keys d_i / tau + g_i, which
    draws exactly from the softmax without-replacement distribution.
    Deterministic given the seed.
    """
    _check_keep_rate(keep_rate)
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau!r}")
    gumbel = rng_for(seed, "temperature-selection").gumbel(size=len(scores)).tolist()
    keys = [s.d / tau + g for s, g in zip(scores, gumbel)]
    kept_ids, _ = _top_k([s.doc_id for s in scores], keys, keep_rate)
    return SelectionResult(kept_ids, "temperature", {"keep_rate": keep_rate, "tau": tau},
                           seed=seed, input_count=len(scores))


def percentile_gate(
    perplexities: Sequence[tuple[str, float]],
    lo_pct: float = GATE_LO_PCT,
    hi_pct: float = GATE_HI_PCT,
) -> SelectionResult:
    """Keep documents whose perplexity sits in the middle percentile band.

    Boundaries use nearest-rank order statistics: with distinct values the
    kept ranks are ceil(lo*n/100)+1 .. ceil(hi*n/100), so the 15/85 default
    keeps exactly the middle 70% and duplicates of a boundary value are
    kept inclusively.
    """
    if not 0.0 <= lo_pct < hi_pct <= 100.0:
        raise ValueError(f"need 0 <= lo_pct < hi_pct <= 100, got {lo_pct!r} and {hi_pct!r}")
    if not perplexities:
        raise EmptySelectionInputError("no perplexities to gate")
    n = len(perplexities)
    ordered = sorted(p for _, p in perplexities)
    ilo = min(max(math.ceil(lo_pct * n / 100.0), 0), n - 1)
    ihi = min(max(math.ceil(hi_pct * n / 100.0) - 1, 0), n - 1)
    p_lo, p_hi = ordered[ilo], ordered[ihi]
    kept_ids = [doc_id for doc_id, p in perplexities if p_lo <= p <= p_hi]
    return SelectionResult(kept_ids, "percentile_gate", {"lo_pct": lo_pct, "hi_pct": hi_pct},
                           threshold_used=p_hi, input_count=n)


def pareto_noisy_threshold(
    classifier_scores: Sequence[tuple[str, float]],
    alpha: float = PARETO_ALPHA,
    seed: int = 0,
) -> SelectionResult:
    """Keep document i iff s_i > 1 - x_i with x_i ~ Pareto(alpha), unit scale.

    x is drawn as u^(-1/alpha) - 1 for u uniform on (0, 1], i.e. a Pareto
    tail shifted to start at 0, so a perfect score is always kept and a
    zero score survives with probability 2^(-alpha).
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha!r}")
    if not classifier_scores:
        raise EmptySelectionInputError("no classifier scores to threshold")
    for doc_id, s in classifier_scores:
        if not (0.0 <= s <= 1.0) or not math.isfinite(s):
            raise InvalidClassifierScoreError(f"score {s!r} for {doc_id!r} outside [0, 1]")
    n = len(classifier_scores)
    rng = rng_for(seed, "pareto-threshold")
    u = 1.0 - rng.random(n)  # (0, 1]
    x = u ** (-1.0 / alpha) - 1.0
    kept_ids = [doc_id for (doc_id, s), xi in zip(classifier_scores, x) if s > 1.0 - xi]
    return SelectionResult(kept_ids, "pareto_threshold", {"pareto_alpha": alpha}, seed=seed, input_count=n)


def apply_selection(
    result: SelectionResult,
    manifest_path: str | Path,
    out_dir: str | Path,
    shard_size: int = 10000,
    on_error=None,
) -> CorpusManifest:
    """Materialize the kept documents as a new corpus in original order."""
    kept = set(result.kept_ids)
    found: set[str] = set()

    def filtered() -> Iterable[Document]:
        for doc in corpus_io.read_manifest_corpus(manifest_path, on_error=on_error):
            if doc.id in kept:
                found.add(doc.id)
                yield doc

    src = CorpusManifest.load(manifest_path)
    manifest = corpus_io.write_corpus(
        filtered(), out_dir, shard_size=shard_size, corpus_id=f"{src.corpus_id}-filtered"
    )
    missing = kept - found
    if missing:
        raise IdNotInCorpusError(f"{len(missing)} kept ids not present in corpus, e.g. {sorted(missing)[:3]}")
    return manifest


def read_classifier_scores(path: str | Path) -> list[tuple[str, float]]:
    """Read a TSV of doc_id and classifier score, one unique id a line, after an optional header.

    A line without both fields, a score that is not a number or a repeated
    id raises InvalidClassifierScoreError naming the file and line.
    """
    rows = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.rstrip("\n")
            fields = text.split("\t")
            if line_no == 1 and fields[0] == "doc_id":
                continue
            try:
                doc_id, score = fields[0], float(fields[1])
            except (IndexError, ValueError):
                raise InvalidClassifierScoreError(f"{path}:{line_no}: expected doc_id<TAB>score, got {text!r}") from None
            if doc_id in seen:
                raise InvalidClassifierScoreError(f"{path}:{line_no}: duplicate id {doc_id!r}")
            seen.add(doc_id)
            rows.append((doc_id, score))
    return rows
