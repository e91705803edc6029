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

All stochastic policies are pure functions of (inputs, policy, seed).
"""

from __future__ import annotations

import json
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

METHODS = ("topk", "temperature", "percentile_gate", "pareto_threshold")


@dataclass
class SelectionPolicy:
    method: str
    keep_rate: float = 0.7
    tau: Optional[float] = None
    lo_pct: float = 15.0
    hi_pct: float = 85.0
    pareto_alpha: float = 9.0
    seed: Optional[int] = None  # None: the policy draws nothing

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown selection method {self.method!r}")
        if not (0.0 < self.keep_rate <= 1.0):
            raise ValueError("keep_rate must be in (0, 1]")
        if not (self.lo_pct < self.hi_pct):
            raise ValueError("lo_pct must be < hi_pct")
        if self.method == "temperature" and (self.tau is None or self.tau <= 0):
            raise ValueError("temperature selection requires tau > 0")
        if self.pareto_alpha <= 0:
            raise ValueError("pareto_alpha must be > 0")

    def params(self) -> dict:
        out: dict = {"keep_rate": self.keep_rate}
        if self.method == "temperature":
            out["tau"] = self.tau
        if self.method == "percentile_gate":
            out = {"lo_pct": self.lo_pct, "hi_pct": self.hi_pct}
        if self.method == "pareto_threshold":
            out = {"pareto_alpha": self.pareto_alpha}
        return out


@dataclass
class SelectionResult:
    kept_ids: list[str]
    policy: SelectionPolicy
    threshold_used: Optional[float] = None
    input_count: int = 0

    @property
    def kept_count(self) -> int:
        return len(self.kept_ids)

    @property
    def dropped_count(self) -> int:
        return self.input_count - self.kept_count

    def audit(self) -> dict:
        return {
            "input": self.input_count,
            "kept": self.kept_count,
            "dropped": self.dropped_count,
            "method": self.policy.method,
            "params": self.policy.params(),
            "seed": self.policy.seed,
            "threshold_used": self.threshold_used,
        }

    def write(self, kept_path: str | Path, audit_path: str | Path) -> None:
        Path(kept_path).write_text("".join(i + "\n" for i in self.kept_ids), encoding="utf-8")
        Path(audit_path).write_text(json.dumps(self.audit(), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _keep_count(keep_rate: float, n: int) -> int:
    # ceil guarantees at least the requested fraction survives
    return min(n, math.ceil(keep_rate * n))


def select_topk(scores: Sequence[QualityScore], keep_rate: float = 0.7) -> SelectionResult:
    """Keep the ceil(keep_rate * n) documents with the largest quality factor.

    Ties break by (d descending, doc_id ascending); kept_ids preserve the
    input order of ``scores``.
    """
    if not scores:
        raise EmptySelectionInputError("no scores to select from")
    n = len(scores)
    k = _keep_count(keep_rate, n)
    ranked = sorted(scores, key=lambda s: (-s.d, s.doc_id))
    kept_set = {s.doc_id for s in ranked[:k]}
    threshold = ranked[k - 1].d
    kept_ids = [s.doc_id for s in scores if s.doc_id in kept_set]
    policy = SelectionPolicy(method="topk", keep_rate=keep_rate)
    return SelectionResult(kept_ids=kept_ids, policy=policy, threshold_used=threshold, input_count=n)


def select_temperature(
    scores: Sequence[QualityScore],
    keep_rate: float = 0.7,
    tau: float = 1.0,
    seed: int = 0,
) -> SelectionResult:
    """Sample k documents without replacement with weights softmax(d / tau).

    Realized with Gumbel-perturbed keys d_i / tau + g_i: keeping the top-k
    keys draws exactly from the softmax without-replacement distribution.
    Deterministic given the seed.
    """
    if not scores:
        raise EmptySelectionInputError("no scores to select from")
    if tau <= 0:
        raise ValueError("tau must be > 0")
    n = len(scores)
    k = _keep_count(keep_rate, n)
    rng = rng_for(seed, "temperature-selection")
    gumbel = rng.gumbel(size=n)
    keyed = sorted(
        ((s.d / tau + gumbel[i], s.doc_id) for i, s in enumerate(scores)),
        key=lambda kv: (-kv[0], kv[1]),
    )
    kept_set = {doc_id for _, doc_id in keyed[:k]}
    kept_ids = [s.doc_id for s in scores if s.doc_id in kept_set]
    policy = SelectionPolicy(method="temperature", keep_rate=keep_rate, tau=tau, seed=seed)
    return SelectionResult(kept_ids=kept_ids, policy=policy, threshold_used=None, input_count=n)


def percentile_gate(
    perplexities: Sequence[tuple[str, float]],
    lo_pct: float = 15.0,
    hi_pct: float = 85.0,
) -> SelectionResult:
    """Keep documents whose perplexity sits in the middle percentile band.

    Boundaries use nearest-rank order statistics: with distinct values the
    kept ranks are ceil(lo*n/100)+1 .. ceil(hi*n/100), so the 15/85 default
    keeps exactly the middle 70% and duplicates of a boundary value are
    kept inclusively.
    """
    if not perplexities:
        raise EmptySelectionInputError("no perplexities to gate")
    n = len(perplexities)
    ordered = sorted(p for _, p in perplexities)
    ilo = min(max(math.ceil(lo_pct * n / 100.0), 0), n - 1)
    ihi = min(max(math.ceil(hi_pct * n / 100.0) - 1, 0), n - 1)
    p_lo, p_hi = ordered[ilo], ordered[ihi]
    kept_ids = [doc_id for doc_id, p in perplexities if p_lo <= p <= p_hi]
    policy = SelectionPolicy(method="percentile_gate", lo_pct=lo_pct, hi_pct=hi_pct)
    return SelectionResult(kept_ids=kept_ids, policy=policy, threshold_used=p_hi, input_count=n)


def pareto_noisy_threshold(
    classifier_scores: Sequence[tuple[str, float]],
    alpha: float = 9.0,
    seed: int = 0,
) -> SelectionResult:
    """Keep document i iff s_i > 1 - x_i with x_i ~ Pareto(alpha), unit scale.

    x is drawn as u^(-1/alpha) - 1 for u uniform on (0, 1], i.e. a Pareto
    tail shifted to start at 0, so a perfect score is always kept and a
    zero score survives with probability 2^(-alpha).
    """
    if not classifier_scores:
        raise EmptySelectionInputError("no classifier scores to threshold")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    for doc_id, s in classifier_scores:
        if not (0.0 <= s <= 1.0) or not math.isfinite(s):
            raise InvalidClassifierScoreError(f"score {s!r} for {doc_id!r} outside [0, 1]")
    n = len(classifier_scores)
    rng = rng_for(seed, "pareto-threshold")
    u = 1.0 - rng.random(n)  # (0, 1]
    x = u ** (-1.0 / alpha) - 1.0
    kept_ids = [doc_id for (doc_id, s), xi in zip(classifier_scores, x) if s > 1.0 - xi]
    policy = SelectionPolicy(method="pareto_threshold", pareto_alpha=alpha, seed=seed)
    return SelectionResult(kept_ids=kept_ids, policy=policy, threshold_used=None, input_count=n)


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
    """Read a two-column TSV of doc_id and classifier score in [0, 1]."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh):
            fields = line.rstrip("\n").split("\t")
            if line_no == 0 and fields[0] == "doc_id":
                continue
            doc_id, score = fields[:2]
            rows.append((doc_id, float(score)))
    return rows
