"""Semantic diversity of a document set via eigenvalue entropy.

For unit embeddings X (n x m) the cosine similarity matrix is S = X X^T.
S/n has nonnegative eigenvalues summing to 1; their Shannon entropy H
(natural log) measures how spread-out the semantic mass is, and exp(H) is
the diversity: 1 when all documents are identical, n when all embeddings
are mutually orthogonal.

When m < n the same nonzero spectrum is available from the m x m dual
Gram matrix (1/n) X^T X, which turns a 10,000-document eigendecomposition
into an m^3 one; both paths are exact and agree to rounding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus import Document
from .errors import CorpusTooSmallError, NotPsdError
from .seeding import derive_seed, rng_for

EIG_TOLERANCE = 1e-8


def similarity_matrix(X: np.ndarray) -> np.ndarray:
    """Cosine similarity matrix of unit-normalized embedding rows.

    Returned matrix is exactly symmetric with a unit diagonal.
    """
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("embedding rows must be unit-normalized")
    S = X @ X.T
    S = (S + S.T) / 2.0
    np.fill_diagonal(S, 1.0)
    return S


def _spectrum(
    similarity: Optional[np.ndarray] = None, embeddings: Optional[np.ndarray] = None
) -> np.ndarray:
    """Eigenvalues of S/n (nonzero part only when the dual path applies)."""
    if (similarity is None) == (embeddings is None):
        raise ValueError("provide exactly one of similarity= or embeddings=")
    if similarity is not None:
        S = np.asarray(similarity, dtype=np.float64)
        n = S.shape[0]
        if S.shape != (n, n):
            raise ValueError("similarity matrix must be square")
        return np.linalg.eigvalsh(S) / n
    X = np.asarray(embeddings, dtype=np.float64)
    # Canonical row order pins the float summation order, making the result
    # exactly permutation-invariant (eigenvalues do not depend on row order).
    X = X[np.lexsort(X.T[::-1])]
    n, m = X.shape
    if m < n:
        # dual Gram path: XtX/n shares the nonzero spectrum of (X Xt)/n
        return np.linalg.eigvalsh(X.T @ X) / n
    return np.linalg.eigvalsh(similarity_matrix(X)) / n


def eigen_entropy(
    similarity: Optional[np.ndarray] = None, embeddings: Optional[np.ndarray] = None
) -> float:
    """Shannon entropy (natural log) of the eigenvalues of S/n.

    Eigenvalues are clamped onto [0, 1] before the sum; clamping beyond
    ``EIG_TOLERANCE`` signals broken embeddings or solver failure.
    """
    lam = _spectrum(similarity=similarity, embeddings=embeddings)
    low, high = float(lam.min()), float(lam.max())
    if low < -EIG_TOLERANCE:
        raise NotPsdError(f"eigenvalue {low} below -{EIG_TOLERANCE}")
    if high > 1.0 + EIG_TOLERANCE:
        raise NotPsdError(f"eigenvalue {high} above 1 + {EIG_TOLERANCE}")
    lam = np.clip(lam, 0.0, 1.0)
    positive = lam[lam > 0.0]
    return float(-(positive * np.log(positive)).sum())


def semantic_diversity(
    similarity: Optional[np.ndarray] = None, embeddings: Optional[np.ndarray] = None
) -> float:
    """exp of the eigenvalue entropy; ranges over [1, n]."""
    return float(np.exp(eigen_entropy(similarity=similarity, embeddings=embeddings)))


@dataclass
class DiversityReport:
    corpus_id: str
    sample_size: int
    repeats: int
    values: list[float] = field(default_factory=list)
    mean: float = 0.0
    std: float = 0.0
    seed: int = 0
    embedder: str = ""

    def to_json(self) -> dict:
        return {
            "corpus_id": self.corpus_id,
            "sample_size": self.sample_size,
            "repeats": self.repeats,
            "values": self.values,
            "mean": self.mean,
            "std": self.std,
            "seed": self.seed,
            "embedder": self.embedder,
            "comparability": "diversity values are comparable only within one embedder",
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _mixture_values(
    members: Sequence[Sequence[Document]],
    provider,
    n: int,
    repeats: int,
    rng: np.random.Generator,
) -> list[float]:
    """Per-repeat diversity of samples drawn evenly across member corpora.

    Each repeat draws n // len(members) documents without replacement from
    every member; draws are independent across repeats. Embeddings are
    computed once per distinct document and reused across repeats.
    """
    n_members = len(members)
    per_member = n // n_members
    if per_member < 1:
        raise ValueError(f"sample size {n} too small for {n_members} member corpora")
    for member in members:
        if len(member) < per_member:
            raise CorpusTooSmallError(f"corpus of {len(member)} docs cannot provide {per_member} samples")

    draws: list[list[np.ndarray]] = [
        [rng.choice(len(member), size=per_member, replace=False) for member in members]
        for _ in range(repeats)
    ]

    embedded: list[tuple[np.ndarray, np.ndarray]] = []
    for mi, member in enumerate(members):
        used = np.unique(np.concatenate([repeat[mi] for repeat in draws]))
        embedded.append((used, provider.embed([member[i] for i in used.tolist()])))

    values = []
    for repeat in draws:
        X = np.concatenate([rows[np.searchsorted(used, draw)] for (used, rows), draw in zip(embedded, repeat)])
        values.append(semantic_diversity(embeddings=X))
    return values


def subsample_diversity(
    docs: Sequence[Document],
    provider,
    n: int = 1000,
    repeats: int = 10,
    seed: int = 0,
    corpus_id: str = "",
) -> DiversityReport:
    """Mean/std of diversity over repeated uniform subsamples of one corpus.

    Each repeat draws n documents without replacement (independently across
    repeats); a single repeat reports std 0.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if len(docs) < n:
        raise CorpusTooSmallError(f"corpus has {len(docs)} docs, need at least {n}")
    rng = rng_for(seed, "diversity-subsample")
    values = _mixture_values([docs], provider, n, repeats, rng)
    return DiversityReport(
        corpus_id=corpus_id,
        sample_size=n,
        repeats=repeats,
        values=values,
        mean=float(np.mean(values)),
        std=float(np.std(values)),
        seed=seed,
        embedder=provider.fingerprint(),
    )


def mix_seed(seed: int, n_datasets: int, combo_index: int) -> int:
    """Seed for one corpus combination inside dataset_mix_experiment."""
    return derive_seed(seed, "diversity-mix", n_datasets, combo_index)


def dataset_mix_experiment(
    corpora: Sequence[Sequence[Document]],
    provider,
    n: int = 1000,
    repeats: int = 10,
    seed: int = 0,
    max_combos: int = 20,
) -> list[dict]:
    """Mean diversity as a function of how many distinct corpora are mixed.

    For each N in 1..k, draws n // N documents from every member of each
    size-N combination of corpora (all combinations, or a seeded sample of
    ``max_combos`` when there are more) and averages the per-repeat
    diversities.
    """
    k = len(corpora)
    if k < 2:
        raise ValueError("need at least 2 corpora to mix")
    curve = []
    for n_datasets in range(1, k + 1):
        combos = list(combinations(range(k), n_datasets))
        if len(combos) > max_combos:
            picker = rng_for(seed, "diversity-mix-combos", n_datasets)
            chosen = picker.choice(len(combos), size=max_combos, replace=False)
            combos = [combos[int(i)] for i in sorted(chosen)]
        all_values = []
        for combo_index, combo in enumerate(combos):
            rng = rng_for(mix_seed(seed, n_datasets, combo_index), "diversity-subsample")
            members = [corpora[i] for i in combo]
            all_values.extend(_mixture_values(members, provider, n, repeats, rng))
        curve.append(
            {
                "n_datasets": n_datasets,
                "combinations": len(combos),
                "mean": float(np.mean(all_values)),
                "std": float(np.std(all_values)),
            }
        )
    return curve
