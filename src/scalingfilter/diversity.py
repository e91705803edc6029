"""Semantic diversity of a document set via eigenvalue entropy.

For unit embeddings X (n x m) the cosine similarity matrix is S = X X^T.
S/n has nonnegative eigenvalues summing to 1; their Shannon entropy H
(natural log) measures how spread-out the semantic mass is, and exp(H) is
the diversity: 1 when all documents are identical, n when all embeddings
are mutually orthogonal.

The embeddings are the only input, and their rows must be unit-normalized.
When n <= m the spectrum comes from S itself, built with an exact unit
diagonal. When m < n the same nonzero spectrum comes from the m x m
dual Gram matrix (1/n) X^T X, which turns a 10,000-document
eigendecomposition into an m^3 one. The two paths agree with
eigvalsh(X X^T)/n to rounding.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import CorpusTooSmallError, NotPsdError
from .seeding import derive_seed, rng_for

EIG_TOLERANCE = 1e-8
COMPARABILITY = "diversity values are comparable only within one embedder"
MAX_MIX_COMBINATIONS = 20  # combinations of one size beyond this are sampled, seeded


def _rows_ascend(X: np.ndarray) -> bool:
    """Whether X's rows already stand in ``np.lexsort(X.T[::-1])`` order.

    Each row is compared with the next in the first column where they
    differ; rows equal in every column are in order either way.
    """
    head, tail = X[:-1], X[1:]
    first = (head != tail).argmax(axis=1)
    pairs = np.arange(len(head))
    return bool(np.all(tail[pairs, first] >= head[pairs, first]))


def _spectrum(embeddings: np.ndarray) -> np.ndarray:
    """Eigenvalues of S/n (nonzero part only when the dual path applies)."""
    X = np.asarray(embeddings, dtype=np.float64)
    # Canonical row order pins the float summation order, making the result
    # exactly permutation-invariant (eigenvalues do not depend on row order).
    if not _rows_ascend(X):
        X = X[np.lexsort(X.T[::-1])]
    if np.any(np.abs(np.linalg.norm(X, axis=1) - 1.0) > 1e-6):
        raise ValueError("embedding rows must be unit-normalized")
    n, m = X.shape
    if m < n:
        # dual Gram path: XtX/n shares the nonzero spectrum of (X Xt)/n
        return np.linalg.eigvalsh(X.T @ X) / n
    S = X @ X.T
    np.fill_diagonal(S, 1.0)
    return np.linalg.eigvalsh(S) / n


def eigen_entropy(embeddings: np.ndarray) -> float:
    """Shannon entropy (natural log) of the eigenvalues of S/n.

    Eigenvalues are clamped onto [0, 1] before the sum; clamping beyond
    ``EIG_TOLERANCE`` signals broken embeddings or solver failure.
    """
    lam = _spectrum(embeddings)
    low, high = float(lam.min()), float(lam.max())
    if low < -EIG_TOLERANCE:
        raise NotPsdError(f"eigenvalue {low} below -{EIG_TOLERANCE}")
    if high > 1.0 + EIG_TOLERANCE:
        raise NotPsdError(f"eigenvalue {high} above 1 + {EIG_TOLERANCE}")
    lam = np.clip(lam, 0.0, 1.0)
    positive = lam[lam > 0.0]
    return float(-(positive * np.log(positive)).sum())


def semantic_diversity(embeddings: np.ndarray) -> float:
    """exp of the eigenvalue entropy; ranges over [1, n]."""
    return float(np.exp(eigen_entropy(embeddings)))


Sample = list[tuple[int, np.ndarray]]  # (corpus index, drawn document indices) per member corpus


def _mixture_samples(
    corpora: Sequence[Sequence[str]],
    members: Sequence[int],
    n: int,
    repeats: int,
    rng: np.random.Generator,
) -> list[Sample]:
    """Samples drawn evenly across the member corpora, one per repeat.

    Each repeat draws n // len(members) documents without replacement from
    every member; draws are independent across repeats.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    per_member = n // len(members)
    if per_member < 1:
        raise ValueError(f"sample size {n} too small for {len(members)} member corpora")
    for c in members:
        if len(corpora[c]) < per_member:
            raise CorpusTooSmallError(f"corpus of {len(corpora[c])} docs cannot provide {per_member} samples")
    return [
        [(c, rng.choice(len(corpora[c]), size=per_member, replace=False)) for c in members]
        for _ in range(repeats)
    ]


def _mixture_values(
    corpora: Sequence[Sequence[str]], provider, samples: Sequence[Sample]
) -> list[float]:
    """Diversity of each sample.

    Every document drawn from a corpus, in any sample, is embedded once, and
    the pool of those rows is put in canonical order once. Each sample
    gathers its rows in pool order: the order the spectrum would sort them
    into, so it need not sort them again.
    """
    drawn: dict[int, list[np.ndarray]] = {}
    for sample in samples:
        for c, draw in sample:
            drawn.setdefault(c, []).append(draw)
    used = {c: np.unique(np.concatenate(draws)) for c, draws in sorted(drawn.items())}
    first_row, offset = {}, 0
    for c, docs in used.items():
        first_row[c] = offset
        offset += len(docs)
    pool = np.concatenate([provider.embed([corpora[c][i] for i in docs.tolist()]) for c, docs in used.items()])
    order = np.lexsort(pool.T[::-1])
    place = np.argsort(order)  # each embedded row's position in canonical order
    pool = pool[order]

    values = []
    for sample in samples:
        rows = np.concatenate([first_row[c] + np.searchsorted(used[c], draw) for c, draw in sample])
        values.append(semantic_diversity(embeddings=pool[np.sort(place[rows])]))
    return values


def _artifact(provider, n: int, repeats: int, seed: int, **form) -> dict:
    """A diversity.json object: ``form``'s own keys and those every form records.

    Called after embedding, since a remote embedder learns its model name
    from its first reply.
    """
    return {**form, "sample_size": n, "repeats": repeats, "seed": seed,
            "embedder": provider.fingerprint(), "comparability": COMPARABILITY}


def subsample_diversity(
    texts: Sequence[str],
    provider,
    n: int = 1000,
    repeats: int = 10,
    seed: int = 0,
    corpus_id: str = "",
) -> dict:
    """The diversity.json object: mean/std of diversity over repeated uniform subsamples of one corpus.

    Each repeat draws n documents without replacement (independently across
    repeats); a single repeat reports std 0.
    """
    rng = rng_for(seed, "diversity-subsample")
    values = _mixture_values([texts], provider, _mixture_samples([texts], [0], n, repeats, rng))
    return _artifact(provider, n, repeats, seed, corpus_id=corpus_id, values=values,
                     mean=float(np.mean(values)), std=float(np.std(values)))


def mix_seed(seed: int, n_datasets: int, combo_index: int) -> int:
    """Seed for one corpus combination inside dataset_mix_experiment."""
    return derive_seed(seed, "diversity-mix", n_datasets, combo_index)


def dataset_mix_experiment(
    corpora: Sequence[Sequence[str]],
    provider,
    n: int = 1000,
    repeats: int = 10,
    seed: int = 0,
    names: Sequence[str] = (),
) -> dict:
    """The diversity.json object of a dataset-mix run: mean diversity by how many corpora are mixed.

    For each N in 1..k, draws n // N documents from every member of each
    size-N combination of corpora (all combinations, or a seeded sample of
    ``MAX_MIX_COMBINATIONS`` when there are more) and averages the
    per-repeat diversities into one ``curve`` row. ``names`` are the
    corpora as the object records them.
    """
    k = len(corpora)
    if k < 2:
        raise ValueError("need at least 2 corpora to mix")
    # every combination's samples are drawn first, so each corpus is embedded once
    plan = []
    for n_datasets in range(1, k + 1):
        combos = list(combinations(range(k), n_datasets))
        if len(combos) > MAX_MIX_COMBINATIONS:
            picker = rng_for(seed, "diversity-mix-combos", n_datasets)
            chosen = picker.choice(len(combos), size=MAX_MIX_COMBINATIONS, replace=False)
            combos = [combos[int(i)] for i in sorted(chosen)]
        samples = []
        for combo_index, combo in enumerate(combos):
            rng = rng_for(mix_seed(seed, n_datasets, combo_index), "diversity-subsample")
            samples.extend(_mixture_samples(corpora, combo, n, repeats, rng))
        plan.append((n_datasets, len(combos), samples))
    values = iter(_mixture_values(corpora, provider, [s for _, _, samples in plan for s in samples]))
    curve = []
    for n_datasets, n_combos, samples in plan:
        all_values = [next(values) for _ in samples]
        curve.append(
            {
                "n_datasets": n_datasets,
                "combinations": n_combos,
                "mean": float(np.mean(all_values)),
                "std": float(np.std(all_values)),
            }
        )
    return _artifact(provider, n, repeats, seed, kind="dataset-mix", corpora=list(names), curve=curve)
