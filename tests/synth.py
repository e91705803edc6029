"""Synthetic corpora for tests.

Three generators:

* chain_corpus: word-level Markov chains with sharply peaked transitions,
  so byte models of higher order have real structure to learn and
  word-shuffling a document measurably destroys it while preserving
  unigram statistics.
* cluster_corpus: documents built from a word set over a restricted
  alphabet; corpora over disjoint alphabets embed near-orthogonally.
* random_text: unstructured filler.
"""

from __future__ import annotations

import numpy as np

from scalingfilter.corpus import Document

WORDS = [
    "the", "of", "and", "to", "in", "model", "data", "training", "scale", "loss",
    "curve", "sample", "quality", "filter", "corpus", "token", "byte", "stream",
    "shard", "metric", "value", "signal", "measure", "method", "result", "system",
    "process", "pattern", "structure", "language", "document", "text", "entropy",
    "gradient", "capacity", "estimate", "baseline", "random", "uniform", "window",
    "context", "factor", "ratio", "power", "law", "budget", "compute", "optimal",
    "analysis", "function", "derivative", "slope", "secant", "tangent", "grid",
    "report", "record", "output", "input", "worker", "cache", "policy", "select",
]

_TRANSITION_PROBS = np.array([0.7, 0.2, 0.1])


def make_chain(rng: np.random.Generator, n_successors: int = 3) -> dict[str, list[str]]:
    return {
        w: [WORDS[i] for i in rng.choice(len(WORDS), size=n_successors, replace=False)]
        for w in WORDS
    }


def chain_doc(rng: np.random.Generator, chain: dict[str, list[str]], n_words: int) -> str:
    word = WORDS[rng.integers(len(WORDS))]
    out = [word]
    for _ in range(n_words - 1):
        word = chain[word][rng.choice(len(chain[word]), p=_TRANSITION_PROBS)]
        out.append(word)
    return " ".join(out)


def chain_corpus(
    seed: int,
    n_docs: int,
    tag: str = "doc",
    words_lo: int = 40,
    words_hi: int = 80,
    chain_seed: int | None = None,
) -> list[Document]:
    """Documents from one word chain; share chain_seed to get held-in splits."""
    chain_rng = np.random.Generator(np.random.PCG64(chain_seed if chain_seed is not None else seed))
    chain = make_chain(chain_rng)
    rng = np.random.Generator(np.random.PCG64(seed))
    return [
        Document(f"{tag}:{i:05d}", chain_doc(rng, chain, int(rng.integers(words_lo, words_hi))))
        for i in range(n_docs)
    ]


def shuffle_words(rng: np.random.Generator, text: str) -> str:
    words = text.split(" ")
    rng.shuffle(words)
    return " ".join(words)


def shuffled_counterparts(docs: list[Document], seed: int, tag: str = "shuf") -> list[Document]:
    rng = np.random.Generator(np.random.PCG64(seed))
    return [
        Document(f"{tag}:{i:05d}", shuffle_words(rng, doc.text))
        for i, doc in enumerate(docs)
    ]


def cluster_corpus(
    seed: int,
    alphabet: str,
    tag: str,
    n_docs: int,
    n_words: int = 25,
    vocab_size: int = 40,
) -> list[Document]:
    rng = np.random.Generator(np.random.PCG64(seed))
    vocab = [
        "".join(rng.choice(list(alphabet), size=int(rng.integers(4, 9))))
        for _ in range(vocab_size)
    ]
    return [
        Document(
            f"{tag}:{i:05d}",
            " ".join(vocab[int(j)] for j in rng.integers(len(vocab), size=n_words)),
        )
        for i in range(n_docs)
    ]


def random_text(rng: np.random.Generator, length: int) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz "
    return "".join(rng.choice(list(letters), size=length))
