"""Straight-line reference implementations of the vectorized hot paths.

``LoopNGramModel`` is the dict-of-dicts, byte-at-a-time n-gram model the
package used before its counts moved into sorted arrays, and
``loop_embed`` is the hashed embedder one text and one window at a time,
hashing each window with Python ints (``loop_bucket_counts``). Both
define the exact outputs the package must keep: the same counts, the
same ``.sfngram`` bytes (model file format 2), the same float
log-probabilities (summed left to right, ``math.log2`` per token) and
the same embedding rows.
``loop_bucket_counts_v1`` is the embedder's earlier ``blake2b`` bucket,
kept to bound the change of hash: it is not an exact oracle of anything.
``loop_mixture_values`` builds each diversity sample on its own, in draw
order, and leaves the canonical row order to ``semantic_diversity``: the
package must give the same floats from its one sorted pool.
``direct_diversity`` takes the spectrum of the n x n Gram matrix
``eigvalsh(X @ X.T) / n`` whatever the shape of X: the dual path must agree
with it to rounding.
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct
from math import log2

import numpy as np

from scalingfilter.diversity import semantic_diversity
from scalingfilter.embedding import HASH_BUCKETS, NGRAM_SIZES
from scalingfilter.ngram import BOUNDARY, VOCAB_SIZE

_CTX_BASE = 257
_MAGIC = b"SFNGRAM1\n"


class LoopNGramModel:
    """Order-n byte model: packed context -> {next byte -> count}, one dict step per byte."""

    def __init__(self, order: int, smoothing_k: float = 0.01):
        self.order = order
        self.smoothing_k = float(smoothing_k)
        self.total_tokens_trained = 0
        self.counts: dict[int, dict[int, int]] = {}
        self.totals: dict[int, int] = {}

    def _start(self) -> int:
        ctx = 0
        for _ in range(self.order - 1):
            ctx = ctx * _CTX_BASE + BOUNDARY
        return ctx

    def add_document(self, text: str) -> None:
        tokens = text.encode("utf-8")
        mod = _CTX_BASE ** max(self.order - 2, 0)
        ctx = self._start()
        for t in tokens:
            table = self.counts.setdefault(ctx, {})
            table[t] = table.get(t, 0) + 1
            self.totals[ctx] = self.totals.get(ctx, 0) + 1
            if self.order > 1:
                ctx = (ctx % mod) * _CTX_BASE + t
        self.total_tokens_trained += len(tokens)

    def log2_probability(self, text: str) -> float:
        tokens = text.encode("utf-8")
        k = self.smoothing_k
        denom_k = k * VOCAB_SIZE
        mod = _CTX_BASE ** max(self.order - 2, 0)
        ctx = self._start()
        total = 0.0
        for t in tokens:
            table = self.counts.get(ctx, {})
            den = self.totals.get(ctx, 0) + denom_k
            total += log2((table.get(t, 0) + k) / den)
            if self.order > 1:
                ctx = (ctx % mod) * _CTX_BASE + t
        return total

    def perplexity(self, text: str) -> float:
        return 2.0 ** (-self.log2_probability(text) / len(text.encode("utf-8")))

    def key_counts(self) -> tuple[list[int], list[int]]:
        """Keys ``context * 256 + byte`` in ascending order, and the count of each."""
        items = sorted((ctx * VOCAB_SIZE + tok, count) for ctx, table in self.counts.items()
                       for tok, count in table.items())
        return [key for key, _ in items], [count for _, count in items]

    def to_bytes(self) -> bytes:
        """Model file format 2: the header line, then every key and every count as ``<q``."""
        keys, counts = self.key_counts()
        header = {
            "format_version": 2,
            "order": self.order,
            "smoothing_k": self.smoothing_k,
            "total_tokens_trained": self.total_tokens_trained,
            "n_keys": len(keys),
        }
        values = struct.pack(f"<{2 * len(keys)}q", *keys, *counts)
        return b"".join([_MAGIC, json.dumps(header, sort_keys=True).encode("utf-8"), b"\n", values])

    def format_1_bytes(self) -> bytes:
        """The earlier model file format 1: per context, its symbols (``<H`` each), its entry
        count (``<H``) and its (byte, count) entries (``<BQ``). Kept to test that it is refused."""
        header = {
            "format_version": 1,
            "order": self.order,
            "smoothing_k": self.smoothing_k,
            "vocab_size": VOCAB_SIZE,
            "total_tokens_trained": self.total_tokens_trained,
            "n_contexts": len(self.counts),
        }
        chunks = [_MAGIC, json.dumps(header, sort_keys=True).encode("utf-8"), b"\n"]
        for ctx in sorted(self.counts):
            table = self.counts[ctx]
            symbols = []
            for _ in range(self.order - 1):
                ctx, symbol = divmod(ctx, _CTX_BASE)
                symbols.insert(0, symbol)
            chunks.append(struct.pack(f"<{len(symbols)}HH", *symbols, len(table)))
            for tok in sorted(table):
                chunks.append(struct.pack("<BQ", tok, table[tok]))
        return b"".join(chunks)


def loop_bucket(window: bytes) -> int:
    """Bucket of one window: the top 18 bits of the splitmix64 finalizer of the window packed with its size."""
    mask = (1 << 64) - 1
    v = int.from_bytes(window, "big") | len(window) << 40
    v ^= v >> 30
    v = v * 0xBF58476D1CE4E5B9 & mask
    v ^= v >> 27
    v = v * 0x94D049BB133111EB & mask
    v ^= v >> 31
    return v >> 46


@functools.lru_cache(maxsize=None)
def loop_bucket_v1(window: bytes, person: bytes) -> int:
    """The earlier bucket of one window: blake2b (keyed by ``person``), little-endian, mod 2^18."""
    digest = hashlib.blake2b(window, digest_size=8, person=person).digest()
    return int.from_bytes(digest, "little") % HASH_BUCKETS


def loop_bucket_counts(text: str, bucket=loop_bucket) -> dict[int, int]:
    """Hashed n-gram counts of one text, one ``bucket`` call per window."""
    data = text.encode("utf-8")
    counts: dict[int, int] = {}
    for size in NGRAM_SIZES:
        for i in range(len(data) - size + 1):
            b = bucket(data[i : i + size])
            counts[b] = counts.get(b, 0) + 1
    return counts


def loop_bucket_counts_v1(text: str, person: bytes = b"") -> dict[int, int]:
    """Hashed n-gram counts of one text under the earlier bucket, blake2b keyed by ``person``."""
    return loop_bucket_counts(text, functools.partial(loop_bucket_v1, person=person))


def loop_embed(signs: np.ndarray, texts: list[str], bucket_counts=loop_bucket_counts) -> np.ndarray:
    """Rows of the hashed embedder, one text at a time (no degenerate-row checks)."""
    out = np.empty((len(texts), signs.shape[1]), dtype=np.float64)
    for row, text in enumerate(texts):
        counts = bucket_counts(text)
        buckets = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
        weights = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
        vec = weights @ signs[buckets].astype(np.float64)
        out[row] = vec / np.linalg.norm(vec)
    return out


def loop_mixture_values(members, provider, n: int, repeats: int, rng: np.random.Generator) -> list[float]:
    """Per-repeat diversity of samples drawn evenly across ``members``, one sample at a time.

    Draws as the package does (per repeat, per member, ``n // len(members)``
    without replacement), embeds each member's drawn documents, and hands
    each sample to ``semantic_diversity`` in draw order.
    """
    per_member = n // len(members)
    draws = [[rng.choice(len(member), size=per_member, replace=False) for member in members]
             for _ in range(repeats)]
    values = []
    for repeat in draws:
        X = np.concatenate([provider.embed([member[i] for i in draw.tolist()])
                            for member, draw in zip(members, repeat)])
        values.append(semantic_diversity(embeddings=X))
    return values


def direct_diversity(X: np.ndarray) -> float:
    """exp of the entropy of ``eigvalsh(X @ X.T) / n``, clamped onto [0, 1] as the package clamps."""
    lam = np.clip(np.linalg.eigvalsh(X @ X.T) / len(X), 0.0, 1.0)
    positive = lam[lam > 0.0]
    return float(np.exp(-(positive * np.log(positive)).sum()))
