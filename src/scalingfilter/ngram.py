"""Byte-level n-gram language models with add-k smoothing.

Two models of unequal order trained on the same corpus form a meta-model
pair: the capacity gap between them is what turns per-document perplexity
into a quality signal (ratio of small-model to large-model perplexity).

Conventions:

* Tokens are UTF-8 bytes, so the alphabet is exactly 256 symbols and no
  tokenizer ambiguity exists.
* Each document is padded with (order - 1) leading boundary symbols. The
  boundary symbol lives outside the byte range (id 256) and is only ever
  used as context, never predicted, so per-document perplexity cannot
  leak across documents.
* With add-k smoothing, P(t | c) = (count(c, t) + k) / (count(c) + 256 k),
  which sums to 1 exactly over the byte alphabet and is strictly positive,
  so cross-entropy is always finite.
* All logs are base 2 and losses are bits per token; perplexity is 2^L.

Storage is the sorted-array layout of KenLM (Heafield 2011): one sorted
int64 array of keys ``context * 256 + byte`` and one array of their
counts. A context is its (order - 1) previous symbols packed base 257,
oldest symbol most significant, so each context's keys are contiguous.
A model file holds the two arrays as they are. Training buffers document bytes
and counts them a chunk at a time with ``np.unique``; scoring finds every
token with one ``np.searchsorted``. Each term is ``math.log2`` of the
add-k probability and a document's terms are summed left to right, so
scores equal those of a per-byte loop to the last bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import log2
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .corpus import Document, json_object, read_json, write_json
from .errors import InvalidPairSpecError, NoTrainingDataError

VOCAB_SIZE = 256
BOUNDARY = 256  # context-only symbol, outside the byte alphabet
_CTX_BASE = 257  # byte alphabet plus the boundary symbol
# the largest key, 257^(order-1) * 256, fits an int64 up to order 7 (~7.4e16); order 8 overflows
MAX_ORDER = 7
# training bytes buffered per model before they are counted into its arrays
_FOLD_BYTES = 1 << 20

_MAGIC = b"SFNGRAM1\n"
# a model file is _MAGIC, a JSON header line, then the n_keys keys and the n_keys counts, each "<i8"
_FORMAT_VERSION = 2
_HEADER_KEYS = {"order": int, "smoothing_k": (int, float), "total_tokens_trained": int, "n_keys": int}


def tokenize(text: str) -> bytes:
    """UTF-8 byte tokens of a non-empty text."""
    if not text:
        raise ValueError("cannot tokenize empty text")
    return text.encode("utf-8")


def _token_keys(docs: list[bytes], order: int) -> np.ndarray:
    """Key ``context * 256 + byte`` of every token of the documents, in order."""
    width = order - 1
    lengths = np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
    tokens = np.frombuffer(b"".join(docs), dtype=np.uint8)
    # the documents one after another, each after its `width` boundary symbols
    at = np.arange(len(tokens)) + width * np.repeat(np.arange(1, len(docs) + 1), lengths)
    stream = np.full(len(tokens) + width * len(docs), BOUNDARY, dtype=np.int64)
    stream[at] = tokens
    keys = np.zeros(len(tokens), dtype=np.int64)
    for back in range(width, 0, -1):  # oldest symbol first, so it is the most significant
        keys *= _CTX_BASE
        keys += stream[at - back]
    keys *= VOCAB_SIZE
    keys += tokens
    return keys


def _contexts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each context's first key in a sorted key array, and its number of keys."""
    ctx = keys >> 8
    starts = np.flatnonzero(np.concatenate(([True], ctx[1:] != ctx[:-1]))) if len(keys) else ctx
    return starts, np.diff(np.append(starts, len(keys)))


class NGramModel:
    """Order-n byte model storing sparse (context, next byte) counts in sorted arrays.

    ``_keys`` holds ``context * 256 + byte`` in ascending order and
    ``_counts`` the count of each; zero-count entries are never stored.
    """

    def __init__(self, order: int, smoothing_k: float = 0.01):
        if order < 1:
            raise ValueError("order must be >= 1")
        if order > MAX_ORDER:
            raise InvalidPairSpecError(f"order {order} is above the largest supported order {MAX_ORDER}")
        if not smoothing_k > 0:
            raise ValueError("smoothing_k must be > 0")
        self.order = order
        self.smoothing_k = float(smoothing_k)
        self.total_tokens_trained = 0
        self._keys = np.zeros(0, dtype=np.int64)
        self._counts = np.zeros(0, dtype=np.int64)
        self._pending: list[bytes] = []  # documents added but not yet counted
        self._pending_bytes = 0
        self._terms: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._fingerprint: Optional[str] = None

    # -- training ---------------------------------------------------------

    def add_document(self, doc: Document) -> None:
        """Count every length-order window of the document's byte tokens."""
        tokens = tokenize(doc.text)
        self._pending.append(tokens)
        self._pending_bytes += len(tokens)
        self.total_tokens_trained += len(tokens)
        self._fingerprint = None
        if self._pending_bytes >= _FOLD_BYTES:
            self._fold()

    def _fold(self) -> None:
        """Merge the counts of the buffered documents into the sorted arrays."""
        if not self._pending:
            return
        new_keys, new_counts = np.unique(_token_keys(self._pending, self.order), return_counts=True)
        self._pending, self._pending_bytes = [], 0
        at = np.searchsorted(self._keys, new_keys)
        seen = at < len(self._keys)
        seen[seen] = self._keys[at[seen]] == new_keys[seen]
        self._counts[at[seen]] += new_counts[seen]
        fresh = ~seen
        self._keys = np.insert(self._keys, at[fresh], new_keys[fresh])
        self._counts = np.insert(self._counts, at[fresh], new_counts[fresh])
        self._terms = None

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        self._fold()
        return self._keys, self._counts

    # -- evaluation -------------------------------------------------------

    def _log2_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Keys and, per key, log2 P of its byte and of a byte never seen after its context.

        Each array has one more entry at both ends: key -1 (no context),
        whose unseen term is that of a context never seen. ``math.log2``
        per value, as the per-token definition has it: numpy's vectorized
        log2 differs from it in the last bit for some values.
        """
        if self._terms is None:
            keys, counts = self._arrays()
            starts, sizes = _contexts(keys)
            totals = np.add.reduceat(counts, starts) if len(keys) else counts
            k, denom_k = self.smoothing_k, self.smoothing_k * VOCAB_SIZE
            seen = (counts + k) / (np.repeat(totals, sizes) + denom_k)
            # a context never seen: (0 + k) / (0 + 256 k)
            unseen = np.concatenate(([k / denom_k], k / (totals + denom_k)))
            seen_terms = np.fromiter(map(log2, seen.tolist()), dtype=np.float64, count=len(seen))
            unseen_terms = np.fromiter(map(log2, unseen.tolist()), dtype=np.float64, count=len(unseen))
            self._terms = (
                np.concatenate(([-1], keys, [-1])),
                np.concatenate(([0.0], seen_terms, [0.0])),
                np.concatenate(([unseen_terms[0]], np.repeat(unseen_terms[1:], sizes), [unseen_terms[0]])),
            )
        return self._terms

    def _log2_probabilities(self, texts: list[str]) -> tuple[list[float], list[int]]:
        """Total log2 probability and token count of each text."""
        docs = [tokenize(text) for text in texts]
        query = _token_keys(docs, self.order)
        keys, seen, unseen = self._log2_terms()
        # sorted queries search neighbouring keys one after another: ~2.5x faster than in text order
        order = np.argsort(query)
        right = np.empty_like(order)
        right[order] = np.searchsorted(keys[1:-1], query[order]) + 1
        # a context's keys are contiguous: a query whose context was seen lands inside its
        # block or just past its last key; otherwise it takes the edge entry, key -1
        ctx = query >> 8
        at = np.where((keys[right] >> 8) == ctx, right, np.where((keys[right - 1] >> 8) == ctx, right - 1, 0))
        terms = np.where(keys[at] == query, seen[at], unseen[at])
        lengths = [len(doc) for doc in docs]
        totals = []
        end = 0
        for n in lengths:
            # left to right, as a per-token loop adds them (np.sum adds pairwise)
            totals.append(float(np.cumsum(terms[end : end + n])[-1]))
            end += n
        return totals, lengths

    def cross_entropy(self, doc: Document | str) -> float:
        """Bits per token: -(1/T) * sum log2 P(byte_t | context_t)."""
        text = doc.text if isinstance(doc, Document) else doc
        totals, lengths = self._log2_probabilities([text])
        return -totals[0] / lengths[0]

    def perplexity(self, doc: Document | str) -> float:
        return 2.0 ** self.cross_entropy(doc)

    def perplexities(self, texts: list[str]) -> list[float]:
        totals, lengths = self._log2_probabilities(texts)
        return [2.0 ** (-total / n) for total, n in zip(totals, lengths)]

    @property
    def n_contexts(self) -> int:
        return len(_contexts(self._arrays()[0])[0])

    # -- persistence ------------------------------------------------------

    def to_bytes(self) -> bytes:
        keys, counts = self._arrays()
        header = {
            "format_version": _FORMAT_VERSION,
            "order": self.order,
            "smoothing_k": self.smoothing_k,
            "total_tokens_trained": self.total_tokens_trained,
            "n_keys": len(keys),
        }
        return b"".join([_MAGIC, json.dumps(header, sort_keys=True).encode("utf-8"), b"\n",
                         keys.astype("<i8", copy=False).tobytes(),
                         counts.astype("<i8", copy=False).tobytes()])

    def save(self, path: str | Path) -> None:
        blob = self.to_bytes()
        Path(path).write_bytes(blob)
        self._fingerprint = _digest(blob)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "NGramModel":
        if not blob.startswith(_MAGIC):
            raise ValueError("not a recognized n-gram model file")
        header_end = blob.index(b"\n", len(_MAGIC))
        line = blob[len(_MAGIC):header_end]
        # the version decides the layout, so it is checked before the other keys
        version = json_object(line, "n-gram model header", {"format_version": int})["format_version"]
        if version != _FORMAT_VERSION:
            raise ValueError(f"n-gram model file has format version {version}, and only version "
                             f"{_FORMAT_VERSION} is read: run train-meta again to rewrite the pair")
        header = json_object(line, "n-gram model header", _HEADER_KEYS)
        model = cls(order=header["order"], smoothing_k=header["smoothing_k"])
        model.total_tokens_trained = header["total_tokens_trained"]
        n = header["n_keys"]
        body = memoryview(blob)[header_end + 1:]
        if len(body) != 16 * n:
            raise ValueError(f"n-gram model file has {len(body)} bytes of arrays, not {16 * n} for {n} keys")
        # a copy, so that a loaded model can still add documents
        keys, counts = np.frombuffer(body, dtype="<i8").reshape(2, n).astype(np.int64)
        if n and not (0 <= keys[0] and keys[-1] < _CTX_BASE ** (model.order - 1) * VOCAB_SIZE):
            raise ValueError("n-gram model file has a key out of range")
        if np.any(keys[1:] <= keys[:-1]) or np.any(counts <= 0):
            raise ValueError("n-gram model file has keys out of order or a zero count")
        model._keys, model._counts = keys, counts
        # a saved model's bytes are its to_bytes(), so their digest is its fingerprint
        model._fingerprint = _digest(blob)
        return model

    @classmethod
    def load(cls, path: str | Path) -> "NGramModel":
        try:
            return cls.from_bytes(Path(path).read_bytes())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def fingerprint(self) -> str:
        """Stable 64-bit hex digest of the full model state (of ``to_bytes()``)."""
        if self._fingerprint is None:
            self._fingerprint = _digest(self.to_bytes())
        return self._fingerprint


def _digest(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


@dataclass
class MetaModelPair:
    """Two models of unequal capacity trained on the identical corpus."""

    small: NGramModel
    large: NGramModel
    train_corpus_id: str = ""

    def __post_init__(self):
        if self.small.order >= self.large.order:
            raise InvalidPairSpecError(
                f"small order {self.small.order} must be < large order {self.large.order}"
            )


def train_ngram(corpus: Iterable[Document], order: int, smoothing_k: float = 0.01) -> NGramModel:
    model = NGramModel(order=order, smoothing_k=smoothing_k)
    n_docs = 0
    for doc in corpus:
        model.add_document(doc)
        n_docs += 1
    if n_docs == 0:
        raise NoTrainingDataError("training corpus is empty")
    return model


def train_pair(
    corpus: Iterable[Document], small_order: int, large_order: int, smoothing_k: float = 0.01
) -> MetaModelPair:
    """Train both models of a pair in one pass over the same stream."""
    pair = MetaModelPair(NGramModel(small_order, smoothing_k), NGramModel(large_order, smoothing_k))
    n_docs = 0
    for doc in corpus:
        pair.small.add_document(doc)
        pair.large.add_document(doc)
        n_docs += 1
    if n_docs == 0:
        raise NoTrainingDataError("training corpus is empty")
    return pair


PAIR_DESCRIPTOR_NAME = "pair.json"


def save_pair(pair: MetaModelPair, out_dir: str | Path) -> Path:
    """Write both model files plus a descriptor; returns the descriptor path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    small_name, large_name = "small.sfngram", "large.sfngram"
    pair.small.save(out_dir / small_name)
    pair.large.save(out_dir / large_name)
    descriptor = {
        "small_path": small_name,
        "large_path": large_name,
        "small_order": pair.small.order,
        "large_order": pair.large.order,
        "smoothing_k": pair.small.smoothing_k,
        "small_fingerprint": pair.small.fingerprint(),
        "large_fingerprint": pair.large.fingerprint(),
        "train_corpus_id": pair.train_corpus_id,
    }
    path = out_dir / PAIR_DESCRIPTOR_NAME
    write_json(path, descriptor)
    return path


def load_pair(pair_dir: str | Path) -> MetaModelPair:
    pair_dir = Path(pair_dir)
    descriptor = read_json(pair_dir / PAIR_DESCRIPTOR_NAME, {"small_path": str, "large_path": str})
    small = NGramModel.load(pair_dir / descriptor["small_path"])
    large = NGramModel.load(pair_dir / descriptor["large_path"])
    return MetaModelPair(small=small, large=large, train_corpus_id=descriptor.get("train_corpus_id", ""))
