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
A model file holds the two arrays as they are. A model is built once, by
``train_ngram``, ``train_pair`` or ``from_bytes``, and never changes after.
Training counts document bytes a chunk at a time with ``np.unique``;
``_sum_by_key`` adds each chunk to the model and sums a pair's large counts
into the small ones; scoring looks each distinct key of a batch up once, with
one ``np.searchsorted``. Each term is ``math.log2`` of the add-k
probability and a document's terms are summed left to right, so scores
equal those of a per-byte loop to the last bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import chain
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
# training bytes buffered before they are counted into the arrays
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
    # the key of every stream position from `width` on, from contiguous slices (a gather per
    # symbol costs twice as much); those of boundary positions are built and dropped
    span = len(stream) - width
    keys = np.zeros(span, dtype=np.int64)
    for back in range(width, 0, -1):  # oldest symbol first, so it is the most significant
        keys *= _CTX_BASE
        keys += stream[width - back : width - back + span]
    keys *= VOCAB_SIZE
    keys += stream[width:]
    return keys[at - width]


def _check_spec(order: int, smoothing_k: float) -> None:
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > MAX_ORDER:
        raise InvalidPairSpecError(f"order {order} is above the largest supported order {MAX_ORDER}")
    if not smoothing_k > 0:
        raise ValueError("smoothing_k must be > 0")


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in a sorted array."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1]))) if len(values) else values


def _sum_by_key(keys: np.ndarray, counts: np.ndarray, kind: str = "stable") -> tuple[np.ndarray, np.ndarray]:
    """Each distinct key in ascending order, and the sum of its counts.

    ``kind`` is the ``np.argsort`` kind; integer sums need no stable order,
    so it only sets the speed. The stable sort merges already sorted runs (a
    model and a chunk, or keys that arrive sorted) in one pass; on keys
    scattered in many short runs (a pair's marginal) the default
    ``"quicksort"`` took about a third of its time.
    """
    by_key = np.argsort(keys, kind=kind)
    keys = keys[by_key]
    starts = _run_starts(keys)
    # empty input: not every supported numpy's np.add.reduceat takes empty starts
    return keys[starts], (np.add.reduceat(counts[by_key], starts) if len(keys) else counts)


def _context_sizes(keys: np.ndarray) -> np.ndarray:
    """Number of keys of each context of a sorted key array, in key order."""
    return np.diff(np.append(_run_starts(keys >> 8), len(keys)))


class NGramModel:
    """Order-n byte model storing sparse (context, next byte) counts in sorted arrays.

    ``keys`` holds ``context * 256 + byte`` in ascending order and
    ``counts`` the count of each; zero-count entries are never stored.
    """

    def __init__(self, order: int, smoothing_k: float, keys: np.ndarray, counts: np.ndarray,
                 total_tokens_trained: int):
        _check_spec(order, smoothing_k)
        self.order = order
        self.smoothing_k = float(smoothing_k)
        self.keys = keys
        self.counts = counts
        self.total_tokens_trained = total_tokens_trained
        self._terms: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._fingerprint: Optional[str] = None

    # -- evaluation -------------------------------------------------------

    def _log2_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Keys and, per key, log2 P of its byte and of a byte never seen after its context.

        Each array has one more entry at both ends: key -1 (no context),
        whose unseen term is that of a context never seen. ``math.log2``
        per value, as the per-token definition has it: numpy's vectorized
        log2 differs from it in the last bit for some values.
        """
        if self._terms is None:
            keys, counts = self.keys, self.counts
            sizes = _context_sizes(keys)
            totals = _sum_by_key(keys >> 8, counts)[1]
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
        # each distinct key is looked up once, in sorted order (neighbouring keys one after
        # another), and its term gathered back to every token that has it
        distinct, inverse = np.unique(query, return_inverse=True)
        right = np.searchsorted(keys[1:-1], distinct) + 1
        # a context's keys are contiguous: a query whose context was seen lands inside its
        # block or just past its last key; otherwise it takes the edge entry, key -1
        ctx = distinct >> 8
        at = np.where((keys[right] >> 8) == ctx, right, np.where((keys[right - 1] >> 8) == ctx, right - 1, 0))
        terms = np.where(keys[at] == distinct, seen[at], unseen[at])[inverse]
        lengths = [len(doc) for doc in docs]
        totals = []
        end = 0
        for n in lengths:
            # left to right, as a per-token loop adds them (np.sum adds pairwise)
            totals.append(float(np.cumsum(terms[end : end + n])[-1]))
            end += n
        return totals, lengths

    def perplexities(self, texts: list[str]) -> list[float]:
        """2^L per text, L = -(1/T) * sum log2 P(byte_t | context_t) in bits per token."""
        totals, lengths = self._log2_probabilities(texts)
        return [2.0 ** (-total / n) for total, n in zip(totals, lengths)]

    def perplexity(self, text: str) -> float:
        return self.perplexities([text])[0]

    @property
    def n_contexts(self) -> int:
        return len(_context_sizes(self.keys))

    # -- persistence ------------------------------------------------------

    def to_bytes(self) -> bytes:
        header = {
            "format_version": _FORMAT_VERSION,
            "order": self.order,
            "smoothing_k": self.smoothing_k,
            "total_tokens_trained": self.total_tokens_trained,
            "n_keys": len(self.keys),
        }
        return b"".join([_MAGIC, json.dumps(header, sort_keys=True).encode("utf-8"), b"\n",
                         self.keys.astype("<i8", copy=False).tobytes(),
                         self.counts.astype("<i8", copy=False).tobytes()])

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
        n = header["n_keys"]
        body = memoryview(blob)[header_end + 1:]
        if len(body) != 16 * n:
            raise ValueError(f"n-gram model file has {len(body)} bytes of arrays, not {16 * n} for {n} keys")
        keys, counts = np.frombuffer(body, dtype="<i8").reshape(2, n).astype(np.int64, copy=False)
        model = cls(header["order"], header["smoothing_k"], keys, counts, header["total_tokens_trained"])
        if n and not (0 <= keys[0] and keys[-1] < _CTX_BASE ** (model.order - 1) * VOCAB_SIZE):
            raise ValueError("n-gram model file has a key out of range")
        if np.any(keys[1:] <= keys[:-1]) or np.any(counts <= 0):
            raise ValueError("n-gram model file has keys out of order or a zero count")
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
        _check_pair_orders(self.small.order, self.large.order)
        if self.small.smoothing_k != self.large.smoothing_k:
            raise InvalidPairSpecError(f"small smoothing_k {self.small.smoothing_k} != large {self.large.smoothing_k}")


def _check_pair_orders(small_order: int, large_order: int) -> None:
    if small_order >= large_order:
        raise InvalidPairSpecError(f"small order {small_order} must be < large order {large_order}")


def train_ngram(corpus: Iterable[Document], order: int, smoothing_k: float = 0.01) -> NGramModel:
    """The model of every length-order window of the documents' byte tokens, counted ``_FOLD_BYTES``
    of documents at a time and each chunk's counts added to the model's."""
    _check_spec(order, smoothing_k)  # before a document is read
    keys, counts = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    docs: list[bytes] = []
    pending = 0
    for doc in chain(corpus, [None]):  # None ends the stream: the documents still buffered are counted
        if doc is not None:
            docs.append(tokenize(doc.text))
            pending += len(docs[-1])
        if pending >= _FOLD_BYTES or (doc is None and docs):
            chunk_keys, chunk_counts = np.unique(_token_keys(docs, order), return_counts=True)
            keys, counts = _sum_by_key(np.concatenate((keys, chunk_keys)), np.concatenate((counts, chunk_counts)))
            docs, pending = [], 0
    if not len(keys):
        raise NoTrainingDataError("training corpus is empty")
    # each token adds one count
    return NGramModel(order, smoothing_k, keys, counts, int(counts.sum()))


def train_pair(
    corpus: Iterable[Document], small_order: int, large_order: int, smoothing_k: float = 0.01
) -> MetaModelPair:
    """Both models of a pair from one pass over the stream: the large model counts it, the small is its marginal."""
    # both orders and k are checked before a document is read; train_ngram checks the large order
    _check_spec(small_order, smoothing_k)
    _check_pair_orders(small_order, large_order)
    large = train_ngram(corpus, large_order, smoothing_k)
    return MetaModelPair(_marginal(large, small_order), large)


def _marginal(large: NGramModel, order: int) -> NGramModel:
    """The model of a lower ``order`` on ``large``'s stream, to the byte: both pad with boundary symbols, so
    a large key mod ``257^(order-1) * 256`` is the key of its token's newest ``order - 1`` symbols, and
    the small counts are the large ones summed over it (as KenLM derives lower orders, Heafield et al. 2013)."""
    keys, counts = _sum_by_key(large.keys % (_CTX_BASE ** (order - 1) * VOCAB_SIZE), large.counts, kind="quicksort")
    return NGramModel(order, large.smoothing_k, keys, counts, large.total_tokens_trained)


PAIR_DESCRIPTOR_NAME = "pair.json"


def save_pair(pair: MetaModelPair, out_dir: str | Path) -> Path:
    """Write the large model, whose marginal the small one must be, and a descriptor, whose path it returns."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    large_name = "large.sfngram"
    pair.large.save(out_dir / large_name)
    descriptor = {
        "large_path": large_name,
        "small_order": pair.small.order,
        "large_order": pair.large.order,
        "smoothing_k": pair.large.smoothing_k,
        "large_fingerprint": pair.large.fingerprint(),
        "train_corpus_id": pair.train_corpus_id,
    }
    path = out_dir / PAIR_DESCRIPTOR_NAME
    write_json(path, descriptor)
    return path


def load_pair(pair_dir: str | Path) -> MetaModelPair:
    """The large model, refused unless pair.json records its fingerprint, and its marginal of ``small_order``."""
    pair_dir = Path(pair_dir)
    path = pair_dir / PAIR_DESCRIPTOR_NAME
    descriptor = read_json(path, {"large_path": str, "large_fingerprint": str, "small_order": int})
    large_path = pair_dir / descriptor["large_path"]
    large = NGramModel.load(large_path)
    if large.fingerprint() != descriptor["large_fingerprint"]:
        raise ValueError(f"{path} records large_fingerprint {descriptor['large_fingerprint']}, but "
                         f"{large_path} has fingerprint {large.fingerprint()}")
    small_order = descriptor["small_order"]
    if not 1 <= small_order < large.order:
        raise ValueError(f"{path}: small_order {small_order} is not from 1 to {large.order - 1}, below {large_path}")
    return MetaModelPair(_marginal(large, small_order), large, descriptor.get("train_corpus_id", ""))
