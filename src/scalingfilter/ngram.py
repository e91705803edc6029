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
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from math import log2
from pathlib import Path
from typing import Iterable, Optional

from .corpus import Document
from .errors import InvalidPairSpecError, NoTrainingDataError

VOCAB_SIZE = 256
BOUNDARY = 256  # context-only symbol, outside the byte alphabet
_CTX_BASE = 257  # byte alphabet plus the boundary symbol

_MAGIC = b"SFNGRAM1\n"


def tokenize(text: str) -> bytes:
    """UTF-8 byte tokens of a non-empty text."""
    if not text:
        raise ValueError("cannot tokenize empty text")
    return text.encode("utf-8")


class NGramModel:
    """Order-n byte model storing sparse context -> next-byte counts.

    Contexts are the (order - 1) previous tokens, packed into a single
    integer base 257; zero-count entries are never stored.
    """

    def __init__(self, order: int, smoothing_k: float = 0.01):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not smoothing_k > 0:
            raise ValueError("smoothing_k must be > 0")
        self.order = order
        self.smoothing_k = float(smoothing_k)
        self.vocab_size = VOCAB_SIZE
        self.total_tokens_trained = 0
        # packed context -> {next byte -> count}
        self._counts: dict[int, dict[int, int]] = {}
        # packed context -> total count (sum over next bytes)
        self._totals: dict[int, int] = {}
        self._fingerprint: Optional[str] = None

    # -- training ---------------------------------------------------------

    def add_document(self, doc: Document) -> None:
        """Count every length-order window of the document's byte tokens."""
        tokens = tokenize(doc.text)
        counts = self._counts
        totals = self._totals
        order = self.order
        if order == 1:
            table = counts.setdefault(0, {})
            for t in tokens:
                table[t] = table.get(t, 0) + 1
            totals[0] = totals.get(0, 0) + len(tokens)
        else:
            mod = _CTX_BASE ** (order - 2)
            # initial context: (order - 1) boundary symbols
            ctx = 0
            for _ in range(order - 1):
                ctx = ctx * _CTX_BASE + BOUNDARY
            for t in tokens:
                table = counts.get(ctx)
                if table is None:
                    table = counts[ctx] = {}
                    totals[ctx] = 0
                table[t] = table.get(t, 0) + 1
                totals[ctx] += 1
                ctx = (ctx % mod) * _CTX_BASE + t
        self.total_tokens_trained += len(tokens)
        self._fingerprint = None

    # -- evaluation -------------------------------------------------------

    def log2_probability(self, text: str) -> float:
        """Total log2 probability of the text's byte tokens (not averaged)."""
        tokens = tokenize(text)
        k = self.smoothing_k
        denom_k = k * VOCAB_SIZE
        counts = self._counts
        totals = self._totals
        order = self.order
        total = 0.0
        if order == 1:
            table = counts.get(0, {})
            ctx_total = totals.get(0, 0)
            den = ctx_total + denom_k
            for t in tokens:
                total += log2((table.get(t, 0) + k) / den)
        else:
            mod = _CTX_BASE ** (order - 2)
            ctx = 0
            for _ in range(order - 1):
                ctx = ctx * _CTX_BASE + BOUNDARY
            empty: dict[int, int] = {}
            for t in tokens:
                table = counts.get(ctx, empty)
                den = totals.get(ctx, 0) + denom_k
                total += log2((table.get(t, 0) + k) / den)
                ctx = (ctx % mod) * _CTX_BASE + t
        return total

    def cross_entropy(self, doc: Document | str) -> float:
        """Bits per token: -(1/T) * sum log2 P(byte_t | context_t)."""
        text = doc.text if isinstance(doc, Document) else doc
        tokens_len = len(tokenize(text))
        return -self.log2_probability(text) / tokens_len

    def perplexity(self, doc: Document | str) -> float:
        return 2.0 ** self.cross_entropy(doc)

    def perplexities(self, texts: list[str]) -> list[float]:
        return [self.perplexity(text) for text in texts]

    def probability(self, context: tuple[int, ...], token: int) -> float:
        """Add-k probability of one byte after an explicit context tuple."""
        if len(context) != self.order - 1:
            raise ValueError(f"context must have length {self.order - 1}")
        ctx = 0
        for c in context:
            ctx = ctx * _CTX_BASE + c
        k = self.smoothing_k
        num = self._counts.get(ctx, {}).get(token, 0) + k
        den = self._totals.get(ctx, 0) + k * VOCAB_SIZE
        return num / den

    @property
    def n_contexts(self) -> int:
        return len(self._counts)

    def iter_counts(self):
        """Yield (context tuple, next byte, count) sorted by context then byte."""
        for ctx in sorted(self._counts):
            ctx_tuple = self._unpack_context(ctx)
            table = self._counts[ctx]
            for tok in sorted(table):
                yield ctx_tuple, tok, table[tok]

    # -- persistence ------------------------------------------------------

    def _unpack_context(self, ctx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.order - 1):
            ctx, tok = divmod(ctx, _CTX_BASE)
            out.append(tok)
        return tuple(reversed(out))

    def to_bytes(self) -> bytes:
        header = {
            "format_version": 1,
            "order": self.order,
            "smoothing_k": self.smoothing_k,
            "vocab_size": self.vocab_size,
            "total_tokens_trained": self.total_tokens_trained,
            "n_contexts": len(self._counts),
        }
        chunks = [_MAGIC, json.dumps(header, sort_keys=True).encode("utf-8"), b"\n"]
        ctx_fmt = struct.Struct(f"<{self.order - 1}H") if self.order > 1 else None
        entry_fmt = struct.Struct("<BQ")
        items = sorted(
            ((self._unpack_context(ctx), table) for ctx, table in self._counts.items())
        )
        for ctx_tuple, table in items:
            if ctx_fmt is not None:
                chunks.append(ctx_fmt.pack(*ctx_tuple))
            chunks.append(struct.pack("<H", len(table)))
            for tok in sorted(table):
                chunks.append(entry_fmt.pack(tok, table[tok]))
        return b"".join(chunks)

    def save(self, path: str | Path) -> None:
        blob = self.to_bytes()
        Path(path).write_bytes(blob)
        self._fingerprint = _digest(blob)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "NGramModel":
        if not blob.startswith(_MAGIC):
            raise ValueError("not a recognized n-gram model file")
        header_end = blob.index(b"\n", len(_MAGIC))
        header = json.loads(blob[len(_MAGIC):header_end].decode("utf-8"))
        if header.get("format_version") != 1:
            raise ValueError(f"unsupported model format version {header.get('format_version')}")
        model = cls(order=int(header["order"]), smoothing_k=float(header["smoothing_k"]))
        model.total_tokens_trained = int(header["total_tokens_trained"])
        order = model.order
        ctx_fmt = struct.Struct(f"<{order - 1}H") if order > 1 else None
        entry_fmt = struct.Struct("<BQ")
        pos = header_end + 1
        n_fmt = struct.Struct("<H")
        for _ in range(int(header["n_contexts"])):
            if ctx_fmt is not None:
                ctx_tuple = ctx_fmt.unpack_from(blob, pos)
                pos += ctx_fmt.size
                ctx = 0
                for c in ctx_tuple:
                    ctx = ctx * _CTX_BASE + c
            else:
                ctx = 0
            (n_entries,) = n_fmt.unpack_from(blob, pos)
            pos += n_fmt.size
            table = {}
            total = 0
            for _ in range(n_entries):
                tok, count = entry_fmt.unpack_from(blob, pos)
                pos += entry_fmt.size
                table[tok] = count
                total += count
            model._counts[ctx] = table
            model._totals[ctx] = total
        if pos != len(blob):
            raise ValueError(f"{len(blob) - pos} bytes after the last n-gram context")
        # a saved model's bytes are its to_bytes(), so their digest is its fingerprint
        model._fingerprint = _digest(blob)
        return model

    @classmethod
    def load(cls, path: str | Path) -> "NGramModel":
        return cls.from_bytes(Path(path).read_bytes())

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
    path.write_text(json.dumps(descriptor, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_pair(pair_dir: str | Path) -> MetaModelPair:
    pair_dir = Path(pair_dir)
    descriptor = json.loads((pair_dir / PAIR_DESCRIPTOR_NAME).read_text(encoding="utf-8"))
    small = NGramModel.load(pair_dir / descriptor["small_path"])
    large = NGramModel.load(pair_dir / descriptor["large_path"])
    return MetaModelPair(small=small, large=large, train_corpus_id=descriptor.get("train_corpus_id", ""))
