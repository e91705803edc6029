"""Document embedding providers.

Two kinds: a remote embedding service client, and a fully deterministic
offline fallback (hashed character n-gram counts projected with a seeded
random sign matrix). Absolute diversity numbers differ between embedders
and between versions of one embedder's hash; only comparisons within one
fingerprint are meaningful.
"""

from __future__ import annotations

import functools
import os
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateEmbeddingError, EmbedderUnavailableError
from .parallel import fork_map
from .seeding import rng_for

HASH_BUCKETS = 2**18
NGRAM_SIZES = (3, 4, 5)
_SIZE_SHIFT = 40  # a packed window keeps its (at most 5) bytes below this bit and its size above
# text bytes embedded at once: bounds the window arrays (~100 bytes of them per text byte)
_CHUNK_BYTES = 1 << 18
BATCH_TEXTS = 64  # texts per remote embedding request


def _chunks(data: list[bytes]):
    """(start, end) of runs of consecutive documents of about ``_CHUNK_BYTES``, one document at least."""
    start = 0
    while start < len(data):
        end, size = start + 1, len(data[start])
        while end < len(data) and size < _CHUNK_BYTES:
            size += len(data[end])
            end += 1
        yield start, end
        start = end


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _windows(data: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Every n-gram window of the documents, packed with its size, and each document's count.

    A window's bytes are packed big-endian, so ``to_bytes(size, "big")``
    gives them back. Windows never cross documents and are ordered by
    document, so each document's windows are contiguous.
    """
    lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    n = int(lengths.sum())
    longest = max(NGRAM_SIZES)
    buf = np.frombuffer(b"".join(data) + bytes(longest), dtype=np.uint8).astype(np.int64)
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(n)  # bytes from each position to its document's end
    packed = np.zeros(n, dtype=np.int64)
    columns = []
    for size in range(1, longest + 1):
        packed = (packed << 8) | buf[size - 1 : size - 1 + n]
        if size in NGRAM_SIZES:
            columns.append(np.where(left >= size, packed | (size << _SIZE_SHIFT), -1))
    windows = np.stack(columns, axis=1).ravel()  # position-major: grouped by document
    per_doc = sum(np.maximum(lengths - size + 1, 0) for size in NGRAM_SIZES)
    return windows[windows >= 0], per_doc


def _buckets(windows: np.ndarray) -> np.ndarray:
    """Bucket of each packed window, computed in place: the top 18 bits of its splitmix64 finalizer."""
    v = windows.view(np.uint64)
    v ^= v >> np.uint64(30)
    v *= np.uint64(0xBF58476D1CE4E5B9)
    v ^= v >> np.uint64(27)
    v *= np.uint64(0x94D049BB133111EB)
    v ^= v >> np.uint64(31)
    v >>= np.uint64(64 - 18)
    return windows


class HashedProjectionEmbedder:
    """Character n-gram hashing followed by a seeded random sign projection.

    Counts character n-grams of sizes 3..5 into 2^18 hash buckets, projects
    the sparse count vector through a {-1, +1} matrix drawn once from the
    projection seed, and L2-normalizes. Deterministic per (seed, dim).

    A window of ``size`` bytes is packed as ``v = int.from_bytes(window,
    "big") | size << 40``, and its bucket is the top 18 bits (``>> 46``) of
    the splitmix64 finalizer of ``v`` mod 2^64 (feature hashing, Weinberger
    et al. 2009); ``fingerprint`` names the hash as ``hash=splitmix64``.
    Documents are embedded in chunks of about ``_CHUNK_BYTES``, and every
    window of a chunk is hashed in numpy at once. An ``embed`` call embeds
    its chunks on forked processes, one per CPU this process may use. Rows
    are exact integer sums normalized one at a time, so they do not depend
    on the number of processes.
    """

    def __init__(self, dim: int = 64, seed: int = 0):
        if dim < 2:
            raise ValueError("embedding dim must be >= 2")
        self.dim = dim
        self.seed = seed
        self._signs: np.ndarray | None = None

    def _sign_matrix(self) -> np.ndarray:
        if self._signs is None:
            # the draw of rng.integers(0, 2, size=(HASH_BUCKETS, dim), dtype=np.int8): on a range
            # of 2, Lemire's method returns the top bit of each next byte of the little-endian
            # 64-bit raw stream, so those bits are taken from the stream directly, 8 per draw
            # (HASH_BUCKETS is a multiple of 8), in the stream's own buffer
            rng = rng_for(self.seed, "hashed-projection-signs")
            raw = rng.bit_generator.random_raw(HASH_BUCKETS * self.dim // 8)
            bits = raw.astype("<u8", copy=False).view(np.uint8)
            bits >>= 7
            signs = bits.view(np.int8).reshape(HASH_BUCKETS, self.dim)
            signs *= 2
            signs -= 1
            self._signs = signs
        return self._signs

    def embed(self, docs: Sequence[str]) -> np.ndarray:
        """Unit-normalized embeddings, one row per document text."""
        if not docs:
            raise ValueError("no documents to embed")
        data = [text.encode("utf-8") for text in docs]
        self._sign_matrix()  # built before the fork, so every worker shares one copy
        return np.concatenate(fork_map(functools.partial(self._rows, data), list(_chunks(data)), _cpu_count()))

    def _rows(self, data: list[bytes], chunk: tuple[int, int]) -> np.ndarray:
        """Rows of the documents ``data[first:last]`` of one chunk; errors number them as in ``data``."""
        first, last = chunk
        windows, per_doc = _windows(data[first:last])
        buckets = _buckets(windows)
        signs = self._sign_matrix()
        # integer sums of sign rows: exact, so equal to any other order of adding the counts;
        # the sum of n rows lies in [-n, n], so int16 holds it below 2^15 windows
        vecs = np.zeros((len(per_doc), self.dim), dtype=np.int64)
        ends = np.cumsum(per_doc)
        for row, (end, n) in enumerate(zip(ends.tolist(), per_doc.tolist())):
            if n:
                window_signs = np.take(signs, buckets[end - n : end], axis=0)
                vecs[row] = window_signs.sum(axis=0, dtype=np.int16 if n < 1 << 15 else np.int64)
        vecs = vecs.astype(np.float64)
        norms = np.linalg.norm(vecs, axis=1)
        bad = np.flatnonzero(norms <= 0)
        if len(bad):
            row = int(bad[0])
            if not per_doc[row]:
                raise DegenerateEmbeddingError(f"document row {first + row} yields no character n-grams")
            raise DegenerateEmbeddingError(f"document row {first + row} projects to the zero vector")
        return vecs / norms[:, None]

    def fingerprint(self) -> str:
        return (f"hashed-projection:dim={self.dim}:buckets={HASH_BUCKETS}:ngrams={NGRAM_SIZES}:seed={self.seed}"
                ":hash=splitmix64")


class RemoteEmbedder:
    """Client for a remote embedding service.

    Protocol: POST <url>/v1/embed with {"texts": [...]} returning
    {"embeddings": [[float x m], ...], "model": "<name>", "normalized": true}.
    """

    def __init__(self, base_url: str):
        from . import remote  # the HTTP client: loaded by the remote embedder alone

        self._remote = remote
        self.base_url = base_url.rstrip("/")
        self._model_name: Optional[str] = None

    def embed(self, docs: Sequence[str]) -> np.ndarray:
        """Unit-normalized embeddings, one row per document text, in requests of ``BATCH_TEXTS``."""
        if not docs:
            raise ValueError("no documents to embed")
        url = f"{self.base_url}/v1/embed"
        rows: list[np.ndarray] = []
        for start in range(0, len(docs), BATCH_TEXTS):
            batch = docs[start : start + BATCH_TEXTS]
            body, vecs = self._remote.post_texts(url, batch, "embeddings", EmbedderUnavailableError)
            self._model_name = self._remote.model_name(body, self._model_name, url, EmbedderUnavailableError)
            try:
                block = np.asarray(vecs)
            except ValueError:  # ragged rows
                block = np.zeros(0, dtype=object)
            width = rows[0].shape[1] if rows else block.shape[-1]
            if (block.dtype.kind not in "iuf" or block.ndim != 2 or block.shape[1] != width or not width
                    or not np.all(np.isfinite(block))):
                raise EmbedderUnavailableError(
                    f"{url} returned embeddings that are not a finite numeric block of one width"
                )
            block = block.astype(np.float64)
            if not bool(body.get("normalized", False)):
                norms = np.linalg.norm(block, axis=1, keepdims=True)
                if np.any(norms == 0):
                    raise DegenerateEmbeddingError("remote embedder returned a zero vector")
                block = block / norms
            rows.append(block)
        X = np.vstack(rows)
        norms = np.linalg.norm(X, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise EmbedderUnavailableError("remote embedder claims normalized output but norms deviate")
        return X

    def fingerprint(self) -> str:
        return f"remote:{self.base_url}:{self._model_name or ''}"
