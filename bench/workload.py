"""Seeded synthetic corpora for the benchmark workloads.

Every input the program under test sees is written here as plain JSONL
shards plus a ``manifest.json``; the generator does not use the package
it benchmarks. Documents come in three kinds:

* ``chain``: word sequences from a Markov chain over a Zipf-distributed
  vocabulary of a few thousand words, so an order-5 byte model reaches
  ~10^5 contexts, as real text does;
* ``shuffled``: a chain document with its words permuted, which keeps the
  unigram statistics and destroys the structure the large model learns;
* ``filler``: random characters.

Lengths mix short and long documents. About 0.5% of the lines are
malformed (bad JSON, invalid UTF-8, whitespace-only text); each is
recorded so checks can count them.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

VOCAB_SIZE = 4000
N_SUCCESSORS = 8
_TRANSITIONS = np.array([0.34, 0.2, 0.13, 0.09, 0.07, 0.06, 0.06, 0.05])
RESTART_P = 0.15  # chance a word is drawn from the Zipf unigram, not the chain
# One language for every seed: seeds draw documents, as corpora of one language differ.
LANGUAGE_SEED = 8310
SHARD_DOCS = 5000
BAD_KINDS = ("bad-json", "bad-utf8", "blank-text")
_LETTERS = np.frombuffer(b"etaoinshrdlcumwfgypbvkjxqz", dtype=np.uint8)
_LETTER_P = np.array(
    [12.7, 9.1, 8.2, 7.5, 7.0, 6.7, 6.3, 6.1, 6.0, 4.3, 4.0, 2.8, 2.8, 2.4, 2.4,
     2.2, 2.0, 2.0, 1.9, 1.5, 1.0, 0.8, 0.2, 0.2, 0.1, 0.1]
)
_LETTER_P = _LETTER_P / _LETTER_P.sum()
_FILLER = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz ", dtype=np.uint8)


@dataclass
class CorpusSpec:
    """What one generated corpus contains; saved next to it as ``spec.json``."""

    path: str
    valid_docs: int
    bad_lines: int
    bytes: int  # size of the JSONL shards on disk

    @property
    def mb(self) -> float:
        return self.bytes / 1e6


class Language:
    """A Zipf vocabulary with a sparse word-to-word Markov chain."""

    def __init__(self, rng: np.random.Generator):
        ranks = np.arange(VOCAB_SIZE)
        lengths = np.clip(
            np.round(2.0 + 0.9 * np.log1p(ranks) + rng.normal(0.0, 1.2, VOCAB_SIZE)), 1, 14
        ).astype(int)
        words = []
        seen = set()
        for n in lengths:
            while True:
                word = rng.choice(_LETTERS, size=int(n), p=_LETTER_P).tobytes().decode("ascii")
                if rng.random() < 0.03:
                    word += "é"
                if word not in seen:
                    break
            seen.add(word)
            words.append(word)
        self.words = np.array(words, dtype=object)
        zipf = 1.0 / (ranks + 2.7) ** 1.07
        self.unigram = zipf / zipf.sum()
        self.successors = rng.choice(VOCAB_SIZE, size=(VOCAB_SIZE, N_SUCCESSORS), p=self.unigram)

    def chain_docs(self, rng: np.random.Generator, n_words: np.ndarray) -> list[list[str]]:
        """One word list per entry of ``n_words``, all chains stepped together."""
        n = len(n_words)
        longest = int(n_words.max()) if n else 0
        ids = np.empty((n, longest), dtype=np.int32)
        state = rng.choice(VOCAB_SIZE, size=n, p=self.unigram)
        for t in range(longest):
            ids[:, t] = state
            step = rng.choice(N_SUCCESSORS, size=n, p=_TRANSITIONS)
            nxt = self.successors[state, step]
            restart = rng.random(n) < RESTART_P
            nxt[restart] = rng.choice(VOCAB_SIZE, size=int(restart.sum()), p=self.unigram)
            state = nxt
        return [list(self.words[ids[i, : n_words[i]]]) for i in range(n)]


def _doc_lengths(rng: np.random.Generator, n: int) -> np.ndarray:
    long_doc = rng.random(n) < 0.12
    return np.where(long_doc, rng.integers(60, 200, n), rng.integers(5, 30, n))


def make_texts(rng: np.random.Generator, lang: Language, n: int) -> list[tuple[str, str]]:
    """``n`` (kind, text) pairs: ~80% chain, ~14% shuffled, ~6% filler."""
    kinds = rng.choice(3, size=n, p=[0.80, 0.14, 0.06])
    word_lists = lang.chain_docs(rng, _doc_lengths(rng, n))
    out = []
    for kind, words in zip(kinds, word_lists):
        if kind == 0:
            out.append(("chain", " ".join(words)))
        elif kind == 1:
            out.append(("shuffled", " ".join(words[i] for i in rng.permutation(len(words)))))
        else:
            size = int(rng.integers(40, 300))
            text = rng.choice(_FILLER, size=size).tobytes().decode("ascii")
            out.append(("filler", "x" + text))  # never whitespace-only
    return out


def _bad_line(kind: str, index: int) -> bytes:
    if kind == "bad-json":
        return ('{"id": "bad-%d", "text": "truncated record' % index).encode()
    if kind == "bad-utf8":
        return b'{"id": "bad-%d", "text": "broken \xff\xfe bytes"}' % index
    return ('{"id": "bad-%d", "text": " \\t  \\n "}' % index).encode()


def write_jsonl_corpus(
    out_dir: Path, docs: list[tuple[str, str, str]], n_bad: int, rng: np.random.Generator
) -> CorpusSpec:
    """Write (id, kind, text) docs with ``n_bad`` malformed lines mixed in."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    lines = [
        json.dumps({"id": doc_id, "source": kind, "text": text}, ensure_ascii=False).encode("utf-8")
        for doc_id, kind, text in docs
    ]
    bad_at = np.sort(rng.choice(len(lines) + n_bad, size=n_bad, replace=False))
    for j, pos in enumerate(bad_at):
        lines.insert(int(pos), _bad_line(BAD_KINDS[j % len(BAD_KINDS)], j))
    shard_paths = []
    size = 0
    for s, start in enumerate(range(0, len(lines), SHARD_DOCS)):
        name = f"part-{s:04d}.jsonl"
        blob = b"\n".join(lines[start : start + SHARD_DOCS]) + b"\n"
        (out_dir / name).write_bytes(blob)
        shard_paths.append(name)
        size += len(blob)
    manifest = {
        "corpus_id": out_dir.name,
        "shard_paths": shard_paths,
        "doc_count": len(docs),
        "total_bytes": sum(len(text.encode("utf-8")) for _, _, text in docs),
        "created_at": "",
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    spec = CorpusSpec(str(out_dir), len(docs), n_bad, size)
    (out_dir / "spec.json").write_text(json.dumps(asdict(spec), indent=2) + "\n")
    return spec


def fresh_corpus(out_dir: Path, seed: int, n_docs: int, n_bad: int) -> CorpusSpec:
    """A corpus of ``n_docs`` valid documents drawn from ``seed``."""
    rng = np.random.default_rng([seed % 2**64, 1])
    lang = Language(np.random.default_rng(LANGUAGE_SEED))
    texts = make_texts(rng, lang, n_docs)
    docs = [(f"d{i:07d}", kind, text) for i, (kind, text) in enumerate(texts)]
    return write_jsonl_corpus(out_dir, docs, n_bad, rng)

