"""Per-document quality scoring from a meta-model pair.

The quality factor of a document is the ratio of the small model's
perplexity to the large model's perplexity. Both models saw the same
training data, so the ratio cancels out how generically predictable a
text is and keeps how much extra capacity helps on it; higher means
higher estimated quality. Equivalently d = 2^(L_small - L_large) in bits.

Both models of a pair, in-process n-gram models or served networks alike,
are used through one operation, ``perplexities(texts)``, plus a
``fingerprint()`` that keys the score cache. Corpus scoring is
deterministic regardless of worker count: rows are keyed by doc_id and
sorted before writing, never emitted in completion order.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional, Protocol, Sequence

from .corpus import Document
from .errors import (
    ErrorBudgetExceededError,
    InvalidPerplexityError,
    ScalingFilterError,
    ScorerUnavailableError,
)

SCORE_HEADER = ("doc_id", "n_tokens", "ppl_small", "ppl_large", "quality_factor")
_Row = tuple[int, float, float]  # n_tokens, ppl_small, ppl_large: a document's row in the cache and in scores.tsv


def _fmt(x: float) -> str:
    return format(x, ".17g")


def quality_factor(ppl_small: float, ppl_large: float) -> float:
    """Ratio of the two perplexities; both must be finite and positive."""
    if not (math.isfinite(ppl_small) and ppl_small > 0):
        raise InvalidPerplexityError(f"small-model perplexity {ppl_small!r} is not finite and positive")
    if not (math.isfinite(ppl_large) and ppl_large > 0):
        raise InvalidPerplexityError(f"large-model perplexity {ppl_large!r} is not finite and positive")
    return ppl_small / ppl_large


@dataclass(frozen=True)
class QualityScore:
    doc_id: str
    n_tokens: int
    ppl_small: float
    ppl_large: float
    d: float


class PerplexityModel(Protocol):
    """One model of a scoring pair, local or remote."""

    def perplexities(self, texts: list[str]) -> list[float]:
        """Per-text perplexity in the 2^L (bits) convention."""

    def fingerprint(self) -> str:
        """Stable id of the model; cached scores are reused only under the same one."""


class RemotePerplexityModel:
    """Client for one remote perplexity service speaking the 2^L convention.

    Protocol: POST <url>/v1/perplexity with {"texts": [...]} returning
    {"perplexities": [...], "model": "<name>", "log_base": 2}.
    """

    def __init__(self, base_url: str, timeout: float = 30.0):
        from . import remote  # the HTTP client: loaded by remote scoring alone, before any worker forks

        self._remote = remote
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._model_name: Optional[str] = None

    def perplexities(self, texts: list[str]) -> list[float]:
        url = f"{self.base_url}/v1/perplexity"
        body, ppls = self._remote.post_texts(url, texts, "perplexities", ScorerUnavailableError, self.timeout)
        if "log_base" in body and body["log_base"] != 2:
            raise InvalidPerplexityError(f"remote scorer {url} declares log_base={body['log_base']}, need 2")
        self._model_name = str(body.get("model", ""))
        try:
            return [float(p) for p in ppls]
        except (TypeError, ValueError) as exc:
            raise ScorerUnavailableError(f"remote scorer returned a non-numeric perplexity: {exc}") from exc

    def fingerprint(self) -> str:
        if self._model_name is None:
            self.perplexities([])  # learns the model name
        tag = f"remote:{self.base_url}:{self._model_name}"
        return hashlib.blake2b(tag.encode("utf-8"), digest_size=8).hexdigest()


def content_hash(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


class ScoreCache:
    """Append-only perplexity cache keyed by document content and model pair.

    A row is only reused when doc id, content hash, and both model
    fingerprints all match, so scores from a retrained pair can never leak
    into a new run. Reads may be concurrent; all writes go through the
    single owning process.

    A last line without its newline was torn by a run killed inside
    ``flush``: it may parse, with a number cut short, so it is skipped,
    and the next ``flush`` cuts it off before appending. ``skipped``
    counts the rows that could not be used: torn, of the wrong shape, with
    numbers that do not parse, or with a perplexity that is not finite and
    positive. A skipped row's document is scored again.
    """

    def __init__(self, path: str | Path, fp_small: str, fp_large: str):
        self.path = Path(path)
        self.fp_small = fp_small
        self.fp_large = fp_large
        self._rows: dict[tuple[str, str], _Row] = {}
        self.skipped = 0
        self._torn_bytes = 0
        if self.path.exists():
            # surrogateescape: a torn line may end inside a multi-byte character
            with open(self.path, "r", encoding="utf-8", errors="surrogateescape") as fh:
                for line in fh:
                    parts = line.rstrip("\n").split("\t")
                    if not line.endswith("\n"):
                        self._torn_bytes = len(line.encode("utf-8", errors="surrogateescape"))
                    if self._torn_bytes or len(parts) != 7:
                        self.skipped += 1
                        continue
                    doc_id, chash, fs, fl, n_tok, ppl_s, ppl_l = parts
                    if fs == fp_small and fl == fp_large:
                        try:
                            row = (int(n_tok), float(ppl_s), float(ppl_l))
                            quality_factor(row[1], row[2])
                        except (ValueError, InvalidPerplexityError):
                            self.skipped += 1
                            continue
                        self._rows[(doc_id, chash)] = row
        self._appended: list[str] = []

    def get(self, doc_id: str, chash: str) -> Optional[_Row]:
        return self._rows.get((doc_id, chash))

    def put(self, doc_id: str, chash: str, row: _Row) -> None:
        self._rows[(doc_id, chash)] = row
        n_tokens, ppl_small, ppl_large = row
        self._appended.append(
            "\t".join((doc_id, chash, self.fp_small, self.fp_large, str(n_tokens), _fmt(ppl_small), _fmt(ppl_large)))
        )

    def flush(self) -> None:
        if not self._appended:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as fh:
            if self._torn_bytes:  # start on a fresh line
                fh.truncate(fh.seek(0, os.SEEK_END) - self._torn_bytes)
                self._torn_bytes = 0
            fh.write("".join(row + "\n" for row in self._appended).encode("utf-8"))
        self._appended.clear()


@dataclass
class ScoreSummary:
    """What ``score_summary.json`` records of one ``score_corpus`` run, under its keys."""

    count: int
    error_count: int
    endpoint_evaluations: int
    cache_hits: int
    cache_rows_skipped: int  # cache rows that could not be used: torn or malformed
    mean_quality_factor: Optional[float]  # None (JSON null) when no document was scored
    quality_factor_quantiles: dict[str, float]  # empty when no document was scored

    def to_json(self) -> dict:
        return asdict(self)


def _nearest_rank_quantiles(values: Sequence[float], pcts=(5, 25, 50, 75, 95)) -> dict[str, float]:
    ordered = sorted(values)
    n = len(ordered)
    out = {}
    for p in pcts:
        rank = max(1, math.ceil(p / 100.0 * n))
        out[f"p{p:02d}"] = ordered[rank - 1]
    return out


_Failure = tuple[str, str, str]  # doc_id, code, message


def _score_batch(
    small: PerplexityModel, large: PerplexityModel, batch: list[tuple[str, str]]
) -> tuple[list[tuple[str, _Row]], list[_Failure]]:
    """Score one batch of (doc_id, text) pairs with both models: each document's row, or its failure.

    A scorer error fails this batch's documents, and a perplexity that is
    not finite and positive fails its own document. Both come back as
    failure rows rather than as an exception pickled across the pool.
    """
    texts = [text for _, text in batch]
    try:
        ppl_small = small.perplexities(texts)
        ppl_large = large.perplexities(texts)
    except ScalingFilterError as exc:
        return [], [(doc_id, exc.code, str(exc)) for doc_id, _ in batch]
    rows, failed = [], []
    for (doc_id, text), s, l in zip(batch, ppl_small, ppl_large):
        try:
            quality_factor(s, l)
        except InvalidPerplexityError as exc:
            failed.append((doc_id, exc.code, str(exc)))
            continue
        rows.append((doc_id, (len(text.encode("utf-8")), s, l)))  # n_tokens: UTF-8 bytes, the n-gram tokens
    return rows, failed


def score_corpus(
    small: PerplexityModel,
    large: PerplexityModel,
    docs: Iterable[Document],
    out_path: str | Path,
    cache_path: Optional[str | Path] = None,
    workers: int = 1,
    error_budget: float = 0.01,
    batch_size: int = 32,
) -> ScoreSummary:
    """Score every document, writing one TSV row per doc sorted by doc_id.

    Cached (doc_id, content hash) rows under the same model fingerprints are
    reused without calling the models. The rest are scored in batches of
    ``batch_size`` documents, the unit of work of the ``workers`` processes.
    Per-document scorer errors go to an ``.errors.tsv`` sidecar; the run
    aborts only when the error fraction exceeds ``error_budget``.
    """
    from .parallel import fork_map  # multiprocessing: loaded by the score command, not by the readers of scores.tsv

    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not 0 <= error_budget <= 1:
        raise ValueError(f"error_budget must be in [0, 1], got {error_budget}")
    out_path = Path(out_path)
    cache = None
    if cache_path is not None:
        cache = ScoreCache(cache_path, small.fingerprint(), large.fingerprint())

    rows: dict[str, _Row] = {}
    pending: list[tuple[str, str]] = []
    hashes: dict[str, str] = {}
    errors: list[_Failure] = []

    for doc in docs:
        if doc.id in hashes:
            raise ValueError(f"duplicate doc_id {doc.id!r} in scoring input")
        chash = hashes[doc.id] = content_hash(doc.text)
        cached = cache.get(doc.id, chash) if cache is not None else None
        if cached is not None:
            rows[doc.id] = cached
        else:
            pending.append((doc.id, doc.text))
    cache_hits = len(rows)

    batches = [pending[i : i + batch_size] for i in range(0, len(pending), batch_size)]
    for scored, failed in fork_map(functools.partial(_score_batch, small, large), batches, workers):
        errors.extend(failed)
        rows.update(scored)
        if cache is not None:
            for doc_id, row in scored:
                cache.put(doc_id, hashes[doc_id], row)

    if cache is not None:
        cache.flush()

    error_path = out_path.with_name(out_path.name + ".errors.tsv")
    if errors:
        with open(error_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("doc_id\tcode\tmessage\n")
            for doc_id, code, message in sorted(errors):
                fh.write(f"{doc_id}\t{code}\t{message}\n")
    elif error_path.exists():
        error_path.unlink()

    if hashes and len(errors) / len(hashes) > error_budget:
        raise ErrorBudgetExceededError(
            f"{len(errors)}/{len(hashes)} documents failed scoring (budget {error_budget:.2%})"
        )

    out_path.parent.mkdir(parents=True, exist_ok=True)
    d_values = []
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(SCORE_HEADER) + "\n")
        for doc_id in sorted(rows):
            n_tok, ppl_s, ppl_l = rows[doc_id]
            d = ppl_s / ppl_l  # quality_factor judged the row when the cache read it or its batch scored it
            d_values.append(d)
            fh.write(f"{doc_id}\t{n_tok}\t{_fmt(ppl_s)}\t{_fmt(ppl_l)}\t{_fmt(d)}\n")

    return ScoreSummary(
        count=len(rows),
        error_count=len(errors),
        endpoint_evaluations=len(pending),
        cache_hits=cache_hits,
        cache_rows_skipped=cache.skipped if cache is not None else 0,
        mean_quality_factor=sum(d_values) / len(d_values) if d_values else None,
        quality_factor_quantiles=_nearest_rank_quantiles(d_values) if d_values else {},
    )


def read_score_file(path: str | Path) -> list[QualityScore]:
    """Read a scores.tsv; a row without its five fields, with a non-finite number or with a
    doc_id already read raises ValueError naming the file and line."""
    scores = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != SCORE_HEADER:
            raise ValueError(f"unexpected score file header {header!r}")
        for line_no, line in enumerate(fh, start=2):
            text = line.rstrip("\n")
            try:
                doc_id, n_tok, ppl_s, ppl_l, d = text.split("\t")
                values = float(ppl_s), float(ppl_l), float(d)
                if not all(map(math.isfinite, values)):
                    raise ValueError
                score = QualityScore(doc_id, int(n_tok), *values)
            except ValueError:
                raise ValueError(f"{path}:{line_no}: expected {'<TAB>'.join(SCORE_HEADER)} with finite "
                                 f"numbers, got {text!r}") from None
            if doc_id in seen:
                raise ValueError(f"{path}:{line_no}: duplicate doc_id {doc_id!r}")
            seen.add(doc_id)
            scores.append(score)
    return scores
