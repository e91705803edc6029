"""Sharded JSONL corpus ingestion and emission.

A corpus is a directory of JSONL shards plus a ``manifest.json``. Records
carry a required ``text`` field, an optional ``id`` and any other fields;
ids missing from the input are synthesized as ``<shard-basename>:<line>``
so downstream score caches stay joinable without a global registry. A
record is written out as the line it was read from, so every field passes
through a filter untouched; a synthesized id is added to the line.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from .errors import EmptyTextError, EncodingError, InvalidIdError, RecordError

MANIFEST_NAME = "manifest.json"


def write_json(path: str | Path, obj) -> None:
    """Write one JSON artifact: indented, keys sorted, and strict (NaN or Infinity raise ValueError)."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")


def json_object(data: str | bytes, source: str | Path, required: dict[str, type | tuple[type, ...]]) -> dict:
    """Parse one JSON object that holds every ``required`` key with a value of its type.

    The strict reader that ``write_json`` mirrors: text that is not JSON, a
    value that is not an object, or a key that is missing or of another
    type raises ValueError naming ``source``. A JSON boolean is not a number.
    """
    try:
        obj = json.loads(data)
    except ValueError as exc:  # not JSON, or bytes that are not UTF-8
        raise ValueError(f"{source}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{source}: expected a JSON object, got {type(obj).__name__}")
    for key, kind in required.items():
        if key not in obj:
            raise ValueError(f"{source}: has no {key!r}")
        value = obj[key]
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            names = " or ".join(t.__name__ for t in (kind if isinstance(kind, tuple) else (kind,)))
            raise ValueError(f"{source}: {key!r} is {type(value).__name__}, not {names}")
    return obj


def read_json(path: str | Path, required: dict[str, type | tuple[type, ...]]) -> dict:
    """``json_object`` of a file's bytes, naming the file."""
    return json_object(Path(path).read_bytes(), path, required)


@dataclass(frozen=True)
class Document:
    """One valid record of a shard; the unit that gets scored and selected.

    Invariants: ``id`` unique within a corpus, ``text`` has at least one
    non-whitespace character. ``line`` is the record's JSON as its shard
    holds it, without the line terminator; when the id was synthesized, the
    line ends with that id added as the object's last ``"id"`` key.
    """

    id: str
    text: str
    line: bytes


@dataclass
class CorpusManifest:
    corpus_id: str
    shard_paths: list[str] = field(default_factory=list)
    doc_count: int = 0
    total_bytes: int = 0
    created_at: str = ""

    def save(self, path: str | Path) -> None:
        write_json(path, asdict(self))

    @staticmethod
    def load(path: str | Path) -> "CorpusManifest":
        obj = read_json(path, {"corpus_id": str, "shard_paths": list, "doc_count": int, "total_bytes": int})
        for shard in obj["shard_paths"]:
            if not isinstance(shard, str):
                raise ValueError(f"{path}: 'shard_paths' holds {type(shard).__name__}, not str")
        created_at = obj.get("created_at", "")
        if not isinstance(created_at, str):
            raise ValueError(f"{path}: 'created_at' is {type(created_at).__name__}, not str")
        return CorpusManifest(
            corpus_id=obj["corpus_id"],
            shard_paths=obj["shard_paths"],
            doc_count=obj["doc_count"],
            total_bytes=obj["total_bytes"],
            created_at=created_at,
        )

    def resolved_shard_paths(self, manifest_path: str | Path) -> list[Path]:
        """Shard paths resolved relative to the manifest's directory."""
        base = Path(manifest_path).parent
        return [p if p.is_absolute() else base / p for p in map(Path, self.shard_paths)]


def validate_record(raw: dict, line: bytes, shard: str = "", line_no: int = 0) -> Document:
    """Turn one parsed JSONL record, ``raw`` read from ``line``, into a Document or raise a RecordError.

    A missing, null or empty id is synthesized as ``<shard-basename>:<line-number>``
    and spliced into the line: JSON readers keep the last of repeated keys,
    so the written record reads back with that id. An integer id becomes
    its decimal string; an id that is neither a string nor an integer (a
    bool, float, list or object), or that contains a tab, CR or LF, is
    rejected. A text, id or ``source`` that has no UTF-8 encoding (a lone
    surrogate, read from a ``"\\ud800"`` escape) raises EncodingError.
    """
    text = raw.get("text")
    if not isinstance(text, str) or not text.strip():
        raise EmptyTextError("record has missing or whitespace-only text", shard=shard, line_no=line_no)
    doc_id = raw.get("id")
    if doc_id is None or doc_id == "":
        stem = Path(shard).name
        stem = stem[: -len(".jsonl")] if stem.endswith(".jsonl") else stem
        doc_id = f"{stem}:{line_no}"
        line = b'%s, "id": %s}' % (line.rstrip()[:-1], json.dumps(doc_id).encode())  # before the object's "}"
    if isinstance(doc_id, int) and not isinstance(doc_id, bool):
        doc_id = str(doc_id)
    elif not isinstance(doc_id, str):
        raise InvalidIdError(f"id {doc_id!r} is not a string or an integer", shard=shard, line_no=line_no)
    if any(c in doc_id for c in "\t\n\r"):
        # every TSV artifact (scores, errors, cache, kept ids) is keyed by id
        raise InvalidIdError(f"id {doc_id!r} contains a tab or line break", shard=shard, line_no=line_no)
    source = raw.get("source")
    fields = [text, doc_id]
    if source is not None:
        fields.append(source if isinstance(source, str) else json.dumps(source, ensure_ascii=False))
    for value in fields:
        try:
            value.encode("utf-8")  # text and id are encoded to score and key the document
        except UnicodeEncodeError as exc:
            raise EncodingError(str(exc), shard=shard, line_no=line_no) from None
    return Document(doc_id, text, line)


def iter_shard(path: str | Path, on_error: Optional[Callable[[RecordError], None]] = None) -> Iterator[Document]:
    """Yield the valid documents of one shard in line order.

    Malformed lines are reported through ``on_error`` and skipped; without
    a handler the first bad line raises. Unreadable files raise OSError.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                try:
                    decoded = line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise EncodingError(str(exc), shard=str(path), line_no=line_no) from exc
                try:
                    raw = json.loads(decoded)
                except json.JSONDecodeError as exc:
                    raise RecordError(f"invalid JSON: {exc}", shard=str(path), line_no=line_no) from exc
                if not isinstance(raw, dict):
                    raise RecordError("record is not a JSON object", shard=str(path), line_no=line_no)
                yield validate_record(raw, line.removesuffix(b"\n").removesuffix(b"\r"), str(path), line_no)
            except RecordError as err:
                if on_error is None:
                    raise
                on_error(err)


def read_manifest_corpus(
    manifest_path: str | Path,
    on_error: Optional[Callable[[RecordError], None]] = None,
) -> Iterator[Document]:
    """Stream the documents of a manifest's shards in shard order, then line order within a shard."""
    manifest = CorpusManifest.load(manifest_path)
    return (doc for path in manifest.resolved_shard_paths(manifest_path) for doc in iter_shard(path, on_error))


def write_corpus(
    docs: Iterable[Document],
    out_dir: str | Path,
    shard_size: int = 10000,
    corpus_id: Optional[str] = None,
) -> CorpusManifest:
    """Write numbered JSONL shards of at most ``shard_size`` docs plus a manifest.

    Each document is written as its ``line``, ended by ``\\n``: a record
    read from a shard is copied byte for byte, its terminator aside. The
    manifest is saved only once every document is written. Output is
    byte-identical across re-runs on the same input (the manifest timestamp
    excepted).
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    shard_paths: list[str] = []
    seen_ids: set[str] = set()
    total_bytes = 0
    for shard_idx, shard in itertools.groupby(enumerate(docs), key=lambda item: item[0] // shard_size):
        shard_paths.append(f"shard-{shard_idx:05d}.jsonl")
        with open(out_dir / shard_paths[-1], "wb") as fh:
            for _, doc in shard:
                if doc.id in seen_ids:
                    raise ValueError(f"duplicate document id {doc.id!r}")
                seen_ids.add(doc.id)
                fh.write(doc.line + b"\n")
                total_bytes += len(doc.text.encode("utf-8"))

    manifest = CorpusManifest(
        corpus_id=corpus_id or out_dir.name,
        shard_paths=shard_paths,
        doc_count=len(seen_ids),
        total_bytes=total_bytes,
        created_at=datetime.now(timezone.utc).isoformat(),
    )
    manifest.save(out_dir / MANIFEST_NAME)
    return manifest


class CorpusFingerprint:
    """Order-sensitive 64-bit content hash over (id, text) pairs, built while streaming."""

    def __init__(self):
        self._hash = hashlib.blake2b(digest_size=8)

    def passthrough(self, docs: Iterable[Document]) -> Iterator[Document]:
        """Yield ``docs`` unchanged, adding each one to the hash."""
        for doc in docs:
            self._hash.update(doc.id.encode("utf-8"))
            self._hash.update(b"\x00")
            self._hash.update(doc.text.encode("utf-8"))
            self._hash.update(b"\x01")
            yield doc

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def find_manifest(corpus: str | Path) -> Path:
    """Accept either a manifest path or a corpus directory containing one."""
    p = Path(corpus)
    if p.is_dir():
        candidate = p / MANIFEST_NAME
        if not candidate.exists():
            raise FileNotFoundError(f"no {MANIFEST_NAME} in {p}")
        return candidate
    if not p.exists():
        raise FileNotFoundError(str(p))
    return p
