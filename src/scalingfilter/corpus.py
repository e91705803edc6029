"""Sharded JSONL corpus ingestion and emission.

A corpus is a directory of JSONL shards plus a ``manifest.json``. Records
carry a required ``text`` field and optional ``id`` / ``source`` fields;
ids missing from the input are synthesized as ``<shard-basename>:<line>``
so downstream score caches stay joinable without a global registry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
    """One text record; the unit that gets scored and selected.

    Invariants: ``id`` unique within a corpus, ``text`` has at least one
    non-whitespace character.
    """

    id: str
    text: str
    source: Optional[str] = None


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
        return CorpusManifest(
            corpus_id=obj["corpus_id"],
            shard_paths=[str(p) for p in obj["shard_paths"]],
            doc_count=obj["doc_count"],
            total_bytes=obj["total_bytes"],
            created_at=str(obj.get("created_at", "")),
        )

    def resolved_shard_paths(self, manifest_path: str | Path) -> list[Path]:
        """Shard paths resolved relative to the manifest's directory."""
        base = Path(manifest_path).parent
        return [p if p.is_absolute() else base / p for p in map(Path, self.shard_paths)]


def validate_record(raw: dict, shard: str = "", line_no: int = 0) -> Document:
    """Turn one parsed JSONL record into a Document or raise a RecordError.

    A missing id is synthesized as ``<shard-basename>:<line-number>``. An
    integer id becomes its decimal string; an id that is neither a string
    nor an integer (a bool, float, list or object), or that contains a
    tab, CR or LF, is rejected.
    """
    text = raw.get("text")
    if not isinstance(text, str) or not text.strip():
        raise EmptyTextError("record has missing or whitespace-only text", shard=shard, line_no=line_no)
    doc_id = raw.get("id")
    if doc_id is None or doc_id == "":
        stem = Path(shard).name
        stem = stem[: -len(".jsonl")] if stem.endswith(".jsonl") else stem
        doc_id = f"{stem}:{line_no}"
    if isinstance(doc_id, int) and not isinstance(doc_id, bool):
        doc_id = str(doc_id)
    elif not isinstance(doc_id, str):
        raise InvalidIdError(f"id {doc_id!r} is not a string or an integer", shard=shard, line_no=line_no)
    if any(c in doc_id for c in "\t\n\r"):
        # every TSV artifact (scores, errors, cache, kept ids) is keyed by id
        raise InvalidIdError(f"id {doc_id!r} contains a tab or line break", shard=shard, line_no=line_no)
    source = raw.get("source")
    return Document(id=doc_id, text=text, source=str(source) if source is not None else None)


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
                yield validate_record(raw, shard=str(path), line_no=line_no)
            except RecordError as err:
                if on_error is None:
                    raise
                on_error(err)


def read_corpus(
    shard_paths: Sequence[str | Path],
    on_error: Optional[Callable[[RecordError], None]] = None,
) -> Iterator[Document]:
    """Stream documents in shard order, then line order within a shard."""
    for path in shard_paths:
        yield from iter_shard(path, on_error=on_error)


def read_manifest_corpus(
    manifest_path: str | Path,
    on_error: Optional[Callable[[RecordError], None]] = None,
) -> Iterator[Document]:
    manifest = CorpusManifest.load(manifest_path)
    return read_corpus(manifest.resolved_shard_paths(manifest_path), on_error=on_error)


def _doc_json(doc: Document) -> str:
    record = {"id": doc.id, "text": doc.text}
    if doc.source is not None:
        record["source"] = doc.source
    return json.dumps(record, ensure_ascii=False, sort_keys=True)


def write_corpus(
    docs: Iterable[Document],
    out_dir: str | Path,
    shard_size: int = 10000,
    corpus_id: Optional[str] = None,
) -> CorpusManifest:
    """Write numbered JSONL shards of at most ``shard_size`` docs plus a manifest.

    Output is byte-identical across re-runs on the same input (the manifest
    timestamp excepted).
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    shard_paths: list[str] = []
    seen_ids: set[str] = set()
    doc_count = 0
    total_bytes = 0
    shard_idx = 0
    fh = None
    in_shard = 0
    try:
        for doc in docs:
            if doc.id in seen_ids:
                raise ValueError(f"duplicate document id {doc.id!r}")
            seen_ids.add(doc.id)
            if fh is None or in_shard >= shard_size:
                if fh is not None:
                    fh.close()
                name = f"shard-{shard_idx:05d}.jsonl"
                shard_paths.append(name)
                fh = open(out_dir / name, "w", encoding="utf-8", newline="\n")
                shard_idx += 1
                in_shard = 0
            fh.write(_doc_json(doc) + "\n")
            in_shard += 1
            doc_count += 1
            total_bytes += len(doc.text.encode("utf-8"))
    finally:
        if fh is not None:
            fh.close()

    manifest = CorpusManifest(
        corpus_id=corpus_id or out_dir.name,
        shard_paths=sorted(shard_paths),
        doc_count=doc_count,
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
