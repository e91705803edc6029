import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from scalingfilter.corpus import (
    CorpusFingerprint,
    CorpusManifest,
    iter_shard,
    read_manifest_corpus,
    validate_record,
    write_corpus,
)
from scalingfilter.errors import EmptyTextError, EncodingError, InvalidIdError


def validate(record, shard="", line_no=0):
    """``validate_record`` of ``record`` read from its ``json.dumps`` line."""
    return validate_record(record, json.dumps(record).encode(), shard, line_no)


class TestValidateRecord:
    def test_ascii_byte_count(self, tmp_path):
        doc = validate({"id": "a", "text": "hello"})
        assert (doc.id, doc.line) == ("a", b'{"id": "a", "text": "hello"}')
        assert write_corpus([doc], tmp_path).total_bytes == 5

    @pytest.mark.parametrize("line", [b'{"text": "hi"}', b'{"text": "hi", "id": null}  ',
                                      b'{"id": "", "text": "hi"}\t'])
    def test_missing_id_synthesized_from_shard_and_line_and_added_to_the_line(self, line):
        doc = validate_record(json.loads(line), line, shard="data/s0.jsonl", line_no=7)
        assert doc.id == "s0:7"
        assert doc.line == line.rstrip()[:-1] + b', "id": "s0:7"}'
        assert json.loads(doc.line)["id"] == "s0:7"  # the last of repeated keys

    def test_whitespace_only_text_rejected(self):
        with pytest.raises(EmptyTextError) as exc:
            validate({"id": "b", "text": "   "})
        assert exc.value.code == "empty-text"

    def test_missing_text_rejected(self):
        with pytest.raises(EmptyTextError):
            validate({"id": "b"})

    def test_integer_id_becomes_its_decimal_string(self):
        assert validate({"id": 7, "text": "hi"}).id == "7"

    @pytest.mark.parametrize("bad_id", [True, False, 1e20, 7.0, [1, 2], {"a": 1}])
    def test_id_neither_string_nor_integer_rejected(self, bad_id):
        with pytest.raises(InvalidIdError) as exc:
            validate({"id": bad_id, "text": "hi"}, shard="s0.jsonl", line_no=3)
        assert (exc.value.code, exc.value.line_no) == ("invalid-id", 3)

    def test_multibyte_utf8_byte_count(self, tmp_path):
        doc = validate({"id": "c", "text": "héllo"})
        assert write_corpus([doc], tmp_path).total_bytes == 6

    # "\ud800" is a valid JSON escape, but a lone surrogate has no UTF-8 encoding
    @pytest.mark.parametrize("record", [
        {"id": "a", "text": "lone \ud800 surrogate"},
        {"id": "a\udfff", "text": "hi"},
        {"id": "a", "text": "hi", "source": "web\ud800"},
        {"id": "a", "text": "hi", "source": {"k\udc00": 1}},
        {"id": "a", "text": "hi", "source": ["\udc00"]},
    ])
    def test_field_without_utf8_encoding_rejected(self, record):
        with pytest.raises(EncodingError) as exc:
            validate(record, shard="s0.jsonl", line_no=4)
        assert (exc.value.code, exc.value.shard, exc.value.line_no) == ("encoding", "s0.jsonl", 4)


class TestReadShard:
    def test_two_shards_stream_in_file_then_line_order(self, tmp_path):
        synth.write_shard(tmp_path / "s0.jsonl", [{"id": f"a{i}", "text": f"t{i}"} for i in range(3)])
        synth.write_shard(tmp_path / "s1.jsonl", [{"id": f"b{i}", "text": f"u{i}"} for i in range(2)])
        CorpusManifest("c", ["s0.jsonl", "s1.jsonl"]).save(tmp_path / "manifest.json")
        docs = list(read_manifest_corpus(tmp_path / "manifest.json"))
        assert [d.id for d in docs] == ["a0", "a1", "a2", "b0", "b1"]

    def test_line_kept_without_its_terminator(self, tmp_path):
        shard = tmp_path / "s0.jsonl"
        lines = [b'{"id": "a", "text": "x"}', b' {"text": "y", "id": 2, "k": [1]} ', b'{"id": "c", "text": "z"}']
        shard.write_bytes(lines[0] + b"\r\n" + lines[1] + b"\n" + lines[2])
        assert [d.line for d in iter_shard(shard)] == lines

    def test_empty_text_reported_and_rest_yielded(self, tmp_path):
        shard = tmp_path / "s0.jsonl"
        synth.write_shard(shard, [{"id": "a", "text": "ok"}, {"id": "b", "text": ""}, {"id": "c", "text": "ok"}])
        errors = []
        docs = list(iter_shard(shard, on_error=errors.append))
        assert [d.id for d in docs] == ["a", "c"]
        assert len(errors) == 1
        assert errors[0].code == "empty-text"
        assert errors[0].line_no == 2

    @pytest.mark.parametrize("bad_char", ["\t", "\n", "\r"])
    def test_tsv_breaking_id_reported_and_rest_yielded(self, tmp_path, bad_char):
        shard = tmp_path / "s0.jsonl"
        ids = ["a", f"b{bad_char}c", "d"]
        synth.write_shard(shard, [{"id": doc_id, "text": "ok"} for doc_id in ids])
        errors = []
        docs = list(iter_shard(shard, on_error=errors.append))
        assert [d.id for d in docs] == ["a", "d"]
        assert [(type(e), e.code, e.line_no) for e in errors] == [(InvalidIdError, "invalid-id", 2)]

    def test_non_string_id_reported_and_rest_yielded(self, tmp_path):
        shard = tmp_path / "s0.jsonl"
        synth.write_shard(shard, [{"id": 1, "text": "ok"}, {"id": True, "text": "ok"}, {"id": [2], "text": "ok"},
                                  {"id": "d", "text": "ok"}])
        errors = []
        docs = list(iter_shard(shard, on_error=errors.append))
        assert [d.id for d in docs] == ["1", "d"]
        assert [(e.code, e.line_no) for e in errors] == [("invalid-id", 2), ("invalid-id", 3)]

    def test_error_without_handler_raises(self, tmp_path):
        shard = tmp_path / "s0.jsonl"
        synth.write_shard(shard, [{"id": "b", "text": " "}])
        with pytest.raises(EmptyTextError):
            list(iter_shard(shard))

    def test_every_line_is_doc_or_error(self, tmp_path):
        shard = tmp_path / "s0.jsonl"
        records = [{"id": f"d{i}", "text": "x" if i % 3 else ""} for i in range(30)]
        synth.write_shard(shard, records)
        errors = []
        docs = list(iter_shard(shard, on_error=errors.append))
        assert len(docs) + len(errors) == 30

    def test_malformed_json_reported_with_location(self, tmp_path):
        shard = tmp_path / "s0.jsonl"
        shard.write_text('{"id": "a", "text": "ok"}\nnot json\n', encoding="utf-8")
        errors = []
        docs = list(iter_shard(shard, on_error=errors.append))
        assert len(docs) == 1 and len(errors) == 1
        assert errors[0].line_no == 2
        assert str(shard) in errors[0].shard

    def test_non_utf8_line_reports_encoding_error(self, tmp_path):
        shard = tmp_path / "s0.jsonl"
        shard.write_bytes(b'{"id": "a", "text": "\xff\xfe"}\n')
        errors = []
        list(iter_shard(shard, on_error=errors.append))
        assert len(errors) == 1
        assert isinstance(errors[0], EncodingError)
        assert errors[0].code == "encoding"

    def test_lone_surrogate_escape_reports_encoding_error_and_rest_yielded(self, tmp_path):
        shard = tmp_path / "s0.jsonl"
        synth.write_shard(shard, [{"id": "a", "text": "ok"}, '{"id": "b", "text": "\\ud800"}',
                                  {"id": "c", "text": "ok"}])
        assert '"\\ud800"' in shard.read_text(encoding="utf-8")
        errors = []
        docs = list(iter_shard(shard, on_error=errors.append))
        assert [d.id for d in docs] == ["a", "c"]
        assert [(type(e), e.line_no) for e in errors] == [(EncodingError, 2)]

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            list(iter_shard(tmp_path / "missing.jsonl"))

    def test_large_shard_reread_identical(self, tmp_path):
        shard = tmp_path / "big.jsonl"
        synth.write_shard(shard, [{"id": f"d{i:05d}", "text": f"document body {i}"} for i in range(10000)])
        first = [(d.id, d.text) for d in iter_shard(shard)]
        second = [(d.id, d.text) for d in iter_shard(shard)]
        assert first == second
        assert len(first) == 10000


class TestWriteCorpus:
    def test_shard_sizes_and_counts(self, tmp_path):
        docs = [synth.document(f"d{i}", f"text {i}") for i in range(5)]
        manifest = write_corpus(docs, tmp_path / "out", shard_size=2)
        assert len(manifest.shard_paths) == 3
        assert manifest.doc_count == 5
        per_shard = [
            sum(1 for _ in open(tmp_path / "out" / p, encoding="utf-8"))
            for p in manifest.shard_paths
        ]
        assert per_shard == [2, 2, 1]

    def test_exact_multiple_writes_no_empty_shard(self, tmp_path):
        docs = [synth.document(f"d{i}", f"text {i}") for i in range(4)]
        manifest = write_corpus(docs, tmp_path / "out", shard_size=2)
        assert manifest.shard_paths == ["shard-00000.jsonl", "shard-00001.jsonl"]
        assert sorted(p.name for p in (tmp_path / "out").glob("*.jsonl")) == manifest.shard_paths
        per_shard = [len((tmp_path / "out" / p).read_text(encoding="utf-8").splitlines()) for p in manifest.shard_paths]
        assert per_shard == [2, 2]
        assert manifest.doc_count == 4

    def test_empty_input(self, tmp_path):
        manifest = write_corpus([], tmp_path / "out", shard_size=2)
        assert manifest.shard_paths == []
        assert manifest.doc_count == 0

    def test_total_bytes_counts_utf8_of_every_text(self, tmp_path):
        # é is two UTF-8 bytes: each "héllo" is 6 bytes, however the document was made
        manifest = write_corpus([synth.document("a", "héllo"), synth.document("b", "héllo")], tmp_path / "out")
        assert manifest.total_bytes == 12
        assert CorpusManifest.load(tmp_path / "out" / "manifest.json").total_bytes == 12

    def test_rewrite_identical_except_timestamp(self, tmp_path):
        docs = [synth.document(f"d{i}", f"text {i}") for i in range(10)]
        m1 = write_corpus(docs, tmp_path / "o1", shard_size=4, corpus_id="same")
        m2 = write_corpus(docs, tmp_path / "o2", shard_size=4, corpus_id="same")
        for p1, p2 in zip(m1.shard_paths, m2.shard_paths):
            assert (tmp_path / "o1" / p1).read_bytes() == (tmp_path / "o2" / p2).read_bytes()
        d1, d2 = m1.__dict__.copy(), m2.__dict__.copy()
        d1.pop("created_at"), d2.pop("created_at")
        assert d1 == d2

    def test_manifest_round_trip(self, tmp_path):
        docs = [synth.document(f"d{i}", f"text {i}", source="unit") for i in range(3)]
        manifest = write_corpus(docs, tmp_path / "out", shard_size=10)
        loaded = CorpusManifest.load(tmp_path / "out" / "manifest.json")
        assert loaded == manifest

    def test_duplicate_ids_rejected(self, tmp_path):
        docs = [synth.document("same", "one"), synth.document("same", "two")]
        with pytest.raises(ValueError):
            write_corpus(docs, tmp_path / "out")

    def test_doc_count_equals_sum_over_shards(self, tmp_path):
        docs = [synth.document(f"d{i}", "x") for i in range(23)]
        manifest = write_corpus(docs, tmp_path / "out", shard_size=7)
        total = sum(
            sum(1 for _ in open(tmp_path / "out" / p, encoding="utf-8"))
            for p in manifest.shard_paths
        )
        assert total == manifest.doc_count == 23


class TestManifestChecks:
    """A malformed manifest raises ValueError naming the file."""

    @staticmethod
    def manifest(tmp_path, edit):
        write_corpus([synth.document("a", "text")], tmp_path / "c")
        path = tmp_path / "c" / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))), encoding="utf-8")
        return path

    @pytest.mark.parametrize("key", ["corpus_id", "shard_paths", "doc_count", "total_bytes"])
    def test_missing_key_rejected(self, tmp_path, key):
        path = self.manifest(tmp_path, lambda m: {k: v for k, v in m.items() if k != key})
        with pytest.raises(ValueError, match=f"{path}: has no '{key}'"):
            CorpusManifest.load(path)

    @pytest.mark.parametrize("key, value", [("shard_paths", "shard-00000.jsonl"), ("doc_count", "1"),
                                            ("total_bytes", 4.0), ("doc_count", False), ("corpus_id", None)])
    def test_value_of_wrong_type_rejected(self, tmp_path, key, value):
        path = self.manifest(tmp_path, lambda m: {**m, key: value})
        with pytest.raises(ValueError, match=f"{path}: '{key}' is {type(value).__name__}, not"):
            CorpusManifest.load(path)

    def test_not_an_object_rejected(self, tmp_path):
        path = self.manifest(tmp_path, lambda m: [m])
        with pytest.raises(ValueError, match=f"{path}: expected a JSON object, got list"):
            CorpusManifest.load(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"corpus_id": ', encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}: not valid JSON"):
            CorpusManifest.load(path)

    @pytest.mark.parametrize("key, value, message", [
        ("shard_paths", [1, None], "'shard_paths' holds int, not str"),
        ("shard_paths", ["shard-00000.jsonl", None], "'shard_paths' holds NoneType, not str"),
        ("created_at", 5, "'created_at' is int, not str"),
        ("created_at", None, "'created_at' is NoneType, not str"),
    ])
    def test_value_that_is_not_a_string_rejected(self, tmp_path, key, value, message):
        path = self.manifest(tmp_path, lambda m: {**m, key: value})
        with pytest.raises(ValueError, match=f"{path}: {message}"):
            CorpusManifest.load(path)

    def test_without_timestamp_loads(self, tmp_path):
        path = self.manifest(tmp_path, lambda m: {k: v for k, v in m.items() if k != "created_at"})
        assert CorpusManifest.load(path).created_at == ""


doc_strategy = st.builds(
    synth.document,
    doc_id=st.uuids().map(str),
    text=st.text(min_size=1).filter(lambda t: t.strip()),
    source=st.one_of(st.none(), st.sampled_from(["web", "books", {"a": [1, None]}, True, 2.5, ["x"]])),
)


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(docs=st.lists(doc_strategy, min_size=0, max_size=20, unique_by=lambda d: d.id))
    def test_write_then_read_reproduces_sequence(self, tmp_path_factory, docs):
        out = tmp_path_factory.mktemp("rt")
        write_corpus(docs, out, shard_size=3)
        back = list(read_manifest_corpus(out / "manifest.json"))
        assert back == docs

    def test_fingerprint_sensitive_to_content_and_order(self):
        def fingerprint(docs):
            fp = CorpusFingerprint()
            assert list(fp.passthrough(docs)) == list(docs)
            return fp.hexdigest()

        a = [synth.document("x", "one"), synth.document("y", "two")]
        b = [synth.document("y", "two"), synth.document("x", "one")]
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(a) == fingerprint(list(a))
