import ast
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import synth
from oracles import LoopNGramModel
from procs import run_in_session
from scalingfilter import cli, diversity, embedding, remote, selection
from scalingfilter.cli import build_parser, main
from scalingfilter.corpus import (
    CorpusFingerprint,
    CorpusManifest,
    find_manifest,
    read_manifest_corpus,
    write_corpus,
    write_json,
)
from scalingfilter.ngram import train_pair
from scalingfilter.scoring import RemotePerplexityModel, read_score_file, score_corpus
from scalingfilter.seeding import derive_seed


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-corpus")
    docs = synth.chain_corpus(seed=41, n_docs=300, chain_seed=4)
    write_corpus(docs, root / "train", shard_size=128, corpus_id="train")
    return root / "train"


@pytest.fixture(scope="module")
def pair_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("cli-pair")
    rc = main([
        "train-meta", "--corpus", str(corpus_dir),
        "--small-order", "2", "--large-order", "4", "--out", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def score_dir(tmp_path_factory, corpus_dir, pair_dir):
    out = tmp_path_factory.mktemp("cli-score")
    rc = main([
        "score", "--corpus", str(corpus_dir), "--pair", str(pair_dir), "--out", str(out),
    ])
    assert rc == 0
    return out


def exit_code(argv):
    """main()'s exit code, also where argparse exits instead of returning."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def run_config(out):
    return json.loads((out / "run_config.json").read_text(encoding="utf-8"))


def write_config(path, config):
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


class TestTrainMeta:
    def test_pair_is_one_model_file(self, pair_dir):
        assert sorted(path.name for path in pair_dir.iterdir()) == ["large.sfngram", "pair.json", "run_config.json"]

    def test_pair_descriptor(self, pair_dir, corpus_dir):
        descriptor = json.loads((pair_dir / "pair.json").read_text(encoding="utf-8"))
        assert descriptor["small_order"] == 2
        assert descriptor["large_order"] == 4
        fingerprint = CorpusFingerprint()
        for _ in fingerprint.passthrough(read_manifest_corpus(corpus_dir / "manifest.json")):
            pass
        assert descriptor["train_corpus_id"] == fingerprint.hexdigest()

    def test_rerun_is_byte_identical(self, tmp_path, corpus_dir):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main([
                "train-meta", "--corpus", str(corpus_dir),
                "--small-order", "2", "--large-order", "3", "--out", str(out),
            ])
            assert rc == 0
            outs.append(out)
        for fname in ("large.sfngram", "pair.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_equal_orders_exit_2(self, tmp_path, corpus_dir):
        rc = main([
            "train-meta", "--corpus", str(corpus_dir),
            "--small-order", "3", "--large-order", "3", "--out", str(tmp_path / "bad"),
        ])
        assert rc == 2

    def test_missing_corpus_exit_2(self, tmp_path):
        rc = main([
            "train-meta", "--corpus", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2

    def test_order_above_limit_exit_2_reading_no_document(self, tmp_path, corpus_dir, monkeypatch):
        reads = []
        read = cli.corpus_io.read_manifest_corpus

        def counted(*args, **kwargs):
            for doc in read(*args, **kwargs):
                reads.append(doc.doc_id)
                yield doc

        monkeypatch.setattr(cli.corpus_io, "read_manifest_corpus", counted)
        rc = main([
            "train-meta", "--corpus", str(corpus_dir), "--large-order", "8", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert reads == []
        assert not (tmp_path / "o" / "pair.json").exists()

    def test_malformed_records_skipped_not_fatal(self, tmp_path, caplog):
        corpus = tmp_path / "dirty"
        corpus.mkdir()
        lines = [json.dumps({"id": f"d{i}", "text": f"usable text {i}"}) for i in range(20)]
        lines.insert(5, json.dumps({"id": "bad", "text": "  "}))
        (corpus / "shard-00000.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (corpus / "manifest.json").write_text(
            json.dumps({
                "corpus_id": "dirty", "shard_paths": ["shard-00000.jsonl"],
                "doc_count": 21, "total_bytes": 1, "created_at": "",
            }),
            encoding="utf-8",
        )
        pair_out = tmp_path / "pair"
        assert main([
            "train-meta", "--corpus", str(corpus), "--small-order", "2",
            "--large-order", "3", "--out", str(pair_out),
        ]) == 0
        score_out = tmp_path / "score"
        assert main([
            "score", "--corpus", str(corpus), "--pair", str(pair_out), "--out", str(score_out),
        ]) == 0
        summary = json.loads((score_out / "score_summary.json").read_text(encoding="utf-8"))
        assert summary["count"] == 20

    def test_lone_surrogate_record_skipped_by_train_meta_and_score(self, tmp_path, caplog):
        corpus = tmp_path / "surrogate"
        corpus.mkdir()
        texts = [f"usable text {i}" for i in range(5)]
        texts[2] = "a lone \ud800 surrogate"  # written as the JSON escape "\ud800"
        lines = [json.dumps({"id": f"d{i}", "text": text}) for i, text in enumerate(texts)]
        (corpus / "shard-00000.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (corpus / "manifest.json").write_text(json.dumps({
            "corpus_id": "surrogate", "shard_paths": ["shard-00000.jsonl"],
            "doc_count": 5, "total_bytes": 1, "created_at": "",
        }), encoding="utf-8")
        pair_out, score_out = tmp_path / "pair", tmp_path / "score"
        for argv in (["train-meta", "--small-order", "2", "--large-order", "3", "--out", str(pair_out)],
                     ["score", "--pair", str(pair_out), "--out", str(score_out)]):
            caplog.clear()
            assert main([*argv, "--corpus", str(corpus)]) == 0
            assert caplog.text.count("skipping record") == 1
            assert f"skipping record {corpus / 'shard-00000.jsonl'}:3 (encoding)" in caplog.text
        assert read_score_file(score_out / "scores.tsv")["doc_id"] == ["d0", "d1", "d3", "d4"]


class TestScore:
    def test_row_count_and_summary(self, score_dir):
        assert len(read_score_file(score_dir / "scores.tsv")["doc_id"]) == 300
        summary = json.loads((score_dir / "score_summary.json").read_text(encoding="utf-8"))
        assert summary["count"] == 300
        assert "quality_factor_quantiles" in summary

    def test_no_valid_document_writes_null_mean(self, tmp_path, pair_dir):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        (corpus / "shard-00000.jsonl").write_text('{"text": "   "}\nnot json\n', encoding="utf-8")
        (corpus / "manifest.json").write_text(
            json.dumps({
                "corpus_id": "empty", "shard_paths": ["shard-00000.jsonl"],
                "doc_count": 2, "total_bytes": 1, "created_at": "",
            }),
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["score", "--corpus", str(corpus), "--pair", str(pair_dir), "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        text = (out / "score_summary.json").read_text(encoding="utf-8")
        summary = json.loads(text, parse_constant=reject)
        assert summary["count"] == 0
        assert summary["mean_quality_factor"] is None

    def test_config_snapshot_written(self, score_dir):
        snapshot = json.loads((score_dir / "run_config.json").read_text(encoding="utf-8"))
        assert snapshot["command"] == "score"
        assert snapshot["workers"] == 1

    def test_snapshot_replay_reproduces_output(self, tmp_path, score_dir):
        out = tmp_path / "replay"
        rc = main([
            "score", "--corpus", json.loads((score_dir / "run_config.json").read_text())["corpus"],
            "--pair", json.loads((score_dir / "run_config.json").read_text())["pair"],
            "--config", str(score_dir / "run_config.json"), "--out", str(out),
        ])
        assert rc == 0
        assert (out / "scores.tsv").read_bytes() == (score_dir / "scores.tsv").read_bytes()

    def test_cache_resume_identical(self, tmp_path, corpus_dir, pair_dir):
        cache = tmp_path / "cache.tsv"
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        for out in (o1, o2):
            rc = main([
                "score", "--corpus", str(corpus_dir), "--pair", str(pair_dir),
                "--cache", str(cache), "--out", str(out),
            ])
            assert rc == 0
        assert (o1 / "scores.tsv").read_bytes() == (o2 / "scores.tsv").read_bytes()
        s2 = json.loads((o2 / "score_summary.json").read_text(encoding="utf-8"))
        assert s2["cache_hits"] == 300
        assert s2["endpoint_evaluations"] == 0

    def test_torn_cache_row_is_scored_again(self, tmp_path, corpus_dir, pair_dir, caplog):
        # a run killed inside the cache flush can leave its last row cut mid-number, still 7 fields
        cache = tmp_path / "cache.tsv"
        argv = ["score", "--corpus", str(corpus_dir), "--pair", str(pair_dir), "--cache", str(cache)]
        assert main([*argv, "--out", str(tmp_path / "cold")]) == 0
        rows = cache.read_text(encoding="utf-8").splitlines(keepends=True)
        last = rows[-1].rstrip("\n")
        torn = last[: last.rindex(".") + 3]
        assert len(torn.split("\t")) == 7 and float(torn.split("\t")[-1]) != float(last.split("\t")[-1])
        cache.write_text("".join(rows[:-1]) + torn, encoding="utf-8")

        assert main([*argv, "--out", str(tmp_path / "resumed")]) == 0
        assert "skipped 1 torn or malformed rows of the score cache" in caplog.text
        summary = json.loads((tmp_path / "resumed" / "score_summary.json").read_text(encoding="utf-8"))
        assert (summary["cache_hits"], summary["endpoint_evaluations"], summary["cache_rows_skipped"]) == (299, 1, 1)
        cold_scores = (tmp_path / "cold" / "scores.tsv").read_bytes()
        assert (tmp_path / "resumed" / "scores.tsv").read_bytes() == cold_scores
        assert sorted(cache.read_text(encoding="utf-8").splitlines(keepends=True)) == sorted(rows)

        assert main([*argv, "--out", str(tmp_path / "again")]) == 0
        summary = json.loads((tmp_path / "again" / "score_summary.json").read_text(encoding="utf-8"))
        assert (summary["cache_hits"], summary["endpoint_evaluations"], summary["cache_rows_skipped"]) == (300, 0, 0)
        assert (tmp_path / "again" / "scores.tsv").read_bytes() == cold_scores

    @pytest.mark.parametrize("field,value", [(5, "nan"), (6, "0"), (5, "-1"), (6, "inf")])
    def test_cache_row_with_unusable_perplexity_is_scored_again(self, tmp_path, corpus_dir, pair_dir, field, value):
        # such a row parses, but no run could have written it: its document is scored afresh
        cache = tmp_path / "cache.tsv"
        argv = ["score", "--corpus", str(corpus_dir), "--pair", str(pair_dir), "--cache", str(cache)]
        assert main([*argv, "--out", str(tmp_path / "cold")]) == 0
        rows = cache.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = rows[100].rstrip("\n").split("\t")
        fields[field] = value
        cache.write_text("".join(rows[:100] + ["\t".join(fields) + "\n"] + rows[101:]), encoding="utf-8")

        assert main([*argv, "--out", str(tmp_path / "resumed")]) == 0
        summary = json.loads((tmp_path / "resumed" / "score_summary.json").read_text(encoding="utf-8"))
        assert (summary["cache_hits"], summary["endpoint_evaluations"], summary["cache_rows_skipped"]) == (299, 1, 1)
        assert (tmp_path / "resumed" / "scores.tsv").read_bytes() == (tmp_path / "cold" / "scores.tsv").read_bytes()
        assert cache.read_text(encoding="utf-8").splitlines(keepends=True)[-1] == rows[100]

    def test_remote_endpoints(self, tmp_path, corpus_dir, make_service):
        small = make_service(perplexity_fn=lambda t: 3.0 * len(t))
        large = make_service(perplexity_fn=lambda t: float(len(t)))
        out = tmp_path / "remote"
        rc = main([
            "score", "--corpus", str(corpus_dir),
            "--remote-small", small.url, "--remote-large", large.url, "--out", str(out),
        ])
        assert rc == 0
        assert set(read_score_file(out / "scores.tsv")["quality_factor"]) == {3.0}

    def test_scorer_down_exit_3(self, tmp_path, corpus_dir, make_service, monkeypatch):
        monkeypatch.setattr(remote, "BACKOFF_S", 0.0)  # every batch fails: skip the retry pauses
        small = make_service(perplexity_fn=lambda t: 1.0)
        large = make_service(perplexity_fn=lambda t: 1.0)
        large.set_failing(True)
        out = tmp_path / "down"
        rc = main([
            "score", "--corpus", str(corpus_dir),
            "--remote-small", small.url, "--remote-large", large.url,
            "--timeout", "2", "--out", str(out),
        ])
        assert rc == 3

    @pytest.mark.parametrize("budget", ["-0.5", "1.5"])
    def test_error_budget_outside_unit_interval_exit_2(self, tmp_path, corpus_dir, pair_dir, caplog, budget):
        out = tmp_path / "budget"
        rc = main(["score", "--corpus", str(corpus_dir), "--pair", str(pair_dir),
                   "--error-budget", budget, "--out", str(out)])
        assert rc == 2
        assert "error_budget must be in [0, 1]" in caplog.text
        assert not (out / "scores.tsv").exists()

    @pytest.mark.parametrize("bad_id", ["bad\tid", "bad\nid", "bad\rid"])
    def test_tsv_breaking_id_skipped_through_filter(self, tmp_path, pair_dir, bad_id):
        docs = [synth.document(f"d{i:02d}", f"usable text number {i}") for i in range(20)]
        docs.insert(3, synth.document(bad_id, "usable text with a bad id"))
        corpus = tmp_path / "ids"
        write_corpus(docs, corpus, corpus_id="ids")
        score_out, filter_out = tmp_path / "score", tmp_path / "filter"
        assert main(["score", "--corpus", str(corpus), "--pair", str(pair_dir), "--out", str(score_out)]) == 0
        assert main([
            "filter", "--scores", str(score_out / "scores.tsv"), "--method", "topk",
            "--keep-rate", "1.0", "--corpus", str(corpus), "--out", str(filter_out),
        ]) == 0
        good_ids = [f"d{i:02d}" for i in range(20)]
        assert read_score_file(score_out / "scores.tsv")["doc_id"] == good_ids
        assert sorted((filter_out / "kept_ids.txt").read_text(encoding="utf-8").splitlines()) == good_ids

    def test_source_written_back_as_its_json_value(self, tmp_path, pair_dir):
        sources = [{"a": 1}, True, "web", None, [1, "x"], 2.5]
        corpus = tmp_path / "sources"
        write_corpus([synth.document(f"d{i}", f"usable text number {i}", source=source)
                      for i, source in enumerate(sources)], corpus)
        score_out, filter_out = tmp_path / "score", tmp_path / "filter"
        assert main(["score", "--corpus", str(corpus), "--pair", str(pair_dir), "--out", str(score_out)]) == 0
        assert main([
            "filter", "--scores", str(score_out / "scores.tsv"), "--method", "topk",
            "--keep-rate", "1.0", "--corpus", str(corpus), "--out", str(filter_out),
        ]) == 0
        records = [json.loads(line) for line in
                   (filter_out / "filtered" / "shard-00000.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [repr(r.get("source")) for r in records] == [repr(source) for source in sources]

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_workers_below_one_exit_2(self, tmp_path, corpus_dir, pair_dir, workers):
        argv = ["score", "--corpus", str(corpus_dir), "--pair", str(pair_dir)]
        assert exit_code([*argv, "--workers", workers, "--out", str(tmp_path / "flag")]) == 2
        config = write_config(tmp_path / "c.json", {"workers": workers})
        assert exit_code([*argv, "--config", config, "--out", str(tmp_path / "config")]) == 2
        assert not (tmp_path / "flag" / "scores.tsv").exists()
        assert not (tmp_path / "config" / "scores.tsv").exists()

    def test_non_numeric_workers_named_readably(self, tmp_path, corpus_dir, pair_dir, capsys):
        argv = ["score", "--corpus", str(corpus_dir), "--pair", str(pair_dir), "--workers", "two"]
        assert exit_code([*argv, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "argument --workers: expected a positive integer, got 'two'" in err
        assert "_positive_int" not in err

    def test_pair_and_remote_flags_conflict(self, tmp_path, corpus_dir, pair_dir):
        rc = main([
            "score", "--corpus", str(corpus_dir), "--pair", str(pair_dir),
            "--remote-small", "http://x", "--remote-large", "http://y",
            "--out", str(tmp_path / "c"),
        ])
        assert rc == 2

    def test_format_1_pair_exit_2_naming_version_1(self, tmp_path, corpus_dir, pair_dir, caplog):
        # the same pair as the earlier model file format wrote it
        old = tmp_path / "old-pair"
        old.mkdir()
        descriptor = json.loads((pair_dir / "pair.json").read_text(encoding="utf-8"))
        oracle = LoopNGramModel(descriptor["large_order"], descriptor["smoothing_k"])
        for doc in read_manifest_corpus(corpus_dir / "manifest.json"):
            oracle.add_document(doc.text)
        (old / descriptor["large_path"]).write_bytes(oracle.format_1_bytes())
        (old / "pair.json").write_text(json.dumps(descriptor), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["score", "--corpus", str(corpus_dir), "--pair", str(old), "--out", str(out)]) == 2
        assert "format version 1" in caplog.text and "run train-meta again" in caplog.text
        assert not (out / "scores.tsv").exists()

    def test_model_file_of_another_pair_exit_2_naming_both_fingerprints(self, tmp_path, corpus_dir, pair_dir,
                                                                          caplog):
        other = tmp_path / "other-pair"
        assert main(["train-meta", "--corpus", str(corpus_dir), "--small-order", "2", "--large-order", "4",
                     "--smoothing-k", "0.05", "--out", str(other)]) == 0
        mixed = tmp_path / "mixed-pair"
        mixed.mkdir()
        for path in pair_dir.iterdir():
            (mixed / path.name).write_bytes(path.read_bytes())
        (mixed / "large.sfngram").write_bytes((other / "large.sfngram").read_bytes())
        recorded, found = (json.loads((d / "pair.json").read_text(encoding="utf-8"))["large_fingerprint"]
                           for d in (pair_dir, other))
        assert recorded != found
        out = tmp_path / "o"
        assert main(["score", "--corpus", str(corpus_dir), "--pair", str(mixed), "--out", str(out)]) == 2
        assert f"{mixed / 'pair.json'} records large_fingerprint {recorded}" in caplog.text
        assert f"{mixed / 'large.sfngram'} has fingerprint {found}" in caplog.text
        assert not (out / "scores.tsv").exists()

    @staticmethod
    def edited_pair(tmp_path, pair_dir, name, edit):
        """A copy of the pair whose file ``name`` has its JSON (the header line of a model) edited."""
        out = tmp_path / "edited-pair"
        out.mkdir()
        for path in pair_dir.iterdir():
            (out / path.name).write_bytes(path.read_bytes())
        path = out / name
        if name == "pair.json":
            path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))), encoding="utf-8")
        else:
            magic, line, body = path.read_bytes().split(b"\n", 2)
            path.write_bytes(b"\n".join([magic, json.dumps(edit(json.loads(line))).encode("utf-8"), body]))
        return out, path

    @pytest.mark.parametrize("name, edit, message", [
        ("large.sfngram", lambda h: {k: v for k, v in h.items() if k != "n_keys"}, "has no 'n_keys'"),
        ("large.sfngram", lambda h: [h], "expected a JSON object, got list"),
        ("pair.json", lambda d: {k: v for k, v in d.items() if k != "small_order"}, "has no 'small_order'"),
        ("pair.json", lambda d: {**d, "large_path": 3}, "'large_path' is int, not str"),
        ("pair.json", lambda d: {k: v for k, v in d.items() if k != "large_fingerprint"}, "has no 'large_fingerprint'"),
        ("pair.json", lambda d: {**d, "small_order": 4}, "small_order 4 is not from 1 to 3"),
        ("pair.json", lambda d: {**d, "small_order": 0}, "small_order 0 is not from 1 to 3"),
    ])
    def test_malformed_pair_exit_2_naming_the_file(self, tmp_path, corpus_dir, pair_dir, caplog,
                                                    name, edit, message):
        pair, path = self.edited_pair(tmp_path, pair_dir, name, edit)
        out = tmp_path / "o"
        assert main(["score", "--corpus", str(corpus_dir), "--pair", str(pair), "--out", str(out)]) == 2
        assert f"{path}: " in caplog.text and message in caplog.text
        assert not (out / "scores.tsv").exists()

    def test_pair_in_two_file_layout_scores_identically_from_one_cache(self, tmp_path, corpus_dir, pair_dir,
                                                                         score_dir):
        # the layout of earlier versions: the small model's file too, and its path and fingerprint
        old = tmp_path / "old-pair"
        old.mkdir()
        for path in pair_dir.iterdir():
            (old / path.name).write_bytes(path.read_bytes())
        small = train_pair(read_manifest_corpus(corpus_dir / "manifest.json"), 2, 4).small.to_bytes()
        (old / "small.sfngram").write_bytes(small)
        small_fingerprint = hashlib.blake2b(small, digest_size=8).hexdigest()
        descriptor = json.loads((pair_dir / "pair.json").read_text(encoding="utf-8"))
        write_json(old / "pair.json", {**descriptor, "small_path": "small.sfngram",
                                       "small_fingerprint": small_fingerprint})
        cache = tmp_path / "cache.tsv"
        for pair, out in ((old, tmp_path / "old"), (pair_dir, tmp_path / "new")):
            assert main(["score", "--corpus", str(corpus_dir), "--pair", str(pair), "--cache", str(cache),
                         "--out", str(out)]) == 0
            assert (out / "scores.tsv").read_bytes() == (score_dir / "scores.tsv").read_bytes()
        rows = cache.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 300 and {row.split("\t")[2] for row in rows} == {small_fingerprint}
        assert json.loads((tmp_path / "new" / "score_summary.json").read_text(encoding="utf-8"))["cache_hits"] == 300

    def test_worker_that_dies_fails_the_run(self, tmp_path, corpus_dir, pair_dir):
        # the large model kills the forked worker that scores the last, short batch
        program = """
import os, signal, sys
from scalingfilter import ngram
from scalingfilter.cli import main

parent, perplexities = os.getpid(), ngram.NGramModel.perplexities

def dying(self, texts):
    if os.getpid() != parent and self.order == 4 and len(texts) < 32:
        os.kill(os.getpid(), signal.SIGKILL)
    return perplexities(self, texts)

ngram.NGramModel.perplexities = dying
sys.exit(main(sys.argv[1:]))
"""
        out = tmp_path / "o"
        code, err, left = run_in_session(["-c", program, "score", "--corpus", str(corpus_dir), "--pair",
                                           str(pair_dir), "--workers", "2", "--out", str(out)], 60)
        assert code == 1, err
        assert "worker-died" in err
        assert not left
        assert not (out / "scores.tsv").exists()

    def test_inputs_not_mutated(self, corpus_dir, pair_dir, score_dir):
        # the score run above must leave corpus and pair untouched
        manifest = json.loads((corpus_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["doc_count"] == 300


class TestFilter:
    def test_topk_keeps_ceiling(self, tmp_path, score_dir):
        out = tmp_path / "topk"
        rc = main([
            "filter", "--scores", str(score_dir / "scores.tsv"),
            "--method", "topk", "--keep-rate", "0.7", "--out", str(out),
        ])
        assert rc == 0
        kept = (out / "kept_ids.txt").read_text(encoding="utf-8").splitlines()
        assert len(kept) == math.ceil(0.7 * 300)
        audit = json.loads((out / "audit.json").read_text(encoding="utf-8"))
        assert audit["kept"] == 210 and audit["input"] == 300

    def test_gate_keeps_middle_seventy(self, tmp_path, score_dir):
        out = tmp_path / "gate"
        rc = main([
            "filter", "--scores", str(score_dir / "scores.tsv"),
            "--method", "gate", "--lo", "15", "--hi", "85", "--out", str(out),
        ])
        assert rc == 0
        audit = json.loads((out / "audit.json").read_text(encoding="utf-8"))
        assert abs(audit["kept"] / 300 - 0.7) <= 1 / 300 + 1e-12

    def test_temperature_tiny_tau_equals_topk(self, tmp_path, score_dir):
        out_t = tmp_path / "temp"
        out_k = tmp_path / "k"
        main([
            "filter", "--scores", str(score_dir / "scores.tsv"),
            "--method", "temperature", "--tau", "1e-9", "--seed", "7",
            "--keep-rate", "0.7", "--out", str(out_t),
        ])
        main([
            "filter", "--scores", str(score_dir / "scores.tsv"),
            "--method", "topk", "--keep-rate", "0.7", "--out", str(out_k),
        ])
        kept_t = set((out_t / "kept_ids.txt").read_text(encoding="utf-8").splitlines())
        kept_k = set((out_k / "kept_ids.txt").read_text(encoding="utf-8").splitlines())
        assert kept_t == kept_k

    def test_materializes_filtered_corpus(self, tmp_path, score_dir, corpus_dir):
        out = tmp_path / "mat"
        rc = main([
            "filter", "--scores", str(score_dir / "scores.tsv"),
            "--method", "topk", "--keep-rate", "0.5",
            "--corpus", str(corpus_dir), "--out", str(out),
        ])
        assert rc == 0
        manifest = json.loads((out / "filtered" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["doc_count"] == 150

    def test_kept_id_missing_from_corpus_exit_1_without_manifest(self, tmp_path, score_dir, corpus_dir):
        scores = tmp_path / "scores.tsv"
        scores.write_text((score_dir / "scores.tsv").read_text(encoding="utf-8") + "ghost\t9\t4.0\t2.0\t2.0\n",
                          encoding="utf-8")
        out = tmp_path / "ghost"
        assert main(["filter", "--scores", str(scores), "--method", "topk", "--keep-rate", "1.0",
                     "--corpus", str(corpus_dir), "--out", str(out)]) == 1
        assert not (out / "filtered" / "manifest.json").exists()

    def test_synthesized_ids_survive_filter_and_rescoring(self, tmp_path, pair_dir):
        corpus = tmp_path / "ids"
        corpus.mkdir()
        records = [{"id": "a", "text": "usable text one"}, {"text": "usable text two"},
                   {"id": None, "text": "usable text three"}, {"text": "usable text four", "id": ""}]
        synth.write_shard(corpus / "s0.jsonl", records)
        CorpusManifest("ids", ["s0.jsonl"]).save(corpus / "manifest.json")
        score, filtered, rescore = tmp_path / "score", tmp_path / "filter", tmp_path / "rescore"
        assert main(["score", "--corpus", str(corpus), "--pair", str(pair_dir), "--out", str(score)]) == 0
        assert main(["filter", "--scores", str(score / "scores.tsv"), "--method", "topk", "--keep-rate", "1.0",
                     "--corpus", str(corpus), "--out", str(filtered)]) == 0
        assert main(["score", "--corpus", str(filtered / "filtered"), "--pair", str(pair_dir),
                     "--out", str(rescore)]) == 0
        assert read_score_file(score / "scores.tsv")["doc_id"] == ["a", "s0:2", "s0:3", "s0:4"]
        assert (rescore / "scores.tsv").read_bytes() == (score / "scores.tsv").read_bytes()
        lines = (filtered / "filtered" / "shard-00000.jsonl").read_bytes().splitlines()
        assert lines == [synth.jsonl(records[0])] + [synth.jsonl(r)[:-1] + b', "id": "s0:%d"}' % i
                                                     for i, r in enumerate(records[1:], start=2)]

    def test_filtered_shards_of_a_fixed_corpus_are_pinned(self, tmp_path):
        """Records read from lines in the form ``json.dumps(record, ensure_ascii=False, sort_keys=True)``
        writes are filtered to the same bytes as when each kept record was re-encoded in that form."""
        corpus = tmp_path / "fixed"
        corpus.mkdir()
        texts = ["plain ascii text", "café crème", "日本語のテキスト", 'a "quoted" word', "back\\slash",
                 "tab\there", "line\nbreak", "emoji 🙂 text", "u2028 sep", "zero width​"]
        sources = ["web", {"lang": "fr", "score": 0.5}, None, [1, "x"], True, 2.5, None, "books", {"a": []}, None]
        records = [{"id": f"r{i:02d}", "text": text, **({"source": src} if src is not None else {})}
                   for i, (text, src) in enumerate(zip(texts, sources))]
        synth.write_shard(corpus / "s0.jsonl", records[:4] + ["not json"])
        synth.write_shard(corpus / "s1.jsonl", records[4:])
        CorpusManifest("fixed", ["s0.jsonl", "s1.jsonl"]).save(corpus / "manifest.json")
        scores = tmp_path / "scores.tsv"
        scores.write_text("doc_id\tn_tokens\tppl_small\tppl_large\tquality_factor\n" + "".join(
            f"r{i:02d}\t10\t{2 + (i * 7) % 10}\t2\t{(2 + (i * 7) % 10) / 2}\n" for i in range(10)), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["filter", "--scores", str(scores), "--method", "topk", "--keep-rate", "0.6", "--shard-size", "4",
                     "--corpus", str(corpus), "--out", str(out)]) == 0
        shards = sorted((out / "filtered").glob("*.jsonl"))
        assert [p.name for p in shards] == ["shard-00000.jsonl", "shard-00001.jsonl"]
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in shards)).hexdigest()
        assert digest == "aec054e5a6ba14e6a5d1b339c866855c6559e814bad6c4626935a85667d5adb7"

    @pytest.mark.parametrize("shard_size", ["0", "-2"])
    def test_non_positive_shard_size_exit_2_before_writing(self, tmp_path, score_dir, corpus_dir, shard_size):
        argv = ["filter", "--scores", str(score_dir / "scores.tsv"), "--method", "topk",
                "--corpus", str(corpus_dir)]
        assert exit_code([*argv, "--shard-size", shard_size, "--out", str(tmp_path / "flag")]) == 2
        config = write_config(tmp_path / "c.json", {"shard_size": shard_size})
        assert exit_code([*argv, "--config", config, "--out", str(tmp_path / "config")]) == 2
        assert not (tmp_path / "flag" / "kept_ids.txt").exists()
        assert not (tmp_path / "config" / "kept_ids.txt").exists()

    @pytest.mark.parametrize("content", ["", "doc_id\tscore\n"])
    def test_empty_classifier_file_exit_2(self, tmp_path, content):
        table = tmp_path / "cls.tsv"
        table.write_text(content, encoding="utf-8")
        rc = main([
            "filter", "--method", "pareto", "--classifier-scores", str(table),
            "--out", str(tmp_path / "pareto"),
        ])
        assert rc == 2

    def test_pareto_from_classifier_tsv(self, tmp_path):
        table = tmp_path / "cls.tsv"
        table.write_text(
            "doc_id\tscore\n" + "".join(f"d{i:03d}\t1.0\n" for i in range(50)), encoding="utf-8"
        )
        out = tmp_path / "pareto"
        rc = main([
            "filter", "--method", "pareto",
            "--classifier-scores", str(table), "--out", str(out),
        ])
        assert rc == 0
        kept = (out / "kept_ids.txt").read_text(encoding="utf-8").splitlines()
        assert len(kept) == 50

    def test_first_document_with_the_id_doc_id_is_kept(self, tmp_path):
        # a first line with a numeric score is a row, not the optional header
        table = tmp_path / "cls.tsv"
        table.write_text("doc_id\t1.0\nb\t1.0\n", encoding="utf-8")
        out = tmp_path / "pareto"
        assert main(["filter", "--method", "pareto", "--classifier-scores", str(table), "--out", str(out)]) == 0
        assert (out / "kept_ids.txt").read_text(encoding="utf-8") == "doc_id\nb\n"

    def test_temperature_without_tau_exit_2(self, tmp_path, score_dir):
        rc = main([
            "filter", "--scores", str(score_dir / "scores.tsv"),
            "--method", "temperature", "--out", str(tmp_path / "no-tau"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("flags,key", [
        (["--method", "topk", "--keep-rate", "inf"], "keep_rate"),
        (["--method", "topk", "--keep-rate", "nan"], "keep_rate"),
        (["--method", "temperature", "--tau", "nan"], "tau"),
        (["--method", "temperature", "--tau", "-inf"], "tau"),
        (["--method", "gate", "--lo", "nan"], "lo_pct"),
        (["--method", "gate", "--hi", "inf"], "hi_pct"),
        (["--method", "pareto", "--pareto-alpha", "nan"], "pareto_alpha"),
    ])
    def test_non_finite_float_exit_2(self, tmp_path, score_dir, flags, key):
        table = tmp_path / "cls.tsv"
        table.write_text("a\t0.5\n", encoding="utf-8")
        inputs = ["--scores", str(score_dir / "scores.tsv"), "--classifier-scores", str(table)]
        assert exit_code(["filter", *inputs, *flags, "--out", str(tmp_path / "flag")]) == 2
        config = write_config(tmp_path / "c.json", {key: float(flags[-1])})
        argv = ["filter", *inputs, *flags[:2], "--config", config, "--out", str(tmp_path / "config")]
        assert exit_code(argv) == 2
        assert not (tmp_path / "flag" / "audit.json").exists()
        assert not (tmp_path / "config" / "audit.json").exists()

    def test_non_numeric_float_named_readably(self, tmp_path, score_dir, capsys):
        argv = ["filter", "--scores", str(score_dir / "scores.tsv"), "--method", "topk"]
        assert exit_code([*argv, "--keep-rate", "abc", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "argument --keep-rate: expected a finite number, got 'abc'" in err
        assert "_finite_float" not in err

    @pytest.mark.parametrize("flags", [
        ["--method", "topk", "--keep-rate", "1.5"],
        ["--method", "temperature", "--tau", "0"],
        ["--method", "temperature", "--tau", "5e-324"],
        ["--method", "gate", "--lo", "60", "--hi", "40"],
    ])
    def test_out_of_range_parameter_exit_2(self, tmp_path, score_dir, flags):
        out = tmp_path / "o"
        assert main(["filter", "--scores", str(score_dir / "scores.tsv"), *flags, "--out", str(out)]) == 2
        assert not (out / "audit.json").exists()

    def test_malformed_classifier_row_exit_2(self, tmp_path, caplog):
        table = tmp_path / "cls.tsv"
        table.write_text("doc_id\tscore\na\t0.5\n\nb\t0.5\n", encoding="utf-8")
        rc = main(["filter", "--method", "pareto", "--classifier-scores", str(table),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{table}:3:" in caplog.text

    def test_non_finite_score_row_exit_2(self, tmp_path, score_dir, caplog):
        # a NaN quality factor used to be kept first by top-k
        rows = (score_dir / "scores.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        doc_id, n_tok, ppl_s, ppl_l, _ = rows[2].rstrip("\n").split("\t")
        rows[2] = "\t".join([doc_id, n_tok, ppl_s, ppl_l, "nan"]) + "\n"
        scores = tmp_path / "scores.tsv"
        scores.write_text("".join(rows), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["filter", "--scores", str(scores), "--method", "topk", "--out", str(out)]) == 2
        assert f"{scores}:3:" in caplog.text
        assert not (out / "kept_ids.txt").exists()

    def test_repeated_score_row_exit_2(self, tmp_path, caplog):
        scores = tmp_path / "scores.tsv"
        scores.write_text("doc_id\tn_tokens\tppl_small\tppl_large\tquality_factor\n"
                          "a\t3\t8\t4\t2\na\t3\t8\t4\t2\nb\t5\t1.5\t3\t0.5\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["filter", "--scores", str(scores), "--method", "topk", "--out", str(out)]) == 2
        assert f"{scores}:3: duplicate doc_id 'a'" in caplog.text
        assert not (out / "kept_ids.txt").exists()

    def test_topk_without_scores_exit_2(self, tmp_path):
        rc = main(["filter", "--method", "topk", "--out", str(tmp_path / "no-scores")])
        assert rc == 2

    # sha256 of kept_ids.txt and audit.json, as filter wrote them when a score row was a QualityScore
    PINNED = {
        "topk": (["--method", "topk"],
                 "e67600e5ba33344b1e4ec18bd08b0189635bbf9ed5bd7137f1a037fbfcef369e",
                 "47ae1d4935f538651cf7903ccae4d2e9e53a1b9c20fe1c5af4d6ff3f0c83d71a"),
        "temperature": (["--method", "temperature", "--tau", "0.5", "--seed", "3"],
                        "c8c5ae780b99850e83f0ccb1680c74c522e47e2289345628ff4b6fd695a1efe3",
                        "8b739b7bb995be361c0589a2663a2971ffa3be9c8b46b19e557919e0b0222031"),
        "gate": (["--method", "gate", "--lo", "10", "--hi", "80"],
                 "4da46f3c9495d51e388323d25c964977564a2b23530cb49fcc67978f73fdb36f",
                 "e7c0ecb0b042f12d6460eed1c349368e61c3c7916e87678a44593c39eb0cadbb"),
        "pareto": (["--method", "pareto", "--pareto-alpha", "4", "--seed", "3"],
                   "ade12b4830eda6957cdb969406ef1360121c7b2d3670377d3a17d47942608936",
                   "0ff706017337b594e9a94fe05eb676a22caee700e137cbb4e5efd57b564cc37c"),
    }

    @pytest.mark.parametrize("method", sorted(PINNED))
    def test_output_bytes_pinned(self, tmp_path, method):
        # 200 rows with repeated values: ties in d, in ppl_large and in the classifier score
        rows = [(f"d{i:03d}", 1 + i % 50, 1 + (i * 37 % 101) / 8, 2 + (i * 53 % 89) / 16) for i in range(200)]
        scores = tmp_path / "scores.tsv"
        scores.write_text("doc_id\tn_tokens\tppl_small\tppl_large\tquality_factor\n" + "".join(
            f"{doc_id}\t{n}\t{s!r}\t{l!r}\t{s / l!r}\n" for doc_id, n, s, l in rows), encoding="utf-8")
        table = tmp_path / "cls.tsv"
        table.write_text("doc_id\tscore\n" + "".join(f"{doc_id}\t{i * 29 % 100 / 100!r}\n"
                                                      for i, (doc_id, *_) in enumerate(rows)), encoding="utf-8")
        flags, kept_digest, audit_digest = self.PINNED[method]
        out = tmp_path / method
        assert main(["filter", "--scores", str(scores), "--classifier-scores", str(table), *flags,
                     "--out", str(out)]) == 0
        digest = lambda name: hashlib.sha256((out / name).read_bytes()).hexdigest()  # noqa: E731
        assert (digest("kept_ids.txt"), digest("audit.json")) == (kept_digest, audit_digest)


class TestDiversity:
    def test_single_corpus_report(self, tmp_path, corpus_dir):
        out = tmp_path / "div"
        rc = main([
            "diversity", "--corpus", str(corpus_dir),
            "--n", "50", "--repeats", "4", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "diversity.json").read_text(encoding="utf-8"))
        assert len(report["values"]) == 4
        assert report["sample_size"] == 50

    def test_mix_curve(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("mix")
        for i, alphabet in enumerate(["abcdefgh", "ijklmnop", "qrstuvwx"]):
            docs = synth.cluster_corpus(seed=80 + i, alphabet=alphabet, tag=f"c{i}", n_docs=120)
            write_corpus(docs, root / f"c{i}", shard_size=60, corpus_id=f"c{i}")
        out = root / "out"
        rc = main([
            "diversity", "--mix", str(root / "c0"), str(root / "c1"), str(root / "c2"),
            "--n", "30", "--repeats", "2", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "diversity.json").read_text(encoding="utf-8"))
        assert report["kind"] == "dataset-mix"
        assert [row["n_datasets"] for row in report["curve"]] == [1, 2, 3]

    @pytest.mark.parametrize("form", ["--corpus", "--mix"])
    def test_file_is_the_builders_object(self, tmp_path, form):
        # the command reads the corpora and draws with the diversity seed; the builder makes the whole object
        paths = []
        for i, alphabet in enumerate(["abcdefgh", "ijklmnop", "qrstuvwx"]):
            docs = synth.cluster_corpus(seed=90 + i, alphabet=alphabet, tag=f"c{i}", n_docs=80)
            write_corpus(docs, tmp_path / f"c{i}", shard_size=40, corpus_id=f"c{i}")
            paths.append(str(tmp_path / f"c{i}"))
        args = ["--corpus", paths[0]] if form == "--corpus" else ["--mix", *paths]
        assert main(["diversity", *args, "--n", "30", "--repeats", "3", "--dim", "16", "--seed", "5",
                     "--out", str(tmp_path / "cli")]) == 0

        provider = embedding.HashedProjectionEmbedder(dim=16, seed=derive_seed(5, "embedder"))
        corpora = [[doc.text for doc in read_manifest_corpus(find_manifest(path))] for path in paths]
        seed = derive_seed(5, "diversity")
        if form == "--corpus":
            want = diversity.subsample_diversity(corpora[0], provider, n=30, repeats=3, seed=seed, corpus_id="c0")
        else:
            want = diversity.dataset_mix_experiment(corpora, provider, n=30, repeats=3, seed=seed, names=paths)
        write_json(tmp_path / "want.json", want)
        assert (tmp_path / "cli" / "diversity.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_command_on_forked_workers_matches_one_worker(self, tmp_path, monkeypatch):
        # ~600 KB of text: at least two embedding chunks, so the command may fork one worker per CPU
        corpus = tmp_path / "big"
        docs = synth.chain_corpus(seed=43, n_docs=1500, chain_seed=4, words_lo=60, words_hi=100)
        write_corpus(docs, corpus, shard_size=500, corpus_id="big")
        assert sum(len(d.text.encode("utf-8")) for d in docs) > 2 * embedding._CHUNK_BYTES
        args = ["diversity", "--corpus", str(corpus), "--n", "1500", "--repeats", "2"]

        code, err, left = run_in_session(["-m", "scalingfilter.cli", *args, "--out", str(tmp_path / "cli")], 120)
        assert code == 0, err
        assert not left, "the diversity command left a process running"

        monkeypatch.setattr(embedding, "_cpu_count", lambda: 1)
        assert main([*args, "--out", str(tmp_path / "serial")]) == 0
        assert ((tmp_path / "cli" / "diversity.json").read_bytes()
                == (tmp_path / "serial" / "diversity.json").read_bytes())

    def test_corpus_with_mix_exit_2(self, tmp_path, corpus_dir):
        out = tmp_path / "both"
        assert main([
            "diversity", "--corpus", str(corpus_dir), "--mix", str(corpus_dir), str(corpus_dir),
            "--n", "30", "--repeats", "2", "--out", str(out),
        ]) == 2
        assert not (out / "diversity.json").exists()

    def test_corpus_too_small_exit_1(self, tmp_path, corpus_dir):
        rc = main([
            "diversity", "--corpus", str(corpus_dir),
            "--n", "100000", "--repeats", "2", "--out", str(tmp_path / "big"),
        ])
        assert rc == 1

    @pytest.mark.parametrize("flag,key", [("--n", "n"), ("--repeats", "repeats")])
    def test_non_positive_sample_count_exit_2_before_reading(self, tmp_path, corpus_dir, monkeypatch, flag, key):
        def unread(*args, **kwargs):
            raise AssertionError("a corpus was read")

        monkeypatch.setattr(cli.corpus_io, "read_manifest_corpus", unread)
        mix = ["--mix", str(corpus_dir), str(corpus_dir)]
        assert exit_code(["diversity", *mix, flag, "0", "--out", str(tmp_path / "flag")]) == 2
        config = write_config(tmp_path / "c.json", {key: 0})
        assert exit_code(["diversity", *mix, "--config", config, "--out", str(tmp_path / "config")]) == 2

    def test_non_finite_remote_embedding_exit_3(self, tmp_path, corpus_dir, make_service):
        svc = make_service(embed_fn=lambda texts: ([[float("nan"), 1.0]] * len(texts), True))
        rc = main([
            "diversity", "--corpus", str(corpus_dir), "--embedder", "remote", "--remote-url", svc.url,
            "--n", "20", "--repeats", "2", "--out", str(tmp_path / "nan"),
        ])
        assert rc == cli.EXIT_BUDGET
        assert not (tmp_path / "nan" / "diversity.json").exists()


class TestVerifyScaling:
    def test_defaults_pass(self, tmp_path):
        out = tmp_path / "verify"
        rc = main(["verify-scaling", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
        assert report["passed"]

    def test_tiny_np_exit_4(self, tmp_path):
        rc = main([
            "verify-scaling", "--n-small", "2", "--out", str(tmp_path / "tiny"),
        ])
        assert rc == 4

    @pytest.mark.parametrize("flag", ["--n-small", "--n-large"])
    def test_zero_model_size_exit_2_invalid_secant(self, tmp_path, caplog, flag):
        rc = main(["verify-scaling", flag, "0", "--out", str(tmp_path / "zero")])
        assert rc == 2
        assert "invalid-secant" in caplog.text and "0 < N_p < N_q" in caplog.text
        assert not (tmp_path / "zero" / "verify_report.json").exists()

    def test_zero_A_ends_with_a_verdict(self, tmp_path):
        # dL/dN and d2L/(da dN) are exactly 0 when A = 0: their checks compare absolute errors
        out = tmp_path / "flat"
        rc = main(["verify-scaling", "--loss-A", "0", "--out", str(out)])
        assert rc in (0, 4)
        report = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
        assert report["passed"] == (rc == 0)
        assert report["checks"]["finite_difference_agreement"]
        assert report["checks"]["secant_tangent_convergence"]

    @pytest.mark.parametrize("args, rc, digest", [
        ([], 0, "bba2d6557066703d1d9bc78686f4a490366d5df75e5b6a185e47ea976a55281c"),
        (["--loss-A", "0"], 4, "cb46f78b64612953228e566344b19f8c37ed1bb97e7043bae615a70cf79a030b"),
    ], ids=["defaults", "zero-A"])
    def test_report_bytes_are_frozen(self, tmp_path, args, rc, digest):
        # sha256 of verify_report.json as the (alpha, beta) and (a, eta) forms of the loss both wrote it
        out = tmp_path / "verify"
        assert main(["verify-scaling", *args, "--out", str(out)]) == rc
        assert hashlib.sha256((out / "verify_report.json").read_bytes()).hexdigest() == digest

    def test_quality_factor_overflow_exit_1_numeric_range(self, tmp_path, caplog):
        # with A = 1e5 the loss gap of the secant is over 1024 bits, so 2^gap is beyond a float
        out = tmp_path / "huge"
        assert main(["verify-scaling", "--loss-A", "1e5", "--out", str(out)]) == 1
        assert "numeric-range" in caplog.text and "overflows" in caplog.text
        assert not (out / "verify_report.json").exists()

    @pytest.mark.parametrize("eta", ["-40", "-1", "0"])
    def test_nonpositive_eta_exit_2_invalid_exponent(self, tmp_path, caplog, eta):
        out = tmp_path / "eta"
        assert main(["verify-scaling", "--eta", eta, "--out", str(out)]) == 2
        assert "invalid-exponent" in caplog.text and f"eta = {float(eta)} must be > 0" in caplog.text
        assert not (out / "verify_report.json").exists()

    def test_loss_overflow_to_inf_exit_1_numeric_range(self, tmp_path, caplog):
        # E + B/D^beta at D = 1 is 1.7e308 + 1.79e308, beyond a float
        out = tmp_path / "inf"
        argv = ["--loss-E", "1.7e308", "--loss-A", "1.7e308", "--loss-B", "1.79e308", "--tokens", "1"]
        assert main(["verify-scaling", *argv, "--out", str(out)]) == 1
        assert "numeric-range" in caplog.text and "L = inf is not finite" in caplog.text
        assert not (out / "verify_report.json").exists()

    def test_derivative_overflow_exit_1_numeric_range(self, tmp_path, caplog):
        # N^((a-1)*eta - 1) at N = 1e-300 and eta = 5 is about e^3800, beyond a float
        out = tmp_path / "tiny-n"
        assert main(["verify-scaling", "--n-small", "1e-300", "--eta", "5", "--out", str(out)]) == 1
        assert "numeric-range" in caplog.text and "N^((a-1)*eta - 1) overflows" in caplog.text
        assert not (out / "verify_report.json").exists()


class TestMalformedManifest:
    """Every command that reads a corpus exits 2 on a malformed manifest.json, naming it."""

    @pytest.mark.parametrize("command", [
        ["train-meta"],
        ["diversity", "--n", "5", "--repeats", "1"],
        ["score", "--pair", "{pair}"],
        ["filter", "--scores", "{scores}", "--method", "topk"],
    ])
    @pytest.mark.parametrize("edit, message", [
        (lambda m: {k: v for k, v in m.items() if k != "shard_paths"}, "has no 'shard_paths'"),
        (lambda m: [m], "expected a JSON object, got list"),
        (lambda m: {**m, "shard_paths": [1, None]}, "'shard_paths' holds int, not str"),
        (lambda m: {**m, "created_at": 5}, "'created_at' is int, not str"),
    ])
    def test_exit_2_naming_the_file(self, tmp_path, corpus_dir, pair_dir, score_dir, caplog,
                                    command, edit, message):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for path in corpus_dir.iterdir():
            (corpus / path.name).write_bytes(path.read_bytes())
        manifest = corpus / "manifest.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text(encoding="utf-8")))), encoding="utf-8")
        argv = [arg.format(pair=pair_dir, scores=score_dir / "scores.tsv") for arg in command]
        assert main([*argv, "--corpus", str(corpus), "--out", str(tmp_path / "o")]) == 2
        assert f"{manifest}: {message}" in caplog.text


class TestReport:
    def test_merges_runs(self, tmp_path, score_dir):
        filter_out = tmp_path / "f"
        main([
            "filter", "--scores", str(score_dir / "scores.tsv"),
            "--method", "topk", "--keep-rate", "0.7", "--out", str(filter_out),
        ])
        out = tmp_path / "report"
        rc = main(["report", "--runs", str(score_dir), str(filter_out), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert len(report["runs"]) == 2
        text = (out / "report.txt").read_text(encoding="utf-8")
        assert "topk" in text

    def test_empty_inputs_warn_but_succeed(self, tmp_path):
        out = tmp_path / "report"
        rc = main(["report", "--runs", str(tmp_path / "nothing"), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["missing_inputs"]

    def test_regeneration_identical(self, tmp_path, score_dir):
        o1, o2 = tmp_path / "r1", tmp_path / "r2"
        for out in (o1, o2):
            rc = main(["report", "--runs", str(score_dir), "--out", str(out)])
            assert rc == 0
        assert (o1 / "report.json").read_bytes() == (o2 / "report.json").read_bytes()
        assert (o1 / "report.txt").read_bytes() == (o2 / "report.txt").read_bytes()

    @pytest.mark.parametrize("text, message", [("[1, 2]", "expected a JSON object, got list"),
                                               ('{"kept": ', "not valid JSON")])
    def test_malformed_artifact_exit_2_naming_it(self, tmp_path, caplog, text, message):
        audit = tmp_path / "run" / "audit.json"
        audit.parent.mkdir()
        audit.write_text(text, encoding="utf-8")
        assert main(["report", "--runs", str(audit.parent), "--out", str(tmp_path / "report")]) == 2
        assert f"{audit}: {message}" in caplog.text

    @pytest.mark.parametrize("name, text, message", [
        ("audit.json", '{"input": 3}', "has no 'kept'"),
        ("audit.json", '{"input": 3, "kept": "2"}', "'kept' is str, not int"),
        ("diversity.json", '{"mean": 3}', "has no 'std'"),
        ("diversity.json", '{"mean": 3.5, "std": null}', "'std' is NoneType, not int or float"),
    ])
    def test_table_key_without_its_partner_exit_2_naming_the_file(self, tmp_path, caplog, name, text, message):
        path = tmp_path / "run" / name
        path.parent.mkdir()
        path.write_text(text, encoding="utf-8")
        assert main(["report", "--runs", str(path.parent), "--out", str(tmp_path / "report")]) == 2
        assert f"{path}: {message}" in caplog.text

    def test_mean_quality_factor_of_wrong_type_exit_2_naming_the_file(self, tmp_path, caplog):
        path = tmp_path / "run" / "score_summary.json"
        path.parent.mkdir()
        path.write_text('{"mean_quality_factor": "x"}', encoding="utf-8")
        assert main(["report", "--runs", str(path.parent), "--out", str(tmp_path / "report")]) == 2
        assert f"{path}: 'mean_quality_factor' is str, not int or float or NoneType" in caplog.text

    @pytest.mark.parametrize("value, shown", [("null", ""), ("1.5", "1.5000"), ("2", "2.0000")])
    def test_mean_quality_factor_number_or_null_accepted(self, tmp_path, value, shown):
        run = tmp_path / "run"
        run.mkdir()
        (run / "score_summary.json").write_text(f'{{"mean_quality_factor": {value}}}', encoding="utf-8")
        out = tmp_path / "report"
        assert main(["report", "--runs", str(run), "--out", str(out)]) == 0
        row = (out / "report.txt").read_text(encoding="utf-8").splitlines()[1]
        assert row.split()[1:] == ([shown] if shown else [])


def test_every_artifact_is_strict_json(tmp_path, corpus_dir, pair_dir, score_dir):
    """No JSON file a full chain writes holds NaN or Infinity."""
    scores = str(score_dir / "scores.tsv")
    table = tmp_path / "cls.tsv"
    columns = read_score_file(scores)
    table.write_text("".join(f"{doc_id}\t{1 / d}\n" for doc_id, d in zip(columns["doc_id"], columns["quality_factor"])),
                     encoding="utf-8")
    runs = {
        "topk": ["filter", "--scores", scores, "--method", "topk", "--corpus", str(corpus_dir)],
        "temperature": ["filter", "--scores", scores, "--method", "temperature", "--tau", "0.5"],
        "gate": ["filter", "--scores", scores, "--method", "gate"],
        "pareto": ["filter", "--method", "pareto", "--classifier-scores", str(table)],
        "div": ["diversity", "--corpus", str(tmp_path / "topk" / "filtered"), "--n", "50", "--repeats", "2"],
        "mix": ["diversity", "--mix", str(corpus_dir), str(tmp_path / "topk" / "filtered"),
                "--n", "50", "--repeats", "2"],
        "verify": ["verify-scaling"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0, name
    assert main(["report", "--runs", str(score_dir), *(str(tmp_path / name) for name in runs),
                 "--out", str(tmp_path / "report")]) == 0

    def reject(constant):
        raise AssertionError(f"{constant} in a JSON artifact")

    paths = sorted([*tmp_path.rglob("*.json"), *pair_dir.rglob("*.json"), *score_dir.rglob("*.json")])
    assert len(paths) == 21
    for path in paths:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    single, mix = (json.loads((tmp_path / name / "diversity.json").read_text()) for name in ("div", "mix"))
    assert single["comparability"] == mix["comparability"]


def _outputs(out):
    """Every output file's bytes but run_config.json's, manifests without their timestamp."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "run_config.json":
            data = path.read_bytes()
            if path.name == "manifest.json":
                data = json.loads(data)
                data.pop("created_at")
            files[str(path.relative_to(out))] = data
    return files


def _flagged_run(command, corpus_dir, pair_dir, score_dir):
    """A run of ``command`` with non-default values for its parameters."""
    return {
        "train-meta": ["--corpus", str(corpus_dir), "--small-order", "1", "--large-order", "3",
                       "--smoothing-k", "0.05"],
        "score": ["--corpus", str(corpus_dir), "--pair", str(pair_dir), "--batch-size", "7",
                  "--workers", "2", "--timeout", "5", "--error-budget", "0.5"],
        "filter": ["--scores", str(score_dir / "scores.tsv"), "--method", "temperature", "--tau", "0.5",
                   "--keep-rate", "0.4", "--seed", "3", "--corpus", str(corpus_dir), "--shard-size", "50"],
        "diversity": ["--corpus", str(corpus_dir), "--n", "40", "--repeats", "3", "--dim", "16",
                      "--seed", "5"],
        "verify-scaling": ["--loss-E", "1.7", "--loss-A", "400", "--loss-B", "420", "--eta", "0.6",
                           "--n-small", "2e8", "--n-large", "3e9", "--tokens", "2e10"],
        "report": ["--runs", str(score_dir), str(corpus_dir)],
    }[command]


class TestRunConfig:
    @pytest.mark.parametrize(
        "command", ["train-meta", "score", "filter", "diversity", "verify-scaling", "report"]
    )
    def test_config_alone_replays_run(self, tmp_path, command, corpus_dir, pair_dir, score_dir):
        first, again = tmp_path / "first", tmp_path / "again"
        argv = _flagged_run(command, corpus_dir, pair_dir, score_dir)
        assert main([command, *argv, "--log-level", "WARNING", "--out", str(first)]) == 0
        assert main([command, "--config", str(first / "run_config.json"), "--out", str(again)]) == 0
        assert _outputs(again) == _outputs(first)
        recorded, replayed = run_config(first), run_config(again)
        assert (recorded.pop("out"), replayed.pop("out")) == (str(first), str(again))
        assert replayed == recorded
        assert "log_level" not in recorded

    def test_gate_replay_keeps_band(self, tmp_path, score_dir):
        first, again = tmp_path / "first", tmp_path / "again"
        assert main([
            "filter", "--scores", str(score_dir / "scores.tsv"), "--method", "gate",
            "--lo", "40", "--hi", "60", "--out", str(first),
        ]) == 0
        assert run_config(first)["lo_pct"] == 40.0 and run_config(first)["hi_pct"] == 60.0
        assert main(["filter", "--config", str(first / "run_config.json"), "--out", str(again)]) == 0
        for out in (first, again):
            assert json.loads((out / "audit.json").read_text(encoding="utf-8"))["kept"] == 60
        assert (again / "kept_ids.txt").read_bytes() == (first / "kept_ids.txt").read_bytes()

    def test_flag_beats_config_beats_default(self, tmp_path, score_dir):
        config = write_config(tmp_path / "c.json", {
            "scores": str(score_dir / "scores.tsv"), "method": "topk", "keep_rate": 0.5, "seed": 9,
        })
        out = tmp_path / "o"
        assert main(["filter", "--config", config, "--keep-rate", "0.7", "--out", str(out)]) == 0
        assert len((out / "kept_ids.txt").read_text(encoding="utf-8").splitlines()) == 210
        recorded = run_config(out)
        assert (recorded["method"], recorded["keep_rate"], recorded["seed"]) == ("topk", 0.7, 9)
        assert recorded["shard_size"] == 10000

    def test_required_value_from_neither_flag_nor_config_exit_2(self, tmp_path, score_dir):
        config = write_config(tmp_path / "c.json", {"scores": str(score_dir / "scores.tsv")})
        assert exit_code(["filter", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert exit_code(["report", "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("command,config", [
        ("diversity", {"embedder": "remot"}),
        ("diversity", {"n": "ten"}),
        ("train-meta", {"smoothing_k": [0.1]}),
        ("filter", {"method": "best"}),
        # keys of the removed compute-allocation sweep and CSV output: unknown, whatever their value
        ("verify-scaling", {"sweep_compute": True}),
        ("verify-scaling", {"alpha": 0.34}),
        ("verify-scaling", {"beta": 0.28}),
        ("verify-scaling", {"csv": True}),
        ("score", {"batch_size": 0}),
        ("filter", {"keep_rate": True}),
        ("train-meta", {"corpus": ["a"]}),
    ])
    def test_config_value_checked_like_flag(self, tmp_path, command, config, corpus_dir, pair_dir, score_dir):
        path = write_config(tmp_path / "c.json", config)
        argv = _flagged_run(command, corpus_dir, pair_dir, score_dir)
        out = tmp_path / "o"
        assert exit_code([command, *argv, "--config", path, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command,config,flag", [
        ("diversity", {"n": "ten"}, "--n"),
        ("diversity", {"embedder": "remot"}, "--embedder"),
        ("filter", {"keep_rate": True}, "--keep-rate"),
        ("filter", {"tau": "nan"}, "--tau"),
        ("train-meta", {"corpus": ["a"]}, "--corpus"),
        ("report", {"runs": "a"}, "--runs"),
    ])
    def test_bad_config_value_names_its_flag(self, tmp_path, capsys, command, config, flag,
                                            corpus_dir, pair_dir, score_dir):
        path = write_config(tmp_path / "c.json", config)
        argv = _flagged_run(command, corpus_dir, pair_dir, score_dir)
        assert exit_code([command, *argv, "--config", path, "--out", str(tmp_path / "o")]) == 2
        # the last line is the error; the usage line above it lists every flag
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert re.search(rf"error: .*{re.escape(flag)}\b(?!-)", error), error

    @pytest.mark.parametrize("config", [{"seed": -3}, {"scores": "-scores.tsv"}])
    def test_config_value_starting_with_dash_replays(self, tmp_path, monkeypatch, score_dir, config):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-scores.tsv").write_bytes((score_dir / "scores.tsv").read_bytes())
        values = {"scores": str(score_dir / "scores.tsv"), "method": "temperature", "tau": 0.5, "seed": 0, **config}
        first, again, flagged = tmp_path / "first", tmp_path / "again", tmp_path / "flagged"
        assert main(["filter", "--config", write_config(tmp_path / "c.json", values), "--out", str(first)]) == 0
        assert {key: run_config(first)[key] for key in values} == values
        assert main(["filter", "--config", str(first / "run_config.json"), "--out", str(again)]) == 0
        assert _outputs(again) == _outputs(first)
        assert main(["filter", *(f"--{k}={v}" for k, v in values.items()), "--out", str(flagged)]) == 0
        assert _outputs(flagged) == _outputs(first)

    def test_unknown_config_key_exit_2(self, tmp_path, score_dir):
        path = write_config(tmp_path / "c.json", {"lo": 40})
        assert exit_code([
            "filter", "--scores", str(score_dir / "scores.tsv"), "--method", "gate",
            "--config", path, "--out", str(tmp_path / "o"),
        ]) == 2

    def test_config_of_other_command_exit_2(self, tmp_path, score_dir):
        path = write_config(tmp_path / "c.json", {"command": "score", "seed": 3})
        assert exit_code([
            "filter", "--scores", str(score_dir / "scores.tsv"), "--method", "topk",
            "--config", path, "--out", str(tmp_path / "o"),
        ]) == 2

    def test_config_not_an_object_exit_2_naming_it(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", ["runs", "a"])
        assert exit_code(["report", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert f"{path}: expected a JSON object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        ("train-meta", "--seed"), ("train-meta", "--workers"),
        ("score", "--seed"),
        ("filter", "--workers"),
        ("diversity", "--workers"),
        ("verify-scaling", "--seed"), ("verify-scaling", "--workers"), ("verify-scaling", "--params"),
        ("verify-scaling", "--sweep-compute"), ("verify-scaling", "--csv"),
        ("report", "--seed"), ("report", "--workers"),
    ])
    def test_removed_flag_exit_2(self, tmp_path, command, flag, corpus_dir, pair_dir, score_dir):
        params = write_config(tmp_path / "params.json", {})
        value = params if flag == "--params" else "5"
        argv = _flagged_run(command, corpus_dir, pair_dir, score_dir)
        assert exit_code([command, *argv, flag, value, "--out", str(tmp_path / "o")]) == 2

    def test_workers_env_var_ignored(self, tmp_path, corpus_dir, pair_dir, monkeypatch):
        monkeypatch.setenv("SCALINGFILTER_WORKERS", "2")
        out = tmp_path / "o"
        assert main(["score", "--corpus", str(corpus_dir), "--pair", str(pair_dir), "--out", str(out)]) == 0
        assert run_config(out)["workers"] == 1

    def test_seed_and_workers_only_where_used(self):
        parser = build_parser()
        commands = parser._subparsers._group_actions[0].choices
        flags = {name: {f for a in sub._actions for f in a.option_strings} for name, sub in commands.items()}
        assert {name for name, f in flags.items() if "--seed" in f} == {"filter", "diversity"}
        assert {name for name, f in flags.items() if "--workers" in f} == {"score"}
        assert sum(len(f - {"-h", "--help"}) for f in flags.values()) == 58


# each CLI default, and the library parameters the command passes its value to
_LIBRARY_DEFAULTS = [
    ("train-meta", "--smoothing-k", [(train_pair, "smoothing_k")]),
    ("score", "--batch-size", [(score_corpus, "batch_size")]),
    ("score", "--error-budget", [(score_corpus, "error_budget")]),
    ("score", "--workers", [(score_corpus, "workers")]),
    ("score", "--timeout", [(RemotePerplexityModel, "timeout")]),
    ("filter", "--keep-rate", [(selection.select_topk, "keep_rate"), (selection.select_temperature, "keep_rate")]),
    ("filter", "--tau", [(selection.select_temperature, "tau")]),
    ("filter", "--lo", [(selection.percentile_gate, "lo_pct")]),
    ("filter", "--hi", [(selection.percentile_gate, "hi_pct")]),
    ("filter", "--pareto-alpha", [(selection.pareto_noisy_threshold, "alpha")]),
    ("filter", "--shard-size", [(selection.apply_selection, "shard_size"), (write_corpus, "shard_size")]),
    ("diversity", "--n", [(diversity.subsample_diversity, "n"), (diversity.dataset_mix_experiment, "n")]),
    ("diversity", "--repeats", [(diversity.subsample_diversity, "repeats"),
                                (diversity.dataset_mix_experiment, "repeats")]),
    ("diversity", "--dim", [(embedding.HashedProjectionEmbedder, "dim")]),
]


@pytest.mark.parametrize("command, flag, users", _LIBRARY_DEFAULTS, ids=[f for _, f, _ in _LIBRARY_DEFAULTS])
def test_cli_default_is_the_library_default(command, flag, users):
    (param,) = [p for p in cli._COMMANDS[command][2] if p.flag == flag]
    for function, name in users:
        default = inspect.signature(function).parameters[name].default
        # a parameter without a default matches a flag without one
        expected = None if default is inspect.Parameter.empty else default
        assert (param.default, type(param.default)) == (expected, type(expected)), f"{function.__name__}({name})"


def test_cli_import_leaves_scipy_unloaded():
    """The runtime needs numpy only: importing the CLI loads neither requests nor scipy."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, scalingfilter.cli; print(sorted({'requests', 'scipy'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_imports_are_stdlib_or_declared_dependencies():
    """Every third-party module src/ imports is a declared dependency, and numpy is the only one."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in sorted((root / "src" / "scalingfilter").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}
    assert third_party == declared == {"numpy"}
