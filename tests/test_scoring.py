import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import synth
from test_ngram import cross_entropy
from scalingfilter import remote
from scalingfilter.corpus import Document
from scalingfilter.errors import (
    ErrorBudgetExceededError,
    InvalidPerplexityError,
    ScorerUnavailableError,
)
from scalingfilter.ngram import train_pair
from scalingfilter.scoring import (
    RemotePerplexityModel,
    quality_factor,
    read_score_file,
    score_corpus,
)

positive_floats = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestQualityFactor:
    def test_basic_ratio(self):
        assert quality_factor(20.0, 10.0) == 2.0

    def test_identical_models_give_one(self):
        assert quality_factor(37.25, 37.25) == 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_inputs(self, bad):
        with pytest.raises(InvalidPerplexityError) as exc:
            quality_factor(bad, 10.0)
        assert exc.value.code == "invalid-perplexity"
        with pytest.raises(InvalidPerplexityError):
            quality_factor(10.0, bad)

    @given(p=positive_floats, q=positive_floats, c=positive_floats)
    def test_scale_identity(self, p, q, c):
        assert quality_factor(c * p, c * q) == pytest.approx(quality_factor(p, q), rel=1e-12)

    @given(p=positive_floats, q=positive_floats)
    def test_antisymmetry(self, p, q):
        assert quality_factor(p, q) * quality_factor(q, p) == pytest.approx(1.0, abs=1e-12)

    def test_ranking_matches_log_difference(self):
        rng = np.random.Generator(np.random.PCG64(3))
        pairs = [(float(a), float(b)) for a, b in rng.uniform(1, 100, size=(200, 2))]
        by_ratio = sorted(range(200), key=lambda i: quality_factor(*pairs[i]))
        by_logdiff = sorted(range(200), key=lambda i: math.log2(pairs[i][0]) - math.log2(pairs[i][1]))
        assert by_ratio == by_logdiff


class TestReadScoreFile:
    HEADER = "doc_id\tn_tokens\tppl_small\tppl_large\tquality_factor\n"

    def test_rows_read_back(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text(self.HEADER + "a\t3\t8\t4\t2\nb\t5\t1.5\t3\t0.5\n", encoding="utf-8")
        assert [(s.doc_id, s.n_tokens, s.ppl_small, s.ppl_large, s.d) for s in read_score_file(path)] == [
            ("a", 3, 8.0, 4.0, 2.0), ("b", 5, 1.5, 3.0, 0.5)]

    @pytest.mark.parametrize("row", [
        "c\t3\t8\t4",  # four fields
        "c\t3\t8\t4\t2\t9",  # six fields
        "c",
        "",
        "c\tthree\t8\t4\t2",
        "c\t3\t8\t4\tnan",
        "c\t3\tinf\t4\t2",
        "c\t3\t8\t-inf\t2",
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "s.tsv"
        path.write_text(self.HEADER + "a\t3\t8\t4\t2\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
            read_score_file(path)

    def test_repeated_doc_id_names_file_and_line(self, tmp_path):
        # a repeated row would be selected, and written to kept_ids.txt, twice
        path = tmp_path / "s.tsv"
        path.write_text(self.HEADER + "a\t3\t8\t4\t2\nb\t5\t1.5\t3\t0.5\na\t3\t8\t4\t2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: duplicate doc_id 'a'$"):
            read_score_file(path)


@pytest.fixture(scope="module")
def toy_pair():
    return train_pair(synth.chain_corpus(seed=21, n_docs=300, chain_seed=2), 2, 5)


@pytest.fixture(scope="module")
def models(toy_pair):
    return toy_pair.small, toy_pair.large


@pytest.fixture(autouse=True)
def two_attempts(monkeypatch):
    monkeypatch.setattr(remote, "RETRIES", 2)


def remote_pair(small, large, timeout=5):
    return RemotePerplexityModel(small.url, timeout=timeout), RemotePerplexityModel(large.url, timeout=timeout)


def score_one(tmp_path, small, large, doc, **kwargs):
    """Score a one-document corpus; its single row read back from scores.tsv."""
    score_corpus(small, large, [doc], tmp_path / "one.tsv", **kwargs)
    (row,) = read_score_file(tmp_path / "one.tsv")
    return row


class TestScoreDocument:
    def test_local_matches_model_oracle(self, tmp_path, toy_pair, models):
        doc = Document("x", "the quality of the data stream")
        score = score_one(tmp_path, *models, doc)
        l_small = cross_entropy(toy_pair.small, doc.text)
        l_large = cross_entropy(toy_pair.large, doc.text)
        assert score.d == pytest.approx(2.0 ** (l_small - l_large), rel=1e-9)
        assert score.n_tokens == len(doc.text.encode("utf-8"))

    def test_remote_pair(self, tmp_path, make_service):
        small = make_service(perplexity_fn=lambda t: 2.0 * len(t))
        large = make_service(perplexity_fn=lambda t: float(len(t)))
        score = score_one(tmp_path, *remote_pair(small, large), Document("r", "x" * 15))
        assert score.ppl_small == 30.0
        assert score.ppl_large == 15.0
        assert score.d == 2.0

    def test_remote_nan_is_invalid_perplexity(self, tmp_path, make_service):
        small = make_service(perplexity_fn=lambda t: float("nan"))
        large = make_service(perplexity_fn=lambda t: 10.0)
        small_model, large_model = remote_pair(small, large)
        with pytest.raises(InvalidPerplexityError):
            quality_factor(*small_model.perplexities(["text"]), *large_model.perplexities(["text"]))
        with pytest.raises(ErrorBudgetExceededError):
            score_corpus(*remote_pair(small, large), [Document("r", "text")], tmp_path / "s.tsv")
        sidecar = (tmp_path / "s.tsv.errors.tsv").read_text(encoding="utf-8")
        assert sidecar.splitlines()[1].split("\t")[:2] == ["r", "invalid-perplexity"]

    def test_remote_failure_is_scorer_unavailable(self, tmp_path, make_service):
        small = make_service(perplexity_fn=lambda t: 1.0)
        large = make_service(perplexity_fn=lambda t: 1.0)
        models = remote_pair(small, large, timeout=2)
        for model in models:
            model.fingerprint()  # the model-name handshake succeeds; scoring calls fail
        large.set_failing(True)
        with pytest.raises(ScorerUnavailableError) as exc:
            models[1].perplexities(["text"])
        assert exc.value.code == "scorer-unavailable"
        with pytest.raises(ErrorBudgetExceededError):
            score_corpus(*models, [Document("r", "text")], tmp_path / "s.tsv")
        sidecar = (tmp_path / "s.tsv.errors.tsv").read_text(encoding="utf-8")
        assert sidecar.splitlines()[1].split("\t")[:2] == ["r", "scorer-unavailable"]


class TestScoreCorpus:
    def make_docs(self, n=100):
        return synth.chain_corpus(seed=31, n_docs=n, tag="score", chain_seed=2)

    def test_cold_cache_evaluates_everything(self, tmp_path, models):
        docs = self.make_docs()
        summary = score_corpus(*models, docs, tmp_path / "s.tsv", cache_path=tmp_path / "cache.tsv")
        assert summary.count == 100
        assert summary.endpoint_evaluations == 100
        assert summary.cache_hits == 0
        assert len(read_score_file(tmp_path / "s.tsv")) == 100

    def test_warm_cache_evaluates_nothing(self, tmp_path, models):
        docs = self.make_docs()
        score_corpus(*models, docs, tmp_path / "s1.tsv", cache_path=tmp_path / "cache.tsv")
        summary = score_corpus(*models, docs, tmp_path / "s2.tsv", cache_path=tmp_path / "cache.tsv")
        assert summary.endpoint_evaluations == 0
        assert summary.cache_hits == 100
        assert (tmp_path / "s1.tsv").read_bytes() == (tmp_path / "s2.tsv").read_bytes()

    def test_cache_ignores_other_model_fingerprints(self, tmp_path, models):
        docs = self.make_docs(20)
        score_corpus(*models, docs, tmp_path / "s1.tsv", cache_path=tmp_path / "c.tsv")
        other = train_pair(synth.chain_corpus(seed=99, n_docs=200, chain_seed=2), 2, 5)
        summary = score_corpus(
            other.small, other.large, docs, tmp_path / "s2.tsv", cache_path=tmp_path / "c.tsv"
        )
        assert summary.cache_hits == 0
        assert summary.endpoint_evaluations == 20

    def test_partial_cache_resume_matches_cold_run(self, tmp_path, models):
        # an interrupted run leaves a partial cache; resuming must give the
        # same TSV a cold run would have
        docs = self.make_docs(100)
        score_corpus(*models, docs, tmp_path / "cold.tsv")
        score_corpus(*models, docs[:50], tmp_path / "partial.tsv", cache_path=tmp_path / "c.tsv")
        summary = score_corpus(*models, docs, tmp_path / "resumed.tsv", cache_path=tmp_path / "c.tsv")
        assert summary.cache_hits == 50
        assert summary.endpoint_evaluations == 50
        assert (tmp_path / "resumed.tsv").read_bytes() == (tmp_path / "cold.tsv").read_bytes()

    def test_changed_content_invalidates_cache_row(self, tmp_path, models):
        docs = self.make_docs(10)
        score_corpus(*models, docs, tmp_path / "s1.tsv", cache_path=tmp_path / "c.tsv")
        changed = [Document(docs[0].id, docs[0].text + " extra")] + docs[1:]
        summary = score_corpus(*models, changed, tmp_path / "s2.tsv", cache_path=tmp_path / "c.tsv")
        assert summary.endpoint_evaluations == 1
        assert summary.cache_hits == 9

    def test_worker_count_does_not_change_output(self, tmp_path, models):
        docs = self.make_docs()
        score_corpus(*models, docs, tmp_path / "w1.tsv", workers=1)
        score_corpus(*models, docs, tmp_path / "w8.tsv", workers=8)
        assert (tmp_path / "w1.tsv").read_bytes() == (tmp_path / "w8.tsv").read_bytes()

    def test_rows_sorted_by_doc_id(self, tmp_path, models):
        docs = list(reversed(self.make_docs(30)))
        score_corpus(*models, docs, tmp_path / "s.tsv")
        ids = [s.doc_id for s in read_score_file(tmp_path / "s.tsv")]
        assert ids == sorted(ids)

    def test_summary_statistics(self, tmp_path, models):
        docs = self.make_docs(50)
        summary = score_corpus(*models, docs, tmp_path / "s.tsv")
        scores = read_score_file(tmp_path / "s.tsv")
        assert summary.mean_quality_factor == pytest.approx(np.mean([s.d for s in scores]))
        assert set(summary.quality_factor_quantiles) == {"p05", "p25", "p50", "p75", "p95"}
        assert summary.quality_factor_quantiles["p50"] == sorted(s.d for s in scores)[24]

    def test_error_sidecar_within_budget(self, tmp_path, make_service):
        small = make_service(perplexity_fn=lambda t: float("nan") if t.startswith("bad") else 4.0)
        large = make_service(perplexity_fn=lambda t: 2.0)
        docs = [Document(f"d{i:03d}", "bad doc" if i == 7 else f"fine doc {i}") for i in range(100)]
        summary = score_corpus(*remote_pair(small, large), docs, tmp_path / "s.tsv", error_budget=0.05)
        assert summary.count == 99
        assert summary.error_count == 1
        sidecar = (tmp_path / "s.tsv.errors.tsv").read_text(encoding="utf-8")
        assert "d007" in sidecar and "invalid-perplexity" in sidecar

    def test_error_budget_breach_aborts(self, tmp_path, make_service):
        small = make_service(perplexity_fn=lambda t: float("nan"))
        large = make_service(perplexity_fn=lambda t: 2.0)
        docs = [Document(f"d{i}", f"doc {i}") for i in range(20)]
        with pytest.raises(ErrorBudgetExceededError):
            score_corpus(*remote_pair(small, large), docs, tmp_path / "s.tsv", error_budget=0.01)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("failure", ["http-error", "null-perplexity"])
    def test_failed_batch_costs_only_its_documents(self, tmp_path, make_service, workers, failure):
        def small_fn(text):
            if text != "doc 42":
                return 4.0
            if failure == "null-perplexity":
                return None
            raise RuntimeError("synthetic failure on one text")

        small = make_service(perplexity_fn=small_fn)
        large = make_service(perplexity_fn=lambda t: 2.0)
        docs = [Document(f"d{i:03d}", f"doc {i}") for i in range(100)]
        summary = score_corpus(
            *remote_pair(small, large), docs, tmp_path / "s.tsv",
            workers=workers, error_budget=0.2, batch_size=10,
        )
        sidecar = (tmp_path / "s.tsv.errors.tsv").read_text(encoding="utf-8").splitlines()[1:]
        failed = [tuple(line.split("\t")[:2]) for line in sidecar]
        assert failed == [(f"d{i:03d}", "scorer-unavailable") for i in range(40, 50)]
        assert summary.error_count == 10
        assert len(read_score_file(tmp_path / "s.tsv")) == 90

    @pytest.mark.parametrize("workers", [1, 2])
    def test_invalid_perplexity_costs_only_its_document(self, tmp_path, make_service, workers):
        small = make_service(perplexity_fn=lambda t: float("nan") if t == "doc 42" else 4.0)
        large = make_service(perplexity_fn=lambda t: 2.0)
        docs = [Document(f"d{i:03d}", f"doc {i}") for i in range(100)]
        summary = score_corpus(
            *remote_pair(small, large), docs, tmp_path / "s.tsv", cache_path=tmp_path / "c.tsv",
            workers=workers, error_budget=0.05, batch_size=10,
        )
        sidecar = (tmp_path / "s.tsv.errors.tsv").read_text(encoding="utf-8").splitlines()[1:]
        assert [tuple(line.split("\t")[:2]) for line in sidecar] == [("d042", "invalid-perplexity")]
        assert (summary.count, summary.error_count, summary.endpoint_evaluations) == (99, 1, 100)
        assert [s.doc_id for s in read_score_file(tmp_path / "s.tsv")] == [d.id for d in docs if d.id != "d042"]
        # the failed document is not cached, so a rerun scores it alone
        assert len((tmp_path / "c.tsv").read_text(encoding="utf-8").splitlines()) == 99

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cacheless_remote_run_sends_only_batches(self, tmp_path, make_service, workers):
        small = make_service(perplexity_fn=lambda t: 4.0)
        large = make_service(perplexity_fn=lambda t: 2.0)
        docs = [Document(f"d{i:03d}", f"doc {i}") for i in range(25)]
        score_corpus(*remote_pair(small, large), docs, tmp_path / "s.tsv", workers=workers, batch_size=10)
        # no model-name handshake (an empty request): without a cache the fingerprints go unused
        assert sorted(small.requests) == sorted(large.requests) == [5, 10, 10]

    def test_batch_size_must_be_positive(self, tmp_path, models):
        with pytest.raises(ValueError):
            score_corpus(*models, self.make_docs(3), tmp_path / "s.tsv", batch_size=0)

    @pytest.mark.parametrize("budget", [-0.5, 1.5])
    def test_error_budget_outside_unit_interval_rejected_before_scoring(self, tmp_path, budget):
        class Uncallable:
            def fingerprint(self):
                raise AssertionError("model called")

            def perplexities(self, texts):
                raise AssertionError("model called")

        with pytest.raises(ValueError, match=r"error_budget must be in \[0, 1\]"):
            score_corpus(Uncallable(), Uncallable(), self.make_docs(3), tmp_path / "s.tsv", error_budget=budget)
        assert not (tmp_path / "s.tsv").exists()

    def test_duplicate_doc_id_rejected(self, tmp_path, models):
        docs = [Document("same", "a text"), Document("same", "b text")]
        with pytest.raises(ValueError):
            score_corpus(*models, docs, tmp_path / "s.tsv")

    def test_floats_survive_tsv_round_trip(self, tmp_path, toy_pair, models):
        docs = self.make_docs(10)
        score_corpus(*models, docs, tmp_path / "s.tsv")
        for row in read_score_file(tmp_path / "s.tsv"):
            doc = next(d for d in docs if d.id == row.doc_id)
            ppl_small, ppl_large = toy_pair.small.perplexity(doc.text), toy_pair.large.perplexity(doc.text)
            assert row.ppl_small == ppl_small
            assert row.ppl_large == ppl_large
            assert row.d == quality_factor(ppl_small, ppl_large)


class TestEq6Identity:
    def test_quality_factor_equals_two_to_loss_gap(self, tmp_path, toy_pair, models):
        docs = synth.chain_corpus(seed=77, n_docs=25, chain_seed=2)
        score_corpus(*models, docs, tmp_path / "s.tsv")
        scores = {s.doc_id: s for s in read_score_file(tmp_path / "s.tsv")}
        assert len(scores) == len(docs)
        for doc in docs:
            score = scores[doc.id]
            gap = cross_entropy(toy_pair.small, doc.text) - cross_entropy(toy_pair.large, doc.text)
            assert score.d == pytest.approx(2.0**gap, rel=1e-12)
