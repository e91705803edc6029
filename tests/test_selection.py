import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalingfilter.corpus import Document, write_corpus
from scalingfilter.errors import (
    EmptySelectionInputError,
    IdNotInCorpusError,
    InvalidClassifierScoreError,
)
from scalingfilter.selection import (
    GATE_HI_PCT,
    GATE_LO_PCT,
    KEEP_RATE,
    apply_selection,
    pareto_noisy_threshold,
    percentile_gate,
    read_classifier_scores,
    select_temperature,
    select_topk,
)


def cols(pairs):
    """The doc_id and value columns of (doc_id, value) pairs, as every policy takes them."""
    return [doc_id for doc_id, _ in pairs], [value for _, value in pairs]


def random_scores(rng, n, tag="s"):
    return [(f"{tag}{i:05d}", float(d)) for i, d in enumerate(rng.uniform(0.1, 10.0, n))]


class TestPolicy:
    def test_validation(self):
        # parameters are checked before the input: an empty input still reports the bad parameter
        for scores, pairs in (([("a", 1.0), ("b", 2.0)], [("a", 0.5), ("b", 1.0)]), ([], [])):
            for keep_rate in (0.0, -0.1, 1.5, math.inf, math.nan):
                with pytest.raises(ValueError, match="keep_rate"):
                    select_topk(*cols(scores), keep_rate=keep_rate)
                with pytest.raises(ValueError, match="keep_rate"):
                    select_temperature(*cols(scores), keep_rate=keep_rate, tau=1.0)
            for tau in (0.0, -1.0, math.nan):
                with pytest.raises(ValueError, match="tau"):
                    select_temperature(*cols(scores), tau=tau)
            for lo, hi in ((90.0, 10.0), (50.0, 50.0), (math.nan, 85.0), (15.0, math.nan),
                           (-1.0, 85.0), (15.0, 101.0), (-math.inf, 85.0)):
                with pytest.raises(ValueError, match="lo_pct"):
                    percentile_gate(*cols(pairs), lo_pct=lo, hi_pct=hi)
            for alpha in (0.0, -9.0, math.nan):
                with pytest.raises(ValueError, match="alpha"):
                    pareto_noisy_threshold(*cols(pairs), alpha=alpha)

    def test_gate_band_matches_keep_rate(self):
        assert GATE_HI_PCT - GATE_LO_PCT == 100 * KEEP_RATE

    # written by the SelectionPolicy-based selection these functions replaced
    AUDITS = {
        "topk": ('{\n  "dropped": 3,\n  "input": 10,\n  "kept": 7,\n  "method": "topk",\n  "params": {\n'
                 '    "keep_rate": 0.7\n  },\n  "seed": null,\n  "threshold_used": 1.75\n}\n',
                 ["d1", "d2", "d4", "d5", "d7", "d8", "d9"]),
        "temperature": ('{\n  "dropped": 3,\n  "input": 10,\n  "kept": 7,\n  "method": "temperature",\n'
                        '  "params": {\n    "keep_rate": 0.7,\n    "tau": 0.5\n  },\n  "seed": 11,\n'
                        '  "threshold_used": null\n}\n',
                        ["d1", "d2", "d4", "d5", "d6", "d7", "d8"]),
        "gate": ('{\n  "dropped": 3,\n  "input": 10,\n  "kept": 7,\n  "method": "percentile_gate",\n'
                 '  "params": {\n    "hi_pct": 85.0,\n    "lo_pct": 15.0\n  },\n  "seed": null,\n'
                 '  "threshold_used": 9.0\n}\n',
                 ["d1", "d2", "d4", "d5", "d6", "d8", "d9"]),
        "pareto": ('{\n  "dropped": 9,\n  "input": 10,\n  "kept": 1,\n  "method": "pareto_threshold",\n'
                   '  "params": {\n    "pareto_alpha": 9.0\n  },\n  "seed": 5,\n  "threshold_used": null\n}\n',
                   ["d7"]),
    }

    @pytest.mark.parametrize("method", sorted(AUDITS))
    def test_audit_bytes_pinned(self, tmp_path, method):
        scores = [(f"d{i}", 1.0 + (i * 7 % 10) / 4) for i in range(10)]
        ids, values = cols(scores)
        result = {
            "topk": lambda: select_topk(ids, values),
            "temperature": lambda: select_temperature(ids, values, tau=0.5, seed=11),
            "gate": lambda: percentile_gate(ids, [d * 3 for d in values]),
            "pareto": lambda: pareto_noisy_threshold(ids, [(d - 1) / 2.25 for d in values], seed=5),
        }[method]()
        result.write(tmp_path / "kept_ids.txt", tmp_path / "audit.json")
        audit, kept = self.AUDITS[method]
        assert (tmp_path / "audit.json").read_text(encoding="utf-8") == audit
        assert (tmp_path / "kept_ids.txt").read_text(encoding="utf-8") == "".join(i + "\n" for i in kept)


class TestTopK:
    def test_seventy_percent_of_ten(self):
        scores = [(f"d{i}", float(i)) for i in range(10)]
        result = select_topk(*cols(scores), keep_rate=0.7)
        assert result.kept_count == 7
        assert set(result.kept_ids) == {f"d{i}" for i in range(3, 10)}
        assert result.threshold_used == 3.0

    def test_all_equal_keeps_lexicographically_smallest_ids(self):
        scores = [(doc_id, 1.0) for doc_id in ["z", "m", "a", "q", "b"]]
        result = select_topk(*cols(scores), keep_rate=0.6)  # ceil(3)
        assert set(result.kept_ids) == {"a", "b", "m"}

    def test_matches_sort_prefix_oracle(self):
        rng = np.random.Generator(np.random.PCG64(8))
        scores = random_scores(rng, 1000)
        result = select_topk(*cols(scores), keep_rate=0.7)
        # independent oracle: full sort then prefix
        ordered = sorted(scores, key=lambda s: (-s[1], s[0]))
        expected = {doc_id for doc_id, _ in ordered[: math.ceil(0.7 * 1000)]}
        assert set(result.kept_ids) == expected

    def test_kept_ids_preserve_input_order(self):
        scores = [("c", 3.0), ("a", 1.0), ("b", 2.0)]
        result = select_topk(*cols(scores), keep_rate=0.6)  # ceil(1.8) = 2 kept
        assert result.kept_ids == ["c", "b"]

    def test_ceiling_rounding(self):
        scores = [(f"d{i}", float(i)) for i in range(7)]
        assert select_topk(*cols(scores), keep_rate=0.5).kept_count == 4  # ceil(3.5)

    def test_empty_input(self):
        with pytest.raises(EmptySelectionInputError) as exc:
            select_topk([], [], keep_rate=0.7)
        assert exc.value.code == "empty-selection-input"

    def test_audit_counts(self):
        scores = [(f"d{i}", float(i)) for i in range(10)]
        result = select_topk(*cols(scores), keep_rate=0.7)
        audit = result.audit()
        assert audit["input"] == 10
        assert audit["kept"] == 7
        assert audit["dropped"] == 3
        assert audit["kept"] + audit["dropped"] == audit["input"]

    @settings(max_examples=50, deadline=None)
    @given(
        ds=st.lists(st.floats(min_value=0.01, max_value=100, allow_nan=False), min_size=1, max_size=40),
        bump=st.floats(min_value=0.1, max_value=10),
    )
    def test_monotonicity_raising_kept_doc_keeps_it(self, ds, bump):
        scores = [(f"d{i:03d}", d) for i, d in enumerate(ds)]
        kept = set(select_topk(*cols(scores), keep_rate=0.5).kept_ids)
        target = next(iter(sorted(kept)))
        bumped = [
            (doc_id, d + bump) if doc_id == target else (doc_id, d) for doc_id, d in scores
        ]
        assert target in set(select_topk(*cols(bumped), keep_rate=0.5).kept_ids)

    def test_scale_invariance(self):
        rng = np.random.Generator(np.random.PCG64(9))
        scores = random_scores(rng, 100)
        kept = set(select_topk(*cols(scores), keep_rate=0.3).kept_ids)
        scaled = [(doc_id, d * 7.5) for doc_id, d in scores]
        assert set(select_topk(*cols(scaled), keep_rate=0.3).kept_ids) == kept


class TestTemperature:
    def test_tiny_tau_equals_topk(self):
        rng = np.random.Generator(np.random.PCG64(10))
        scores = random_scores(rng, 50)
        kept_topk = set(select_topk(*cols(scores), keep_rate=0.4).kept_ids)
        kept_temp = set(select_temperature(*cols(scores), keep_rate=0.4, tau=1e-9, seed=7).kept_ids)
        assert kept_temp == kept_topk

    def test_same_seed_reproduces(self):
        rng = np.random.Generator(np.random.PCG64(11))
        scores = random_scores(rng, 30)
        r1 = select_temperature(*cols(scores), keep_rate=0.5, tau=1.0, seed=42)
        r2 = select_temperature(*cols(scores), keep_rate=0.5, tau=1.0, seed=42)
        assert r1.kept_ids == r2.kept_ids

    def test_different_seeds_differ(self):
        rng = np.random.Generator(np.random.PCG64(12))
        scores = random_scores(rng, 100)
        r1 = select_temperature(*cols(scores), keep_rate=0.2, tau=5.0, seed=1)
        r2 = select_temperature(*cols(scores), keep_rate=0.2, tau=5.0, seed=2)
        assert r1.kept_ids != r2.kept_ids

    def test_huge_tau_roughly_uniform(self):
        scores = [(f"d{i}", float(i + 1)) for i in range(10)]
        hits = {doc_id: 0 for doc_id, _ in scores}
        trials = 1500
        for t in range(trials):
            for doc_id in select_temperature(*cols(scores), keep_rate=0.5, tau=1e9, seed=t).kept_ids:
                hits[doc_id] += 1
        for doc_id, count in hits.items():
            assert abs(count / trials - 0.5) < 0.05

    @pytest.mark.parametrize("tau", [1e-308, 5e-324])
    def test_tau_overflowing_a_key_raises_naming_tau(self, tau):
        # d / tau is inf for the larger d: ties among infinite keys used to break by doc_id, not by d
        ids, values = cols(random_scores(np.random.Generator(np.random.PCG64(1)), 1000))
        with pytest.raises(ValueError, match=f"tau {tau!r} is too small"):
            select_temperature(ids, values, tau=tau, seed=1)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            select_temperature(["a"], [1.0], tau=0.0)


class TestPercentileGate:
    def test_default_gate_keeps_middle_seventy(self):
        rng = np.random.Generator(np.random.PCG64(13))
        ppls = [(f"d{i:03d}", float(p)) for i, p in enumerate(rng.permutation(np.arange(1.0, 101.0)))]
        result = percentile_gate(*cols(ppls))
        assert result.kept_count == 70
        kept_values = sorted(p for doc_id, p in ppls if doc_id in set(result.kept_ids))
        # ranks 16..85 of the sorted values
        assert kept_values == sorted(p for _, p in ppls)[15:85]

    def test_all_identical_all_kept(self):
        ppls = [(f"d{i}", 5.0) for i in range(20)]
        result = percentile_gate(*cols(ppls))
        assert result.kept_count == 20

    def test_matches_rank_oracle(self):
        rng = np.random.Generator(np.random.PCG64(14))
        ppls = [(f"d{i:04d}", float(p)) for i, p in enumerate(rng.uniform(0, 1000, 1000))]
        result = percentile_gate(*cols(ppls), lo_pct=15, hi_pct=85)
        # oracle: sort (value, id) pairs, slice ranks, map back to ids
        ranked = sorted(ppls, key=lambda kv: kv[1])
        lo_rank = math.ceil(15 * 1000 / 100)  # first kept 0-indexed rank
        hi_rank = math.ceil(85 * 1000 / 100)  # one past last kept
        expected = {doc_id for doc_id, _ in ranked[lo_rank:hi_rank]}
        assert set(result.kept_ids) == expected

    def test_complement_and_fraction(self):
        for n in (10, 37, 100, 999):
            rng = np.random.Generator(np.random.PCG64(n))
            ppls = [(f"d{i:04d}", float(p)) for i, p in enumerate(rng.uniform(0, 1, n))]
            result = percentile_gate(*cols(ppls), lo_pct=15, hi_pct=85)
            assert result.kept_count + result.audit()["dropped"] == n
            assert abs(result.kept_count / n - 0.70) <= 1.0 / n + 1e-12

    def test_empty_input(self):
        with pytest.raises(EmptySelectionInputError):
            percentile_gate([], [])


class TestParetoThreshold:
    def test_perfect_scores_all_kept(self):
        rows = [(f"d{i}", 1.0) for i in range(1000)]
        result = pareto_noisy_threshold(*cols(rows), alpha=9.0, seed=3)
        assert result.kept_count == 1000

    def test_zero_score_tail_probability(self):
        rows = [(f"d{i:06d}", 0.0) for i in range(100_000)]
        result = pareto_noisy_threshold(*cols(rows), alpha=9.0, seed=4)
        # P(keep | s=0) = P(x > 1) = 2^-9
        assert abs(result.kept_count / 100_000 - 2.0**-9) < 0.002

    def test_extreme_alpha_degenerates_to_hard_threshold(self):
        rows = [("low", 0.3), ("mid", 0.999), ("high", 1.0)]
        result = pareto_noisy_threshold(*cols(rows), alpha=1e6, seed=5)
        assert result.kept_ids == ["high"]

    def test_score_out_of_range_rejected(self):
        with pytest.raises(InvalidClassifierScoreError) as exc:
            pareto_noisy_threshold(["d"], [1.2], alpha=9.0, seed=0)
        assert exc.value.code == "invalid-classifier-score"
        with pytest.raises(InvalidClassifierScoreError):
            pareto_noisy_threshold(["d"], [-0.1], alpha=9.0, seed=0)

    def test_seed_reproducibility(self):
        rng = np.random.Generator(np.random.PCG64(15))
        rows = [(f"d{i:04d}", float(s)) for i, s in enumerate(rng.uniform(0, 1, 500))]
        r1 = pareto_noisy_threshold(*cols(rows), alpha=9.0, seed=77)
        r2 = pareto_noisy_threshold(*cols(rows), alpha=9.0, seed=77)
        assert r1.kept_ids == r2.kept_ids

    def test_monotone_in_score_on_shared_noise(self):
        # same draw index, higher score -> kept at least as often
        rows_low = [(f"d{i:04d}", 0.2) for i in range(2000)]
        rows_high = [(f"d{i:04d}", 0.8) for i in range(2000)]
        kept_low = set(pareto_noisy_threshold(*cols(rows_low), alpha=9.0, seed=6).kept_ids)
        kept_high = set(pareto_noisy_threshold(*cols(rows_high), alpha=9.0, seed=6).kept_ids)
        assert kept_low <= kept_high


class TestApplySelection:
    def make_corpus(self, tmp_path, n=20):
        docs = [Document(f"d{i:03d}", f"text number {i}") for i in range(n)]
        out = tmp_path / "corpus"
        write_corpus(docs, out, shard_size=6, corpus_id="src")
        return docs, out / "manifest.json"

    def test_identity_selection(self, tmp_path):
        docs, manifest = self.make_corpus(tmp_path)
        scores = [(d.id, 1.0) for d in docs]
        result = select_topk(*cols(scores), keep_rate=1.0)
        out_manifest = apply_selection(result, manifest, tmp_path / "out")
        assert out_manifest.doc_count == len(docs)

    def test_empty_selection(self, tmp_path):
        docs, manifest = self.make_corpus(tmp_path)
        result = select_topk([docs[0].id], [1.0], keep_rate=1.0)
        result.kept_ids = []
        out_manifest = apply_selection(result, manifest, tmp_path / "out")
        assert out_manifest.doc_count == 0

    def test_filtered_subset_preserves_order(self, tmp_path):
        from scalingfilter.corpus import read_manifest_corpus

        docs, manifest = self.make_corpus(tmp_path, n=50)
        scores = [(d.id, float(i)) for i, d in enumerate(docs)]
        result = select_topk(*cols(scores), keep_rate=0.4)
        out_manifest = apply_selection(result, manifest, tmp_path / "out")
        assert out_manifest.doc_count == 20
        out_ids = [d.id for d in read_manifest_corpus(tmp_path / "out" / "manifest.json")]
        assert out_ids == [d.id for d in docs if d.id in set(result.kept_ids)]

    def test_unknown_id_rejected(self, tmp_path):
        docs, manifest = self.make_corpus(tmp_path)
        result = select_topk(["ghost"], [1.0], keep_rate=1.0)
        with pytest.raises(IdNotInCorpusError) as exc:
            apply_selection(result, manifest, tmp_path / "out")
        assert exc.value.code == "id-not-in-corpus"

    def test_audit_json_written(self, tmp_path):
        import json

        scores = [(f"d{i}", float(i)) for i in range(10)]
        result = select_topk(*cols(scores), keep_rate=0.7)
        result.write(tmp_path / "kept_ids.txt", tmp_path / "audit.json")
        kept_lines = (tmp_path / "kept_ids.txt").read_text(encoding="utf-8").splitlines()
        assert kept_lines == result.kept_ids
        audit = json.loads((tmp_path / "audit.json").read_text(encoding="utf-8"))
        assert audit["method"] == "topk"
        assert audit["kept"] == 7


class TestReadClassifierScores:
    def test_header_optional_and_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "cls.tsv"
        path.write_text("doc_id\tscore\na\t0.25\nb\t1\textra\n", encoding="utf-8")
        assert read_classifier_scores(path) == {"doc_id": ["a", "b"], "score": [0.25, 1.0]}
        path.write_text("a\t0.5\n", encoding="utf-8")
        assert read_classifier_scores(path) == {"doc_id": ["a"], "score": [0.5]}

    @pytest.mark.parametrize("first,rows", [
        ("doc_id\tscore\n", {"doc_id": ["b"], "score": [0.25]}),
        ("doc_id\n", {"doc_id": ["b"], "score": [0.25]}),
        # a first row whose score is a number is a document, even one with the id doc_id
        ("doc_id\t0.5\n", {"doc_id": ["doc_id", "b"], "score": [0.5, 0.25]}),
    ])
    def test_first_line_is_a_header_only_without_a_numeric_score(self, tmp_path, first, rows):
        path = tmp_path / "cls.tsv"
        path.write_text(first + "b\t0.25\n", encoding="utf-8")
        assert read_classifier_scores(path) == rows

    @pytest.mark.parametrize("bad_line,line_no,what", [
        ("\n", 3, "expected doc_id<TAB>score"),
        ("c\n", 3, "expected doc_id<TAB>score"),
        ("c\thigh\n", 3, "expected doc_id<TAB>score"),
        ("a\t0.75\n", 3, "duplicate id 'a'"),
    ])
    def test_malformed_row_names_file_and_line(self, tmp_path, bad_line, line_no, what):
        path = tmp_path / "cls.tsv"
        path.write_text("doc_id\tscore\na\t0.5\n" + bad_line + "d\t0.1\n", encoding="utf-8")
        with pytest.raises(InvalidClassifierScoreError) as exc:
            read_classifier_scores(path)
        assert exc.value.code == "invalid-classifier-score"
        assert f"{path}:{line_no}: {what}" in str(exc.value)
