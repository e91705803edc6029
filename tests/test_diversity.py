import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, polyroots

import synth
from oracles import direct_diversity, loop_mixture_values
from scalingfilter import diversity
from scalingfilter.corpus import write_json
from scalingfilter.diversity import (
    _rows_ascend,
    _spectrum,
    dataset_mix_experiment,
    eigen_entropy,
    mix_seed,
    semantic_diversity,
    subsample_diversity,
)
from scalingfilter.embedding import HashedProjectionEmbedder
from scalingfilter.errors import CorpusTooSmallError, NotPsdError
from scalingfilter.seeding import rng_for


def random_unit_rows(rng, n, m):
    X = rng.normal(size=(n, m))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


class TestSimilarityMatrix:
    """The n <= m path, which builds S = X X^T itself."""

    def test_orthonormal_rows_give_identity(self):
        # S = I exactly when every eigenvalue of the symmetric S is 1
        X = np.eye(4)
        assert np.allclose(_spectrum(embeddings=X) * 4, np.ones(4))

    def test_duplicated_doc_gives_all_ones(self):
        # S = all ones: one eigenvalue n, the rest 0
        X = np.tile(np.array([[0.6, 0.8, 0.0, 0.0, 0.0]]), (5, 1))
        assert np.allclose(_spectrum(embeddings=X) * 5, [0.0, 0.0, 0.0, 0.0, 5.0])

    def test_spectrum_matches_gram_oracle(self):
        rng = np.random.Generator(np.random.PCG64(1))
        X = random_unit_rows(rng, 5, 7)
        assert np.allclose(_spectrum(embeddings=X), np.linalg.eigvalsh(X @ X.T) / 5, rtol=0, atol=1e-12)

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError):
            semantic_diversity(embeddings=np.array([[2.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("X", [
        # 200 x 16 unit rows scaled to norm 0.5: a diversity of 2.80 instead of 15.45 if unchecked
        0.5 * random_unit_rows(np.random.Generator(np.random.PCG64(3)), 200, 16),
        np.tile(np.array([[2.0, 0.0]]), (3, 1)),
    ], ids=["half-norm", "norm-2"])
    def test_dual_path_rejects_unnormalized_rows(self, X):
        assert X.shape[1] < X.shape[0]  # the m < n path
        with pytest.raises(ValueError, match="unit-normalized"):
            semantic_diversity(embeddings=X)


class TestEigenEntropy:
    def test_rank_one_similarity_is_zero(self):
        X = np.ones((6, 1))  # S = all ones
        assert eigen_entropy(embeddings=X) == pytest.approx(0.0, abs=1e-12)

    def test_identity_similarity_is_log_n(self):
        for n in (2, 5, 16):
            assert eigen_entropy(embeddings=np.eye(n)) == pytest.approx(math.log(n), abs=1e-12)

    def test_two_doc_half_similarity_closed_form(self):
        X = np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])  # cosine 0.5
        # eigenvalues of S/2 are 0.75, 0.25
        assert eigen_entropy(embeddings=X) == pytest.approx(0.5623351446188083, abs=1e-12)

    def test_not_psd_rejected(self, monkeypatch):
        monkeypatch.setattr(diversity, "_spectrum", lambda embeddings: np.array([-1e-7, 0.5, 0.5]))
        with pytest.raises(NotPsdError, match="below") as exc:
            eigen_entropy(embeddings=np.eye(3))
        assert exc.value.code == "not-psd"

    def test_eigenvalue_above_one_rejected(self, monkeypatch):
        monkeypatch.setattr(diversity, "_spectrum", lambda embeddings: np.array([0.0, 0.0, 1.0 + 1e-7]))
        with pytest.raises(NotPsdError, match="above") as exc:
            eigen_entropy(embeddings=np.eye(3))
        assert exc.value.code == "not-psd"


class TestSemanticDiversity:
    def test_identical_docs_give_one(self):
        X = np.tile(np.array([[1.0, 0.0, 0.0]]), (10, 1))
        assert semantic_diversity(embeddings=X) == pytest.approx(1.0, abs=1e-9)

    def test_sixteen_orthogonal_docs_give_sixteen(self):
        assert semantic_diversity(embeddings=np.eye(16)) == pytest.approx(16.0, abs=1e-9)

    def test_two_doc_half_similarity(self):
        X = np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])  # cosine 0.5
        assert semantic_diversity(embeddings=X) == pytest.approx(1.7547653506033232, abs=1e-9)

    def test_permutation_invariance_exact(self):
        rng = np.random.Generator(np.random.PCG64(2))
        X = random_unit_rows(rng, 30, 8)
        base = semantic_diversity(embeddings=X)
        for seed in range(5):
            perm = np.random.Generator(np.random.PCG64(seed)).permutation(30)
            assert semantic_diversity(embeddings=X[perm]) == base

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=25),
        m=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_range_property(self, n, m, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        X = random_unit_rows(rng, n, m)
        value = semantic_diversity(embeddings=X)
        assert 1.0 - 1e-9 <= value <= n + 1e-9

    def test_dual_path_matches_direct_path(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(20):
            n = int(rng.integers(11, 51))
            m = int(rng.integers(2, 11))
            X = random_unit_rows(rng, n, m)
            dual = semantic_diversity(embeddings=X)  # m < n: dual path
            direct = direct_diversity(X)
            assert abs(dual - direct) < 1e-8

    def test_eigenvalue_simplex(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(10):
            X = random_unit_rows(rng, 20, 6)
            lam = _spectrum(embeddings=X)
            assert lam.min() >= -1e-8
            assert abs(lam.sum() - 1.0) < 1e-10


class TestEigensolverOracle:
    def test_symmetric_5x5_matches_char_poly_roots(self):
        # Faddeev-LeVerrier gives the characteristic polynomial from traces
        # of powers; mpmath.polyroots solves it independently of LAPACK.
        rng = np.random.Generator(np.random.PCG64(5))
        mp.dps = 40
        for _ in range(5):
            A = rng.normal(size=(5, 5))
            A = (A + A.T) / 2
            coeffs = [mp.mpf(1)]
            Mk = np.zeros_like(A)
            identity = np.eye(5)
            for k in range(1, 6):
                Mk = A @ Mk + float(coeffs[-1]) * identity
                coeffs.append(mp.mpf(-np.trace(A @ Mk) / k))
            roots = sorted(float(r) for r in polyroots(coeffs, maxsteps=200))
            lam = sorted(np.linalg.eigvalsh(A))
            assert np.allclose(lam, roots, atol=1e-8)


@pytest.fixture(scope="module")
def two_cluster_corpus():
    a = synth.cluster_corpus(seed=61, alphabet="abcdefghijklm", tag="a", n_docs=600)
    b = synth.cluster_corpus(seed=62, alphabet="nopqrstuvwxyz", tag="b", n_docs=600)
    return [d.text for d in a + b]


class TestSubsampleDiversity:
    def test_single_repeat_reports_zero_std(self, two_cluster_corpus):
        emb = HashedProjectionEmbedder(dim=16, seed=0)
        report = subsample_diversity(two_cluster_corpus, emb, n=40, repeats=1, seed=1)
        assert report["std"] == 0.0
        assert len(report["values"]) == 1

    def test_identical_docs_mean_one_std_zero(self):
        docs = ["exactly the same text body"] * 50
        emb = HashedProjectionEmbedder(dim=16, seed=0)
        report = subsample_diversity(docs, emb, n=20, repeats=10, seed=2)
        assert report["mean"] == pytest.approx(1.0, abs=1e-9)
        assert report["std"] == pytest.approx(0.0, abs=1e-9)

    def test_corpus_too_small(self, two_cluster_corpus):
        emb = HashedProjectionEmbedder(dim=16, seed=0)
        with pytest.raises(CorpusTooSmallError) as exc:
            subsample_diversity(two_cluster_corpus[:10], emb, n=20, repeats=2, seed=3)
        assert exc.value.code == "corpus-too-small"

    def test_reproducible_per_seed(self, two_cluster_corpus):
        emb = HashedProjectionEmbedder(dim=16, seed=0)
        r1 = subsample_diversity(two_cluster_corpus, emb, n=50, repeats=3, seed=4)
        r2 = subsample_diversity(two_cluster_corpus, emb, n=50, repeats=3, seed=4)
        assert r1["values"] == r2["values"]

    def test_mean_std_recomputable_from_values(self, two_cluster_corpus):
        emb = HashedProjectionEmbedder(dim=16, seed=0)
        report = subsample_diversity(two_cluster_corpus, emb, n=50, repeats=5, seed=5)
        assert report["mean"] == pytest.approx(float(np.mean(report["values"])))
        assert report["std"] == pytest.approx(float(np.std(report["values"])))

    def test_report_json_round_trip(self, tmp_path, two_cluster_corpus):
        import json

        emb = HashedProjectionEmbedder(dim=16, seed=0)
        report = subsample_diversity(two_cluster_corpus, emb, n=30, repeats=2, seed=6, corpus_id="tc")
        write_json(tmp_path / "d.json", report)
        obj = json.loads((tmp_path / "d.json").read_text(encoding="utf-8"))
        assert obj["corpus_id"] == "tc"
        assert obj["values"] == report["values"]
        assert "embedder" in obj and "comparability" in obj


class TestDatasetMix:
    def test_identical_copies_flat_curve(self, two_cluster_corpus):
        emb = HashedProjectionEmbedder(dim=16, seed=0)
        one = two_cluster_corpus[:300]
        curve = dataset_mix_experiment([one, one, one], emb, n=60, repeats=3, seed=7)["curve"]
        means = [row["mean"] for row in curve]
        assert max(means) - min(means) < 0.05 * means[0]

    def test_orthogonal_corpora_strictly_increase(self):
        clusters = ((71, "abcdefghij", "a"), (72, "klmnopqrst", "b"), (73, "uvwxyz0123", "c"))
        corpora = [[d.text for d in synth.cluster_corpus(seed=seed, alphabet=letters, tag=tag, n_docs=300)]
                   for seed, letters, tag in clusters]
        emb = HashedProjectionEmbedder(dim=32, seed=0)
        curve = dataset_mix_experiment(corpora, emb, n=90, repeats=3, seed=8)["curve"]
        means = [row["mean"] for row in curve]
        assert means[0] < means[1] < means[2]

    def test_single_corpus_entries_match_subsample(self, two_cluster_corpus):
        emb = HashedProjectionEmbedder(dim=16, seed=0)
        corpora = [two_cluster_corpus[:200], two_cluster_corpus[200:400]]
        curve = dataset_mix_experiment(corpora, emb, n=40, repeats=3, seed=9)["curve"]
        expected = []
        for idx, member in enumerate(corpora):
            rep = subsample_diversity(member, emb, n=40, repeats=3, seed=mix_seed(9, 1, idx))
            expected.extend(rep["values"])
        assert curve[0]["mean"] == pytest.approx(float(np.mean(expected)))

    def test_report_records_the_protocol(self, two_cluster_corpus):
        emb = HashedProjectionEmbedder(dim=16, seed=0)
        corpora = [two_cluster_corpus[:200], two_cluster_corpus[200:400]]
        report = dataset_mix_experiment(corpora, emb, n=40, repeats=3, seed=9, names=["x", "y"])
        assert report == {"kind": "dataset-mix", "corpora": ["x", "y"], "sample_size": 40, "repeats": 3, "seed": 9,
                          "embedder": emb.fingerprint(), "comparability": diversity.COMPARABILITY,
                          "curve": report["curve"]}

    def test_needs_two_corpora(self, two_cluster_corpus):
        emb = HashedProjectionEmbedder(dim=16, seed=0)
        with pytest.raises(ValueError):
            dataset_mix_experiment([two_cluster_corpus], emb, n=10, repeats=1, seed=0)


class TableEmbedder:
    """Looks each text's part before '#' up in a table of unit rows; records every text it embeds."""

    def __init__(self, rows: dict[str, np.ndarray]):
        self.rows = rows
        self.seen: list[str] = []

    def embed(self, docs):
        self.seen.extend(docs)
        return np.array([self.rows[text.split("#")[0]] for text in docs])

    def fingerprint(self):
        return "table"


def tied_rows(seed, n, m=6):
    """Unit rows over a coarse grid: many share leading columns, some are equal."""
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.integers(0, 2, size=(n, m)).astype(np.float64)
    X[:, m // 2 :] = rng.integers(-1, 2, size=(n, m - m // 2))
    X[~X.any(axis=1), -1] = 1.0
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def with_duplicates(texts, every=4):
    """``texts`` plus a copy of every ``every``-th one."""
    return texts + texts[::every]


def tagged(texts, tag):
    """Each text made unique by a ``#<tag><index>`` suffix, which TableEmbedder ignores."""
    return [f"{text}#{tag}{i}" for i, text in enumerate(texts)]


@pytest.fixture(scope="module")
def table_corpora():
    """Three corpora over one table of tied rows; the third repeats texts of the first."""
    texts = [f"text {i}" for i in range(240)]
    table = dict(zip(texts, tied_rows(11, len(texts))))
    members = {"a": texts[:90], "b": texts[90:180], "c": texts[180:] + texts[:30]}
    return table, [tagged(with_duplicates(member), tag) for tag, member in members.items()]


def loop_curve(corpora, provider, n, repeats, seed):
    """dataset_mix_experiment over every combination, one sample at a time."""
    curve = []
    for n_datasets in range(1, len(corpora) + 1):
        values = []
        for combo_index, combo in enumerate(combinations(range(len(corpora)), n_datasets)):
            rng = rng_for(mix_seed(seed, n_datasets, combo_index), "diversity-subsample")
            values.extend(loop_mixture_values([corpora[i] for i in combo], provider, n, repeats, rng))
        curve.append({"n_datasets": n_datasets, "combinations": math.comb(len(corpora), n_datasets),
                      "mean": float(np.mean(values)), "std": float(np.std(values))})
    return curve


class TestPooledSamplesMatchLoop:
    def test_subsample_hashed_with_duplicates(self, two_cluster_corpus):
        docs = with_duplicates(two_cluster_corpus[:300], every=3)
        emb = HashedProjectionEmbedder(dim=16, seed=0)
        report = subsample_diversity(docs, emb, n=250, repeats=4, seed=12)
        assert report["values"] == loop_mixture_values([docs], emb, 250, 4, rng_for(12, "diversity-subsample"))

    def test_subsample_tied_rows(self, table_corpora):
        table, (a, _, _) = table_corpora
        emb = TableEmbedder(table)
        report = subsample_diversity(a, emb, n=80, repeats=5, seed=13)
        assert report["values"] == loop_mixture_values([a], emb, 80, 5, rng_for(13, "diversity-subsample"))

    def test_mix_tied_rows_embeds_each_document_once(self, table_corpora):
        table, corpora = table_corpora
        emb = TableEmbedder(table)
        curve = dataset_mix_experiment(corpora, emb, n=90, repeats=3, seed=14)["curve"]
        assert len(emb.seen) == len(set(emb.seen))
        assert curve == loop_curve(corpora, TableEmbedder(table), 90, 3, 14)

    def test_mix_hashed(self, two_cluster_corpus):
        corpora = [with_duplicates(two_cluster_corpus[i * 200 : (i + 1) * 200]) for i in range(3)]
        emb = HashedProjectionEmbedder(dim=16, seed=1)
        curve = dataset_mix_experiment(corpora, emb, n=120, repeats=2, seed=15)["curve"]
        assert curve == loop_curve(corpora, emb, 120, 2, 15)

    def test_semantic_diversity_called_once_per_repeat(self, monkeypatch, table_corpora):
        table, corpora = table_corpora
        calls = []
        original = diversity.semantic_diversity

        def counted(**kwargs):
            assert _rows_ascend(kwargs["embeddings"])  # gathered in canonical order: no sort left
            calls.append(kwargs["embeddings"].shape)
            return original(**kwargs)

        monkeypatch.setattr(diversity, "semantic_diversity", counted)
        subsample_diversity(corpora[0], TableEmbedder(table), n=40, repeats=4, seed=16)
        assert calls == [(40, 6)] * 4
        calls.clear()
        dataset_mix_experiment(corpora, TableEmbedder(table), n=60, repeats=2, seed=17)
        assert calls == [(60, 6)] * (3 + 3 + 1) * 2

    def test_mix_samples_combinations_beyond_the_cap(self, monkeypatch, table_corpora):
        monkeypatch.setattr(diversity, "MAX_MIX_COMBINATIONS", 2)
        table, corpora = table_corpora
        corpora = [*corpora, tagged(with_duplicates(list(table)[45:135]), "d")]
        report = dataset_mix_experiment(corpora, TableEmbedder(table), n=60, repeats=2, seed=18)
        assert [row["combinations"] for row in report["curve"]] == [2, 2, 2, 1]  # of 4, 6, 4 and 1
        for row in report["curve"]:
            n_datasets = row["n_datasets"]
            combos = list(combinations(range(4), n_datasets))
            if len(combos) > 2:
                picked = rng_for(18, "diversity-mix-combos", n_datasets).choice(len(combos), size=2, replace=False)
                combos = [combos[int(i)] for i in sorted(picked)]
            values = []
            for combo_index, combo in enumerate(combos):
                rng = rng_for(mix_seed(18, n_datasets, combo_index), "diversity-subsample")
                values.extend(loop_mixture_values([corpora[i] for i in combo], TableEmbedder(table), 60, 2, rng))
            assert (row["mean"], row["std"]) == (float(np.mean(values)), float(np.std(values)))

    def test_zero_repeats_rejected_on_both_paths(self, table_corpora):
        table, corpora = table_corpora
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            subsample_diversity(corpora[0], TableEmbedder(table), n=10, repeats=0)
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            dataset_mix_experiment(corpora, TableEmbedder(table), n=10, repeats=0)


class TestSpectrumRowOrder:
    def test_any_row_order_gives_the_same_bits(self):
        X = tied_rows(18, 400)
        ascending = X[np.lexsort(X.T[::-1])]
        descending = ascending[::-1]
        shuffled = ascending[np.random.Generator(np.random.PCG64(19)).permutation(len(X))]
        assert _rows_ascend(ascending) and not _rows_ascend(descending) and not _rows_ascend(shuffled)
        expected = _spectrum(embeddings=ascending).tobytes()
        for order in (descending, shuffled, X):
            assert _spectrum(embeddings=order).tobytes() == expected

    def test_rows_ascend_compares_the_first_differing_column(self):
        assert _rows_ascend(np.array([[0.0, 2.0], [0.0, 2.0], [0.0, 3.0], [1.0, -5.0]]))
        assert not _rows_ascend(np.array([[0.0, 3.0], [0.0, 2.0]]))
        assert not _rows_ascend(np.array([[1.0, -5.0], [0.0, 9.0]]))
        assert _rows_ascend(np.zeros((1, 3)))
