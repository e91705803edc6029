"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with -s to see them) and enforcing its runtime budget.
"""

import functools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import synth
from oracles import direct_diversity, loop_bucket_counts_v1, loop_embed
from test_ngram import cross_entropy, oracle_log2prob
from scalingfilter.cli import main
from scalingfilter.corpus import Document, write_corpus
from scalingfilter.diversity import (
    _spectrum,
    dataset_mix_experiment,
    semantic_diversity,
    subsample_diversity,
)
from scalingfilter.embedding import HashedProjectionEmbedder
from scalingfilter.errors import ConditionRegionViolatedError
from scalingfilter.ngram import train_ngram, train_pair
from scalingfilter.parallel import fork_map
from scalingfilter.scaling import (
    d2loss_da_dN,
    dloss_dN,
    mixed_partial_bracket,
    reparam_loss,
    secant_slope,
    verification_report,
)
from scalingfilter.scoring import quality_factor, read_score_file, score_corpus
from scalingfilter.selection import (
    pareto_noisy_threshold,
    percentile_gate,
    select_temperature,
    select_topk,
)


@contextmanager
def criterion(num, description, budget_s):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[acceptance {num:02d}] FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget_s:
        print(f"[acceptance {num:02d}] FAIL  {description} (runtime {elapsed:.1f}s over {budget_s}s budget)")
        raise AssertionError(f"criterion {num} exceeded runtime budget: {elapsed:.1f}s >= {budget_s}s")
    print(f"[acceptance {num:02d}] PASS  {description} ({elapsed:.1f}s)")


# Frozen by the calibration run: a pair of orders (2, 5) trained on 3,000
# chain documents separates clean from word-shuffled text perfectly, giving
# top-70% precision 0.7143 (the 500/700 ceiling). Threshold frozen at 0.71,
# strictly above the 0.7 base rate demanded of the selection.
PRECISION_THRESHOLD = 0.71

CHAIN_SEED = 12345


@pytest.fixture(scope="module")
def separation_setup():
    train = synth.chain_corpus(seed=CHAIN_SEED, n_docs=3000, tag="train", chain_seed=CHAIN_SEED)
    clean = synth.chain_corpus(seed=CHAIN_SEED + 1, n_docs=500, tag="clean", chain_seed=CHAIN_SEED)
    shuffled = synth.shuffled_counterparts(clean, seed=CHAIN_SEED + 2)
    pair = train_pair(train, 2, 5, smoothing_k=0.01)
    return pair, clean, shuffled


@pytest.fixture(scope="module")
def scored_thousand(separation_setup, tmp_path_factory):
    pair, clean, shuffled = separation_setup
    out = tmp_path_factory.mktemp("scored-thousand") / "scores.tsv"
    score_corpus(pair.small, pair.large, clean + shuffled, out)
    return pair, read_score_file(out)


def test_criterion_01_quality_factor_identities(separation_setup):
    with criterion(1, "quality-factor identity suite (d=1, antisymmetry, scale)", 5):
        pair, _, _ = separation_setup
        model = pair.small
        rng = np.random.Generator(np.random.PCG64(1001))
        docs = [synth.random_text(rng, int(rng.integers(20, 80))) for _ in range(1000)]
        ppls = [model.perplexity(text) for text in docs]
        for ppl in ppls:
            assert abs(quality_factor(ppl, ppl) - 1.0) <= 1e-12
        other = [p * float(c) for p, c in zip(ppls, rng.uniform(0.5, 2.0, 1000))]
        for p, q, c in zip(ppls, other, rng.uniform(0.1, 10.0, 1000)):
            assert abs(quality_factor(p, q) * quality_factor(q, p) - 1.0) <= 1e-12
            assert abs(quality_factor(c * p, c * q) - quality_factor(p, q)) <= 1e-12


def test_criterion_02_perplexity_oracle_equivalence():
    with criterion(2, "cross-entropy matches brute-force oracle, orders {1,2,3,5}", 30):
        rng = np.random.Generator(np.random.PCG64(2002))
        texts = [synth.random_text(rng, int(rng.integers(10, 120))) for _ in range(100)]
        docs = [Document(f"toy:{i:03d}", t) for i, t in enumerate(texts)]
        for order in (1, 2, 3, 5):
            model = train_ngram(docs, order=order, smoothing_k=0.01)
            for text in texts:
                n_tokens = len(text.encode("utf-8"))
                expected_L = -oracle_log2prob(texts, order, 0.01, text) / n_tokens
                got_L = cross_entropy(model, text)
                assert got_L == pytest.approx(expected_L, rel=1e-9)
                assert model.perplexity(text) == pytest.approx(2.0**expected_L, rel=1e-9)


def test_criterion_03_loss_gap_identity(scored_thousand):
    with criterion(3, "d equals 2^(L_small - L_large) for every scored document", 5):
        pair, scores = scored_thousand
        # recompute the loss gap directly from the models for each scored doc
        clean = synth.chain_corpus(seed=CHAIN_SEED + 1, n_docs=500, tag="clean", chain_seed=CHAIN_SEED)
        shuffled = synth.shuffled_counterparts(clean, seed=CHAIN_SEED + 2)
        texts = {d.id: d.text for d in clean + shuffled}
        for doc_id, d in zip(scores["doc_id"], scores["quality_factor"]):
            gap = cross_entropy(pair.small, texts[doc_id]) - cross_entropy(pair.large, texts[doc_id])
            assert abs(d - 2.0**gap) <= 1e-12 * max(d, 2.0**gap)


def test_criterion_04_derivation_checks():
    with criterion(4, "parametric-loss derivative, sign, and monotonicity checks", 10):
        E, A, B, eta, D = 1.69, 406.4, 410.7, 0.62, 1e10
        a_grid10 = np.linspace(0.1, 0.9, 10)
        n_grid10 = np.logspace(8, 9, 10)
        # negative dL/dN everywhere on the 10x10 grid
        for a in a_grid10:
            for N in n_grid10:
                assert dloss_dN(A, a, eta, N) < 0
        # mixed partial negative exactly where the bracket is negative,
        # positive where it is positive (small N)
        for a in a_grid10:
            for N in list(n_grid10) + [2.0, 5.0, 10.0]:
                bracket = mixed_partial_bracket(a, eta, N)
                value = d2loss_da_dN(A, a, eta, N)
                if bracket < 0:
                    assert value < 0
                elif bracket > 0:
                    assert value > 0
        # finite-difference agreement at 1e-5 relative
        for a in a_grid10:
            for N in n_grid10:
                h = N * 1e-6
                fd = (reparam_loss(E, A, B, a, eta, N + h, D) - reparam_loss(E, A, B, a, eta, N - h, D)) / (2 * h)
                assert fd == pytest.approx(dloss_dN(A, a, eta, N), rel=1e-5)
                ha = 1e-6
                fd2 = (dloss_dN(A, a + ha, eta, N) - dloss_dN(A, a - ha, eta, N)) / (2 * ha)
                assert fd2 == pytest.approx(d2loss_da_dN(A, a, eta, N), rel=1e-5)
        # secant converges to tangent at relative gap 1e-6 within 1e-4
        for a in a_grid10:
            N_p = 1e8
            slope, _ = secant_slope(E, A, B, a, eta, N_p, N_p * (1 + 1e-6), D)
            assert slope == pytest.approx(dloss_dN(A, a, eta, N_p), rel=1e-4)
        # d_model strictly increasing over a 100-point grid
        mono = verification_report(E, A, B, 0.6, 1e8, 1e9, D)["details"]["monotonicity"]
        assert mono["a_grid"] == list(np.linspace(0.1, 0.9, 100))
        assert mono["strictly_increasing"]
        assert all(lo < hi for lo, hi in zip(mono["d_model"], mono["d_model"][1:]))
        # and the guard trips when the condition region is violated
        with pytest.raises(ConditionRegionViolatedError):
            verification_report(E, A, B, 0.6, 2.0, 1e9, D)


def test_criterion_06_diversity_closed_forms():
    with criterion(6, "eigenvalue-entropy diversity closed forms and dual path", 30):
        # n identical documents -> 1.0
        X_same = np.tile(np.array([[0.6, 0.8, 0.0]]), (12, 1))
        assert semantic_diversity(embeddings=X_same) == pytest.approx(1.0, abs=1e-9)
        # 16 orthogonal embeddings -> 16.0
        assert semantic_diversity(embeddings=np.eye(16)) == pytest.approx(16.0, abs=1e-9)
        # 2 documents at similarity 0.5 -> 1.7548
        X_half = np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        assert semantic_diversity(embeddings=X_half) == pytest.approx(1.7548, abs=1e-4)
        # permutation invariance, exact
        rng = np.random.Generator(np.random.PCG64(6006))
        X = rng.normal(size=(40, 9))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        base = semantic_diversity(embeddings=X)
        for trial in range(5):
            perm = np.random.Generator(np.random.PCG64(trial)).permutation(40)
            assert semantic_diversity(embeddings=X[perm]) == base
        # eigenvalue simplex and dual-vs-direct agreement on 20 random instances
        for _ in range(20):
            n = int(rng.integers(11, 51))
            m = int(rng.integers(2, 11))
            Xr = rng.normal(size=(n, m))
            Xr /= np.linalg.norm(Xr, axis=1, keepdims=True)
            lam = _spectrum(embeddings=Xr)
            assert lam.min() >= -1e-8
            assert abs(lam.sum() - 1.0) <= 1e-10
            dual = semantic_diversity(embeddings=Xr)
            direct = direct_diversity(Xr)
            assert abs(dual - direct) <= 1e-8


@pytest.fixture(scope="module")
def fidelity_corpus():
    a = synth.cluster_corpus(seed=701, alphabet="abcdefghijklm", tag="fa", n_docs=6000)
    b = synth.cluster_corpus(seed=702, alphabet="nopqrstuvwxyz", tag="fb", n_docs=6000)
    return [d.text for d in a + b]


def test_criterion_07_protocol_parameters(fidelity_corpus):
    with criterion(7, "keep rate 0.7, 15/85 gate, Pareto alpha=9 tail, 10k diversity", 300):
        rng = np.random.Generator(np.random.PCG64(7007))
        # keep rate 0.7 -> ceil(0.7 n) documents
        for n in (10, 99, 1000):
            result = select_topk([f"d{i:04d}" for i in range(n)], rng.uniform(0.5, 5.0, n).tolist(), keep_rate=0.7)
            assert result.kept_count == math.ceil(0.7 * n)
        # percentile gate 15/85 keeps the middle 70% within 1/n
        for n in (100, 997):
            result = percentile_gate([f"d{i:04d}" for i in range(n)], rng.uniform(1, 100, n).tolist(), 15, 85)
            assert abs(result.kept_count / n - 0.7) <= 1.0 / n + 1e-12
        # Pareto alpha=9: P(x > 1) = 2^-9 within +/-0.0005 over 1e6 draws
        n = 1_000_000
        kept = pareto_noisy_threshold([str(i) for i in range(n)], [0.0] * n, alpha=9.0, seed=9).kept_count
        assert abs(kept / n - 2.0**-9) < 0.0005
        # diversity fidelity mode: n=10,000 with 10 repeats via the dual path
        emb = HashedProjectionEmbedder(dim=64, seed=0)
        report = subsample_diversity(fidelity_corpus, emb, n=10_000, repeats=10, seed=70)
        assert report["sample_size"] == 10_000
        assert len(report["values"]) == 10
        assert all(1.0 <= v <= 10_000 for v in report["values"])
        assert report["std"] < report["mean"]  # stabilized, not degenerate


def test_criterion_08_temperature_limits():
    with criterion(8, "temperature-sampling limits: top-k, uniform, softmax", 60):
        rng = np.random.Generator(np.random.PCG64(8008))
        # tau -> 0: kept set equals top-k for 100 random score vectors
        for trial in range(100):
            n = int(rng.integers(5, 40))
            ids, d = [f"d{i:03d}" for i in range(n)], rng.uniform(0.1, 10.0, n).tolist()
            keep = float(rng.uniform(0.2, 0.9))
            kept_topk = set(select_topk(ids, d, keep_rate=keep).kept_ids)
            kept_tiny = set(select_temperature(ids, d, keep_rate=keep, tau=1e-9, seed=trial).kept_ids)
            assert kept_tiny == kept_topk
        # tau -> inf: uniform inclusion within +/-2% over 10,000 trials
        ids, d = [f"d{i}" for i in range(10)], [float(i + 1) for i in range(10)]
        hits = dict.fromkeys(ids, 0)
        trials = 10_000
        for t in range(trials):
            for doc_id in select_temperature(ids, d, keep_rate=0.5, tau=1e9, seed=t).kept_ids:
                hits[doc_id] += 1
        for count in hits.values():
            assert abs(count / trials - 0.5) <= 0.02
        # tau = 1: single-pick frequencies match softmax(2,1,0) within +/-0.02
        # keep_rate chosen so exactly one of three is kept
        picks = {"a": 0, "b": 0, "c": 0}
        trials = 100_000
        for t in range(trials):
            (kept,) = select_temperature(["a", "b", "c"], [2.0, 1.0, 0.0], keep_rate=1 / 3, tau=1.0, seed=t).kept_ids
            picks[kept] += 1
        softmax = np.exp([2.0, 1.0, 0.0])
        softmax /= softmax.sum()
        for doc_id, expected in zip("abc", softmax):
            assert abs(picks[doc_id] / trials - expected) <= 0.02


def test_criterion_09_directional_quality_separation(separation_setup, scored_thousand):
    with criterion(9, f"clean vs shuffled separation, precision >= {PRECISION_THRESHOLD}", 120):
        _, clean, shuffled = separation_setup
        _, scores = scored_thousand
        by_id = dict(zip(scores["doc_id"], scores["quality_factor"]))
        d_clean = [by_id[d.id] for d in clean]
        d_shuffled = [by_id[d.id] for d in shuffled]
        assert np.mean(d_clean) > np.mean(d_shuffled)
        result = select_topk(scores["doc_id"], scores["quality_factor"], keep_rate=0.7)
        kept = set(result.kept_ids)
        precision = sum(1 for d in clean if d.id in kept) / len(kept)
        assert precision > 0.7  # above base rate
        assert precision >= PRECISION_THRESHOLD  # frozen calibration margin


@pytest.fixture(scope="module")
def pipeline_corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    docs = synth.chain_corpus(seed=4242, n_docs=10_000, tag="p", words_lo=20, words_hi=40, chain_seed=4242)
    write_corpus(docs, root / "corpus", shard_size=2500, corpus_id="pipeline")
    return root


def test_criterion_10_pipeline_determinism(pipeline_corpus_dir):
    with criterion(10, "score/filter/diversity determinism incl. 8-worker scoring", 120):
        root = pipeline_corpus_dir
        corpus = root / "corpus"
        pair_dir = root / "pair"
        assert main([
            "train-meta", "--corpus", str(corpus), "--small-order", "2",
            "--large-order", "5", "--out", str(pair_dir),
        ]) == 0

        outputs = []
        for run in ("run1", "run2"):
            out = root / run
            assert main([
                "score", "--corpus", str(corpus), "--pair", str(pair_dir),
                "--workers", "1", "--out", str(out / "score"),
            ]) == 0
            assert main([
                "filter", "--scores", str(out / "score" / "scores.tsv"),
                "--method", "topk", "--keep-rate", "0.7",
                "--corpus", str(corpus), "--seed", "99", "--out", str(out / "filter"),
            ]) == 0
            assert main([
                "diversity", "--corpus", str(out / "filter" / "filtered"),
                "--n", "1000", "--repeats", "10", "--seed", "99", "--out", str(out / "diversity"),
            ]) == 0
            outputs.append(out)

        r1, r2 = outputs
        assert (r1 / "score" / "scores.tsv").read_bytes() == (r2 / "score" / "scores.tsv").read_bytes()
        assert (r1 / "filter" / "kept_ids.txt").read_bytes() == (r2 / "filter" / "kept_ids.txt").read_bytes()
        assert (r1 / "diversity" / "diversity.json").read_bytes() == (r2 / "diversity" / "diversity.json").read_bytes()

        assert main([
            "score", "--corpus", str(corpus), "--pair", str(pair_dir),
            "--workers", "8", "--out", str(root / "run8" / "score"),
        ]) == 0
        assert (root / "run8" / "score" / "scores.tsv").read_bytes() == (
            r1 / "score" / "scores.tsv"
        ).read_bytes()


def test_criterion_11_diversity_trends(fidelity_corpus):
    with criterion(11, "subsample std shrinks with n; mix curve strictly increases", 120):
        emb = HashedProjectionEmbedder(dim=64, seed=0)
        corpus = fidelity_corpus[:1000] + fidelity_corpus[6000:7000]
        # 60 repeats: with 10, the std estimates were too noisy for a strict ordering on about
        # a quarter of seeds
        stds = [
            subsample_diversity(corpus, emb, n=n, repeats=60, seed=42)["std"]
            for n in (50, 200, 800)
        ]
        assert stds[0] > stds[1] > stds[2]

        clusters = ((711, "abcdefghi", "ma"), (712, "jklmnopqr", "mb"), (713, "stuvwxyz0", "mc"))
        mix = [[d.text for d in synth.cluster_corpus(seed=seed, alphabet=letters, tag=tag, n_docs=500)]
               for seed, letters, tag in clusters]
        curve = dataset_mix_experiment(mix, emb, n=300, repeats=5, seed=7)["curve"]
        means = [row["mean"] for row in curve]
        assert means[0] < means[1] < means[2]


class _V1Embedder:
    """The hashed embedder with its earlier blake2b bucket, one text at a time, from ``bucket_counts``."""

    def __init__(self, seed: int, bucket_counts):
        self.signs = HashedProjectionEmbedder(dim=64, seed=seed)._sign_matrix()
        self.bucket_counts = bucket_counts

    def embed(self, docs):
        return loop_embed(self.signs, docs, self.bucket_counts)

    def fingerprint(self):
        return "hashed-projection-v1"


def _v1_mean(docs, person: bytes) -> float:
    """Mean diversity under one v1 draw, averaged over projection seeds 0-3."""
    counts = functools.lru_cache(maxsize=None)(functools.partial(loop_bucket_counts_v1, person=person))
    return float(np.mean([subsample_diversity(docs, _V1Embedder(s, counts), n=500, repeats=5, seed=5)["mean"]
                          for s in range(4)]))


def test_criterion_12_hash_change_bounded():
    # sizes and seeds fixed before the splitmix64 bucket replaced blake2b; measured z 0.76, 1.51, 0.61
    with criterion(12, "splitmix64 bucket keeps diversity within 3 sd of five blake2b draws", 120):
        chain = synth.chain_corpus(seed=11, n_docs=1500)
        corpora = {
            "chain": chain,
            "shuffled": synth.shuffled_counterparts(chain, seed=12),
            "a-m": synth.cluster_corpus(seed=701, alphabet="abcdefghijklm", tag="am", n_docs=1500),
        }
        persons = [b"", b"1", b"2", b"3", b"4"]
        for name, docs in corpora.items():
            docs = [d.text for d in docs]
            v2 = np.mean([subsample_diversity(docs, HashedProjectionEmbedder(dim=64, seed=s), n=500, repeats=5,
                                              seed=5)["mean"] for s in range(4)])
            v1 = fork_map(functools.partial(_v1_mean, docs), persons, 2)
            z = (v2 - np.mean(v1)) / np.std(v1, ddof=1)
            assert abs(z) <= 3, (name, v2, v1, z)

