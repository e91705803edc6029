import itertools
import math
import multiprocessing

import numpy as np
import pytest

import synth
from oracles import loop_bucket, loop_bucket_counts, loop_embed
from scalingfilter import embedding, remote
from scalingfilter.embedding import (
    HASH_BUCKETS,
    NGRAM_SIZES,
    HashedProjectionEmbedder,
    RemoteEmbedder,
)
from scalingfilter.errors import DegenerateEmbeddingError, EmbedderUnavailableError
from scalingfilter.seeding import rng_for


class TestHashedProjection:
    def test_identical_docs_identical_rows(self):
        emb = HashedProjectionEmbedder(dim=16, seed=1)
        X = emb.embed(["the same text here", "the same text here"])
        assert np.array_equal(X[0], X[1])
        assert X[0] @ X[1] == pytest.approx(1.0, abs=1e-12)

    def test_rows_unit_normalized(self):
        emb = HashedProjectionEmbedder(dim=32, seed=2)
        X = emb.embed([f"document number {i} with words" for i in range(20)])
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-9)

    def test_deterministic_across_instances(self):
        texts = ["alpha beta gamma", "delta epsilon zeta"]
        X1 = HashedProjectionEmbedder(dim=16, seed=5).embed(texts)
        X2 = HashedProjectionEmbedder(dim=16, seed=5).embed(texts)
        assert np.array_equal(X1, X2)

    def test_seed_changes_embedding(self):
        texts = ["alpha beta gamma"]
        X1 = HashedProjectionEmbedder(dim=16, seed=5).embed(texts)
        X2 = HashedProjectionEmbedder(dim=16, seed=6).embed(texts)
        assert not np.array_equal(X1, X2)

    def test_matches_straight_line_oracle(self):
        # independent re-derivation: hash -> count -> project -> normalize
        dim, seed = 12, 9
        docs = [f"oracle text {i} padded with tokens" for i in range(20)]
        emb = HashedProjectionEmbedder(dim=dim, seed=seed)
        X = emb.embed(docs)

        signs = (
            rng_for(seed, "hashed-projection-signs").integers(
                0, 2, size=(HASH_BUCKETS, dim), dtype=np.int8
            )
            * 2
            - 1
        )
        for row, text in enumerate(docs):
            data = text.encode("utf-8")
            vec = np.zeros(dim)
            for size in NGRAM_SIZES:
                for i in range(len(data) - size + 1):
                    vec += signs[loop_bucket(data[i : i + size])]
            vec /= np.linalg.norm(vec)
            assert np.allclose(X[row], vec, atol=1e-9)

    def test_sign_matrix_matches_the_drawn_expression(self):
        # the matrix is taken from raw generator bits; rng.integers defines it
        for seed, dim in itertools.product((0, 4, 2**40 + 3), (2, 3, 16, 64)):
            rng = rng_for(seed, "hashed-projection-signs")
            expected = (rng.integers(0, 2, size=(HASH_BUCKETS, dim), dtype=np.int8) * 2 - 1).astype(np.int8)
            signs = HashedProjectionEmbedder(dim=dim, seed=seed)._sign_matrix()
            assert signs.dtype == np.int8
            assert np.array_equal(signs, expected), (seed, dim)

    def test_too_short_doc_is_degenerate(self):
        emb = HashedProjectionEmbedder(dim=8, seed=0)
        with pytest.raises(DegenerateEmbeddingError) as exc:
            emb.embed(["ab"])
        assert exc.value.code == "degenerate-embedding"

    def test_fingerprint_names_the_hash(self):
        assert HashedProjectionEmbedder(dim=8, seed=1).fingerprint() == (
            "hashed-projection:dim=8:buckets=262144:ngrams=(3, 4, 5):seed=1:hash=splitmix64")

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            HashedProjectionEmbedder(dim=1)


class TestLoopOracle:
    """The chunked embedder equals one Python-int hash per window, one text at a time, exactly."""

    TEXTS = ["abc", "abcd", "abcde", "é€x", "😀😀", "中文字符", "the quick brown fox", "abc abc abc abc"] + [
        f"document {i} about topic {i % 7}, with accents éàü and symbols €{i}" for i in range(40)
    ]

    @pytest.mark.parametrize("chunk_bytes", [1, 10, 100, 1 << 18])
    @pytest.mark.parametrize("seed", [0, 50, 1 << 22])
    def test_rows_equal_the_loop(self, monkeypatch, chunk_bytes, seed):
        # chunk_bytes 1, 10 and 100: documents straddle embedding chunks; each projection
        # seed draws its own sign matrix, which the chunked rows must reproduce exactly
        monkeypatch.setattr(embedding, "_CHUNK_BYTES", chunk_bytes)
        emb = HashedProjectionEmbedder(dim=16, seed=seed)
        expected = loop_embed(emb._sign_matrix(), self.TEXTS)
        for workers in (1, 2, 3):
            monkeypatch.setattr(embedding, "_cpu_count", lambda: workers)
            assert np.array_equal(emb.embed(self.TEXTS), expected)
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("length", [10925, 10926])
    def test_rows_at_the_int16_bound_equal_the_loop(self, length):
        # a text of L equal bytes has 3L - 9 windows: 32766, the most a text can have below
        # 2^15 (rows summed in int16), then 32769 (int64). Its windows fall in three buckets,
        # so a dimension where their signs agree sums to the window count, the bound itself
        text = "a" * length
        emb = HashedProjectionEmbedder(dim=64, seed=0)
        counts = loop_bucket_counts(text)
        signs = emb._sign_matrix()
        peak = np.abs(sum(signs[b].astype(np.int64) * n for b, n in counts.items())).max()
        assert peak == sum(counts.values()) == 3 * length - 9
        texts = [text, "a short text after it"]
        assert np.array_equal(emb.embed(texts), loop_embed(signs, texts))

    def test_buckets_equal_the_loop_on_every_byte(self):
        data = [bytes(range(256)), bytes(range(255, -1, -1)), b"\xff" * 7]
        windows, _ = embedding._windows(data)
        expected = [loop_bucket(d[i : i + size])
                    for d in data for i in range(len(d)) for size in NGRAM_SIZES if i + size <= len(d)]
        assert embedding._buckets(windows).tolist() == expected

    @pytest.mark.parametrize("chunk_bytes", [1, 30, 1 << 18])
    def test_degenerate_row_named_across_chunks(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(embedding, "_CHUNK_BYTES", chunk_bytes)
        texts = self.TEXTS[:7] + ["ab"] + self.TEXTS[7:]
        with pytest.raises(DegenerateEmbeddingError, match="row 7 yields no character n-grams"):
            HashedProjectionEmbedder(dim=8, seed=0).embed(texts)

    def test_zero_projection_row_named(self):
        emb = HashedProjectionEmbedder(dim=2, seed=0)
        zero = _zero_projecting_text(emb)
        with pytest.raises(DegenerateEmbeddingError, match="row 2 projects to the zero vector"):
            emb.embed(["first text", "second text", zero])


def _zero_projecting_text(emb: HashedProjectionEmbedder) -> str:
    """A 5-byte text whose window signs cancel, found by search: they depend on the hash."""
    signs = emb._sign_matrix()
    candidates = ("".join(chars) for chars in itertools.product("abcd", repeat=5))
    return next(t for t in candidates
                if not np.any(sum(signs[b] * n for b, n in loop_bucket_counts(t).items())))


class TestHashUniformity:
    """The numpy bucket spreads real window sets over the buckets as a random function would.

    Sets and sizes were fixed before the hash was chosen. Measured z: 1.26,
    -0.24, 0.45 and 0.27 (the earlier blake2b bucket: -0.36, -1.14, 1.37, 1.0).
    """

    def test_buckets_used_within_three_sigma(self):
        chain = synth.chain_corpus(seed=11, n_docs=3000)
        sets = {
            "chain": chain,
            "shuffled": synth.shuffled_counterparts(chain, seed=12),
            "a-m": synth.cluster_corpus(seed=701, alphabet="abcdefghijklm", tag="am", n_docs=3000),
            "n-z": synth.cluster_corpus(seed=701, alphabet="nopqrstuvwxyz", tag="nz", n_docs=3000),
        }
        B = HASH_BUCKETS
        for name, docs in sets.items():
            windows, _ = embedding._windows([d.text.encode("utf-8") for d in docs])
            distinct = np.unique(windows)
            k = len(distinct)
            used = len(np.unique(embedding._buckets(distinct)))
            # k balls into B bins: expected occupied bins and its variance
            empty = math.exp(-k / B)
            mean = B * (1 - empty)
            std = math.sqrt(B * empty * (1 - (1 + k / B) * empty))
            assert abs(used - mean) <= 3 * std, (name, k, used, mean, std)


class TestParallelEmbed:
    """Chunks of one ``embed`` call run on forked processes; nothing about the result shows how many."""

    TEXTS = TestLoopOracle.TEXTS

    @pytest.fixture
    def chunked(self, monkeypatch):
        monkeypatch.setattr(embedding, "_CHUNK_BYTES", 100)

        def force(workers):
            monkeypatch.setattr(embedding, "_cpu_count", lambda: workers)

        return force

    @pytest.mark.parametrize("zero_rows", [(5, 25, 45), (45,)])
    def test_zero_row_named_as_in_a_serial_run(self, chunked, zero_rows):
        emb = HashedProjectionEmbedder(dim=2, seed=0)
        zero = _zero_projecting_text(emb)
        texts = list(self.TEXTS)
        for row in zero_rows:
            texts.insert(row, zero)
        chunks = list(embedding._chunks([t.encode("utf-8") for t in texts]))
        holding = [i for i, (a, b) in enumerate(chunks) for row in zero_rows if a <= row < b]
        # each zero row in its own chunk, and the last one in a chunk after the first
        assert len(set(holding)) == len(zero_rows) and holding[-1] > 0
        for workers in (1, 3):
            chunked(workers)
            with pytest.raises(DegenerateEmbeddingError) as exc:
                emb.embed(texts)
            assert exc.value.code == "degenerate-embedding"
            assert str(exc.value) == f"document row {zero_rows[0]} projects to the zero vector"
            assert multiprocessing.active_children() == []

    def test_daemonic_process_embeds_serially(self, chunked):
        chunked(3)
        expected = HashedProjectionEmbedder(dim=16, seed=3).embed(self.TEXTS)
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def child():
            # a daemonic process may not start a pool: this raises unless embed stays serial
            send.send(HashedProjectionEmbedder(dim=16, seed=3).embed(self.TEXTS))

        proc = ctx.Process(target=child, daemon=True)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
        assert proc.exitcode == 0
        assert np.array_equal(receive.recv(), expected)


class TestRemoteEmbedder:
    @pytest.fixture(autouse=True)
    def two_attempts(self, monkeypatch):
        monkeypatch.setattr(remote, "RETRIES", 2)

    def test_normalized_response(self, make_service):
        def embed_fn(texts):
            return [[1.0, 0.0, 0.0] for _ in texts], True

        svc = make_service(embed_fn=embed_fn)
        emb = RemoteEmbedder(svc.url)
        X = emb.embed(["a text", "b text"])
        assert X.shape == (2, 3)
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0)

    def test_unnormalized_response_gets_normalized(self, make_service):
        def embed_fn(texts):
            return [[3.0, 4.0] for _ in texts], False

        svc = make_service(embed_fn=embed_fn)
        X = RemoteEmbedder(svc.url).embed(["a"])
        assert np.allclose(X[0], [0.6, 0.8])

    def test_batching(self, make_service, monkeypatch):
        calls = []

        def embed_fn(texts):
            calls.append(len(texts))
            return [[1.0, 0.0] for _ in texts], True

        svc = make_service(embed_fn=embed_fn)
        RemoteEmbedder(svc.url).embed([f"t{i}" for i in range(130)])
        monkeypatch.setattr(embedding, "BATCH_TEXTS", 4)
        RemoteEmbedder(svc.url).embed([f"t{i}" for i in range(10)])
        assert calls == [64, 64, 2, 4, 4, 2]

    def test_failure_is_embedder_unavailable(self, make_service):
        svc = make_service(embed_fn=lambda texts: ([[1.0, 0.0]] * len(texts), True))
        svc.set_failing(True)
        with pytest.raises(EmbedderUnavailableError) as exc:
            RemoteEmbedder(svc.url).embed(["x"])
        assert exc.value.code == "embedder-unavailable"

    def test_zero_vector_is_degenerate(self, make_service):
        svc = make_service(embed_fn=lambda texts: ([[0.0, 0.0]] * len(texts), False))
        with pytest.raises(DegenerateEmbeddingError):
            RemoteEmbedder(svc.url).embed(["x"])

    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("rows", [
        [[float("nan"), 1.0]],
        [[float("inf"), 0.0]],
        [[1.0, 0.0, 0.0], [1.0, 0.0]],  # ragged
        [["one", 0.0]],
        [["0.6", "0.8"]],  # numbers as strings
        [[True, False]],
        [[None, 1.0]],
        [1.0, 0.0],  # scalars, not rows
        [[[1.0, 0.0]], [[1.0, 0.0]]],  # one level too deep
        [[], []],
    ])
    def test_bad_block_is_unavailable(self, make_service, normalized, rows):
        svc = make_service(reply={"embeddings": rows, "model": "m", "normalized": normalized})
        with pytest.raises(EmbedderUnavailableError, match="not a finite numeric block of one width"):
            RemoteEmbedder(svc.url).embed(["x"] * len(rows))

    def test_width_change_between_batches_is_unavailable(self, make_service, monkeypatch):
        monkeypatch.setattr(embedding, "BATCH_TEXTS", 2)
        widths = iter([2, 3])
        svc = make_service(embed_fn=lambda texts: ([[1.0] + [0.0] * (next(widths) - 1)] * len(texts), True))
        with pytest.raises(EmbedderUnavailableError, match="one width"):
            RemoteEmbedder(svc.url).embed(["a", "b", "c"])

    def test_renamed_model_is_unavailable(self, make_service, monkeypatch):
        monkeypatch.setattr(embedding, "BATCH_TEXTS", 2)
        svc = make_service(embed_fn=lambda texts: ([[1.0, 0.0]] * len(texts), True),
                           model=lambda n: "m" if n == 1 else "m2")
        emb = RemoteEmbedder(svc.url)
        with pytest.raises(EmbedderUnavailableError, match="answered as model 'm2'"):
            emb.embed(["a", "b", "c"])
        assert emb.fingerprint() == f"remote:{svc.url}:m"

    def test_count_mismatch_is_unavailable(self, make_service):
        svc = make_service(embed_fn=lambda texts: ([[1.0, 0.0]], True))
        with pytest.raises(EmbedderUnavailableError):
            RemoteEmbedder(svc.url).embed(["x", "y"])
