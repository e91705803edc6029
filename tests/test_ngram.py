import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synth
from oracles import LoopNGramModel
from scalingfilter import ngram
from scalingfilter.errors import InvalidPairSpecError, NoTrainingDataError
from scalingfilter.ngram import (
    BOUNDARY,
    MAX_ORDER,
    MetaModelPair,
    NGramModel,
    load_pair,
    save_pair,
    tokenize,
    train_ngram,
    train_pair,
)


def doc(text, id="d"):
    return synth.document(id, text)


def untrained(order, smoothing_k=0.01):
    """A model of no documents: every key array empty."""
    return NGramModel(order, smoothing_k, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0)


def count_table(model):
    """{(context tuple, next byte): count} decoded from the model's sorted key array."""
    table = {}
    for key, count in zip(model.keys.tolist(), model.counts.tolist()):
        ctx, tok = divmod(key, 256)
        symbols = []
        for _ in range(model.order - 1):
            ctx, symbol = divmod(ctx, 257)
            symbols.insert(0, symbol)
        table[tuple(symbols), tok] = count
    return table


def probability(model, context, token):
    """P(token | context) from the model's per-key log2 terms."""
    ctx = 0
    for symbol in context:
        ctx = ctx * 257 + symbol
    keys, seen, unseen = model._log2_terms()
    in_ctx = np.flatnonzero((keys >> 8) == ctx)
    if len(in_ctx) == 0:
        return 2.0 ** unseen[0]  # a context never seen
    hit = in_ctx[keys[in_ctx] == ctx * 256 + token]
    return 2.0 ** (seen[hit[0]] if len(hit) else unseen[in_ctx[0]])


class TestTokenize:
    def test_ascii(self):
        assert list(tokenize("ab")) == [0x61, 0x62]

    def test_multibyte_utf8(self):
        assert list(tokenize("é")) == [0xC3, 0xA9]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tokenize("")


# Straight-line counting oracle: tuple-keyed dicts, no packing, no rolling
# context update. Kept deliberately independent of the implementation.
def oracle_counts(texts, order):
    counts = {}
    for text in texts:
        tokens = [BOUNDARY] * (order - 1) + list(text.encode("utf-8"))
        for i in range(order - 1, len(tokens)):
            ctx = tuple(tokens[i - order + 1 : i])
            counts.setdefault(ctx, {}).setdefault(tokens[i], 0)
            counts[ctx][tokens[i]] += 1
    return counts


def cross_entropy(model, text):
    """Bits per token of a text under a model, from the log2 probability its scoring path sums."""
    totals, lengths = model._log2_probabilities([text])
    return -totals[0] / lengths[0]


def oracle_log2prob(texts_trained, order, k, eval_text):
    counts = oracle_counts(texts_trained, order)
    tokens = [BOUNDARY] * (order - 1) + list(eval_text.encode("utf-8"))
    total = 0.0
    for i in range(order - 1, len(tokens)):
        ctx = tuple(tokens[i - order + 1 : i])
        table = counts.get(ctx, {})
        num = table.get(tokens[i], 0) + k
        den = sum(table.values()) + k * 256
        total += math.log2(num / den)
    return total


class TestTraining:
    def test_unigram_counts_direct(self):
        model = train_ngram([doc("aaaa")], order=1)
        assert model.total_tokens_trained == 4
        assert model.keys.tolist() == [ord("a")] and model.counts.tolist() == [4]

    def test_bigram_counts_direct(self):
        model = train_ngram([doc("ab", "1"), doc("ab", "2")], order=2)
        table = count_table(model)
        assert table[((ord("a"),), ord("b"))] == 2
        assert table[((BOUNDARY,), ord("a"))] == 2

    def test_counts_match_oracle_on_toy_corpus(self):
        rng = np.random.Generator(np.random.PCG64(5))
        texts = [synth.random_text(rng, int(rng.integers(5, 60))) for _ in range(100)]
        model = train_ngram([doc(t, str(i)) for i, t in enumerate(texts)], order=3)
        expected = oracle_counts(texts, 3)
        got = {}
        for (ctx, tok), count in count_table(model).items():
            got.setdefault(ctx, {})[tok] = count
        assert got == expected

    def test_empty_corpus_rejected(self):
        with pytest.raises(NoTrainingDataError) as exc:
            train_ngram([], order=2)
        assert exc.value.code == "no-training-data"

    def test_boundary_never_predicted(self):
        model = train_ngram([doc("xy")], order=2)
        assert count_table(model) == {((BOUNDARY,), ord("x")): 1, ((ord("x"),), ord("y")): 1}


class TestCrossEntropy:
    def test_untrained_model_is_uniform(self):
        model = untrained(3)
        assert cross_entropy(model, "any text at all") == 8.0
        assert model.perplexity("other") == 256.0

    def test_hand_computed_add_one_case(self):
        # P(a) = (4 + 1) / (4 + 256) = 5/260
        model = train_ngram([doc("aaaa")], order=1, smoothing_k=1.0)
        expected = -math.log2(5 / 260)
        assert cross_entropy(model, "a") == pytest.approx(5.700439718141092, abs=1e-12)
        assert cross_entropy(model, "a") == pytest.approx(expected, abs=1e-15)
        assert model.perplexity("a") == pytest.approx(52.0, rel=1e-12)

    def test_perplexity_is_two_to_the_loss(self):
        model = train_ngram([doc("the quick brown fox")], order=2)
        text = "the town"
        assert model.perplexity(text) == 2.0 ** cross_entropy(model, text)

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_matches_per_token_oracle(self, order):
        rng = np.random.Generator(np.random.PCG64(order))
        texts = [synth.random_text(rng, int(rng.integers(10, 80))) for _ in range(40)]
        model = train_ngram([doc(t, str(i)) for i, t in enumerate(texts)], order=order, smoothing_k=0.01)
        for eval_text in texts[:10]:
            expected = -oracle_log2prob(texts, order, 0.01, eval_text) / len(eval_text.encode("utf-8"))
            assert cross_entropy(model, eval_text) == pytest.approx(expected, rel=1e-9)

    def test_probabilities_sum_to_one(self):
        model = train_ngram([doc("abcabcabd")], order=2)
        for ctx in [(ord("a"),), (ord("z"),), (BOUNDARY,)]:
            total = sum(probability(model, ctx, t) for t in range(256))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_training_order_invariance(self):
        docs = [doc(t, str(i)) for i, t in enumerate(["abc", "bcd", "cde", "def"])]
        m1 = train_ngram(docs, order=3)
        m2 = train_ngram(list(reversed(docs)), order=3)
        assert np.array_equal(m1.keys, m2.keys) and np.array_equal(m1.counts, m2.counts)
        assert cross_entropy(m1, "abcdef") == cross_entropy(m2, "abcdef")


class TestCapacity:
    def test_mean_loss_decreases_with_order(self):
        train = synth.chain_corpus(seed=101, n_docs=900, chain_seed=1)
        held_in = train[:500]
        means = []
        for order in (1, 2, 3, 5):
            model = train_ngram(train, order=order)
            means.append(np.mean([cross_entropy(model, d.text) for d in held_in]))
        assert means[0] > means[1] > means[2] > means[3]


class TestPair:
    def test_construction(self, small_docs):
        pair = train_pair(small_docs, 2, 5)
        assert pair.small.order == 2
        assert pair.large.order == 5
        assert pair.small.total_tokens_trained == pair.large.total_tokens_trained

    def test_order_violation(self, small_docs):
        with pytest.raises(InvalidPairSpecError) as exc:
            train_pair(small_docs, 5, 2)
        assert exc.value.code == "invalid-pair-spec"
        with pytest.raises(InvalidPairSpecError):
            train_pair(small_docs, 3, 3)

    def test_order_violation_reads_no_document(self, small_docs):
        stream = iter(small_docs)
        with pytest.raises(InvalidPairSpecError):
            train_pair(stream, 5, 2)
        assert len(list(stream)) == len(small_docs)

    def test_pair_invariant_checked_at_construction(self, small_docs):
        small = train_ngram(small_docs, 4)
        large = train_ngram(small_docs, 2)
        with pytest.raises(InvalidPairSpecError):
            MetaModelPair(small=small, large=large)

    def test_unequal_smoothing_k_refused_at_construction(self, small_docs):
        with pytest.raises(InvalidPairSpecError, match="smoothing_k"):
            MetaModelPair(small=train_ngram(small_docs, 2, 0.01), large=train_ngram(small_docs, 4, 1.0))

    def test_large_model_fits_held_in_text_better(self):
        train = synth.chain_corpus(seed=11, n_docs=500, chain_seed=1)
        pair = train_pair(train, 2, 5)
        held = synth.chain_corpus(seed=12, n_docs=100, chain_seed=1)
        mean_small = np.mean([cross_entropy(pair.small, d.text) for d in held])
        mean_large = np.mean([cross_entropy(pair.large, d.text) for d in held])
        assert mean_large < mean_small


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path, small_docs):
        model = train_ngram(small_docs, order=3, smoothing_k=0.01)
        path = tmp_path / "m.sfngram"
        model.save(path)
        loaded = NGramModel.load(path)
        assert loaded.order == model.order
        assert loaded.smoothing_k == model.smoothing_k
        assert loaded.total_tokens_trained == model.total_tokens_trained
        assert np.array_equal(loaded.keys, model.keys) and np.array_equal(loaded.counts, model.counts)
        for d in small_docs:
            assert loaded.perplexity(d.text) == model.perplexity(d.text)

    def test_save_is_deterministic(self, tmp_path, small_docs):
        model = train_ngram(small_docs, order=2)
        assert model.to_bytes() == train_ngram(small_docs, order=2).to_bytes()

    def test_fingerprint_changes_with_training(self, small_docs):
        fp = train_ngram(small_docs, order=2).fingerprint()
        assert train_ngram(small_docs + [doc("something new")], order=2).fingerprint() != fp

    def test_saved_and_loaded_fingerprints_match_the_bytes(self, tmp_path, small_docs):
        trained = train_ngram(small_docs, order=3)
        expected = hashlib.blake2b(trained.to_bytes(), digest_size=8).hexdigest()
        path = tmp_path / "m.sfngram"
        trained.save(path)
        assert trained.fingerprint() == expected
        assert NGramModel.load(path).fingerprint() == expected
        assert NGramModel.from_bytes(path.read_bytes()).fingerprint() == expected

    def test_trailing_bytes_rejected(self, small_docs):
        blob = train_ngram(small_docs, order=2).to_bytes()
        with pytest.raises(ValueError):
            NGramModel.from_bytes(blob + b"\0")

    def test_unigram_round_trip(self, tmp_path):
        model = train_ngram([doc("aaab")], order=1)
        path = tmp_path / "u.sfngram"
        model.save(path)
        assert NGramModel.load(path).to_bytes() == model.to_bytes()


def oracle_texts(seed, n_docs=60):
    """ASCII, 2- to 4-byte UTF-8 and texts shorter than 3 and 5 bytes."""
    rng = np.random.Generator(np.random.PCG64(seed))
    alphabet = list("abcde fghij") + ["é", "ß", "€", "中", "😀"]
    texts = ["a", "ab", "abc", "abcd", "é", "€", "😀", "ab€"]
    for _ in range(n_docs):
        texts.append("".join(rng.choice(alphabet, size=int(rng.integers(1, 40)))))
    return texts


class TestLoopOracle:
    """The sorted-array model equals the per-byte dict-of-dicts loop exactly."""

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("fold_bytes", [1, 37, 1 << 20])
    def test_counts_bytes_and_scores_equal_the_loop(self, monkeypatch, order, fold_bytes):
        # fold_bytes 1 and 37: training documents straddle count chunks
        monkeypatch.setattr(ngram, "_FOLD_BYTES", fold_bytes)
        texts = oracle_texts(order)
        oracle = LoopNGramModel(order, smoothing_k=0.01)
        for text in texts:
            oracle.add_document(text)
        model = train_ngram([doc(t, str(i)) for i, t in enumerate(texts)], order=order)
        assert model.total_tokens_trained == oracle.total_tokens_trained
        assert (model.keys.tolist(), model.counts.tolist()) == oracle.key_counts()
        assert model.n_contexts == len(oracle.counts)
        blob = model.to_bytes()
        assert blob == oracle.to_bytes()
        held_out = oracle_texts(100 + order, n_docs=20)
        loaded = NGramModel.from_bytes(blob)
        for m in (model, loaded):
            for text in texts + held_out:
                assert m._log2_probabilities([text])[0] == [oracle.log2_probability(text)]
            assert m.perplexities(texts + held_out) == [oracle.perplexity(t) for t in texts + held_out]

    @pytest.mark.parametrize("order", [2, 5])
    def test_trained_arrays_do_not_depend_on_chunk_size(self, monkeypatch, order):
        texts = oracle_texts(7, n_docs=200)
        arrays = []
        for fold_bytes in (1, 5, 64, 1000, 1 << 20):
            monkeypatch.setattr(ngram, "_FOLD_BYTES", fold_bytes)
            model = train_ngram([doc(t, str(i)) for i, t in enumerate(texts)], order=order)
            arrays.append((model.keys, model.counts))
        for keys, counts in arrays[1:]:
            assert np.array_equal(keys, arrays[0][0]) and np.array_equal(counts, arrays[0][1])

    def test_terms_round_as_math_log2(self):
        # numpy's vectorized log2 differs from math.log2 in the last bit for some inputs on
        # some CPUs (AVX-512); search for such a probability (c + k) / (t + 256 k) and use it
        k = 0.01
        total = np.arange(2, 800)[:, None]
        count = np.arange(1, 800)[None, :]
        prob = np.where(count < total, (count + k) / (total + k * 256), 0.5)
        differs = np.argwhere(np.log2(prob) != np.vectorize(math.log2)(prob))
        t, c = (int(total[differs[0][0], 0]), int(count[0, differs[0][1]])) if len(differs) else (2, 1)
        model = train_ngram([doc("a" * c + "b" * (t - c))], order=1, smoothing_k=k)
        assert model._log2_probabilities(["a"])[0] == [math.log2((c + k) / (t + k * 256))]

    def test_untrained_model_equals_the_loop(self):
        model, oracle = untrained(3), LoopNGramModel(3)
        assert model.to_bytes() == oracle.to_bytes()
        assert model._log2_probabilities(["a€"])[0] == [oracle.log2_probability("a€")]
        assert NGramModel.from_bytes(model.to_bytes()).perplexity("xyz") == oracle.perplexity("xyz")

    def test_highest_order_keys_do_not_overflow(self):
        # the first byte's context is six boundary symbols (256, the largest symbol), so its key
        # (257^6 - 1) * 256 + byte ~ 7.4e16 is the largest an order-7 model makes
        text = "\U0010ffff" * 4  # UTF-8 F4 8F BF BF: high bytes in every context
        oracle = LoopNGramModel(MAX_ORDER)
        oracle.add_document(text)
        model = train_ngram([doc(text)], order=MAX_ORDER)
        assert model.to_bytes() == oracle.to_bytes()
        assert model._log2_probabilities([text])[0] == [oracle.log2_probability(text)]

    def test_order_above_limit_rejected(self):
        with pytest.raises(InvalidPairSpecError) as exc:
            untrained(MAX_ORDER + 1)
        assert exc.value.code == "invalid-pair-spec"

    def test_pair_above_order_limit_reads_no_document(self, small_docs):
        stream = iter(small_docs)
        with pytest.raises(InvalidPairSpecError):
            train_pair(stream, 2, MAX_ORDER + 1)
        assert len(list(stream)) == len(small_docs)


class TestCountAlgebra:
    """Counts add: the counts of two corpora, summed by key, are the counts of both together."""

    @pytest.mark.parametrize("order", [1, 2, 5, 7])
    @pytest.mark.parametrize("fold_bytes", [1, 37, 1 << 20])
    def test_two_corpora_sum_to_the_model_of_both(self, monkeypatch, order, fold_bytes):
        monkeypatch.setattr(ngram, "_FOLD_BYTES", fold_bytes)
        a = [doc(t, f"a{i}") for i, t in enumerate(oracle_texts(order))]
        b = [doc(t, f"b{i}") for i, t in enumerate(oracle_texts(50 + order))]
        model_a, model_b, both = train_ngram(a, order), train_ngram(b, order), train_ngram(a + b, order)
        keys, counts = ngram._sum_by_key(np.concatenate((model_a.keys, model_b.keys)),
                                         np.concatenate((model_a.counts, model_b.counts)))
        assert np.array_equal(keys, both.keys) and np.array_equal(counts, both.counts)
        summed = NGramModel(order, 0.01, keys, counts, model_a.total_tokens_trained + model_b.total_tokens_trained)
        assert summed.to_bytes() == both.to_bytes()

    @settings(max_examples=150, deadline=None)
    @given(
        # keys from a few values (many duplicates) or from the whole order-7 key range
        st.lists(st.tuples(st.integers(0, 12) | st.integers(0, 257**6 * 256), st.integers(1, 10**9)),
                 max_size=300),
        st.sampled_from(["as drawn", "two sorted runs"]),
    )
    @example([], "as drawn")
    def test_sum_by_key_equals_a_counter(self, pairs, layout):
        if layout == "two sorted runs":  # a model's keys followed by a chunk's, as training merges them
            half = len(pairs) // 2
            pairs = sorted(pairs[:half]) + sorted(pairs[half:])
        keys = np.array([key for key, _ in pairs], dtype=np.int64)
        counts = np.array([count for _, count in pairs], dtype=np.int64)
        want = Counter()
        for key, count in pairs:
            want[key] += count
        got_keys, got_counts = ngram._sum_by_key(keys, counts)
        assert got_keys.dtype == got_counts.dtype == np.int64
        assert list(zip(got_keys.tolist(), got_counts.tolist())) == sorted(want.items())


class TestPairMarginal:
    """A pair's small model, summed from the large model's counts, equals one trained alone."""

    @pytest.mark.parametrize("small_order, large_order", [(1, 2), (2, 5), (1, 7), (6, 7)])
    @pytest.mark.parametrize("fold_bytes", [37, 1 << 20])
    def test_both_models_equal_single_models_and_the_loop(self, monkeypatch, small_order, large_order,
                                                          fold_bytes):
        # oracle_texts holds multi-byte UTF-8 and texts shorter than both orders;
        # fold_bytes 37: training documents straddle count chunks
        monkeypatch.setattr(ngram, "_FOLD_BYTES", fold_bytes)
        texts = oracle_texts(10 * small_order + large_order)
        docs = [doc(t, str(i)) for i, t in enumerate(texts)]
        pair = train_pair(docs, small_order, large_order)
        for model, order in ((pair.small, small_order), (pair.large, large_order)):
            oracle = LoopNGramModel(order)
            for text in texts:
                oracle.add_document(text)
            blob = model.to_bytes()
            assert blob == train_ngram(docs, order).to_bytes()
            assert blob == oracle.to_bytes()
            assert model.perplexities(texts) == [oracle.perplexity(t) for t in texts]

    # small > large and large > MAX_ORDER are tested in TestPair and TestLoopOracle
    @pytest.mark.parametrize("small_order, large_order, smoothing_k, error", [
        (5, 5, 0.01, InvalidPairSpecError),
        (0, 2, 0.01, ValueError),
        (2, 5, 0.0, ValueError),
        (2, 5, -1.0, ValueError),
        (2, 5, float("nan"), ValueError),
    ])
    def test_bad_pair_reads_no_document(self, small_docs, small_order, large_order, smoothing_k, error):
        stream = iter(small_docs)
        with pytest.raises(error):
            train_pair(stream, small_order, large_order, smoothing_k)
        assert len(list(stream)) == len(small_docs)

    def test_empty_corpus_rejected(self):
        with pytest.raises(NoTrainingDataError):
            train_pair([], 2, 5)


class TestPairFiles:
    """A pair is stored as its large model; the small one is derived again at load."""

    @pytest.mark.parametrize("small_order, large_order", [(1, 2), (2, 5), (3, 7)])
    @pytest.mark.parametrize("smoothing_k", [0.01, 1.0])
    def test_loaded_small_model_is_the_trained_one_to_the_byte(self, tmp_path, small_order, large_order,
                                                                smoothing_k):
        texts = oracle_texts(small_order + large_order)
        docs = [doc(t, str(i)) for i, t in enumerate(texts)]
        pair = train_pair(docs, small_order, large_order, smoothing_k)
        save_pair(pair, tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["large.sfngram", "pair.json"]
        loaded = load_pair(tmp_path)
        for got, want in ((loaded.small, pair.small), (loaded.large, pair.large)):
            assert got.to_bytes() == want.to_bytes()
            assert got.fingerprint() == want.fingerprint()
        assert loaded.small.to_bytes() == train_ngram(docs, small_order, smoothing_k).to_bytes()


class TestModelFileChecks:
    """Every malformed model file raises ValueError."""

    @staticmethod
    def arrays_file(model, keys, counts):
        """``model``'s header line followed by the given keys and counts."""
        blob = model.to_bytes()
        head = blob[: len(blob) - 16 * len(model.keys)]
        return head + np.asarray(keys, dtype="<i8").tobytes() + np.asarray(counts, dtype="<i8").tobytes()

    def test_arrays_follow_the_header(self):
        model = train_ngram([doc("aab")], order=1)
        body = model.to_bytes().split(b"\n", 2)[2]
        assert np.frombuffer(body, dtype="<i8").tolist() == [ord("a"), ord("b"), 2, 1]
        assert self.arrays_file(model, [ord("a"), ord("b")], [2, 1]) == model.to_bytes()

    def test_truncated_file_rejected(self, small_docs):
        blob = train_ngram(small_docs, order=3).to_bytes()
        with pytest.raises(ValueError, match="bytes of arrays"):
            NGramModel.from_bytes(blob[:-4])
        with pytest.raises(ValueError, match="bytes of arrays"):
            NGramModel.from_bytes(blob[:-16])

    def test_entries_out_of_order_rejected(self):
        model = train_ngram([doc("ab")], order=1)
        assert NGramModel.from_bytes(self.arrays_file(model, [ord("a"), ord("b")], [1, 1])).n_contexts == 1
        for keys in ([ord("b"), ord("a")], [ord("a"), ord("a")]):
            with pytest.raises(ValueError, match="out of order"):
                NGramModel.from_bytes(self.arrays_file(model, keys, [1, 1]))

    @pytest.mark.parametrize("count", [0, -1])
    def test_non_positive_count_rejected(self, count):
        model = train_ngram([doc("ab")], order=1)
        with pytest.raises(ValueError, match="zero count"):
            NGramModel.from_bytes(self.arrays_file(model, [ord("a"), ord("b")], [1, count]))

    @pytest.mark.parametrize("order", [1, 3, MAX_ORDER])
    def test_key_out_of_range_rejected(self, order):
        model = train_ngram([doc("ab")], order=order)
        keys = model.keys.tolist()
        limit = 257 ** (order - 1) * 256
        # the largest key in range loads; one past it, or a negative key, does not
        ok = NGramModel.from_bytes(self.arrays_file(model, keys[:-1] + [limit - 1], [1] * len(keys)))
        assert ok.keys[-1] == limit - 1
        for bad in (keys[:-1] + [limit], [-1] + keys[1:]):
            with pytest.raises(ValueError, match="out of range"):
                NGramModel.from_bytes(self.arrays_file(model, bad, [1] * len(keys)))

    def test_format_1_file_names_its_version(self):
        oracle = LoopNGramModel(2)
        oracle.add_document("ab")
        with pytest.raises(ValueError, match="format version 1.*train-meta"):
            NGramModel.from_bytes(oracle.format_1_bytes())

    @staticmethod
    def with_header(model, edit):
        """``model``'s file with its header line replaced by ``edit(header)`` as JSON."""
        magic, line, body = model.to_bytes().split(b"\n", 2)
        return magic + b"\n" + json.dumps(edit(json.loads(line))).encode("utf-8") + b"\n" + body

    @pytest.mark.parametrize("key", ["format_version", "order", "smoothing_k", "total_tokens_trained", "n_keys"])
    def test_header_without_a_key_rejected(self, key):
        model = train_ngram([doc("ab")], order=2)
        blob = self.with_header(model, lambda h: {k: v for k, v in h.items() if k != key})
        with pytest.raises(ValueError, match=f"has no '{key}'"):
            NGramModel.from_bytes(blob)

    @pytest.mark.parametrize("key, value", [("n_keys", "2"), ("order", True), ("order", 2.0),
                                            ("smoothing_k", None), ("total_tokens_trained", [2])])
    def test_header_value_of_wrong_type_rejected(self, key, value):
        model = train_ngram([doc("ab")], order=2)
        with pytest.raises(ValueError, match=f"'{key}' is {type(value).__name__}, not"):
            NGramModel.from_bytes(self.with_header(model, lambda h: {**h, key: value}))

    @pytest.mark.parametrize("header", [[2, 2], "2", 2, None], ids=["list", "string", "number", "null"])
    def test_header_not_an_object_rejected(self, header):
        model = train_ngram([doc("ab")], order=2)
        with pytest.raises(ValueError, match="expected a JSON object"):
            NGramModel.from_bytes(self.with_header(model, lambda h: header))

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "bad.sfngram"
        model = train_ngram([doc("ab")], order=2)
        path.write_bytes(self.with_header(model, lambda h: {k: v for k, v in h.items() if k != "n_keys"}))
        with pytest.raises(ValueError, match=f"{path}: n-gram model header: has no 'n_keys'"):
            NGramModel.load(path)
