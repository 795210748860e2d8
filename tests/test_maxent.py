"""Intent classifier: posteriors, gradient, training, model IO."""

import math
import random

import numpy as np
import pytest
from scipy.special import logsumexp

from mtnlu.corpus import Utterance
from mtnlu.errors import FormatError
from mtnlu.nlu import (
    MaxEntModel,
    NluHypothesis,
    TrainingConfig,
    classify_intent,
    intent_posteriors,
    maxent_objective,
    predict,
    train_intent_classifier,
    train_slot_tagger,
)
from oracles import finite_difference_gradient, max_relative_error

VOCAB = ["play", "stop", "buy", "weather", "in", "berlin", "milk", "music"]
INTENTS = ["PlayMusic", "BuyItem", "GetWeather"]


def random_intent_corpus(rng, n):
    return [
        Utterance(
            "u%d" % i, "D", rng.choice(INTENTS),
            tuple(rng.choice(VOCAB) for _ in range(rng.randint(1, 5))),
        )
        for i in range(n)
    ]


def random_model(rng, seed, scale=0.5):
    corpus = random_intent_corpus(rng, 10)
    model = train_intent_classifier(corpus, TrainingConfig(max_iterations=0))
    gen = np.random.default_rng(seed)
    model.weights = gen.normal(0, scale, model.weights.shape)
    return model


class TestPosterior:
    def test_single_intent_confidence_is_exactly_one(self):
        corpus = [
            Utterance("u1", "D", "OnlyIntent", ("hello",)),
            Utterance("u2", "D", "OnlyIntent", ("bye",)),
        ]
        model = train_intent_classifier(corpus, TrainingConfig(max_iterations=5))
        intent, confidence = classify_intent(model, ("anything",))
        assert intent == "OnlyIntent"
        assert confidence == 1.0

    def test_posteriors_sum_to_one(self):
        rng = random.Random(5)
        for seed in range(10):
            model = random_model(rng, seed)
            tokens = tuple(rng.choice(VOCAB) for _ in range(rng.randint(1, 5)))
            post = intent_posteriors(model, tokens)
            assert sum(post.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0 for p in post.values())

    def test_positive_scaling_preserves_argmax(self):
        rng = random.Random(9)
        for seed in range(10):
            model = random_model(rng, seed)
            tokens = tuple(rng.choice(VOCAB) for _ in range(rng.randint(1, 5)))
            before = classify_intent(model, tokens)[0]
            model.weights = model.weights * 3.0
            assert classify_intent(model, tokens)[0] == before

    def test_classify_agrees_with_posteriors(self):
        rng = random.Random(11)
        model = random_model(rng, 4)
        tokens = ("play", "milk")
        intent, confidence = classify_intent(model, tokens)
        post = intent_posteriors(model, tokens)
        assert confidence == pytest.approx(post[intent], abs=1e-15)
        assert post[intent] == max(post.values())


def bias_only_model(logits):
    """A model whose posterior on any input is the softmax of `logits`."""
    return MaxEntModel(
        intents=tuple("I%d" % k for k in range(len(logits))),
        feature_index={"bias": 0},
        weights=np.asarray([logits], dtype=float),
    )


class TestSoftmax:
    def test_matches_logsumexp_formula(self):
        gen = np.random.default_rng(17)
        for scale in (1e-3, 1.0, 30.0, 1e3):
            for k in (1, 2, 8, 20):
                logits = gen.normal(0.0, scale, k)
                expected = np.exp(logits - logsumexp(logits))
                got = bias_only_model(logits).posterior(("anything",))
                assert np.max(np.abs(got - expected)) <= 1e-12

    def test_finite_at_extreme_logits(self):
        post = bias_only_model([1e6, -1e6, 0.0, 1e6, -1e6]).posterior(("x",))
        assert np.all(np.isfinite(post))
        assert post.tolist() == [0.5, 0.0, 0.0, 0.5, 0.0]
        post = bias_only_model([-1e6, -1e6 + 1.0]).posterior(("x",))
        expected = np.exp(np.array([-1.0, 0.0]) - logsumexp([-1.0, 0.0]))
        assert np.max(np.abs(post - expected)) <= 1e-12


class TestObjective:
    def test_zero_weights_value_is_n_log_k(self):
        rng = random.Random(13)
        corpus = random_intent_corpus(rng, 7)
        model = train_intent_classifier(corpus, TrainingConfig(max_iterations=0, l2=0.0))
        model.l2 = 0.0
        pairs = [(u.tokens, u.intent) for u in corpus]
        value, _ = maxent_objective(model, pairs)
        assert value == pytest.approx(len(pairs) * math.log(len(model.intents)), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = random.Random(17)
        for seed in range(3):
            model = random_model(rng, seed, scale=0.3)
            model.l2 = 0.05
            pairs = [
                (tuple(rng.choice(VOCAB) for _ in range(rng.randint(1, 4))),
                 rng.choice(INTENTS))
                for _ in range(5)
            ]
            _, grad = maxent_objective(model, pairs)

            def fun(x):
                m = MaxEntModel(
                    model.intents, model.feature_index,
                    x.reshape(model.weights.shape), model.gazetteers, model.l2,
                )
                return maxent_objective(m, pairs)[0]

            fd = finite_difference_gradient(fun, model.weights.ravel(), h=1e-5)
            assert max_relative_error(grad.ravel(), fd) < 1e-4

    def test_unknown_intent_rejected(self):
        rng = random.Random(19)
        model = random_model(rng, 2)
        with pytest.raises(ValueError):
            maxent_objective(model, [(("play",), "NoSuchIntent")])


class TestTraining:
    def test_learns_separable_corpus(self):
        corpus = []
        for i in range(10):
            corpus.append(Utterance("a%d" % i, "D", "PlayMusic", ("play", "music")))
            corpus.append(Utterance("b%d" % i, "D", "BuyItem", ("buy", "milk")))
        model = train_intent_classifier(corpus, TrainingConfig(l2=1e-3, max_iterations=100))
        assert classify_intent(model, ("play", "music"))[0] == "PlayMusic"
        assert classify_intent(model, ("buy", "milk"))[0] == "BuyItem"

    def test_training_is_deterministic(self, tmp_path):
        rng = random.Random(23)
        corpus = random_intent_corpus(rng, 12)
        cfg = TrainingConfig(max_iterations=25)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        train_intent_classifier(corpus, cfg).save(p1)
        train_intent_classifier(corpus, cfg).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_intent_classifier([])


class TestModelIO:
    def test_save_load_save_is_bit_exact(self, tmp_path):
        rng = random.Random(29)
        model = random_model(rng, 5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        model.save(p1)
        MaxEntModel.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path):
        rng = random.Random(31)
        model = random_model(rng, 6)
        path = tmp_path / "m.json"
        model.save(path)
        loaded = MaxEntModel.load(path)
        for _ in range(10):
            tokens = tuple(rng.choice(VOCAB) for _ in range(rng.randint(1, 5)))
            assert intent_posteriors(model, tokens) == intent_posteriors(loaded, tokens)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format":"other","version":1}', encoding="utf-8")
        with pytest.raises(FormatError, match="not a version-1 maxent-model file") as err:
            MaxEntModel.load(path)
        assert err.value.path == path


class TestPredict:
    def test_joint_hypothesis(self):
        corpus = [
            Utterance("u%d" % i, "Music", "PlayMusic", ("play", "music"))
            for i in range(5)
        ]
        crf = train_slot_tagger(corpus, TrainingConfig(max_iterations=5))
        maxent = train_intent_classifier(corpus, TrainingConfig(max_iterations=5))
        hyp = predict(crf, maxent, ("play", "music"))
        assert isinstance(hyp, NluHypothesis)
        assert hyp.intent == "PlayMusic"
        assert hyp.intent_confidence == 1.0
        assert hyp.slots == ()
