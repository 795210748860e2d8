"""Slot tagger: objective math, decoding, BIO handling, training, model IO."""

import itertools
import logging
import math
import random

import numpy as np
import pytest

from mtnlu.corpus import Utterance, make_span
from mtnlu.errors import FormatError
from mtnlu.nlu import crf
from mtnlu.nlu import (
    CrfModel,
    TrainingConfig,
    bio_decode,
    bio_encode,
    bio_labels,
    crf_objective,
    minimize,
    tag_slots,
    train_intent_classifier,
    train_slot_tagger,
    viterbi,
)
from oracles import best_label_sequence, finite_difference_gradient, max_relative_error

VOCAB = ["play", "stop", "to", "in", "berlin", "york", "queen", "now", "the", "a"]


def random_corpus(rng, n_utterances, slot_types=("City", "Song")):
    corpus = []
    for k in range(n_utterances):
        n = rng.randint(1, 6)
        tokens = tuple(rng.choice(VOCAB) for _ in range(n))
        slots = []
        i = 0
        while i < n:
            if rng.random() < 0.35:
                j = min(n, i + rng.randint(1, 2))
                slots.append(make_span(tokens, rng.choice(slot_types), i, j))
                i = j
            else:
                i += 1
        corpus.append(
            Utterance("u%d" % k, "D", "I", tokens, tuple(slots))
        )
    return corpus


def random_model(rng, seed, n_utterances=6, scale=0.5):
    """A CRF with a realistic feature index and random Gaussian weights."""
    corpus = random_corpus(rng, n_utterances)
    model = train_slot_tagger(corpus, TrainingConfig(max_iterations=0))
    gen = np.random.default_rng(seed)
    model.emissions = gen.normal(0, scale, model.emissions.shape)
    model.transitions = gen.normal(0, scale, model.transitions.shape)
    return model


def brute_force_nll(model, tokens, labels):
    """-log P(labels | tokens) by full enumeration, plus the L2 term."""
    E = model.emission_scores(tokens)
    T, L = E.shape
    tr = model.transitions
    label_index = {lab: i for i, lab in enumerate(model.labels)}

    def path_score(seq):
        s = E[0][seq[0]]
        for t in range(1, T):
            s += tr[seq[t - 1]][seq[t]] + E[t][seq[t]]
        return s

    log_z = math.log(
        sum(math.exp(path_score(seq)) for seq in itertools.product(range(L), repeat=T))
    )
    gold = path_score([label_index[lab] for lab in labels])
    reg = 0.5 * model.l2 * (
        float(np.sum(model.emissions**2)) + float(np.sum(model.transitions**2))
    )
    return log_z - gold + reg


class TestObjective:
    def test_zero_weights_single_position_is_log_k(self):
        for slot_types in ([], ["X"], ["X", "Y"]):
            labels = bio_labels(slot_types)
            model = CrfModel(
                labels, {}, np.zeros((0, len(labels))), np.zeros((len(labels),) * 2)
            )
            value, _ = crf_objective(model, [(("weiter",), ("O",))])
            assert value == pytest.approx(math.log(len(labels)), abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(7)
        for seed in range(8):
            model = random_model(rng, seed)
            model.l2 = 0.01
            corpus = []
            for _ in range(3):
                n = rng.randint(1, 3)
                tokens = tuple(rng.choice(VOCAB) for _ in range(n))
                labels = tuple(rng.choice(model.labels) for _ in range(n))
                corpus.append((tokens, labels))
            value, _ = crf_objective(model, corpus)
            expected = sum(brute_force_nll(model, t, l) for t, l in corpus)
            # the L2 term is shared, not per-sequence
            expected -= (len(corpus) - 1) * 0.5 * model.l2 * (
                float(np.sum(model.emissions**2)) + float(np.sum(model.transitions**2))
            )
            assert value == pytest.approx(expected, rel=1e-9)

    def test_label_probabilities_sum_to_one_on_length_two(self):
        rng = random.Random(21)
        model = random_model(rng, 99)
        model.l2 = 0.0  # nll = log Z - score(y) exactly
        tokens = ("play", "berlin")
        E = model.emission_scores(tokens)
        L = len(model.labels)
        # log Z recovered from the objective: nll = log Z - score(y)
        y = (model.labels[1], model.labels[0])
        value, _ = crf_objective(model, [(tokens, y)])
        score_y = E[0][1] + model.transitions[1][0] + E[1][0]
        log_z = value + score_y
        total = sum(
            math.exp(E[0][i] + model.transitions[i][j] + E[1][j] - log_z)
            for i in range(L)
            for j in range(L)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = random.Random(3)
        for seed in range(3):
            model = random_model(rng, seed, n_utterances=3, scale=0.3)
            model.l2 = 0.05
            corpus = [
                ((rng.choice(VOCAB), rng.choice(VOCAB)), ("O", rng.choice(model.labels)))
                for _ in range(4)
            ]
            value, (g_em, g_tr) = crf_objective(model, corpus)
            F, L = model.emissions.shape

            def fun(x):
                m = CrfModel(
                    model.labels,
                    model.feature_index,
                    x[: F * L].reshape(F, L),
                    x[F * L :].reshape(L, L),
                    model.gazetteers,
                    model.l2,
                )
                return crf_objective(m, corpus)[0]

            x0 = np.concatenate([model.emissions.ravel(), model.transitions.ravel()])
            fd = finite_difference_gradient(fun, x0, h=1e-5)
            analytic = np.concatenate([g_em.ravel(), g_tr.ravel()])
            assert max_relative_error(analytic, fd) < 1e-4


def objective_both_ways(model, corpus, monkeypatch):
    """crf_objective as shipped, and with every group forced to log space.

    Also returns, per length group, whether the shipped run fell back.
    """
    scaled = crf._scaled_forward_backward
    fell_back = []

    def spy(E, transitions):
        out = scaled(E, transitions)
        fell_back.append(out is None)
        return out

    monkeypatch.setattr(crf, "_scaled_forward_backward", spy)
    shipped = crf_objective(model, corpus)
    monkeypatch.setattr(crf, "_scaled_forward_backward", lambda E, transitions: None)
    log_space = crf_objective(model, corpus)
    return shipped, log_space, fell_back


class TestScaledForwardBackward:
    """The probability-space recursions against the log-space reference."""

    @pytest.mark.parametrize("scale", [0.0, 0.1, 1.0, 10.0, 100.0, 1e3, 1e6])
    def test_matches_log_space(self, scale, monkeypatch):
        rng = random.Random(53)
        utterances = random_corpus(rng, 40)
        model = train_slot_tagger(utterances, TrainingConfig(max_iterations=0))
        gen = np.random.default_rng(11)
        model.emissions = scale * gen.normal(size=model.emissions.shape)
        model.transitions = scale * gen.normal(size=model.transitions.shape)
        corpus = [(u.tokens, tuple(bio_encode(u))) for u in utterances]
        (value, grads), (ref_value, ref_grads), fell_back = objective_both_ways(
            model, corpus, monkeypatch
        )
        assert math.isfinite(value)
        assert value == pytest.approx(ref_value, rel=1e-9)
        for g, ref in zip(grads, ref_grads):
            assert np.all(np.isfinite(g))
            assert np.max(np.abs(g - ref)) <= 1e-6
        if scale <= 10.0:
            assert not any(fell_back)
        if scale >= 1e3:
            assert any(fell_back)  # whole steps underflow at these weights

    def test_fallback_is_per_length_group(self, monkeypatch):
        # O -> B-X is all but forbidden, so the scaled step into "b" underflows
        # in the length-4 group; the length-1 group has no transitions
        labels = bio_labels(["X"])
        feature_index = {"w0=a": 0, "w0=b": 1}
        emissions = np.array([[900.0, -900.0, 0.0], [-900.0, 900.0, 0.0]])
        transitions = np.array([[0.0, -900.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        model = CrfModel(labels, feature_index, emissions, transitions)
        corpus = [
            (("a",), ("O",)),
            (("b",), ("B-X",)),
            (("a", "b", "a", "b"), ("O", "B-X", "O", "B-X")),
        ]
        (value, grads), (ref_value, ref_grads), fell_back = objective_both_ways(
            model, corpus, monkeypatch
        )
        assert fell_back == [False, True]
        assert math.isfinite(value)
        assert value == pytest.approx(ref_value, rel=1e-9)
        for g, ref in zip(grads, ref_grads):
            assert np.max(np.abs(g - ref)) <= 1e-6

    def test_fallback_when_only_the_backward_pass_overflows(self, monkeypatch):
        # one feature per token, so these rows are the emission scores; every
        # forward scaler is a normal float, but two near 1e-221 and 1e-231
        # divide the backward values past the float range
        tokens = ("a", "b", "c", "d", "e")
        emissions = np.array([[-745, -460, -91], [-109, 773, -575], [-52, -87, 370],
                              [-105, -126, -9], [-208, 248, 248]], dtype=float)
        transitions = np.array([[-392, 383, 148], [-53, 440, 578], [-345, -162, 48]],
                               dtype=float)
        model = CrfModel(bio_labels(["X"]), {"w0=" + t: i for i, t in enumerate(tokens)},
                         emissions, transitions)
        A = np.exp(transitions - transitions.max())
        psi = np.exp(emissions - emissions.max(axis=1, keepdims=True))
        scales, a = [], psi[0]
        for t in range(len(tokens)):
            a = psi[0] if t == 0 else (a @ A) * psi[t]
            scales.append(a.sum())
            a = a / scales[-1]
        assert min(scales) >= np.finfo(float).tiny
        corpus = [(tokens, ("O", "B-X", "I-X", "O", "B-X"))]
        (value, grads), (ref_value, ref_grads), fell_back = objective_both_ways(
            model, corpus, monkeypatch
        )
        assert fell_back == [True]
        assert math.isfinite(value) and value == ref_value
        for g, ref in zip(grads, ref_grads):
            assert np.array_equal(g, ref)

    def test_a_subnormal_forward_sum_falls_back(self):
        # the step into t = 1 sums to about 4.1e-313, positive but below the
        # smallest normal float; dividing by it overflows the pair marginals
        E = np.array([[[0.0, -745.0]], [[-720.0, 0.0]]])
        transitions = np.array([[0.0, -720.0], [-720.0, -720.0]])
        assert crf._scaled_forward_backward(E, transitions) is None


class TestViterbi:
    def test_matches_exhaustive_search(self):
        rng = random.Random(13)
        for seed in range(20):
            model = random_model(rng, 1000 + seed)
            n = rng.randint(1, 3)
            tokens = tuple(rng.choice(VOCAB) for _ in range(n))
            labels, score = viterbi(model, tokens)
            seq, best = best_label_sequence(
                model.emission_scores(tokens), model.transitions
            )
            assert tuple(model.labels.index(l) for l in labels) == seq
            assert score == pytest.approx(best, rel=1e-12)

    def test_o_biased_weights_give_empty_slots(self):
        labels = bio_labels(["X"])
        feature_index = {"w0=a": 0, "w0=b": 1}
        emissions = np.array([[5.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        model = CrfModel(labels, feature_index, emissions, np.zeros((3, 3)))
        assert tag_slots(model, ("a", "b")) == ()

    def test_empty_input_rejected(self):
        model = CrfModel(("O",), {}, np.zeros((0, 1)), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            tag_slots(model, ())

    def test_tagged_spans_satisfy_corpus_invariants(self):
        rng = random.Random(5)
        model = random_model(rng, 77)
        for _ in range(30):
            tokens = tuple(rng.choice(VOCAB) for _ in range(rng.randint(1, 6)))
            spans = tag_slots(model, tokens)
            # constructing an Utterance revalidates ordering/bounds/values
            Utterance("t", "D", "I", tokens, spans)


class TestBio:
    def test_encode(self):
        tokens = ("play", "we", "are", "the", "champions", "by", "queen")
        u = Utterance(
            "u1", "Music", "PlayMusic", tokens,
            (make_span(tokens, "SongName", 1, 5), make_span(tokens, "ArtistName", 6, 7)),
        )
        assert bio_encode(u) == [
            "O", "B-SongName", "I-SongName", "I-SongName", "I-SongName", "O", "B-ArtistName",
        ]

    def test_decode_round_trip(self):
        rng = random.Random(31)
        for u in random_corpus(rng, 50):
            assert bio_decode(u.tokens, bio_encode(u)) == u.slots

    @pytest.mark.parametrize(
        "labels,expected",
        [
            (["O", "I-X"], [("X", 1, 2)]),
            (["I-X", "I-X"], [("X", 0, 2)]),
            (["B-X", "I-Y"], [("X", 0, 1), ("Y", 1, 2)]),
            (["B-X", "B-X"], [("X", 0, 1), ("X", 1, 2)]),
        ],
    )
    def test_decode_repairs_invalid_continuations(self, labels, expected):
        tokens = tuple("ab"[: len(labels)])
        spans = bio_decode(tokens, labels)
        assert [(s.slot_type, s.start, s.end) for s in spans] == expected


class TestTraining:
    def test_reproduces_labels_on_replicated_utterance(self):
        tokens = ("play", "we", "are", "the", "champions", "by", "queen")
        u = Utterance(
            "u1", "Music", "PlayMusic", tokens,
            (make_span(tokens, "SongName", 1, 5), make_span(tokens, "ArtistName", 6, 7)),
        )
        corpus = [
            Utterance("u%d" % i, u.domain, u.intent, u.tokens, u.slots)
            for i in range(20)
        ]
        model = train_slot_tagger(corpus, TrainingConfig(l2=1e-4, max_iterations=100))
        assert tag_slots(model, tokens) == u.slots

    def test_objective_non_increasing_over_optimizer_steps(self):
        rng = random.Random(17)
        corpus = random_corpus(rng, 12)
        model = train_slot_tagger(corpus, TrainingConfig(max_iterations=0))
        pairs = [(u.tokens, tuple(bio_encode(u))) for u in corpus]
        F, L = model.emissions.shape

        def fun_grad(x):
            m = CrfModel(
                model.labels, model.feature_index,
                x[: F * L].reshape(F, L), x[F * L :].reshape(L, L),
                l2=0.01,
            )
            value, (g_em, g_tr) = crf_objective(m, pairs)
            return value, np.concatenate([g_em.ravel(), g_tr.ravel()])

        result = minimize(fun_grad, np.zeros(F * L + L * L), 40, 1e-6)
        assert all(b <= a + 1e-12 for a, b in zip(result.values, result.values[1:]))
        assert result.values[-1] < result.values[0]

    def test_zero_iterations_returns_start_point(self):
        def fun_grad(x):
            return 0.5 * float(x @ x), x.copy()

        x0 = np.array([1.0, -2.0])
        result = minimize(fun_grad, x0, 0, 1e-6)
        assert np.array_equal(result.x, x0) and result.x is not x0
        assert result.values == [2.5]
        assert result.iterations == 0 and not result.converged
        assert minimize(fun_grad, np.zeros(2), 0, 1e-6).converged

    def test_small_crf_converges_within_cap(self):
        # gradient descent with Barzilai-Borwein steps does not get max |g|
        # below 1e-6 in 300 iterations on this problem
        rng = random.Random(17)
        corpus = random_corpus(rng, 12)
        model = train_slot_tagger(corpus, TrainingConfig(max_iterations=0))
        pairs = [(u.tokens, tuple(bio_encode(u))) for u in corpus]
        F, L = model.emissions.shape

        def fun_grad(x):
            m = CrfModel(
                model.labels, model.feature_index,
                x[: F * L].reshape(F, L), x[F * L :].reshape(L, L),
                l2=0.01,
            )
            value, (g_em, g_tr) = crf_objective(m, pairs)
            return value, np.concatenate([g_em.ravel(), g_tr.ravel()])

        result = minimize(fun_grad, np.zeros(F * L + L * L), 300, 1e-6)
        assert result.converged and result.iterations < 300
        assert np.max(np.abs(fun_grad(result.x)[1])) <= 1e-6

    @pytest.mark.parametrize("train, name", [
        (train_slot_tagger, "CRF slot tagger"),
        (train_intent_classifier, "MaxEnt intent classifier"),
    ])
    def test_stopping_at_the_iteration_cap_logs_one_warning(self, caplog, train, name):
        corpus = [Utterance(u.id, u.domain, "I%d" % (k % 2), u.tokens, u.slots)
                  for k, u in enumerate(random_corpus(random.Random(17), 12))]
        with caplog.at_level(logging.WARNING):
            train(corpus, TrainingConfig(max_iterations=3))
        assert [(r.levelno, r.getMessage().split(":")[0]) for r in caplog.records] == [
            (logging.WARNING, "%s did not converge in 3 iterations" % name)]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            train(corpus, TrainingConfig(max_iterations=300, tolerance=1e-3))
        assert caplog.records == []

    def test_doubling_l2_does_not_increase_weight_norm(self):
        rng = random.Random(23)
        corpus = random_corpus(rng, 10)
        norms = []
        for l2 in (0.05, 0.1, 0.2):
            model = train_slot_tagger(
                corpus, TrainingConfig(l2=l2, max_iterations=400, tolerance=1e-7)
            )
            norms.append(
                float(np.sum(model.emissions**2) + np.sum(model.transitions**2))
            )
        assert norms[0] >= norms[1] >= norms[2]

    def test_training_is_deterministic(self, tmp_path):
        rng = random.Random(29)
        corpus = random_corpus(rng, 8)
        cfg = TrainingConfig(l2=0.01, max_iterations=30)
        m1 = train_slot_tagger(corpus, cfg)
        m2 = train_slot_tagger(corpus, cfg)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        m1.save(p1)
        m2.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_slot_tagger([])


class TestModelIO:
    def test_save_load_save_is_bit_exact(self, tmp_path):
        rng = random.Random(41)
        model = random_model(rng, 7)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        model.save(p1)
        CrfModel.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path):
        rng = random.Random(43)
        model = random_model(rng, 8)
        path = tmp_path / "m.json"
        model.save(path)
        loaded = CrfModel.load(path)
        for _ in range(10):
            tokens = tuple(rng.choice(VOCAB) for _ in range(rng.randint(1, 5)))
            assert viterbi(model, tokens) == viterbi(loaded, tokens)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format":"other","version":1}', encoding="utf-8")
        with pytest.raises(FormatError, match="not a version-1 crf-model file") as err:
            CrfModel.load(path)
        assert err.value.path == path
