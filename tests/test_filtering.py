"""Round-trip and score-based corpus filters."""

import math
import random
import statistics

import numpy as np
import pytest

from mtnlu.corpus import Utterance, make_span
from mtnlu.errors import ConfigError
from mtnlu.filtering import (
    BELOW_THRESHOLD,
    INTENT_MISMATCH,
    LOW_CONFIDENCE,
    MODE_INTENT,
    MODE_INTENT_CONFIDENCE,
    MODE_INTENT_SLOTS,
    NO_BACK_TRANSLATION,
    NO_TRANSLATION,
    SLOT_MISMATCH,
    SLOTS_TYPES_AND_VALUES,
    SLOTS_TYPES_ONLY,
    DomainStats,
    FilterConfig,
    FilterOutcome,
    compute_domain_stats,
    normalize_score,
    project_corpus,
    roundtrip_check,
    roundtrip_filter,
    score_filter,
)
from mtnlu.nlu import (MaxEntModel, TrainingConfig, intent_posteriors,
                       train_intent_classifier, train_slot_tagger)
from mtnlu.translate import UNALIGNED_SLOT, TranslationResult, TranslationScores
import toytask

CFG = TrainingConfig(l2=1e-3, max_iterations=80)


def zero_scores(total=0.0):
    return TranslationScores(0.0, 0.0, 0.0, 0.0, total)


class IdentityTranslator:
    def translate(self, tokens, source_id):
        return TranslationResult(
            tuple(tokens),
            frozenset((i, i) for i in range(len(tokens))), zero_scores(),
        )


class MappingTranslator:
    """Maps a token tuple to a fixed target with identity-shaped alignment."""

    def __init__(self, table):
        self.table = {tuple(k.split()): tuple(v.split()) for k, v in table.items()}

    def translate(self, tokens, source_id):
        tgt = self.table.get(tuple(tokens))
        if tgt is None:
            return None
        m = min(len(tokens), len(tgt))
        return TranslationResult(
            tgt, frozenset((i, i) for i in range(m)), zero_scores()
        )


def utt(uid, intent, text, slots=(), domain="D"):
    tokens = tuple(text.split())
    spans = tuple(make_span(tokens, t, a, b) for t, a, b in slots)
    return Utterance(uid, domain, intent, tokens, spans)


def train_nlu(corpus):
    return (
        train_slot_tagger(corpus, CFG),
        train_intent_classifier(corpus, CFG),
    )


def play_nlu():
    corpus = []
    for i in range(10):
        corpus.append(utt("p%d" % i, "Play", "play queen", [("Artist", 1, 2)]))
        corpus.append(utt("q%d" % i, "Play", "play abba", [("Artist", 1, 2)]))
        corpus.append(utt("m%d" % i, "Play", "play music"))
        corpus.append(utt("r%d" % i, "Resume", "resume"))
        corpus.append(utt("f%d" % i, "Forward", "forward"))
    return train_nlu(corpus)


class TestRoundtripFilter:
    def test_identity_translators_keep_everything(self):
        nlu = play_nlu()
        corpus = [utt("u1", "Play", "play queen", [("Artist", 1, 2)]),
                  utt("u2", "Resume", "resume")]
        out = roundtrip_filter(
            corpus, IdentityTranslator(), IdentityTranslator(), nlu,
            FilterConfig(mode=MODE_INTENT),
        )
        assert out.removed == []
        assert [u.id for u in out.kept] == ["u1", "u2"]
        # kept utterances are the projected targets
        assert out.kept[0].tokens == corpus[0].tokens
        assert out.kept[0].slots == corpus[0].slots
        assert out.kept[0].id == "u1"

    def test_ambiguous_back_translation_flips_intent(self):
        # "resume" -> "weiter" -> "forward": the back-translation reads as a
        # different intent, so the utterance is removed.
        nlu = play_nlu()
        corpus = [utt("u1", "Resume", "resume")]
        forward = MappingTranslator({"resume": "weiter"})
        backward = MappingTranslator({"weiter": "forward"})
        out = roundtrip_filter(corpus, forward, backward, nlu, FilterConfig())
        assert out.kept == []
        assert out.removed == [("u1", INTENT_MISMATCH)]

    def test_missing_forward_translation(self):
        nlu = play_nlu()
        out = roundtrip_filter(
            [utt("u1", "Resume", "resume")],
            MappingTranslator({}), IdentityTranslator(), nlu, FilterConfig(),
        )
        assert out.removed == [("u1", NO_TRANSLATION)]

    def test_missing_backward_translation(self):
        nlu = play_nlu()
        out = roundtrip_filter(
            [utt("u1", "Resume", "resume")],
            IdentityTranslator(), MappingTranslator({}), nlu, FilterConfig(),
        )
        assert out.removed == [("u1", NO_BACK_TRANSLATION)]

    def test_unaligned_slot_rejection_is_counted(self):
        nlu = play_nlu()

        class DropAlignment:
            def translate(self, tokens, source_id):
                return TranslationResult(
                    ("spiel",), frozenset({(0, 0)}), zero_scores()
                )

        corpus = [utt("u1", "Play", "play queen", [("Artist", 1, 2)])]
        out = roundtrip_filter(corpus, DropAlignment(), IdentityTranslator(), nlu, FilterConfig())
        assert out.removed == [("u1", UNALIGNED_SLOT)]

    def test_slot_mismatch_mode(self):
        nlu = play_nlu()
        corpus = [utt("u1", "Play", "play queen", [("Artist", 1, 2)])]
        forward = MappingTranslator({"play queen": "spiel queen"})
        backward = MappingTranslator({"spiel queen": "play music"})
        intent_only = roundtrip_filter(corpus, forward, backward, nlu, FilterConfig())
        assert [u.id for u in intent_only.kept] == ["u1"]
        with_slots = roundtrip_filter(
            corpus, forward, backward, nlu, FilterConfig(mode=MODE_INTENT_SLOTS)
        )
        assert with_slots.removed == [("u1", SLOT_MISMATCH)]

    def test_slot_comparison_types_only_vs_values(self):
        nlu = play_nlu()
        corpus = [utt("u1", "Play", "play queen", [("Artist", 1, 2)])]
        forward = MappingTranslator({"play queen": "spiel queen"})
        backward = MappingTranslator({"spiel queen": "play abba"})
        types_only = roundtrip_filter(
            corpus, forward, backward, nlu,
            FilterConfig(mode=MODE_INTENT_SLOTS, slot_comparison=SLOTS_TYPES_ONLY),
        )
        assert [u.id for u in types_only.kept] == ["u1"]
        with_values = roundtrip_filter(
            corpus, forward, backward, nlu,
            FilterConfig(mode=MODE_INTENT_SLOTS, slot_comparison=SLOTS_TYPES_AND_VALUES),
        )
        assert with_values.removed == [("u1", SLOT_MISMATCH)]

    def test_slot_values_compare_case_insensitively(self):
        # the back translation differs from the source only in case
        corpus = [utt("w%d" % i, "Weather", "weather in " + city, [("City", 2, 3)])
                  for i, city in enumerate(["berlin", "paris"] * 10)]
        nlu = train_nlu(corpus + [utt("r%d" % i, "Resume", "resume") for i in range(10)])
        source = [utt("u1", "Weather", "weather in Berlin", [("City", 2, 3)])]
        forward = MappingTranslator({"weather in Berlin": "wetter in Berlin"})
        backward = MappingTranslator({"wetter in Berlin": "weather in berlin"})
        out = roundtrip_filter(source, forward, backward, nlu, FilterConfig(
            mode=MODE_INTENT_SLOTS, slot_comparison=SLOTS_TYPES_AND_VALUES, use_gold_labels=True,
        ))
        assert [u.id for u in out.kept] == ["u1"]

    def test_low_confidence_removal(self):
        # Back-translation "forward" leaves almost no posterior mass on the
        # reference intent Resume -> removed for low confidence, not mismatch.
        nlu = play_nlu()
        corpus = [utt("u1", "Resume", "resume")]
        forward = MappingTranslator({"resume": "weiter"})
        backward = MappingTranslator({"weiter": "forward"})
        out = roundtrip_filter(
            corpus, forward, backward, nlu,
            FilterConfig(mode=MODE_INTENT_CONFIDENCE, confidence_threshold=0.1),
        )
        assert out.removed == [("u1", LOW_CONFIDENCE)]

    def test_confident_match_kept_in_confidence_mode(self):
        nlu = play_nlu()
        corpus = [utt("u1", "Resume", "resume")]
        out = roundtrip_filter(
            corpus, IdentityTranslator(), IdentityTranslator(), nlu,
            FilterConfig(mode=MODE_INTENT_CONFIDENCE, confidence_threshold=0.1),
        )
        assert [u.id for u in out.kept] == ["u1"]

    def test_zero_threshold_never_fires(self):
        # the comparison is strict: posterior < 0.0 is impossible
        nlu = play_nlu()
        corpus = [utt("u1", "Resume", "resume")]
        forward = MappingTranslator({"resume": "weiter"})
        backward = MappingTranslator({"weiter": "forward"})
        out = roundtrip_filter(
            corpus, forward, backward, nlu,
            FilterConfig(mode=MODE_INTENT_CONFIDENCE, confidence_threshold=0.0),
        )
        assert out.removed == [("u1", INTENT_MISMATCH)]

    def test_a_confidence_equal_to_the_threshold_is_kept(self):
        # an all-zero MaxEnt over two intents gives each exactly 0.5
        maxent = MaxEntModel(("A", "B"), {}, np.zeros((0, 2)))
        assert intent_posteriors(maxent, ("resume",)) == {"A": 0.5, "B": 0.5}
        out = roundtrip_filter(
            [utt("u1", "A", "resume")], IdentityTranslator(), IdentityTranslator(),
            (None, maxent), FilterConfig(mode=MODE_INTENT_CONFIDENCE, confidence_threshold=0.5),
        )
        assert [u.id for u in out.kept] == ["u1"] and out.removed == []

    def test_gold_label_comparison(self):
        # identity round trip, but the corpus label disagrees with the NLU:
        # gold comparison removes it, NLU-vs-NLU comparison keeps it.
        nlu = play_nlu()
        corpus = [utt("u1", "Resume", "forward")]  # mislabeled on purpose
        nlu_based = roundtrip_filter(
            corpus, IdentityTranslator(), IdentityTranslator(), nlu, FilterConfig()
        )
        assert [u.id for u in nlu_based.kept] == ["u1"]
        gold_based = roundtrip_filter(
            corpus, IdentityTranslator(), IdentityTranslator(), nlu,
            FilterConfig(use_gold_labels=True),
        )
        assert gold_based.removed == [("u1", INTENT_MISMATCH)]

    def test_partition_accounting(self):
        nlu = play_nlu()
        corpus = [
            utt("u1", "Play", "play queen", [("Artist", 1, 2)]),
            utt("u2", "Resume", "resume"),
            utt("u3", "Forward", "forward"),
        ]
        forward = MappingTranslator({"resume": "weiter", "play queen": "spiel queen"})
        backward = MappingTranslator({"weiter": "forward", "spiel queen": "play queen"})
        out = roundtrip_filter(corpus, forward, backward, nlu, FilterConfig())
        assert len(out.kept) + len(out.removed) == len(corpus)
        assert sum(out.stats.values()) == len(out.removed)
        assert out.stats == {INTENT_MISMATCH: 1, NO_TRANSLATION: 1}

    @staticmethod
    def four_ways_out():
        """A corpus and its two translators."""
        corpus = [
            utt("a", "Resume", "resume"),  # back as "forward"
            utt("k1", "Play", "play queen", [("Artist", 1, 2)]),
            utt("b", "Play", "play music"),  # no back-translation
            utt("k2", "Play", "play abba", [("Artist", 1, 2)]),
            utt("c", "Play", "play the queen", [("Artist", 2, 3)]),  # the slot is unaligned
            utt("k3", "Forward", "forward"),
            utt("d", "Resume", "stop"),  # no forward translation
            utt("k4", "Play", "play queen", [("Artist", 1, 2)]),
        ]
        forward = MappingTranslator({"resume": "weiter", "play queen": "spiel queen",
                                     "play music": "spiel musik", "play abba": "spiel abba",
                                     "play the queen": "spiel", "forward": "vor"})
        backward = MappingTranslator({"weiter": "forward", "spiel queen": "play queen",
                                      "spiel abba": "play abba", "vor": "forward"})
        return corpus, forward, backward

    def test_kept_and_removed_in_input_order(self):
        # each of the four ways out, with a kept utterance after each
        nlu = play_nlu()
        corpus, forward, backward = self.four_ways_out()
        out = roundtrip_filter(corpus, forward, backward, nlu, FilterConfig())
        assert [u.id for u in out.kept] == ["k1", "k2", "k3", "k4"]
        assert out.removed == [("a", INTENT_MISMATCH), ("b", NO_BACK_TRANSLATION),
                               ("c", UNALIGNED_SLOT), ("d", NO_TRANSLATION)]

    def test_the_check_sorts_in_the_projection_removals_on_a_copy(self):
        corpus, forward, backward = self.four_ways_out()
        nlu = play_nlu()
        projection = project_corpus(corpus, forward)
        assert projection.removed == [("c", UNALIGNED_SLOT), ("d", NO_TRANSLATION)]
        out = roundtrip_check(projection, corpus, backward, nlu, FilterConfig())
        assert out == roundtrip_filter(corpus, forward, backward, nlu, FilterConfig())
        assert projection.removed == [("c", UNALIGNED_SLOT), ("d", NO_TRANSLATION)]

    def test_stricter_mode_keeps_subset(self):
        nlu = play_nlu()
        corpus = [
            utt("u1", "Play", "play queen", [("Artist", 1, 2)]),
            utt("u2", "Play", "play music"),
            utt("u3", "Resume", "resume"),
        ]
        forward = MappingTranslator(
            {"play queen": "spiel queen", "play music": "spiel musik", "resume": "weiter"}
        )
        backward = MappingTranslator(
            {"spiel queen": "play music", "spiel musik": "play music", "weiter": "resume"}
        )
        kept_intent = {
            u.id for u in roundtrip_filter(corpus, forward, backward, nlu, FilterConfig()).kept
        }
        kept_slots = {
            u.id
            for u in roundtrip_filter(
                corpus, forward, backward, nlu, FilterConfig(mode=MODE_INTENT_SLOTS)
            ).kept
        }
        assert kept_slots <= kept_intent


class TestSourceSlotTagger:
    """Only the INTENT_SLOTS mode reads the source slot tagger."""

    @pytest.fixture(scope="class")
    def nlu(self):
        return play_nlu()

    CORPUS = [
        utt("u1", "Play", "play queen", [("Artist", 1, 2)]),  # slots change on the way back
        utt("u2", "Resume", "resume"),  # back as "forward"
        utt("u3", "Forward", "forward"),  # no translation
        utt("u4", "Resume", "play music"),  # mislabeled: gold labels remove it
        utt("u5", "Play", "play abba", [("Artist", 1, 2)]),
    ]
    FORWARD = MappingTranslator({"play queen": "spiel queen", "resume": "weiter",
                                 "play music": "spiel musik", "play abba": "spiel abba"})
    BACKWARD = MappingTranslator({"spiel queen": "play music", "weiter": "forward",
                                  "spiel musik": "play music", "spiel abba": "play abba"})

    @pytest.mark.parametrize("use_gold_labels", [False, True])
    @pytest.mark.parametrize("mode", [MODE_INTENT, MODE_INTENT_CONFIDENCE])
    def test_intent_modes_need_no_tagger(self, nlu, mode, use_gold_labels):
        crf, maxent = nlu
        config = FilterConfig(mode=mode, use_gold_labels=use_gold_labels)
        with_tagger = roundtrip_filter(self.CORPUS, self.FORWARD, self.BACKWARD,
                                       (crf, maxent), config)
        assert with_tagger.kept and len(with_tagger.removed) >= 2
        assert roundtrip_filter(self.CORPUS, self.FORWARD, self.BACKWARD,
                                (None, maxent), config) == with_tagger

    @pytest.mark.parametrize("use_gold_labels", [False, True])
    def test_slot_mode_without_tagger_is_an_error(self, nlu, use_gold_labels):
        config = FilterConfig(mode=MODE_INTENT_SLOTS, use_gold_labels=use_gold_labels)
        with pytest.raises(ValueError, match="INTENT_SLOTS filter mode needs a source slot"):
            roundtrip_filter(self.CORPUS, self.FORWARD, self.BACKWARD, (None, nlu[1]), config)
        # before any utterance is looked at
        with pytest.raises(ValueError, match="INTENT_SLOTS"):
            roundtrip_filter([], self.FORWARD, self.BACKWARD, (None, nlu[1]), config)


def scored_corpus():
    corpus = [utt("u%d" % i, "I", "w", domain="Music") for i in (1, 2, 3, 4)]
    translations = {
        "u%d" % i: TranslationResult(
            ("x",), frozenset(), zero_scores(total=-float(i))
        )
        for i in (1, 2, 3, 4)
    }
    return corpus, translations


class TestNormalizeScore:
    def test_divides_by_length(self):
        assert normalize_score(-7.0, 4) == -1.75

    def test_length_one_is_identity(self):
        assert normalize_score(-3.25, 1) == -3.25

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            normalize_score(-1.0, 0)


class TestDomainStats:
    def test_hand_computed_mean_and_population_stdev(self):
        corpus, translations = scored_corpus()
        stats = compute_domain_stats(corpus, translations)
        assert set(stats) == {"Music"}
        st = stats["Music"]
        assert st.mean == pytest.approx(-2.5, abs=1e-12)
        assert st.stdev == pytest.approx(math.sqrt(1.25), abs=1e-12)
        assert st.count == 4

    def test_single_utterance_domain_has_zero_stdev(self):
        corpus = [utt("u1", "I", "w", domain="Solo")]
        translations = {
            "u1": TranslationResult(("x",), frozenset(), zero_scores(-2.0))
        }
        st = compute_domain_stats(corpus, translations)["Solo"]
        assert st.mean == -2.0 and st.stdev == 0.0 and st.count == 1

    def test_domains_are_partitioned(self):
        corpus = [
            utt("a", "I", "w", domain="X"),
            utt("b", "I", "w", domain="Y"),
            utt("c", "I", "w", domain="X"),
        ]
        translations = {
            "a": TranslationResult(("x",), frozenset(), zero_scores(-1.0)),
            "b": TranslationResult(("x",), frozenset(), zero_scores(-9.0)),
            "c": TranslationResult(("x",), frozenset(), zero_scores(-3.0)),
        }
        stats = compute_domain_stats(corpus, translations)
        assert stats["X"].mean == -2.0 and stats["X"].count == 2
        assert stats["Y"].mean == -9.0 and stats["Y"].count == 1

    def test_missing_translation_is_an_error(self):
        corpus = [utt("u1", "I", "w")]
        with pytest.raises(ConfigError):
            compute_domain_stats(corpus, {})

    @pytest.mark.parametrize("scores, mean, stdev", [
        # every score is finite, and so are the mean and stdev, but fmean's
        # sum is not, nor the variance that pstdev rounds to a float before
        # Python 3.11
        ([1.5 * 2.0**1022, 2.0**1021, 1.5 * 2.0**1022, 2.0**1021], 2.0**1022, 2.0**1021),
        # the sum is finite, the variance is not
        ([-(2.0**1022), 2.0**1022], 0.0, 2.0**1022),
    ])
    def test_scores_whose_sums_pass_the_float_maximum(self, scores, mean, stdev):
        corpus = [utt("u%d" % i, "I", "w") for i in range(len(scores))]
        translations = {u.id: TranslationResult(("x",), frozenset(), zero_scores(score))
                        for u, score in zip(corpus, scores)}
        st = compute_domain_stats(corpus, translations)["D"]
        assert (st.mean, st.stdev, st.count) == (mean, stdev, len(scores))
        out = score_filter(corpus, translations, {"D": st}, k=0.0)
        assert [u.id for u in out.kept] == [u.id for u, x in zip(corpus, scores) if x >= mean]

    def test_scores_in_the_float_range_keep_fmean_and_pstdev(self):
        gen = random.Random(5)
        scores = [gen.uniform(-50.0, 0.0) for _ in range(200)]
        corpus = [utt("u%d" % i, "I", "w") for i in range(len(scores))]
        translations = {u.id: TranslationResult(("x",), frozenset(), zero_scores(score))
                        for u, score in zip(corpus, scores)}
        st = compute_domain_stats(corpus, translations)["D"]
        assert (st.mean, st.stdev) == (statistics.fmean(scores), statistics.pstdev(scores))


class TestScoreFilter:
    def test_k_zero_keeps_scores_at_or_above_mean(self):
        corpus, translations = scored_corpus()
        stats = compute_domain_stats(corpus, translations)
        out = score_filter(corpus, translations, stats, k=0.0)
        assert [u.id for u in out.kept] == ["u1", "u2"]
        assert out.removed == [("u3", BELOW_THRESHOLD), ("u4", BELOW_THRESHOLD)]

    def test_negative_k_widens_the_kept_set(self):
        corpus, translations = scored_corpus()
        stats = compute_domain_stats(corpus, translations)
        out = score_filter(corpus, translations, stats, k=-0.5)
        assert [u.id for u in out.kept] == ["u1", "u2", "u3"]

    def test_k_none_keeps_all(self):
        corpus, translations = scored_corpus()
        stats = compute_domain_stats(corpus, translations)
        out = score_filter(corpus, translations, stats, k=None)
        assert len(out.kept) == 4 and out.removed == []

    def test_threshold_is_inclusive(self):
        # normalized score exactly at mean + k*stdev is kept
        corpus = [utt("a", "I", "w"), utt("b", "I", "w")]
        translations = {
            "a": TranslationResult(("x",), frozenset(), zero_scores(-1.0)),
            "b": TranslationResult(("x",), frozenset(), zero_scores(-3.0)),
        }
        stats = {"D": DomainStats(-2.0, 1.0, 2)}
        out = score_filter(corpus, translations, stats, k=-1.0)
        assert [u.id for u in out.kept] == ["a", "b"]

    def test_kept_sets_nest_as_k_grows(self):
        rng = random.Random(7)
        corpus = []
        translations = {}
        for i in range(60):
            uid = "u%d" % i
            corpus.append(utt(uid, "I", "w", domain=rng.choice(["A", "B", "C"])))
            length = rng.randint(1, 6)
            translations[uid] = TranslationResult(
                tuple("t%d" % j for j in range(length)), frozenset(),
                zero_scores(rng.uniform(-30, 0)),
            )
        stats = compute_domain_stats(corpus, translations)
        previous = None
        for k in (-1.5, -0.5, 0.0, 0.25, 0.5, 1.0):
            kept = {u.id for u in score_filter(corpus, translations, stats, k).kept}
            if previous is not None:
                assert kept <= previous
            previous = kept

    def test_scores_equal_up_to_rounding_are_all_kept(self):
        # word-for-word translations score -1.1 per token, so each domain's
        # stdev is rounding noise of about 1e-16
        corpus = toytask.sample_source(200, seed=21)
        translations, _ = toytask.forward_results(corpus)
        stats = compute_domain_stats(corpus, translations)
        for k in (-1.0, 0.0, 1.0):
            assert score_filter(corpus, translations, stats, k).removed == []

    def test_missing_domain_stats_is_an_error(self):
        corpus, translations = scored_corpus()
        with pytest.raises(ConfigError):
            score_filter(corpus, translations, {}, k=0.0)

    def test_partition_accounting(self):
        corpus, translations = scored_corpus()
        stats = compute_domain_stats(corpus, translations)
        out = score_filter(corpus, translations, stats, k=0.25)
        assert len(out.kept) + len(out.removed) == len(corpus)
        assert out.stats.get(BELOW_THRESHOLD, 0) == len(out.removed)


class TestFilterConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            FilterConfig(mode="BOGUS")

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigError):
            FilterConfig(confidence_threshold=1.5)

    def test_outcome_stats_counts_reasons(self):
        out = FilterOutcome([], [("a", "X"), ("b", "X"), ("c", "Y")])
        assert out.stats == {"X": 2, "Y": 1}
