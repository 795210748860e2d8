"""Decoder, score combination, projection, and translation files."""

import hashlib
import math
import random

import pytest

from mtnlu.corpus import Utterance, make_span
from mtnlu import translate
from mtnlu.errors import FormatError
from mtnlu.translate import (
    OOV_PENALTY,
    OVERLAP,
    UNALIGNED_SLOT,
    BigramLM,
    FileTranslator,
    PhraseTableModel,
    PhraseTableTranslator,
    ProjectionRejected,
    TranslationResult,
    TranslationScores,
    combined_score,
    decode,
    load_phrase_table,
    load_translations,
    project_annotations,
    save_translations,
)
import toytask
from oracles import enumerate_best_translation


def scores_for(total=0.0):
    return TranslationScores(0.0, 0.0, 0.0, 0.0, total)


class TestCombinedScore:
    def test_hand_example(self):
        assert combined_score((-1.0, -2.0, -3.0, 1.0), (1.0, 1.0, 1.0, -1.0)) == -7.0

    def test_zero_weights(self):
        assert combined_score((5.0, -3.0, 2.0, 9.0), (0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_unit_weight_extracts_component(self):
        assert combined_score((5.0, -3.0, 2.0, 9.0), (0.0, 1.0, 0.0, 0.0)) == -3.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            combined_score((1.0, 2.0), (1.0,))

    def test_linear_in_weights(self):
        rng = random.Random(3)
        for _ in range(50):
            c = [rng.uniform(-5, 5) for _ in range(4)]
            w = [rng.uniform(-2, 2) for _ in range(4)]
            assert combined_score(c, [2 * x for x in w]) == pytest.approx(
                2 * combined_score(c, w), abs=1e-12
            )


class TestTranslationResult:
    def test_alignment_out_of_range(self):
        with pytest.raises(ValueError):
            TranslationResult(("a",), frozenset({(0, 1)}), scores_for())

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            TranslationResult((), frozenset(), scores_for())


class TestBigramLM:
    def test_conditionals_sum_to_one(self):
        lm = BigramLM([["a", "b", "a"], ["b", "b"]], alpha=0.5)
        vocab = ["a", "b", BigramLM.EOS]
        for ctx in [BigramLM.BOS, "a", "b"]:
            total = sum(math.exp(lm.logprob(ctx, w)) for w in vocab)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_seen_bigram_beats_unseen(self):
        lm = BigramLM([["a", "b"]], alpha=0.1)
        assert lm.logprob("a", "b") > lm.logprob("b", "a")


def toy_model(**kwargs):
    pairs = [
        (("hallo",), ("hello",), -0.5),
        (("wie", "geht"), ("how", "goes"), -0.2),
        (("wie",), ("how",), -0.7),
        (("geht",), ("goes",), -0.9),
        (("es",), ("it",), -0.3),
    ]
    return PhraseTableModel.from_pairs(pairs, **kwargs)


class TestDecode:
    def test_identity_single_token(self):
        model = PhraseTableModel.from_pairs([(("hi",), ("hi",), -0.5)])
        r = decode(["hi"], model)
        assert r.target_tokens == ("hi",)
        assert r.alignment == frozenset({(0, 0)})
        assert r.scores.tm == -0.5
        assert r.scores.reordering == 0.0
        assert r.scores.word_penalty == -1.0
        lm = model.lm
        assert r.scores.lm == pytest.approx(
            lm.logprob(BigramLM.BOS, "hi") + lm.logprob("hi", BigramLM.EOS)
        )
        assert r.scores.weighted_total == pytest.approx(
            combined_score(r.scores.components(), model.weights)
        )

    def test_oov_identity_fallback(self):
        model = toy_model()
        r = decode(["zzz"], model)
        assert r.target_tokens == ("zzz",)
        assert r.scores.tm == OOV_PENALTY == -10.0

    def test_zero_weights_scores_zero(self):
        model = toy_model(weights=(0.0, 0.0, 0.0, 0.0))
        r = decode(["wie", "geht", "es"], model)
        assert r.scores.weighted_total == 0.0
        assert r.target_tokens  # a valid hypothesis is still produced

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            decode([], toy_model())

    def test_full_bipartite_phrase_alignment(self):
        # the two-word phrase pair outscores the word-by-word derivation
        model = toy_model()
        r = decode(["wie", "geht"], model)
        assert r.target_tokens == ("how", "goes")
        assert r.scores.tm == -0.2
        assert r.alignment == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})

    def test_reordering_beats_monotone_when_lm_prefers_it(self):
        pairs = [(("a",), ("x",), -1.0), (("b",), ("y",), -1.0)]
        model = PhraseTableModel.from_pairs(
            pairs, lm_sentences=[["y", "x"]] * 5, weights=(1.0, 1.0, 1.0, 0.0)
        )
        r = decode(["a", "b"], model)
        assert r.target_tokens == ("y", "x")
        assert r.alignment == frozenset({(0, 1), (1, 0)})
        assert r.scores.reordering == -3.0

    def test_jump_limit_forces_monotone(self):
        pairs = [(("a",), ("x",), -1.0), (("b",), ("y",), -1.0)]
        model = PhraseTableModel.from_pairs(
            pairs, lm_sentences=[["y", "x"]] * 5, weights=(1.0, 1.0, 1.0, 0.0),
            max_jump=0,
        )
        r = decode(["a", "b"], model)
        assert r.target_tokens == ("x", "y")

    def test_matches_exhaustive_enumeration_handcrafted(self):
        model = toy_model(weights=(1.0, 0.8, 0.6, -0.2))
        for sent in [["hallo"], ["wie", "geht"], ["wie", "geht", "es"], ["es", "wie", "zzz"]]:
            r = decode(sent, model)
            total, target, components = enumerate_best_translation(sent, model)
            assert r.target_tokens == target
            assert r.scores.weighted_total == pytest.approx(total, abs=1e-9)
            assert r.scores.components() == pytest.approx(components, abs=1e-9)

    def test_decode_is_deterministic(self):
        model = toy_model()
        a = decode(["wie", "geht", "es"], model)
        b = decode(["wie", "geht", "es"], model)
        assert a == b

    def test_scores_add_left_to_right_on_every_python(self, monkeypatch):
        """From Python 3.12 on, built-in `sum` compensates its rounding and
        gives 0.1 + 0.2 + 0.3 == 0.6; the scores must not change with it."""
        pairs = [(("a",), ("x",), 0.1), (("b",), ("y",), 0.2), (("c",), ("z",), 0.3)]
        # with these weights a compensated sum also rounds the total otherwise
        model = PhraseTableModel.from_pairs(pairs, weights=(0.7, 0.3, 1.0, 0.1), max_jump=0)

        def check():
            scores = decode(["a", "b", "c"], model).scores
            assert scores.tm == 0.6000000000000001
            total = 0.0
            for c, w in zip(scores.components(), model.weights):
                total += c * w
            assert scores.weighted_total == total

        check()
        monkeypatch.setattr(translate, "sum", lambda values, start=0: start + math.fsum(values),
                            raising=False)
        check()


class TestDecodeTies:
    """Known answers for the decoder's tie rule: the higher score wins, an
    exact tie keeps the lexicographically smaller target, and on a full tie
    the first hypothesis generated stays."""

    def test_exact_tie_between_complete_translations(self):
        model = PhraseTableModel.from_pairs(
            [(("a",), ("y",), -1.0), (("a",), ("x",), -1.0)], weights=(1.0, 0.0, 0.0, 0.0)
        )
        assert decode(["a"], model).target_tokens == ("x",)

    def test_recombination_tie_inside_a_stack(self):
        # "y z" and "x z" meet under one key in the two-word stack
        pairs = [(("a",), ("y",), -1.0), (("a",), ("x",), -1.0),
                 (("b",), ("z",), -1.0), (("c",), ("w",), -1.0)]
        model = PhraseTableModel.from_pairs(
            pairs, weights=(1.0, 0.0, 0.0, 0.0), max_jump=0, beam_size=2
        )
        assert decode(["a", "b", "c"], model).target_tokens == ("x", "z", "w")

    def test_full_tie_keeps_first_generated(self):
        # the two-word phrase completes from the empty hypothesis, before
        # the word-by-word derivation of the same target and score
        pairs = [(("a",), ("x",), -1.0), (("b",), ("y",), -1.0), (("a", "b"), ("x", "y"), -2.0)]
        model = PhraseTableModel.from_pairs(pairs, weights=(1.0, 0.0, 0.0, 0.0))
        r = decode(["a", "b"], model)
        assert r.target_tokens == ("x", "y")
        assert r.alignment == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})

    def test_tie_heavy_tables_decode_as_recorded(self):
        # scores rounded to 1e-9 so that a last-bit difference in libm's
        # log does not change the digest
        rng = random.Random(21)
        digest = hashlib.sha256()
        for _ in range(300):
            sent, model = tie_heavy_case(rng)
            r = decode(sent, model)
            scores = r.scores.components() + (r.scores.weighted_total,)
            rounded = [round(s, 9) + 0.0 for s in scores]  # + 0.0 turns -0.0 into 0.0
            digest.update(repr((r.target_tokens, sorted(r.alignment), rounded)).encode())
        assert digest.hexdigest() == (
            "50da4856598785cf493a10b5dc8d3cc1ceecc597cbb5154b76d77bc63c2d87c1")


_TIE_SCORES = (0.0, -0.5, -1.0, -1.5, -2.0)
_TIE_WEIGHTS = ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0),
                (1.0, 0.5, 0.0, -0.5))


def tie_heavy_case(rng):
    """A random sentence and phrase table whose phrase scores come from a
    five-value set, so that exact ties between hypotheses are common; the
    beam holds one or two hypotheses, so pruning is exercised too."""
    pairs = [
        (tuple(rng.choice("abcd") for _ in range(rng.randint(1, 2))),
         tuple(rng.choice("wxyz") for _ in range(rng.randint(1, 2))),
         rng.choice(_TIE_SCORES))
        for _ in range(rng.randint(1, 8))
    ]
    model = PhraseTableModel.from_pairs(
        pairs, weights=rng.choice(_TIE_WEIGHTS), max_jump=rng.randint(0, 3),
        beam_size=rng.randint(1, 2),
    )
    return [rng.choice("abcd") for _ in range(rng.randint(1, 5))], model


def swapped_bigram_pairs():
    """Two options per toy word, plus every adjacent bigram of a toy sample
    mapped to its swapped image: many cheap reordered hypotheses compete."""
    pairs = []
    for w in toytask.vocabulary():
        pairs += [((w,), (w + "_de",), -0.1), ((w,), (w + "_x",), -0.7)]
    bigrams = sorted({
        (a, b)
        for u in toytask.sample_source(400, seed=3)
        for a, b in zip(u.tokens, u.tokens[1:])
    })
    pairs += [((a, b), (b + "_de", a + "_de"), -0.3) for a, b in bigrams]
    return pairs


class TestDecodeBeamPruning:
    """A narrow beam must not end up holding only hypotheses that left a
    gap too far behind to ever be covered."""

    def test_narrow_beam_matches_wide_beam(self):
        sent = (
            "my alarm at nine am set alarm for nine am weather in new york "
            "at five pm buy blue jacket"
        ).split()
        pairs = swapped_bigram_pairs()
        narrow = decode(sent, PhraseTableModel.from_pairs(pairs, max_jump=2, beam_size=100))
        wide = decode(sent, PhraseTableModel.from_pairs(pairs, max_jump=2, beam_size=1000))
        assert narrow == wide

    def test_random_long_inputs_decode_at_beam_ten(self):
        model = PhraseTableModel.from_pairs(
            swapped_bigram_pairs(), max_jump=2, beam_size=10
        )
        rng = random.Random(0)
        vocab = sorted(toytask.vocabulary())
        for _ in range(20):
            sent = [rng.choice(vocab) for _ in range(20)]
            r = decode(sent, model)
            assert {s for s, _ in r.alignment} == set(range(20))


class TestProjection:
    def test_monotone_identity_projects_losslessly(self):
        rng = random.Random(11)
        words = ["w%d" % i for i in range(12)]
        for case in range(100):
            n = rng.randint(1, 8)
            tokens = tuple(rng.choice(words) for _ in range(n))
            slots = []
            i = 0
            while i < n:
                if rng.random() < 0.5:
                    j = min(n, i + rng.randint(1, 2))
                    slots.append(make_span(tokens, "T%d" % rng.randint(0, 2), i, j))
                    i = j
                else:
                    i += 1
            u = Utterance("u%d" % case, "D", "I", tokens, tuple(slots))
            r = TranslationResult(
                tokens, frozenset((i, i) for i in range(n)), scores_for()
            )
            p = project_annotations(u, r)
            assert p.tokens == u.tokens
            assert p.slots == u.slots
            assert p.intent == u.intent and p.domain == u.domain
            assert p.id == u.id

    def test_insertion_shifts_span(self):
        src_tokens = ("how", "is", "the", "weather", "in", "new", "york")
        u = Utterance(
            "u1", "Weather", "GetWeather", src_tokens,
            (make_span(src_tokens, "City", 5, 7),),
        )
        tgt = ("wie", "ist", "das", "wetter", "in", "etwa", "new", "york")
        align = frozenset({(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 6), (6, 7)})
        p = project_annotations(u, TranslationResult(tgt, align, scores_for()))
        assert p.slots == (make_span(tgt, "City", 6, 8),)
        assert p.slots[0].value == "new york"

    def test_gap_tokens_absorbed_into_span(self):
        src = ("play", "beat", "it")
        u = Utterance("u1", "M", "P", src, (make_span(src, "Song", 1, 3),))
        tgt = ("spiele", "beat", "mal", "it")
        align = frozenset({(0, 0), (1, 1), (2, 3)})
        p = project_annotations(u, TranslationResult(tgt, align, scores_for()))
        assert p.slots == (make_span(tgt, "Song", 1, 4),)
        assert p.slots[0].value == "beat mal it"

    def test_unaligned_slot_rejected(self):
        src = ("play", "queen")
        u = Utterance("u1", "M", "P", src, (make_span(src, "Artist", 1, 2),))
        r = TranslationResult(("spiele",), frozenset({(0, 0)}), scores_for())
        with pytest.raises(ProjectionRejected) as err:
            project_annotations(u, r)
        assert err.value.reason == UNALIGNED_SLOT

    def test_overlapping_projection_rejected(self):
        src = ("a", "b")
        u = Utterance(
            "u1", "D", "I", src,
            (make_span(src, "X", 0, 1), make_span(src, "Y", 1, 2)),
        )
        r = TranslationResult(
            ("p", "q", "r"), frozenset({(0, 0), (0, 2), (1, 1)}), scores_for()
        )
        with pytest.raises(ProjectionRejected) as err:
            project_annotations(u, r)
        assert err.value.reason == OVERLAP

    def test_source_index_out_of_range_raises(self):
        u = Utterance("u1", "D", "I", ("a",))
        r = TranslationResult(("x",), frozenset({(5, 0)}), scores_for())
        with pytest.raises(ValueError):
            project_annotations(u, r)


class TestTranslationFiles:
    def test_load_basic(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(
            "u1\twie ist das wetter\t0-0 1-1 2-2 3-3\t-1.5\t-2.25\t0.0\t-4.0\t-7.75\n",
            encoding="utf-8",
        )
        results = load_translations(path)
        assert set(results) == {"u1"}
        r = results["u1"]
        assert r.target_tokens == ("wie", "ist", "das", "wetter")
        assert r.alignment == frozenset({(0, 0), (1, 1), (2, 2), (3, 3)})
        assert r.scores == TranslationScores(-1.5, -2.25, 0.0, -4.0, -7.75)

    def test_duplicate_id_keeps_last(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(
            "u1\ta\t0-0\t0\t0\t0\t0\t0\n" "u1\tb\t0-0\t0\t0\t0\t0\t0\n",
            encoding="utf-8",
        )
        results = load_translations(path)
        assert results["u1"].target_tokens == ("b",)

    def test_alignment_out_of_range_is_format_error(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("u1\ta b\t0-5\t0\t0\t0\t0\t0\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_translations(path)
        assert err.value.line_no == 1

    def test_bad_score_field(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("u1\ta\t0-0\tx\t0\t0\t0\t0\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_translations(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# nothing here\n", encoding="utf-8")
        assert load_translations(path) == {}

    def test_save_load_round_trip(self, tmp_path):
        model = toy_model()
        results = {
            "u1": decode(["wie", "geht", "es"], model),
            "u2": decode(["hallo"], model),
        }
        path = tmp_path / "t.tsv"
        save_translations(results, path)
        again = load_translations(path)
        assert again == results

    def test_save_is_deterministic(self, tmp_path):
        results = {
            "u1": TranslationResult(
                ("a", "b"), frozenset({(1, 0), (0, 1), (0, 0)}), scores_for(-2.0)
            )
        }
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_translations(results, p1)
        save_translations(results, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestPhraseTableFile:
    def test_load(self, tmp_path):
        path = tmp_path / "pt.txt"
        path.write_text(
            "wie geht ||| how goes ||| -0.2\nhallo ||| hello ||| -0.5\n",
            encoding="utf-8",
        )
        pairs = load_phrase_table(path)
        assert pairs == [
            (("wie", "geht"), ("how", "goes"), -0.2),
            (("hallo",), ("hello",), -0.5),
        ]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "pt.txt"
        path.write_text("wie ||| how\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_phrase_table(path)


class TestTranslators:
    def test_file_translator_missing_id_returns_none(self):
        ft = FileTranslator({})
        assert ft.translate(("a",), "u1") is None

    def test_phrase_table_translator(self):
        tr = PhraseTableTranslator(toy_model())
        r = tr.translate(("hallo",), "u9")
        assert r is not None
        assert r.target_tokens == ("hello",)
