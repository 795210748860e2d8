"""Catalog resampling, source-value retention, and their combination."""

import random

import pytest

from mtnlu.corpus import (
    Catalog,
    CatalogEntry,
    Utterance,
    make_span,
    parse_annotated_line,
    serialize_utterance,
)
from mtnlu.errors import ConfigError
from mtnlu.postprocess import (
    MULTIPLICITY_MISMATCH,
    PostprocessConfig,
    combined_postprocess,
    replace_slot_values,
    resample_slots,
    retain_original_slots,
)


def catalog(slot_type, *weighted):
    return Catalog(
        slot_type,
        tuple(CatalogEntry(tuple(text.split()), w) for text, w in weighted),
    )


def utt(uid, text, slots=(), domain="D", intent="I"):
    tokens = tuple(text.split())
    spans = tuple(make_span(tokens, t, a, b) for t, a, b in slots)
    return Utterance(uid, domain, intent, tokens, spans)


class TestReplaceSlotValues:
    def test_empty_replacement_is_identity(self):
        u = utt("u1", "play queen now", [("Artist", 1, 2)])
        assert replace_slot_values(u, {}) is u

    def test_shifts_later_spans(self):
        u = utt("u1", "play queen at home", [("Artist", 1, 2), ("Place", 3, 4)])
        out = replace_slot_values(u, {0: ("the", "rolling", "stones")})
        assert out.tokens == ("play", "the", "rolling", "stones", "at", "home")
        assert [(s.slot_type, s.start, s.end, s.value) for s in out.slots] == [
            ("Artist", 1, 4, "the rolling stones"),
            ("Place", 5, 6, "home"),
        ]

    def test_multiple_replacements(self):
        u = utt("u1", "from a to b", [("Src", 1, 2), ("Dst", 3, 4)])
        out = replace_slot_values(u, {0: ("x", "y"), 1: ("z",)})
        assert out.tokens == ("from", "x", "y", "to", "z")
        assert out.slots[0].value == "x y" and out.slots[1].value == "z"


class TestResample:
    def test_single_entry_catalog_rewrites_value(self):
        u = parse_annotated_line(
            "u1\tWeather\tGetWeather\thow is the weather in [new york](City)",
        )
        cfg = PostprocessConfig(resample_slots={"City"})
        (out,) = resample_slots([u], {"City": catalog("City", ("Berlin", 1.0))}, cfg, seed=1)
        assert serialize_utterance(out) == (
            "u1\tWeather\tGetWeather\thow is the weather in [berlin](City)"
        )

    def test_weighted_frequencies(self):
        cats = {"City": catalog("City", ("berlin", 3.0), ("hamburg", 1.0))}
        corpus = [utt("u%05d" % i, "go to x", [("City", 2, 3)]) for i in range(10000)]
        cfg = PostprocessConfig(resample_slots={"City"})
        out = resample_slots(corpus, cats, cfg, seed=5)
        share = sum(u.slots[0].value == "berlin" for u in out) / len(out)
        assert share == pytest.approx(0.75, abs=0.02)

    def test_empty_set_is_a_no_op(self):
        corpus = [utt("u1", "play queen", [("Artist", 1, 2)])]
        out = resample_slots(corpus, {}, PostprocessConfig(), seed=3)
        assert out == corpus

    def test_unconfigured_types_untouched(self):
        u = utt("u1", "play queen in berlin", [("Artist", 1, 2), ("City", 3, 4)])
        cats = {"Artist": catalog("Artist", ("abba", 1.0))}
        cfg = PostprocessConfig(resample_slots={"Artist"})
        (out,) = resample_slots([u], cats, cfg, seed=1)
        assert out.slots[0].value == "abba"
        assert out.slots[1].value == "berlin"
        assert out.tokens[0] == "play" and out.tokens[2] == "in"

    def test_missing_catalog_is_an_error(self):
        corpus = [utt("u1", "play queen", [("Artist", 1, 2)])]
        with pytest.raises(ConfigError, match="Artist"):
            resample_slots(corpus, {}, PostprocessConfig(resample_slots={"Artist"}))

    def test_order_independence(self):
        rng = random.Random(11)
        cats = {"Artist": catalog("Artist", ("a b", 1.0), ("c", 2.0), ("d e f", 0.5))}
        corpus = [
            utt("u%d" % i, "play x and y", [("Artist", 1, 2), ("Artist", 3, 4)])
            for i in range(40)
        ]
        cfg = PostprocessConfig(resample_slots={"Artist"})
        straight = {u.id: u for u in resample_slots(corpus, cats, cfg, seed=9)}
        shuffled = list(corpus)
        rng.shuffle(shuffled)
        reordered = {u.id: u for u in resample_slots(shuffled, cats, cfg, seed=9)}
        assert straight == reordered

    def test_same_seed_is_byte_identical(self):
        cats = {"Artist": catalog("Artist", ("a", 1.0), ("b", 1.0))}
        corpus = [utt("u%d" % i, "play x", [("Artist", 1, 2)]) for i in range(50)]
        cfg = PostprocessConfig(resample_slots={"Artist"})
        first = [serialize_utterance(u) for u in resample_slots(corpus, cats, cfg, seed=2)]
        second = [serialize_utterance(u) for u in resample_slots(corpus, cats, cfg, seed=2)]
        assert first == second


class TestRetain:
    def test_restores_source_value(self):
        source = parse_annotated_line(
            "t1\tMusic\tPlay\tplay [we are the champions](SongName)"
        )
        translated = parse_annotated_line(
            "t1\tMusic\tPlay\tspiel [wir sind die champions](SongName)"
        )
        cfg = PostprocessConfig(retain_original_slots={"SongName"})
        (out,) = retain_original_slots([translated], [source], cfg)
        assert out.slots[0].value == "we are the champions"
        assert out.tokens == ("spiel", "we", "are", "the", "champions")

    def test_empty_set_is_a_no_op(self):
        corpus = [utt("t1", "spiel x", [("SongName", 1, 2)])]
        assert retain_original_slots(corpus, [], PostprocessConfig()) == corpus

    def test_occurrence_order_pairing(self):
        source = utt("t1", "from a to b", [("City", 1, 2), ("City", 3, 4)])
        translated = utt("t1", "von x nach y", [("City", 1, 2), ("City", 3, 4)])
        cfg = PostprocessConfig(retain_original_slots={"City"})
        (out,) = retain_original_slots([translated], [source], cfg)
        assert out.slots[0].value == "a" and out.slots[1].value == "b"

    def test_multiplicity_mismatch_passes_through(self):
        source = utt("t1", "play a and b", [("Artist", 1, 2), ("Artist", 3, 4)])
        translated = utt("t1", "spiel nur x", [("Artist", 2, 3)])
        cfg = PostprocessConfig(retain_original_slots={"Artist"})
        stats = {}
        (out,) = retain_original_slots([translated], [source], cfg, stats=stats)
        assert out == translated
        assert stats == {MULTIPLICITY_MISMATCH: 1}

    def test_dangling_source_id_is_an_error(self):
        source = utt("t1", "play x", [("Artist", 1, 2)])
        translated = utt("missing", "spiel x", [("Artist", 1, 2)])
        cfg = PostprocessConfig(retain_original_slots={"Artist"})
        with pytest.raises(ConfigError, match="missing"):
            retain_original_slots([translated], [source], cfg)


def mixed_fixture(n=1, p=0.5):
    source = [
        utt("t%d" % i, "play orig now", [("Artist", 1, 2)])
        for i in range(n)
    ]
    translated = [
        utt("t%d" % i, "spiel foo jetzt", [("Artist", 1, 2)])
        for i in range(n)
    ]
    cats = {"Artist": catalog("Artist", ("cat", 1.0))}
    cfg = PostprocessConfig(
        resample_slots={"Artist"}, retain_original_slots={"Artist"}, mix_probability=p,
    )
    return source, translated, cats, cfg


class TestCombined:
    def test_disjoint_sets_compose(self):
        source = [utt("t1", "play orig by someone", [("Song", 1, 2), ("Artist", 3, 4)])]
        translated = [utt("t1", "spiel foo von bar", [("Song", 1, 2), ("Artist", 3, 4)])]
        cats = {"Artist": catalog("Artist", ("a b", 1.0), ("c", 1.0))}
        cfg = PostprocessConfig(resample_slots={"Artist"}, retain_original_slots={"Song"})
        combined = combined_postprocess(translated, source, cats, cfg, seed=4)
        staged = resample_slots(
            retain_original_slots(translated, source, cfg), cats, cfg, seed=4
        )
        assert combined == staged
        assert combined[0].slots[0].value == "orig"

    def test_p_one_equals_resampling_alone(self):
        source, translated, cats, cfg = mixed_fixture(n=30, p=1.0)
        combined = combined_postprocess(translated, source, cats, cfg, seed=7)
        assert combined == resample_slots(translated, cats, cfg, seed=7)

    def test_p_zero_equals_retention_alone(self):
        source, translated, cats, cfg = mixed_fixture(n=30, p=0.0)
        combined = combined_postprocess(translated, source, cats, cfg, seed=7)
        assert combined == retain_original_slots(translated, source, cfg)

    def test_mix_probability_frequencies(self):
        source, translated, cats, cfg = mixed_fixture(n=10000, p=0.3)
        out = combined_postprocess(translated, source, cats, cfg, seed=13)
        values = {u.slots[0].value for u in out}
        assert values == {"cat", "orig"}
        share = sum(u.slots[0].value == "cat" for u in out) / len(out)
        assert share == pytest.approx(0.3, abs=0.02)

    def test_identity_config_is_byte_identical(self):
        corpus = [utt("t%d" % i, "spiel foo", [("Artist", 1, 2)]) for i in range(5)]
        out = combined_postprocess(corpus, [], {}, PostprocessConfig(), seed=1)
        assert [serialize_utterance(u) for u in out] == [
            serialize_utterance(u) for u in corpus
        ]


def golden_fixture():
    """Overlapping sets, weighted catalogs with a zero weight, and two
    multiplicity mismatches (Song in t2, City in t4)."""
    source = [parse_annotated_line(text) for text in [
        "t1\tMusic\tPlay\tplay [yesterday](Song) by [the beatles](Artist) in [london](City)",
        "t2\tMusic\tPlay\tplay [help](Song) and [let it be](Song) by [the beatles](Artist)",
        "t3\tInfo\tWeather\tweather in [paris](City) and [rome](City)",
        "t4\tMusic\tPlay\tplay [abba](Artist) in [oslo](City)",
        "t5\tInfo\tWeather\tweather in [new york](City) at [noon](Time)",
    ]]
    translated = [parse_annotated_line(text) for text in [
        "t1\tMusic\tPlay\tspiel [gestern](Song) von [die beatles](Artist) in [londres](City)",
        "t2\tMusic\tPlay\tspiel [hilfe und lass es sein](Song) von [die beatles](Artist)",
        "t3\tInfo\tWeather\twetter in [parigi](City) und [rom](City)",
        "t4\tMusic\tPlay\tspiel [abba](Artist) in [oslo](City) und [bergen](City)",
        "t5\tInfo\tWeather\twetter in [neu york](City) um [mittag](Time)",
    ]]
    cats = {
        "City": catalog("City", ("berlin", 3.0), ("bad homburg", 1.0), ("nowhere", 0.0),
                        ("köln", 2.0)),
        "Artist": catalog("Artist", ("die toten hosen", 1.0), ("nena", 1.0)),
    }
    cfg = PostprocessConfig(resample_slots={"City", "Artist"},
                            retain_original_slots={"City", "Song"},
                            mix_probability=0.3)
    return source, translated, cats, cfg


class TestGolden:
    """Outputs and stats pinned from the two-pass implementation this one
    replaced (retention, then a resampling pass over its output)."""

    def run(self, which):
        source, translated, cats, cfg = golden_fixture()
        stats = {}
        out = {
            "combined": lambda: combined_postprocess(translated, source, cats, cfg, 11, stats),
            "resample": lambda: resample_slots(translated, cats, cfg, 11),
            "retain": lambda: retain_original_slots(translated, source, cfg, stats),
        }[which]()
        return [serialize_utterance(u).split("\t")[3] for u in out], stats

    def test_combined(self):
        assert self.run("combined") == ([
            "spiel [yesterday](Song) von [nena](Artist) in [london](City)",
            "spiel [hilfe und lass es sein](Song) von [die toten hosen](Artist)",
            "wetter in [paris](City) und [köln](City)",
            "spiel [die toten hosen](Artist) in [oslo](City) und [bad homburg](City)",
            "wetter in [bad homburg](City) um [mittag](Time)",
        ], {MULTIPLICITY_MISMATCH: 2})

    def test_resample(self):
        assert self.run("resample") == ([
            "spiel [gestern](Song) von [nena](Artist) in [köln](City)",
            "spiel [hilfe und lass es sein](Song) von [die toten hosen](Artist)",
            "wetter in [köln](City) und [köln](City)",
            "spiel [die toten hosen](Artist) in [bad homburg](City) und [berlin](City)",
            "wetter in [bad homburg](City) um [mittag](Time)",
        ], {})

    def test_retain(self):
        assert self.run("retain") == ([
            "spiel [yesterday](Song) von [die beatles](Artist) in [london](City)",
            "spiel [hilfe und lass es sein](Song) von [die beatles](Artist)",
            "wetter in [paris](City) und [rome](City)",
            "spiel [abba](Artist) in [oslo](City) und [bergen](City)",
            "wetter in [new york](City) um [mittag](Time)",
        ], {MULTIPLICITY_MISMATCH: 2})

    def test_missing_source_is_reported_before_a_missing_catalog(self):
        source, translated, _, cfg = golden_fixture()
        orphan = utt("t9", "spiel x", [("Song", 1, 2)])
        with pytest.raises(ConfigError, match="t9"):
            combined_postprocess(translated + [orphan], source, {}, cfg)


class TestInvariantsOnRandomLayouts:
    def test_reindexing_preserves_structure(self):
        rng = random.Random(21)
        cats = {
            "A": catalog("A", ("one", 1.0), ("two three", 1.0), ("four five six", 1.0)),
            "B": catalog("B", ("x", 1.0), ("y z", 1.0)),
        }
        for case in range(200):
            n = rng.randint(1, 10)
            tokens = tuple("w%d" % j for j in range(n))
            spans = []
            j = 0
            while j < n:
                if rng.random() < 0.5:
                    end = min(n, j + rng.randint(1, 3))
                    spans.append((rng.choice(["A", "B", "C"]), j, end))
                    j = end
                else:
                    j += 1
            u = utt("u%d" % case, " ".join(tokens), spans)
            cfg = PostprocessConfig(resample_slots={"A", "B"})
            (out,) = resample_slots([u], cats, cfg, seed=case)
            # round-trips through the serialized format => invariants hold
            assert parse_annotated_line(serialize_utterance(out)) == \
                Utterance(out.id, out.domain, out.intent, out.tokens, out.slots)
            # non-slot tokens and non-configured values survive unchanged
            def outside(utterance):
                kept, cursor = [], 0
                for s in utterance.slots:
                    kept.extend(utterance.tokens[cursor:s.start])
                    cursor = s.end
                kept.extend(utterance.tokens[cursor:])
                return kept

            assert outside(out) == outside(u)
            for before, after in zip(u.slots, out.slots):
                assert before.slot_type == after.slot_type
                if before.slot_type == "C":
                    assert before.value == after.value


class TestConfig:
    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigError):
            PostprocessConfig(mix_probability=1.5)

    def test_coerces_sets(self):
        cfg = PostprocessConfig(resample_slots=["A", "B"])
        assert cfg.resample_slots == frozenset({"A", "B"})
