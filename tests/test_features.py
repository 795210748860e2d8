"""Feature template behavior."""

import random
import statistics
import time

import pytest

from mtnlu.corpus import Catalog, CatalogEntry, Utterance, make_span
from mtnlu.nlu import (
    CrfModel,
    MaxEntModel,
    TrainingConfig,
    extract_features,
    intent_features,
    sequence_features,
    train_intent_classifier,
    train_slot_tagger,
)
from mtnlu.nlu.features import gazetteer_hits
from oracles import gazetteer_hits_linear_scan

CITY = {"City": Catalog("City", (CatalogEntry(("new", "york"), 1.0), CatalogEntry(("berlin",), 1.0)))}


class TestTaggerFeatures:
    def test_single_token_with_padding(self):
        feats = extract_features(("weiter",), 0)
        assert "w0=weiter" in feats
        assert "w-1=<BOS>" in feats and "w-2=<BOS>" in feats
        assert "w+1=<EOS>" in feats and "w+2=<EOS>" in feats
        assert "p1=w" in feats and "p3=wei" in feats
        assert "s1=r" in feats and "s3=ter" in feats

    def test_short_token_skips_long_affixes(self):
        feats = extract_features(("in",), 0)
        assert "p2=in" in feats and "s2=in" in feats
        assert not any(f.startswith(("p3=", "s3=")) for f in feats)

    def test_window_identities(self):
        feats = extract_features(("a", "b", "c", "d", "e"), 2)
        assert {"w-2=a", "w-1=b", "w0=c", "w+1=d", "w+2=e"} <= set(feats)

    def test_gazetteer_membership_single_token(self):
        feats = extract_features(("weather", "in", "berlin"), 2, CITY)
        assert "gaz:City" in feats
        assert "gaz:City" not in extract_features(("weather", "in", "berlin"), 1, CITY)

    def test_gazetteer_marks_every_entry_position(self):
        tokens = ("fly", "to", "new", "york", "now")
        assert "gaz:City" in extract_features(tokens, 2, CITY)
        assert "gaz:City" in extract_features(tokens, 3, CITY)
        assert "gaz:City" not in extract_features(tokens, 4, CITY)

    def test_partial_entry_does_not_fire(self):
        # "new" alone is not an occurrence of the bigram entry "new york"
        assert "gaz:City" not in extract_features(("new", "jersey"), 0, CITY)

    def test_matches_sequence_features(self):
        tokens = ("go", "to", "new", "york")
        seq = sequence_features(tokens, CITY)
        for i in range(len(tokens)):
            assert extract_features(tokens, i, CITY) == seq[i]

    def test_deterministic(self):
        tokens = ("go", "to", "berlin")
        assert extract_features(tokens, 2, CITY) == extract_features(tokens, 2, CITY)


class TestIntentFeatures:
    def test_bag_contents(self):
        feats = intent_features(("play", "abba"), None)
        assert "bias" in feats
        assert "bow=play" in feats and "bow=abba" in feats
        assert "bow2=play abba" in feats

    def test_gazetteer_presence(self):
        feats = intent_features(("visit", "berlin"), CITY)
        assert "gaz:City" in feats

    def test_sorted_and_deduplicated(self):
        feats = intent_features(("a", "a", "a"), None)
        assert feats == sorted(feats)
        assert feats.count("bow=a") == 1


def catalog(slot_type, *values):
    return Catalog(slot_type, tuple(CatalogEntry(tuple(v.split()), 1.0) for v in values))


WORDS = ["new", "york", "city", "rock", "the"]


def random_gazetteers(rng):
    """Up to three types over a five-word vocabulary, so entries often
    overlap across types, prefix each other and repeat in an utterance."""
    gazetteers = {}
    for slot_type in rng.sample(["City", "Song", "Band"], rng.randint(1, 3)):
        values = [
            " ".join(rng.choice(WORDS).capitalize() if rng.random() < 0.3 else rng.choice(WORDS)
                     for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 12))
        ]
        gazetteers[slot_type] = catalog(slot_type, *values)
    return gazetteers


class TestGazetteerIndex:
    def test_index_groups_entries_by_length(self):
        gaz = catalog("City", "New York", "berlin", "new york", "rio de janeiro")
        assert gaz.entries_by_length == {
            1: frozenset({("berlin",)}),
            2: frozenset({("new", "york")}),
            3: frozenset({("rio", "de", "janeiro")}),
        }

    def test_matches_linear_scan_on_random_inputs(self):
        rng = random.Random(41)
        for _ in range(500):
            gazetteers = random_gazetteers(rng)
            tokens = tuple(
                rng.choice(WORDS).upper() if rng.random() < 0.2 else rng.choice(WORDS)
                for _ in range(rng.randint(1, 7))
            )
            assert gazetteer_hits(tokens, gazetteers) == gazetteer_hits_linear_scan(tokens, gazetteers)

    @pytest.mark.parametrize(
        "tokens, gazetteers, expected",
        [
            # the same n-gram in two types, and overlapping entries of different types
            ("fly to new york", {"City": catalog("City", "new york"),
                                 "Song": catalog("Song", "new york", "to new")},
             [set(), {"Song"}, {"City", "Song"}, {"City", "Song"}]),
            # an entry that is a prefix of another
            ("new york city now", {"City": catalog("City", "new", "new york city")},
             [{"City"}, {"City"}, {"City"}, set()]),
            # an n-gram repeated inside the utterance
            ("rock rock rock", {"Genre": catalog("Genre", "rock rock")},
             [{"Genre"}] * 3),
            # mixed-case utterance tokens against a cased catalog value
            ("Play NEW York", {"City": catalog("City", "New YORK")},
             [set(), {"City"}, {"City"}]),
            # entries longer than the utterance
            ("york", {"City": catalog("City", "new york", "new york city")}, [set()]),
            ("berlin", None, [set()]),
            ("berlin", {}, [set()]),
        ],
    )
    def test_edge_cases(self, tokens, gazetteers, expected):
        tokens = tuple(tokens.split())
        assert gazetteer_hits(tokens, gazetteers) == expected
        assert gazetteer_hits_linear_scan(tokens, gazetteers) == expected

    def test_models_rebuild_the_index_after_loading(self, tmp_path):
        gazetteers = {"City": catalog("City", "Berlin", "new york"),
                      "Song": catalog("Song", "new york new york")}
        corpus = [
            Utterance("u1", "D", "Go", ("fly", "to", "berlin"),
                      (make_span(("fly", "to", "berlin"), "City", 2, 3),)),
            Utterance("u2", "D", "Play", ("play", "new", "york", "new", "york"),
                      (make_span(("play", "new", "york", "new", "york"), "Song", 1, 5),)),
        ]
        hyper = TrainingConfig(max_iterations=3)
        crf = train_slot_tagger(corpus, hyper, gazetteers)
        maxent = train_intent_classifier(corpus, hyper, gazetteers)
        probes = [("fly", "to", "new", "york"), ("play", "new", "york", "new", "york"),
                  ("berlin",), ("nothing", "here")]
        for model, cls, feature_ids in (
            (crf, CrfModel, lambda m, t: [ids.tolist() for ids in m.feature_ids(t)]),
            (maxent, MaxEntModel, lambda m, t: m.feature_ids(t).tolist()),
        ):
            path = tmp_path / ("%s.json" % cls.__name__)
            model.save(path)
            text = path.read_text(encoding="utf-8")
            assert "entries_by_length" not in text
            loaded = cls.load(path)
            assert all("entries_by_length" not in vars(c) for c in loaded.gazetteers.values())
            for tokens in probes:
                assert feature_ids(loaded, tokens) == feature_ids(model, tokens)
            loaded.save(path)
            assert path.read_text(encoding="utf-8") == text


def synthetic_catalog(n_entries, rng):
    words = ["w%d" % k for k in range(5000)]
    return Catalog("Artist", tuple(
        CatalogEntry(tuple(rng.choice(words) for _ in range(1 + k % 3)), 1.0)
        for k in range(n_entries)
    ))


def test_lookup_time_flat_in_catalog_size():
    rng = random.Random(3)
    tokens = ("play", "w1", "w2", "by", "w3", "w4", "w5", "on", "w6", "tonight", "w7", "w8")

    def seconds_per_call(n_entries):
        gazetteers = {"Artist": synthetic_catalog(n_entries, rng)}
        gazetteers["Artist"].entries_by_length  # build the index outside the timing
        samples = []
        for _ in range(15):
            start = time.perf_counter()
            for _ in range(20):
                gazetteer_hits(tokens, gazetteers)
            samples.append((time.perf_counter() - start) / 20)
        return statistics.median(samples)

    small = seconds_per_call(100)
    large = seconds_per_call(100_000)
    assert large <= 5 * small, (small, large)
